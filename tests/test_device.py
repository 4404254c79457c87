"""Device lifecycle tests: pure transitions plus small simulated flows."""

import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustshift import crypto, device, operators, pki, scenario, simnet, wire
from trustshift.device import DevicePhase
from trustshift.errors import (
    BadSignature,
    KeyCertMismatch,
    OutsideResetWindow,
    WrongPhase,
)
from trustshift.messages import (
    CertProfile,
    EnvelopeProfile,
    TransferMessage,
    Uri,
    VersionInfo,
    encode,
)
from trustshift.scenario import (
    CheckResult,
    ScenarioConfig,
    ScenarioOptions,
    run_scenario,
)

LIFETIME = (0, 10**9)


def build_world(variant="b", seed=21):
    h = pki.build_hierarchy(variant, random.Random(seed))
    h.trust_roots()
    key = crypto.generate_key_pair(crypto.digest(b"dev-key"))
    csr = pki.make_csr(b"dev-1", key, CertProfile.FACTORY)
    cert = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME)
    return h, key, cert


def provisioned_device(h, key, cert):
    state = device.DeviceState(device_id=b"dev-1")
    store = h.store_for(pki.minimal_truststore(h.variant,
                                               pki.TrustPhase.PRE_ENROLL))
    device.provision_factory(state, key, cert, store, h.ca1.enroll_uri,
                             update_uri=Uri("coaps://update.sp1.example"))
    return state


def _drop(src, dst, label=None):
    """An inline adversary rule dropping each frame `src` sends `dst`, or
    only those labelled `label`."""
    rule = {"action": "drop", "match_src": src, "match_dst": dst}
    if label is not None:
        rule["match_label"] = label
    return rule


def sample_transfer(nb=0, na=10_000):
    return TransferMessage(nb, na, None, Uri("coaps://update.sp2.example"),
                           False, Uri("coaps://ca2.example/est"),
                           Uri("coaps://update.sp1.example"))


# ---------------------------------------------------------------------------
# provisioning
# ---------------------------------------------------------------------------

def test_provision_sets_state():
    h, key, cert = build_world()
    state = provisioned_device(h, key, cert)
    assert state.phase is DevicePhase.PROVISIONED
    assert state.endpoints.ca_uri == h.ca1.enroll_uri
    assert state.truststore.root_names() == pki.minimal_truststore(
        "b", pki.TrustPhase.PRE_ENROLL)


def test_provision_key_mismatch():
    """Provisioning refuses a factory certificate for another key, and one
    that names another device."""
    h, key, cert = build_world()
    other = crypto.generate_key_pair(crypto.digest(b"other"))
    other_name = pki.issue_certificate(
        h.permanent, pki.make_csr(b"dev-2", key, CertProfile.FACTORY),
        CertProfile.FACTORY, LIFETIME)
    for bad_key, bad_cert in ((other, cert), (key, other_name)):
        state = device.DeviceState(device_id=b"dev-1")
        with pytest.raises(KeyCertMismatch):
            device.provision_factory(state, bad_key, bad_cert,
                                     pki.TrustStore(), h.ca1.enroll_uri)


def test_provision_twice_wrong_phase():
    h, key, cert = build_world()
    state = provisioned_device(h, key, cert)
    with pytest.raises(WrongPhase):
        device.provision_factory(state, key, cert, pki.TrustStore(),
                                 h.ca1.enroll_uri)


def test_phase_edges_enforced():
    state = device.DeviceState(device_id=b"d")
    with pytest.raises(WrongPhase):
        state.set_phase(DevicePhase.ENROLLED)
    state.set_phase(DevicePhase.PROVISIONED)
    with pytest.raises(WrongPhase):
        state.set_phase(DevicePhase.REENROLLED)


# ---------------------------------------------------------------------------
# transfer message handling
# ---------------------------------------------------------------------------

def enrolled_device_with_signer(signer_key):
    h, key, cert = build_world()
    state = provisioned_device(h, key, cert)
    state.sp1_signer_key = signer_key.public_key
    state.set_phase(DevicePhase.ENROLLED)
    return state


def test_transfer_accepted_inside_window():
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    state = enrolled_device_with_signer(signer)
    envelope = crypto.sign_envelope(signer, EnvelopeProfile.CWT,
                                    encode(sample_transfer()))
    device.handle_transfer_message(state, envelope, now=500)
    assert state.phase is DevicePhase.TRANSFER_PENDING
    assert state.pending_transfer == sample_transfer()


def test_transfer_unknown_signer_rejected():
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    stranger = crypto.generate_key_pair(crypto.digest(b"stranger"))
    state = enrolled_device_with_signer(signer)
    envelope = crypto.sign_envelope(stranger, EnvelopeProfile.CWT,
                                    encode(sample_transfer()))
    with pytest.raises(BadSignature):
        device.handle_transfer_message(state, envelope, now=500)
    assert state.phase is DevicePhase.ENROLLED


def test_transfer_sp2_signed_rejected():
    """Domain separation: a CWT signed by SP2 directly must not be accepted;
    the device verifies transfer CWTs under the SP1 signer key only."""
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    sp2 = crypto.generate_key_pair(crypto.digest(b"sp2"))
    state = enrolled_device_with_signer(signer)
    envelope = crypto.sign_envelope(sp2, EnvelopeProfile.CWT,
                                    encode(sample_transfer()))
    with pytest.raises(BadSignature):
        device.handle_transfer_message(state, envelope, now=500)


def test_transfer_update_list_profile_rejected():
    """An envelope the SP1 key signed as an update list is no transfer CWT."""
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    state = enrolled_device_with_signer(signer)
    envelope = crypto.sign_envelope(signer, EnvelopeProfile.UPDATE_LIST,
                                    encode(sample_transfer()))
    with pytest.raises(BadSignature):
        device.handle_transfer_message(state, envelope, now=500)
    assert state.phase is DevicePhase.ENROLLED


def test_transfer_outside_window_rejected():
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    state = enrolled_device_with_signer(signer)
    envelope = crypto.sign_envelope(signer, EnvelopeProfile.CWT,
                                    encode(sample_transfer(nb=100, na=200)))
    with pytest.raises(OutsideResetWindow):
        device.handle_transfer_message(state, envelope, now=201)
    with pytest.raises(OutsideResetWindow):
        device.handle_transfer_message(state, envelope, now=99)
    device.handle_transfer_message(state, envelope, now=200)


def test_transfer_wrong_phase():
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    h, key, cert = build_world()
    state = provisioned_device(h, key, cert)
    state.sp1_signer_key = signer.public_key
    envelope = crypto.sign_envelope(signer, EnvelopeProfile.CWT,
                                    encode(sample_transfer()))
    with pytest.raises(WrongPhase):
        device.handle_transfer_message(state, envelope, now=500)


# ---------------------------------------------------------------------------
# reset semantics
# ---------------------------------------------------------------------------

def reset_ready_device():
    signer = crypto.generate_key_pair(crypto.digest(b"sp1"))
    state = enrolled_device_with_signer(signer)
    op_key = crypto.generate_key_pair(crypto.digest(b"opkey"))
    state.operational_key = op_key
    state.operational_cert = state.factory_cert  # placeholder material
    envelope = crypto.sign_envelope(signer, EnvelopeProfile.CWT,
                                    encode(sample_transfer()))
    device.handle_transfer_message(state, envelope, now=500)
    return state


def test_reset_erases_sp1_material_and_applies_endpoints():
    state = reset_ready_device()
    assert state.sp1_signer_key is not None
    device.reset_to_agreed_state(state)
    assert state.phase is DevicePhase.RESET_DONE
    assert state.operational_key is None
    assert state.operational_cert is None
    assert state.sp1_signer_key is None
    assert state.pending_transfer is None
    assert state.endpoints.ca_uri == Uri("coaps://ca2.example/est")
    assert state.endpoints.update_uri == Uri("coaps://update.sp2.example")
    assert state.endpoints.fallback_uri == Uri("coaps://update.sp1.example")
    assert state.endpoints.ra_uri is None
    # factory identity and firmware survive
    assert state.factory_key is not None
    assert state.factory_cert is not None


def test_reset_keeps_only_persistent_roots():
    state = reset_ready_device()
    h2 = pki.build_hierarchy("a", random.Random(5))
    state.truststore.add_root(h2.ca2.certificate, persist=False)
    names_before = state.truststore.root_names()
    assert h2.ca2.name in names_before
    device.reset_to_agreed_state(state)
    assert h2.ca2.name not in state.truststore.root_names()


def test_reset_wrong_phase():
    h, key, cert = build_world()
    state = provisioned_device(h, key, cert)
    with pytest.raises(WrongPhase):
        device.reset_to_agreed_state(state)


def test_measure_firmware_changes_with_version():
    """The attestation report a device sends binds its firmware version."""
    state = device.DeviceState(device_id=b"d")
    nonce = b"\x00" * 16
    a = operators.ra_respond(state.firmware, nonce)
    state.firmware = VersionInfo(5, Uri("coaps://u/fw/5"))
    assert operators.ra_respond(state.firmware, nonce) != a


# ---------------------------------------------------------------------------
# simulated flows (operation contracts driven through small scenarios)
# ---------------------------------------------------------------------------

def test_initial_enroll_variant_b_issuer_ca1():
    result = run_scenario(ScenarioConfig(name="t", variant="b", device_count=1,
                                         seed=3))
    state = result.device_states["device-000"]
    assert state.phase is DevicePhase.REENROLLED
    # the pre-transfer certificate was CA1-issued: check the CA1 books
    ca1 = result.hierarchy.ca1
    issued_names = {c.subject_name for c in ca1.issued.values()
                    if c.profile is CertProfile.OPERATIONAL}
    assert b"device-000" in issued_names


def test_reenroll_key_differs_from_initial():
    result = run_scenario(ScenarioConfig(name="t", variant="c", device_count=1,
                                         seed=3))
    ca1, ca2 = result.hierarchy.ca1, result.hierarchy.ca2
    old_keys = {c.subject_public_key for c in ca1.issued.values()
                if c.profile is CertProfile.OPERATIONAL}
    state = result.device_states["device-000"]
    assert state.operational_cert.issuer_name == ca2.name
    assert state.operational_cert.subject_public_key not in old_keys


def test_server_keygen_path():
    cfg = ScenarioConfig(name="t", variant="b", device_count=1, seed=3,
                         options=ScenarioOptions(server_keygen=True))
    result = run_scenario(cfg)
    state = result.device_states["device-000"]
    assert state.phase is DevicePhase.REENROLLED
    assert state.operational_cert.subject_public_key \
        == state.operational_key.public_key


def test_ra_then_update_then_enroll_order():
    cfg = ScenarioConfig(name="t", variant="c", device_count=1, seed=3,
                         options=ScenarioOptions(
                             use_ra=True, contact_update_before_enroll=True))
    result = run_scenario(cfg)
    state = result.device_states["device-000"]
    assert state.phase is DevicePhase.REENROLLED
    phases = [e["to"] for e in result.trace.select("phase", actor="device-000")]
    assert phases == ["provisioned", "enrolled", "transferPending", "resetDone",
                      "attested", "updated", "reenrolled"]
    # update-server contact strictly precedes the CA2 enrollment on the wire
    update_time = min(e["t"] for e in result.trace.entries
                      if e["ev"] == "deliver" and e.get("dst") == "sp2"
                      and e.get("label") == "update_check"
                      and e["t"] > scenario.TRANSFER_START)
    enroll_time = min(e["t"] for e in result.trace.entries
                      if e["ev"] == "deliver" and e.get("dst") == "ca2"
                      and e.get("label") == "enroll_req")
    assert update_time < enroll_time


def test_ra_failure_routes_to_fallback():
    """A device that fails attestation, by tampered firmware or by a
    challenge that never arrives, falls back naming it; the other device
    re-enrolls."""
    from trustshift.scenario import ScenarioFaults
    for variant, seed, faults, adversary in (
            ("c", 3, ScenarioFaults(ra_tamper_devices=[0]), "none"),
            ("b", 1, ScenarioFaults(),
             [_drop("ra", "device-000", "ra_challenge")])):
        cfg = ScenarioConfig(name="t", variant=variant, device_count=2,
                             seed=seed, adversary=adversary,
                             options=ScenarioOptions(use_ra=True),
                             faults=faults,
                             expect_overrides={"device-000": "fallback"})
        result = run_scenario(cfg)
        assert result.ok
        assert result.device_states["device-000"].phase is DevicePhase.FALLBACK
        assert result.device_states["device-001"].phase \
            is DevicePhase.REENROLLED
        assert [e["reason"] for e in result.trace.select(
            "fallback_start", actor="device-000")] == ["ra_failed"]
        served = result.trace.select("fallback_served")
        assert any(e["device"] == "device-000" and e["reason"] == "ra_failed"
                   for e in served)


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_sp1_fallback_attests_a_device_whose_enrollment_is_dropped(variant):
    """With `sp1_fallback_ra`, SP1's fallback endpoint attests each device
    that falls back; an untampered one passes."""
    cfg = ScenarioConfig(name="t", variant=variant, device_count=2, seed=1,
                         adversary="drop_enroll",
                         options=ScenarioOptions(sp1_fallback_ra=True),
                         expect_default="fallback")
    result = run_scenario(cfg)
    assert result.ok
    assert [(e["actor"], e.typed("verdict"))
            for e in result.trace.select("fallback_ra")] \
        == [("device-000", True), ("device-001", True)]


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_sp1_fallback_attestation_fails_a_tampered_device(variant):
    """A device whose firmware fails SP2's attestation falls back to SP1,
    whose fallback attestation fails it too; the others re-enroll."""
    from trustshift.scenario import ScenarioFaults
    cfg = ScenarioConfig(name="t", variant=variant, device_count=3, seed=1,
                         options=ScenarioOptions(use_ra=True,
                                                 sp1_fallback_ra=True),
                         faults=ScenarioFaults(ra_tamper_devices=[1]),
                         expect_overrides={"device-001": "fallback"})
    result = run_scenario(cfg)
    assert result.ok
    assert [(e["actor"], e.typed("verdict"))
            for e in result.trace.select("fallback_ra")] \
        == [("device-001", False)]
    assert {d: s.phase for d, s in result.device_states.items()} == {
        "device-000": DevicePhase.REENROLLED,
        "device-001": DevicePhase.FALLBACK,
        "device-002": DevicePhase.REENROLLED,
    }


def _register_nothing(ca_actor, now, sess, msg):
    """A `CaActor._register` that acks as if it had registered the list
    and registers nothing. Only CA2 is sent a RegisterReq (CA1 registers
    the factory certificates in set-up), so CA2 refuses every enrollment."""
    return wire.RegisterRsp(True, str(ca_actor.ca.enroll_uri), 0, "")


def test_ca2_misregistration_routes_to_fallback(monkeypatch):
    """A device whose enrollment CA2 refuses falls back."""
    monkeypatch.setattr(operators.CaActor, "_register", _register_nothing)
    cfg = ScenarioConfig(name="t", variant="b", device_count=1, seed=3,
                         expect_default="fallback")
    result = run_scenario(cfg)
    assert result.ok
    reasons = [e["reason"] for e in result.trace.select("fallback_served")]
    assert reasons == ["enroll_failed:not_registered"]


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_operational_cert_verifies_against_own_truststore(variant):
    """Whenever a device holds an operational certificate, that certificate
    chain-verifies against the device's own truststore."""
    result = run_scenario(ScenarioConfig(name="inv", variant=variant,
                                         device_count=3, seed=12))
    final_time = result.trace.entries[-1]["t"]
    for state in result.device_states.values():
        assert state.phase is DevicePhase.REENROLLED
        check = pki.verify_chain(state.operational_cert,
                                 list(state.operational_chain),
                                 state.truststore, final_time, set())
        assert check, check.detail


def test_transfer_after_window_leaves_device_enrolled(monkeypatch):
    """A transfer arriving after the reset window closes is rejected on
    every push round and the device keeps operating under SP1."""
    monkeypatch.setattr(scenario, "RESET_WINDOW", (40, 45))
    cfg = ScenarioConfig(name="window", variant="b", device_count=1, seed=5,
                         expect_default="enrolled")
    result = run_scenario(cfg)
    assert result.ok
    reasons = {e["reason"] for e in result.trace.select("transfer_rejected")}
    assert reasons == {"OutsideResetWindow"}


def short_lived_certs_late_transfer(monkeypatch) -> None:
    """Operational certificates live 100 ticks; SP1 starts at t=300."""
    monkeypatch.setattr(operators, "OPERATIONAL_LIFETIME", 100)
    monkeypatch.setattr(scenario, "TRANSFER_START", 300)


def test_expiry_driven_reenrollment_loops_at_enrolled(monkeypatch):
    """Short-lived operational certificates are renewed with the current CA
    while the device waits for an operator change."""
    short_lived_certs_late_transfer(monkeypatch)
    cfg = ScenarioConfig(name="renew", variant="b", device_count=1, seed=3)
    result = run_scenario(cfg)
    assert result.ok
    renewed = result.trace.select("operational_cert_renewed",
                                  actor="device-000")
    assert renewed
    loops = [e for e in result.trace.select("phase", actor="device-000")
             if e["frm"] == "enrolled" and e["to"] == "enrolled"]
    assert len(loops) == len(renewed)
    serials = [e["serial"] for e in renewed]
    assert serials == sorted(serials)


def test_lossy_network_enroll_retry():
    """Deterministic 10% drop: retries still land every device in a terminal
    phase, and the drops are visible in the trace."""
    cfg = ScenarioConfig(name="t", variant="b", device_count=2, seed=6,
                         adversary="drop_10pct")
    result = run_scenario(cfg)
    assert all(o.phase in ("reenrolled", "fallback") for o in result.devices)
    assert result.trace.select("drop")


_EVIL_KEY = crypto.generate_key_pair(crypto.digest(b"evil-root"))
_EVIL_ROOT = pki._signed_cert(b"evil-root", _EVIL_KEY, 1, b"evil-root",
                              _EVIL_KEY.public_key, LIFETIME,
                              CertProfile.ROOT_CA)


@pytest.mark.parametrize("push", [
    wire.FinalUpdate(b"\xff"),
    wire.TrustPush((b"\xff",), True),
    wire.TrustPush((encode(_EVIL_ROOT), b"\xff"), True),
], ids=["final_update", "trust_push", "trust_push_valid_root_first"])
def test_malformed_push_answered_with_negative_ack(push):
    """A push record whose content does not decode, injected into the
    device's SP1 session, is refused with a negative ack and changes
    nothing: a valid root ahead of the bad one is not kept either. The run
    neither crashes nor loses the transfer."""
    rule = {"action": "inject", "match_src": "sp1", "match_dst": "device-*",
            "match_label": "update_rsp",
            "inject_payload_hex": wire.encode_wire(push).hex(),
            "frame_in_matched_session": True, "seq_offset": 1, "delay": 2}
    result = run_scenario(ScenarioConfig(name="malformed_push", variant="c",
                                         device_count=2, seed=5,
                                         adversary=[rule]))
    assert result.ok
    kind = "final" if isinstance(push, wire.FinalUpdate) else "trust"
    for device_id in (b"device-000", b"device-001"):
        assert result.sp1_state.acks[device_id][kind] is False
        state = result.device_states[device_id.decode()]
        assert b"evil-root" not in state.truststore.root_names()


_PLANTED_KEY = crypto.generate_key_pair(crypto.digest(b"planted-ca2"))
_PLANTED_CA2 = pki._signed_cert(b"ca2", _PLANTED_KEY, 1, b"ca2",
                                _PLANTED_KEY.public_key, LIFETIME,
                                CertProfile.ROOT_CA)


@pytest.mark.parametrize("variant", "abcd")
def test_planted_root_with_an_agreed_name_fails_fr4(variant):
    """A self-signed root named `ca2`, injected as a persistent TrustPush
    into the device's SP1 session, is kept across the reset. FR4 compares
    root certificates by the digest of their encodings, so it fails in
    every variant, also where an agreed root is named `ca2` (a and b)."""
    push = wire.TrustPush((encode(_PLANTED_CA2),), True)
    rule = {"action": "inject", "match_src": "sp1", "match_dst": "device-*",
            "match_label": "update_rsp",
            "inject_payload_hex": wire.encode_wire(push).hex(),
            "frame_in_matched_session": True, "seq_offset": 1}
    result = run_scenario(ScenarioConfig(name="planted_root", variant=variant,
                                         device_count=1, seed=5,
                                         adversary=[rule]))
    kept = result.device_states["device-000"].truststore.root(b"ca2")
    assert encode(kept) == encode(_PLANTED_CA2)
    checks = {check.name: check for check in result.checks}
    assert checks["fr4_backward_secrecy"] == CheckResult(
        "fr4_backward_secrecy", False, "device-000 kept roots ['ca2']")


# ---------------------------------------------------------------------------
# the answer to a push, handler-level
# ---------------------------------------------------------------------------

_SP1_SIGNER = crypto.generate_key_pair(crypto.digest(b"sp1"))
_PUSH_ACKS = {wire.TrustPush: wire.TrustAck, wire.FinalUpdate: wire.FinalAck,
              wire.TransferDeliver: wire.TransferAck}
_EVIL_ROOT_BYTES = encode(_EVIL_ROOT)
# Certificate bytes that decode: a root, a root whose signature does not
# verify, and a certificate that is no root.
_CERTS = [_EVIL_ROOT_BYTES,
          _EVIL_ROOT_BYTES[:-1] + bytes([_EVIL_ROOT_BYTES[-1] ^ 1]),
          encode(pki._signed_cert(b"evil-root", _EVIL_KEY, 2, b"leaf",
                                  _SP1_SIGNER.public_key, LIFETIME,
                                  CertProfile.OPERATIONAL))]
_URIS = st.text(min_size=1, max_size=12).map(Uri)
_VERSIONS = st.builds(VersionInfo, st.integers(0, 2**32), _URIS).map(encode)
_TRANSFERS = st.builds(
    lambda window, *claims: encode(TransferMessage(min(window), max(window),
                                                   *claims)),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)), st.none() | _URIS,
    _URIS, st.booleans(), _URIS, _URIS)
_ENVELOPES = st.builds(
    lambda key, profile, payload: encode(crypto.sign_envelope(key, profile,
                                                              payload)),
    st.sampled_from([_SP1_SIGNER, _EVIL_KEY]),
    st.sampled_from(EnvelopeProfile),
    _TRANSFERS | st.binary(min_size=1, max_size=60))
_FIELD_VALUES = {
    "bytes": st.binary(max_size=40), "int": st.integers(0, 2**64 - 1),
    "bool": st.booleans(), "str": st.text(max_size=20),
    "tuple": st.lists(st.binary(max_size=40), max_size=3).map(tuple)}
_OTHER_FRAMES = sorted((c for c in vars(wire).values()
                        if isinstance(c, type) and hasattr(c, "PREFIX")
                        and c not in _PUSH_ACKS), key=lambda c: c.PREFIX)
_MESSAGES = (
    st.builds(wire.TrustPush,
              st.lists(st.sampled_from(_CERTS) | st.binary(max_size=60),
                       max_size=3).map(tuple), st.booleans())
    | st.builds(wire.FinalUpdate, _VERSIONS | st.binary(max_size=40))
    | st.builds(wire.TransferDeliver, _ENVELOPES | st.binary(max_size=60))
    | st.sampled_from(_OTHER_FRAMES).flatmap(lambda cls: st.builds(
        cls, *[_FIELD_VALUES[f.type] for f in fields(cls)])))


@pytest.fixture(scope="module")
def parked_devices():
    """The device parked on its SP1 session, enrolled and, after a transfer
    for [0, 10000], transfer-pending."""
    enrolled = enrolled_device_with_signer(_SP1_SIGNER)
    pending = replace(enrolled)
    device.handle_transfer_message(pending, crypto.sign_envelope(
        _SP1_SIGNER, EnvelopeProfile.CWT, encode(sample_transfer())), now=500)
    return [enrolled, pending]


def _snapshot(state):
    return (state.truststore.root_names(),
            state.truststore.persistent_only().root_names(), state.firmware,
            state.phase, state.pending_transfer)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1]), _MESSAGES, st.integers(0, 3000))
def test_property_on_push_answers_every_push(parked_devices, which, msg, now):
    """In either parked phase, any push with any content gets an ack of its
    class and raises nothing, and a negative ack changes nothing; any other
    message gets None."""
    state = replace(parked_devices[which])
    before = _snapshot(state)
    trace = simnet.Trace()  # each note must fit its declared kind
    ack = device.on_push(state, msg, now, lambda kind, *values: trace.add(
        kind, now, "dev-1", *values))
    if type(msg) not in _PUSH_ACKS:
        assert ack is None
        assert _snapshot(state) == before
        return
    assert type(ack) is _PUSH_ACKS[type(msg)]
    if not ack.ok:
        assert _snapshot(state) == before


_GARBLED_UPDATE = wire.UpdateRsp(True, b"\xff")
_GHOST_REPORT = wire.RaReport(b"ghost", b"\x00" * 16, b"\x00" * 32)


@pytest.mark.parametrize("variant,options,match_dst,match_label,redirect,"
                         "record,expected", [
    ("c", {}, "sp1", "update_check", "device-000", _GARBLED_UPDATE,
     "reenrolled"),
    ("c", {"contact_update_before_enroll": True}, "sp2", "update_check",
     "device-000", _GARBLED_UPDATE, "fallback"),
    ("a", {"use_ra": True}, "ra", "ra_hello", None, _GHOST_REPORT,
     "reenrolled"),
], ids=["sp1_update_check", "post_reset_update_check", "ra_unknown_device"])
def test_single_injected_record_does_not_abort_run(variant, options, match_dst,
                                                   match_label, redirect,
                                                   record, expected):
    """One record injected into a device's session, carrying a firmware
    offer that does not decode or an attestation report for a device the
    verifier does not know, is answered inside the protocol instead of
    raising out of the run. A report in another name than the session's
    peer is refused without a verdict for that name."""
    rule = {"action": "inject", "match_src": "device-*",
            "match_dst": match_dst, "match_label": match_label,
            "redirect_dst": redirect,
            "inject_payload_hex": wire.encode_wire(record).hex(),
            "frame_in_matched_session": True, "seq_offset": 1, "delay": 0,
            "first_n": 1}
    result = run_scenario(ScenarioConfig(
        name="single_record", variant=variant, seed=5, adversary=[rule],
        options=ScenarioOptions(**options), expect_default=expected))
    assert result.ok
    if expected == "fallback":
        [served] = result.trace.select("fallback_served")
        assert served["reason"] == "update_failed"
    if record is _GHOST_REPORT:
        assert not result.trace.select("ra_verdict", device="ghost")


_EVIL_SEED = crypto.digest(b"evil-device-key")
_EVIL_LEAF = pki._signed_cert(
    b"evil-root", _EVIL_KEY, 2, b"device-000",
    crypto.generate_key_pair(_EVIL_SEED).public_key, LIFETIME,
    CertProfile.OPERATIONAL)


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_enroll_response_cannot_plant_a_root(variant):
    """An enrollment response is answered ahead of the CA's with an
    attacker-issued certificate plus the attacker's self-signed root. The
    device must not take the root into its truststore, so the certificate
    does not verify and the real response completes the enrollment."""
    forged = wire.EnrollRsp(True, encode(_EVIL_LEAF), _EVIL_SEED, (),
                            (encode(_EVIL_ROOT),), "")
    rule = {"action": "inject", "match_src": "device-*",
            "match_dst": "ca*", "match_label": "enroll_req",
            "redirect_dst": "device-000",
            "inject_payload_hex": wire.encode_wire(forged).hex(),
            "frame_in_matched_session": True, "seq_offset": 0, "delay": 0,
            "first_n": 1}
    result = run_scenario(ScenarioConfig(
        name="planted_root", variant=variant, seed=5, adversary=[rule],
        options=ScenarioOptions(server_keygen=True)))
    state = result.device_states["device-000"]
    assert b"evil-root" not in state.truststore.root_names()
    assert state.operational_cert.issuer_name != b"evil-root"
    assert result.ok


# ---------------------------------------------------------------------------
# failure paths of the device process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule, times", [
    (_drop("device-000", "ca1"), [33, 71, 109]),
    (_drop("ca1", "device-000", "enroll_rsp"), [35, 75, 115]),
], ids=["handshake", "enroll_reply"])
def test_initial_enrollment_gives_up_after_its_attempts(rule, times):
    """A device whose every enrollment with CA1 times out, at the handshake
    or at the reply, tries ENROLL_ATTEMPTS times and gives up in phase
    provisioned; SP1 skips it on every push round."""
    result = run_scenario(ScenarioConfig(
        name="t", variant="b", device_count=2, seed=1, adversary=[rule],
        expect_overrides={"device-000": "provisioned"}))
    assert result.ok
    assert [(e["t"], e["reason"]) for e in result.trace.select(
        "enroll_retry", actor="device-000")] == [(t, "timeout") for t in times]
    assert len(result.trace.select("enroll_gave_up", actor="device-000")) == 1
    assert [e["reason"] for e in result.trace.select(
        "push_skipped", device="device-000")] == ["no_session"] * 10


_OTHER_KEY_CERT = encode(_EVIL_LEAF)


@pytest.mark.parametrize("forged, server_keygen, reason", [
    (wire.EnrollRsp(True, b"\xff", b"", (), (), ""), False,
     "bad_enroll_response"),
    (wire.EnrollRsp(True, _OTHER_KEY_CERT, b"", (), (), ""), False,
     "certificate_key_mismatch"),
    (wire.EnrollRsp(True, _OTHER_KEY_CERT, b"\x00" * 31, (), (), ""), True,
     "bad_server_key"),
], ids=["undecodable_cert", "other_key", "short_key_seed"])
def test_bad_enroll_response_is_retried(forged, server_keygen, reason):
    """An enrollment response answered ahead of CA1's whose certificate does
    not decode, is for another key, or comes with a server-made key seed of
    the wrong length ends that attempt; the retry enrolls the device."""
    rule = {"action": "inject", "match_src": "device-000", "match_dst": "ca1",
            "match_label": "enroll_req", "frame_in_matched_session": True,
            "seq_offset": 0, "delay": 0, "first_n": 1,
            "redirect_dst": "device-000",
            "inject_payload_hex": wire.encode_wire(forged).hex()}
    result = run_scenario(ScenarioConfig(
        name="t", variant="b", seed=1, adversary=[rule],
        options=ScenarioOptions(server_keygen=server_keygen)))
    assert result.ok
    retries = result.trace.select("enroll_retry", actor="device-000")
    assert [e["reason"] for e in retries] == [reason]


def test_unanswered_fallback_is_traced_as_not_contacted():
    """A device that can reach neither CA2 nor SP1's fallback answer ends in
    phase fallback with the failed contact in the trace."""
    result = run_scenario(ScenarioConfig(
        name="t", variant="b", device_count=2, seed=1,
        adversary=[_drop("ca2", "device-000"),
                   _drop("sp1", "device-000", "fallback_rsp")],
        expect_overrides={"device-000": "fallback"}))
    assert result.ok
    assert [(e.typed("ok"), e["reason"]) for e in result.trace.select(
        "fallback_contacted", actor="device-000")] \
        == [(False, "enroll_failed:timeout")]


def test_refused_renewal_keeps_the_device_parked(monkeypatch):
    """CA1 refusing every renewal while the device is parked costs it the
    renewal budget, not its SP1 session: the transfer still re-enrolls it."""
    enroll = operators.CaActor._enroll
    calls = []

    def refuse_after_first(self, now, sess, msg):
        if self.net.actor_id == "ca1":
            calls.append(now)
            if len(calls) > 1:
                return wire.EnrollRsp(False, b"", b"", (), (),
                                      "not_registered")
        return enroll(self, now, sess, msg)

    monkeypatch.setattr(operators.CaActor, "_enroll", refuse_after_first)
    short_lived_certs_late_transfer(monkeypatch)
    result = run_scenario(ScenarioConfig(name="t", variant="b", seed=3))
    assert result.ok
    assert [(e["t"], e["reason"]) for e in result.trace.select(
        "renewal_failed", actor="device-000")] \
        == [(88, "not_registered"), (93, "not_registered")]
    assert not result.trace.select("operational_cert_renewed")


_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                  .rglob("*.json"))
_HOSTILE = ScenarioConfig(
    name="hostile", variant="a", device_count=5, seed=1,
    adversary="replay_all",
    options=ScenarioOptions(use_ra=True, contact_update_before_enroll=True,
                            server_keygen=True, last_sp1_update=True,
                            sp1_fallback_ra=True))


@pytest.mark.parametrize("config", [*_CONFIGS, _HOSTILE], ids=[
    *(p.stem for p in _CONFIGS), "hostile"])
def test_reset_runs_in_the_tick_the_transfer_is_accepted(config):
    """`lifecycle` resets without re-checking the reset window: it relies on
    the reset running at the time the accepted transfer's window was
    checked. A change that delays the reset has to check the window again."""
    if isinstance(config, Path):
        config = ScenarioConfig.from_file(config)
    result = run_scenario(config)
    for actor in result.device_states:
        accepted = [e["t"] for e in result.trace.select("transfer_accepted",
                                                        actor=actor)]
        reset = [e["t"] for e in result.trace.select(
            "phase", actor=actor, frm="transferPending", to="resetDone")]
        assert len(accepted) == 1 and accepted == reset
