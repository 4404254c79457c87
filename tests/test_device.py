"""Device lifecycle tests: pure transitions plus small simulated flows."""

import random

import pytest

from trustshift import crypto, device, operators, pki, wire
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
    ScenarioConfig,
    ScenarioOptions,
    run_scenario,
)

LIFETIME = (0, 10**9)


def build_world(variant="b", seed=21):
    h = pki.build_hierarchy(variant, random.Random(seed))
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
    h, key, cert = build_world()
    other = crypto.generate_key_pair(crypto.digest(b"other"))
    state = device.DeviceState(device_id=b"dev-1")
    with pytest.raises(KeyCertMismatch):
        device.provision_factory(state, other, cert, pki.TrustStore(),
                                 h.ca1.enroll_uri)


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
                      and e["t"] > result.config.transfer_start)
    enroll_time = min(e["t"] for e in result.trace.entries
                      if e["ev"] == "deliver" and e.get("dst") == "ca2"
                      and e.get("label") == "enroll_req")
    assert update_time < enroll_time


def test_ra_failure_routes_to_fallback():
    from trustshift.scenario import ScenarioFaults
    cfg = ScenarioConfig(name="t", variant="c", device_count=2, seed=3,
                         options=ScenarioOptions(use_ra=True),
                         faults=ScenarioFaults(ra_tamper_devices=[0]),
                         expect_overrides={"device-000": "fallback"})
    result = run_scenario(cfg)
    assert result.ok
    assert result.device_states["device-000"].phase is DevicePhase.FALLBACK
    assert result.device_states["device-001"].phase is DevicePhase.REENROLLED
    served = result.trace.select("fallback_served")
    assert any(e["device"] == "device-000" and e["reason"] == "ra_failed"
               for e in served)


def test_ca2_misregistration_routes_to_fallback():
    from trustshift.scenario import ScenarioFaults
    cfg = ScenarioConfig(name="t", variant="b", device_count=1, seed=3,
                         faults=ScenarioFaults(skip_ca2_registration=True),
                         expect_default="fallback")
    result = run_scenario(cfg)
    assert result.ok
    reasons = [e["reason"] for e in result.trace.select("fallback_served")]
    assert any("not_registered" in r for r in reasons)


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


def test_transfer_after_window_leaves_device_enrolled():
    """A transfer arriving after the reset window closes is rejected on
    every push round and the device keeps operating under SP1."""
    cfg = ScenarioConfig(name="window", variant="b", device_count=1, seed=5,
                         reset_window=(40, 45), expect_default="enrolled")
    result = run_scenario(cfg)
    assert result.ok
    reasons = {e["reason"] for e in result.trace.select("transfer_rejected")}
    assert reasons == {"OutsideResetWindow"}


def test_expiry_driven_reenrollment_loops_at_enrolled():
    """Short-lived operational certificates are renewed with the current CA
    while the device waits for an operator change."""
    cfg = ScenarioConfig(name="renew", variant="b", device_count=1, seed=3,
                         operational_lifetime=100, transfer_start=300)
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
    raising out of the run."""
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
        [verdict] = result.trace.select("ra_verdict", device="ghost")
        assert verdict["verdict"] == "False"
