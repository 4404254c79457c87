"""Operator logic tests: list building, transfer prep/relay, RA, updates."""

import random
from dataclasses import replace

import pytest

from trustshift import crypto, operators, peers, pki, session, simnet, wire
from trustshift.errors import (
    InvariantViolation,
    NoExpectedMeasurement,
    UnknownDevice,
    UnverifiableFactoryCert,
)
from trustshift.messages import (
    CertProfile,
    DeviceUpdateInfo,
    EnvelopeProfile,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)
from trustshift.scenario import ScenarioConfig, run_scenario

LIFETIME = (0, 10**9)


@pytest.fixture
def world():
    h = pki.build_hierarchy("b", random.Random(31))
    h.trust_roots()
    sp1 = operators.OperatorState(
        name="sp1",
        signing_key=crypto.generate_key_pair(crypto.digest(b"sp1-sign")),
        update_server_uri=Uri("coaps://update.sp1.example"),
        current_version=VersionInfo(1, Uri("coaps://update.sp1.example/fw")))
    sp2 = operators.OperatorState(
        name="sp2",
        signing_key=crypto.generate_key_pair(crypto.digest(b"sp2-sign")),
        update_server_uri=Uri("coaps://update.sp2.example"),
        current_version=VersionInfo(3, Uri("coaps://update.sp2.example/fw")))
    sp1.peer_signer_keys["sp2"] = sp2.signing_key.public_key
    sp2.peer_signer_keys["sp1"] = sp1.signing_key.public_key
    for i in range(3):
        device_id = b"device-%03d" % i
        key = crypto.generate_key_pair(crypto.digest(device_id))
        cert = pki.issue_certificate(h.permanent, device_id, key.public_key,
                                     CertProfile.FACTORY, LIFETIME)
        sp1.managed_devices[device_id] = DeviceUpdateInfo(
            cert, 100 + i, 10_000 + i, VersionInfo(1, Uri("coaps://u/fw")))
    return h, sp1, sp2


def test_build_list_one_entry_per_device(world):
    h, sp1, sp2 = world
    ids = sorted(sp1.managed_devices)
    envelope = operators.sp1_build_update_info_list(sp1, ids)
    assert crypto.verify_envelope(sp1.signing_key.public_key, envelope,
                                  EnvelopeProfile.UPDATE_LIST)
    info = decode(UpdateInfoList, envelope.payload)
    assert len(info.entries) == 3
    for device_id, entry in zip(ids, info.entries):
        assert entry == sp1.managed_devices[device_id]


def test_build_list_unknown_device(world):
    h, sp1, sp2 = world
    with pytest.raises(UnknownDevice):
        operators.sp1_build_update_info_list(sp1, [b"device-999"])


def test_list_verification_is_key_specific(world):
    h, sp1, sp2 = world
    envelope = operators.sp1_build_update_info_list(sp1,
                                                    sorted(sp1.managed_devices))
    assert crypto.verify_envelope(sp2.peer_signer_keys["sp1"], envelope,
                                  EnvelopeProfile.UPDATE_LIST)
    assert not crypto.verify_envelope(sp2.signing_key.public_key, envelope,
                                      EnvelopeProfile.UPDATE_LIST)


def prepared_transfer(world, ra_uri=None, contact_before_enroll=False):
    """SP2's side of the transfer: register the listed factory certificates
    with CA2, then sign the transfer CWT for CA2's enroll URI."""
    h, sp1, sp2 = world
    envelope = operators.sp1_build_update_info_list(sp1,
                                                    sorted(sp1.managed_devices))
    info = decode(UpdateInfoList, envelope.payload)
    enroll_uri = pki.register_factory_certs(
        h.ca2, [e.factory_certificate for e in info.entries], 1000)
    return operators.sp2_prepare_transfer(
        sp2, info, enroll_uri, ra_uri=ra_uri,
        contact_before_enroll=contact_before_enroll)


def test_prepare_transfer_refuses_zero_devices(world):
    _h, _sp1, sp2 = world
    with pytest.raises(InvariantViolation, match="zero devices"):
        operators.sp2_prepare_transfer(
            sp2, UpdateInfoList(()), Uri("coaps://ca2.example/est"), None, False)


def test_prepare_transfer_registers_and_signs(world):
    h, sp1, sp2 = world
    envelope = prepared_transfer(world)
    assert crypto.verify_envelope(sp2.signing_key.public_key, envelope,
                                  EnvelopeProfile.CWT)
    serials = {m.factory_certificate.serial
               for m in sp1.managed_devices.values()}
    assert set(h.ca2.registered_factory) == serials
    message = decode(TransferMessage, envelope.payload)
    assert message.enroll_uri == h.ca2.enroll_uri
    assert message.ra_uri is None
    # window hull covers every per-device window
    assert message.reset_time_not_before == 100
    assert message.reset_time_not_after == 10_002


def test_prepare_transfer_with_ra_uri(world):
    envelope = prepared_transfer(world, ra_uri=Uri("coaps://ra.sp2.example"))
    message = decode(TransferMessage, envelope.payload)
    assert message.ra_uri == Uri("coaps://ra.sp2.example")


def test_register_req_rogue_cert_refused(world):
    """CA2 refuses a registration request that names a factory certificate
    it cannot verify, and registers none of the request's certificates."""
    h, sp1, sp2 = world
    rogue_key = crypto.generate_key_pair(crypto.digest(b"rogue"))
    rogue = pki._signed_cert(b"rogue-ca", rogue_key, 999, b"rogue-dev",
                             rogue_key.public_key, LIFETIME,
                             CertProfile.FACTORY)
    certs = [m.factory_certificate
             for m in sp1.managed_devices.values()] + [rogue]
    ca2 = operators.CaActor(peers.NetHandle(simnet.Simulator(seed=1), "ca2",
                                            h.revocation_view()), h.ca2)
    sp2_key = crypto.generate_key_pair(crypto.digest(b"sp2-server"))
    sp2_cert = pki.issue_certificate(h.ca2, b"sp2", sp2_key.public_key,
                                     CertProfile.SERVER, LIFETIME)
    sess = session.derive(b"\x01" * 32, b"\x02" * 32, sp2_cert, "sp2")
    [reply] = ca2.peer.dispatch(1000, sess, wire.RegisterReq(
        tuple(encode(c) for c in certs)))
    with pytest.raises(UnverifiableFactoryCert) as err:
        pki.register_factory_certs(h.ca2, certs, 1000)
    assert str(err.value).startswith("factory certificate serial=999 ")
    assert reply == wire.RegisterRsp(False, "", err.value.reason)
    assert not h.ca2.registered_factory


def test_relay_rewrites_only_fallback(world):
    h, sp1, sp2 = world
    original = decode(TransferMessage, prepared_transfer(world).payload)
    relayed = operators.sp1_relay_transfer(sp1, original)
    assert crypto.verify_envelope(sp1.signing_key.public_key, relayed,
                                  EnvelopeProfile.CWT)
    rewritten = decode(TransferMessage, relayed.payload)
    assert rewritten.fallback_uri == sp1.update_server_uri
    # the five other claims are byte-identical after re-encode
    assert encode(rewritten)[:-len(encode(rewritten.fallback_uri))] \
        == encode(original)[:-len(encode(original.fallback_uri))]
    for field in ("reset_time_not_before", "reset_time_not_after", "ra_uri",
                  "update_uri", "contact_before_enroll", "enroll_uri"):
        assert getattr(rewritten, field) == getattr(original, field)


def test_relay_signature_domain_separation(world):
    """Devices must verify the relayed CWT under SP1's key, never SP2's."""
    h, sp1, sp2 = world
    relayed = operators.sp1_relay_transfer(
        sp1, decode(TransferMessage, prepared_transfer(world).payload))
    assert crypto.verify_envelope(sp1.signing_key.public_key, relayed,
                                  EnvelopeProfile.CWT)
    assert not crypto.verify_envelope(sp2.signing_key.public_key, relayed,
                                      EnvelopeProfile.CWT)


# ---------------------------------------------------------------------------
# operator-to-operator deliveries
# ---------------------------------------------------------------------------

def server_credential(state, ca):
    """A server credential for operator `state`, issued by `ca`."""
    name = state.name.encode()
    key = crypto.generate_key_pair(crypto.digest(name + b"-server"))
    cert = pki.issue_certificate(ca, name, key.public_key, CertProfile.SERVER,
                                 LIFETIME)
    return pki.Credential(cert, ca.issuer_chain, key)


def operator_actor(world, sim, state, ca):
    """`state` served as an OperatorActor under a server certificate of
    `ca`, trusting every root of the hierarchy."""
    h = world[0]
    roots = {h.permanent.name} | {c.name for c in (h.ca1, h.ca2)
                                  if c.certificate.is_self_signed}
    return operators.OperatorActor(peers.NetHandle(sim, state.name), state,
                                   server_credential(state, ca),
                                   h.store_for(roots))


def forged(envelope, signer, profile, how):
    """`envelope` with a flipped signature bit, signed by another key, or
    signed by `signer` under the other profile."""
    if how == "tampered":
        signature = bytearray(envelope.signature)
        signature[-1] ^= 0x01
        return replace(envelope, signature=bytes(signature))
    if how == "other_signer":
        impostor = crypto.generate_key_pair(crypto.digest(b"impostor"))
        return crypto.sign_envelope(impostor, profile, envelope.payload)
    other = {EnvelopeProfile.CWT: EnvelopeProfile.UPDATE_LIST,
             EnvelopeProfile.UPDATE_LIST: EnvelopeProfile.CWT}[profile]
    return crypto.sign_envelope(signer, other, envelope.payload)


@pytest.mark.parametrize("how", ["tampered", "other_signer", "other_profile"])
@pytest.mark.parametrize("delivery", ["list", "tm"])
def test_forged_delivery_refused(world, delivery, how):
    """SP2 refuses an update list and SP1 a transfer CWT that fails the
    envelope check: negative ack, traced reason, nothing stored."""
    h, sp1, sp2 = world
    sim = simnet.Simulator(seed=3)
    if delivery == "list":
        sender, receiver = sp1, sp2
        envelope = operators.sp1_build_update_info_list(
            sp1, sorted(sp1.managed_devices))
        profile, msg, ack = EnvelopeProfile.UPDATE_LIST, wire.ListDeliver, \
            wire.ListAck
    else:
        sender, receiver = sp2, sp1
        envelope = prepared_transfer(world)
        profile, msg, ack = EnvelopeProfile.CWT, wire.TmDeliver, wire.TmAck
    actor = operator_actor(world, sim, receiver, h.ca1)
    sess = session.derive(b"\x01" * 32, b"\x02" * 32,
                          server_credential(sender, h.ca2).certificate,
                          sender.name)
    bad = forged(envelope, sender.signing_key, profile, how)
    assert actor._accept_envelope(5, sess, msg(encode(bad))) == ack(False)
    assert [e["reason"] for e in sim.trace.select(f"{delivery}_rejected")] \
        == [f"bad_{sender.name}_signature"]
    assert receiver.received_list is None and receiver.received_tm is None


def test_accepted_transfer_stored_verified(world):
    """SP1 stores the transfer CWT's verified claims, once, on arrival."""
    h, sp1, sp2 = world
    sim = simnet.Simulator(seed=3)
    actor = operator_actor(world, sim, sp1, h.ca1)
    sess = session.derive(b"\x01" * 32, b"\x02" * 32,
                          server_credential(sp2, h.ca2).certificate, "sp2")
    envelope = prepared_transfer(world)
    assert actor._accept_envelope(5, sess, wire.TmDeliver(encode(envelope))) \
        == wire.TmAck(True)
    assert sp1.received_tm == decode(TransferMessage, envelope.payload)


def test_refused_exchange_traced_as_refused(world):
    """An operator that refuses a delivery ends the exchange with
    `status=refused`, not the `ok` of the call that carried the refusal."""
    h, sp1, sp2 = world
    sp1.peer_signer_keys["sp2"] = crypto.generate_key_pair(
        crypto.digest(b"not-sp2")).public_key
    sim = simnet.Simulator(seed=3)
    operator_actor(world, sim, sp1, h.ca1)
    sp2_actor = operator_actor(world, sim, sp2, h.ca2)
    request = wire.TmDeliver(encode(prepared_transfer(world)))
    sim.spawn("sp2-orchestrator", operators._exchange(
        peers.NetHandle(sim, "sp2-orchestrator"), sp2_actor, "sp1", "sp2sp1",
        request, wire.TmAck, "tm_deliver"))
    sim.start_ready_processes()
    trace = sim.run()
    assert [e["reason"] for e in trace.select("tm_rejected")] \
        == ["bad_sp2_signature"]
    assert [(e["step"], e["status"]) for e in trace.select("transfer_aborted")] \
        == [("tm_deliver", "refused")]


def test_unreachable_sp2_aborts_both_orchestrators():
    """With every frame from SP1's orchestrator to SP2 dropped, SP1 aborts
    at the SP2 session and SP2 stops waiting for the list; no transfer
    reaches a device, which stays enrolled under SP1."""
    result = run_scenario(ScenarioConfig(
        name="t", variant="b", device_count=2, seed=1,
        adversary=[{"action": "drop", "match_src": "sp1-orchestrator",
                    "match_dst": "sp2"}],
        expect_default="enrolled"))
    assert result.ok
    assert [(e["t"], e["actor"], e["step"], e["status"])
            for e in result.trace.select("transfer_aborted")] == [
        (72, "sp1-orchestrator", "sp2_session", "timeout"),
        (600, "sp2-orchestrator", "await_list", "timeout")]


def _drop(src, dst, label):
    return {"action": "drop", "match_src": src, "match_dst": dst,
            "match_label": label}


@pytest.mark.parametrize("src,dst,label,aborted", [
    ("sp1-orchestrator", "sp2", "list_deliver",
     [(74, "sp1-orchestrator", "list_deliver"),
      (600, "sp2-orchestrator", "await_list")]),
    ("sp2-orchestrator", "ca2", "register_req",
     [(78, "sp2-orchestrator", "register"),
      (644, "sp1-orchestrator", "await_tm")]),
    ("sp2-orchestrator", "sp1", "tm_deliver",
     [(82, "sp2-orchestrator", "tm_deliver"),
      (644, "sp1-orchestrator", "await_tm")]),
], ids=["list_deliver", "register", "tm_deliver"])
def test_lost_orchestrator_call_aborts_the_transfer(src, dst, label, aborted):
    """A call the orchestrator never gets an answer to ends its side with
    `status=timeout` at that step, and the other side gives up waiting for
    what that step would have delivered; the devices stay enrolled."""
    result = run_scenario(ScenarioConfig(
        name="t", variant="b", device_count=2, seed=1,
        adversary=[_drop(src, dst, label)], expect_default="enrolled"))
    assert result.ok
    assert [(e["t"], e["actor"], e["step"], e["status"])
            for e in result.trace.select("transfer_aborted")] \
        == [(t, actor, step, "timeout") for t, actor, step in aborted]


@pytest.mark.parametrize("refused,rows", [
    (False, [(106, "device-000", "timeout"), (138, "device-001", "timeout")]),
    (True, [(76, "device-000", "refused"), (78, "device-001", "refused")]),
], ids=["lost", "refused"])
def test_failed_revocations_traced_per_device(monkeypatch, refused, rows):
    """SP1 traces each revocation CA1 does not answer, or refuses, and
    then finishes; the devices have re-enrolled by then."""
    adversary = [_drop("sp1-orchestrator", "ca1", "revoke_req")]
    if refused:
        adversary = "none"
        monkeypatch.setattr(
            operators.CaActor, "_revoke",
            lambda self, now, sess, msg: wire.RevokeRsp(False))
    result = run_scenario(ScenarioConfig(name="t", variant="b",
                                         device_count=2, seed=1,
                                         adversary=adversary))
    assert result.ok
    assert [(e["t"], e["device"], e["status"])
            for e in result.trace.select("revocation_failed")] == rows
    assert [e["t"] for e in result.trace.select("sp1_orchestration_done")] \
        == [rows[-1][0]]


def test_responder_refusals_of_malformed_requests(world):
    """Requests that fail to parse, through `ResponderPeer.dispatch`: an
    update check gets no reply; a list delivery, also one whose envelope
    SP1 really signed over a payload that is not a list, a negative ack;
    a registration a `malformed_encoding` refusal. Nothing is stored."""
    h, sp1, sp2 = world
    sim = simnet.Simulator(seed=3)
    sp2_actor = operator_actor(world, sim, sp2, h.ca2)
    ca2 = operators.CaActor(peers.NetHandle(sim, "ca2"), h.ca2)
    sess = session.derive(b"\x01" * 32, b"\x02" * 32,
                          server_credential(sp1, h.ca1).certificate, "sp1")
    signed_junk = crypto.sign_envelope(sp1.signing_key,
                                       EnvelopeProfile.UPDATE_LIST, b"\xff")
    assert sp2_actor.peer.dispatch(5, sess, wire.UpdateCheck(b"\xff")) == []
    for envelope_bytes in (b"\xff", encode(signed_junk)):
        assert sp2_actor.peer.dispatch(
            5, sess, wire.ListDeliver(envelope_bytes)) == [wire.ListAck(False)]
    assert ca2.peer.dispatch(5, sess, wire.RegisterReq((b"\xff",))) \
        == [wire.RegisterRsp(False, "", "malformed_encoding")]
    assert sp2.received_list is None and not h.ca2.registered_factory
    assert not sim.trace.select("list_rejected")


def test_ra_hello_without_expected_measurement_gets_negative_verdict(world):
    """An attestation hello for a device the verifier holds no
    measurement for gets a negative verdict and issues no challenge."""
    h, sp1, sp2 = world
    sim = simnet.Simulator(seed=3)
    verifier = operators.RaVerifierState()
    responder = peers.ResponderPeer(
        peers.NetHandle(sim, "ra"), server_credential(sp2, h.ca2),
        h.store_for({h.permanent.name}),
        operators.ra_rows(verifier, random.Random(1)))
    device_cert = sp1.managed_devices[b"device-000"].factory_certificate
    sess = session.derive(b"\x01" * 32, b"\x02" * 32, device_cert,
                          "device-000")
    assert responder.dispatch(5, sess, wire.RaHello(b"device-000")) \
        == [wire.RaVerdict(False)]
    assert not verifier.outstanding

# ---------------------------------------------------------------------------
# remote attestation stub
# ---------------------------------------------------------------------------

def test_ra_untampered_device_passes():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    rng = random.Random(1)
    nonce = operators.ra_challenge(verifier, b"dev", rng)
    measurement = operators.ra_respond(firmware, nonce)
    assert operators.ra_verify(
        verifier, wire.RaReport(b"dev", nonce, measurement)) is True


def test_ra_tampered_firmware_fails():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    tampered = VersionInfo(4, Uri("coaps://u/fw/4?x"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    nonce = operators.ra_challenge(verifier, b"dev", random.Random(1))
    measurement = operators.ra_respond(tampered, nonce)
    assert operators.ra_verify(
        verifier, wire.RaReport(b"dev", nonce, measurement)) is False


def test_ra_replayed_response_fails_fresh_nonce():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    rng = random.Random(1)
    old_nonce = operators.ra_challenge(verifier, b"dev", rng)
    old_measurement = operators.ra_respond(firmware, old_nonce)
    fresh_nonce = operators.ra_challenge(verifier, b"dev", rng)
    assert fresh_nonce != old_nonce
    # replaying the old response against the fresh challenge
    assert operators.ra_verify(
        verifier, wire.RaReport(b"dev", old_nonce, old_measurement)) \
        is False


def test_ra_challenge_single_use():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    nonce = operators.ra_challenge(verifier, b"dev", random.Random(1))
    measurement = operators.ra_respond(firmware, nonce)
    assert operators.ra_verify(
        verifier, wire.RaReport(b"dev", nonce, measurement)) is True
    assert operators.ra_verify(
        verifier, wire.RaReport(b"dev", nonce, measurement)) is False


def test_ra_no_expectation():
    verifier = operators.RaVerifierState()
    with pytest.raises(NoExpectedMeasurement):
        operators.ra_challenge(verifier, b"ghost", random.Random(1))
    with pytest.raises(NoExpectedMeasurement):
        operators.ra_verify(
            verifier, wire.RaReport(b"ghost", b"\x00" * 16, b"\x00" * 32))


def test_ra_soundness_all_tamper_positions():
    """Flipping any byte of the reported measurement flips the verdict."""
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    rng = random.Random(2)
    for position in range(32):
        nonce = operators.ra_challenge(verifier, b"dev", rng)
        good = operators.ra_respond(firmware, nonce)
        bad = bytearray(good)
        bad[position] ^= 0x01
        assert operators.ra_verify(
            verifier, wire.RaReport(b"dev", nonce, bytes(bad))) is False


# ---------------------------------------------------------------------------
# update server
# ---------------------------------------------------------------------------

def test_update_server_bumps_stale_device(world):
    h, sp1, sp2 = world
    stale = VersionInfo(1, Uri("coaps://u/fw"))
    delta = operators.update_server_serve(sp2, stale)
    assert delta == sp2.current_version
    assert delta.manifest_sequence >= stale.manifest_sequence


def test_update_server_noop_when_current(world):
    h, sp1, sp2 = world
    assert operators.update_server_serve(sp2, sp2.current_version) is None
    newer = VersionInfo(99, Uri("coaps://u/fw"))
    assert operators.update_server_serve(sp2, newer) is None


def test_push_skips_a_device_without_a_session():
    """A device whose every message to SP1 is dropped holds no standing
    session with SP1's update server: each push round skips it, and the
    transfer pushes end with it unacked while the other device re-enrolls."""
    cfg = ScenarioConfig(name="t", variant="b", device_count=2, seed=1,
                         adversary=[{"action": "drop", "match_src": "device-000",
                                     "match_dst": "sp1"}],
                         expect_overrides={"device-000": "enrolled"})
    result = run_scenario(cfg)
    assert result.ok
    skipped = result.trace.select("push_skipped")
    # one skip per round of the root push and of the transfer push
    assert len(skipped) == 2 * operators.PUSH_ROUNDS == 10
    assert {(e["device"], e["reason"]) for e in skipped} \
        == {("device-000", "no_session")}
    assert [e.typed("unacked")
            for e in result.trace.select("transfer_pushes_done")] == [1]
