"""Operator logic tests: list building, transfer prep/relay, RA, updates."""

import random
from dataclasses import replace

import pytest

from trustshift import crypto, operators, peers, pki, session, simnet, wire
from trustshift.errors import NoExpectedMeasurement, UnknownDevice
from trustshift.messages import (
    CertProfile,
    EnvelopeProfile,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)

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
        csr = pki.make_csr(device_id, key, CertProfile.FACTORY)
        cert = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY,
                                     LIFETIME)
        sp1.managed_devices[device_id] = operators.ManagedDevice(
            factory_cert=cert, version=VersionInfo(1, Uri("coaps://u/fw")),
            window=(100 + i, 10_000 + i))
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
        assert entry.factory_certificate \
            == sp1.managed_devices[device_id].factory_cert
        assert (entry.update_time_not_before, entry.update_time_not_after) \
            == sp1.managed_devices[device_id].window


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


def test_prepare_transfer_registers_and_signs(world):
    h, sp1, sp2 = world
    envelope = prepared_transfer(world)
    assert crypto.verify_envelope(sp2.signing_key.public_key, envelope,
                                  EnvelopeProfile.CWT)
    serials = {m.factory_cert.serial for m in sp1.managed_devices.values()}
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
    certs = [m.factory_cert for m in sp1.managed_devices.values()] + [rogue]
    ca2 = operators.CaActor(peers.NetHandle(simnet.Simulator(seed=1), "ca2",
                                            h.revocation_view()), h.ca2)
    sp2_key = crypto.generate_key_pair(crypto.digest(b"sp2-server"))
    sp2_cert = pki.issue_certificate(
        h.ca2, pki.make_csr(b"sp2", sp2_key, CertProfile.OPERATIONAL),
        CertProfile.SERVER, LIFETIME)
    sess = session.derive(b"\x01" * 32, b"\x02" * 32, sp2_cert, "sp2")
    [reply] = ca2.peer.dispatch(1000, sess, wire.RegisterReq(
        tuple(encode(c) for c in certs)))
    assert (reply.ok, reply.bad_serial) == (False, 999)
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
    cert = pki.issue_certificate(
        ca, pki.make_csr(name, key, CertProfile.OPERATIONAL),
        CertProfile.SERVER, LIFETIME)
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
        verifier, operators.RaExchange(nonce, b"dev", measurement)) is True


def test_ra_tampered_firmware_fails():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    tampered = VersionInfo(4, Uri("coaps://u/fw/4?x"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    nonce = operators.ra_challenge(verifier, b"dev", random.Random(1))
    measurement = operators.ra_respond(tampered, nonce)
    assert operators.ra_verify(
        verifier, operators.RaExchange(nonce, b"dev", measurement)) is False


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
        verifier, operators.RaExchange(old_nonce, b"dev", old_measurement)) \
        is False


def test_ra_challenge_single_use():
    firmware = VersionInfo(4, Uri("coaps://u/fw/4"))
    verifier = operators.RaVerifierState(
        expected={b"dev": crypto.digest(encode(firmware))})
    nonce = operators.ra_challenge(verifier, b"dev", random.Random(1))
    measurement = operators.ra_respond(firmware, nonce)
    assert operators.ra_verify(
        verifier, operators.RaExchange(nonce, b"dev", measurement)) is True
    assert operators.ra_verify(
        verifier, operators.RaExchange(nonce, b"dev", measurement)) is False


def test_ra_no_expectation():
    verifier = operators.RaVerifierState()
    with pytest.raises(NoExpectedMeasurement):
        operators.ra_challenge(verifier, b"ghost", random.Random(1))
    with pytest.raises(NoExpectedMeasurement):
        operators.ra_verify(verifier,
                            operators.RaExchange(b"\x00" * 16, b"ghost",
                                                 b"\x00" * 32))


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
            verifier, operators.RaExchange(nonce, b"dev", bytes(bad))) is False


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
