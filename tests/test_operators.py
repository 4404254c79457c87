"""Operator logic tests: list building, transfer prep/relay, RA, updates."""

import random

import pytest

from trustshift import crypto, operators, peers, pki, session, simnet, wire
from trustshift.errors import (
    BadSp2Signature,
    NoExpectedMeasurement,
    UnknownDevice,
)
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
    assert crypto.verify_envelope(sp1.signing_key.public_key, envelope)
    assert envelope.protected_header.profile is EnvelopeProfile.UPDATE_LIST
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
    assert crypto.verify_envelope(sp2.peer_signer_keys["sp1"], envelope)
    assert not crypto.verify_envelope(sp2.signing_key.public_key, envelope)


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
    assert crypto.verify_envelope(sp2.signing_key.public_key, envelope)
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
    ca2 = operators.CaActor(simnet.Simulator(seed=1), "ca2", h.ca2)
    sp2_key = crypto.generate_key_pair(crypto.digest(b"sp2-server"))
    sp2_cert = pki.issue_certificate(
        h.ca2, pki.make_csr(b"sp2", sp2_key, CertProfile.OPERATIONAL),
        CertProfile.SERVER, LIFETIME)
    entry = peers.PeerSession(
        session.derive(b"\x01" * 32, b"\x02" * 32, sp2_cert), "sp2")
    [reply] = ca2._handle_app(1000, entry, wire.RegisterReq(
        tuple(encode(c) for c in certs)))
    assert (reply.ok, reply.bad_serial) == (False, 999)
    assert not h.ca2.registered_factory


def test_relay_rewrites_only_fallback(world):
    h, sp1, sp2 = world
    sp2_envelope = prepared_transfer(world)
    relayed = operators.sp1_relay_transfer(sp1, sp2_envelope, b"device-001")
    assert crypto.verify_envelope(sp1.signing_key.public_key, relayed)
    original = decode(TransferMessage, sp2_envelope.payload)
    rewritten = decode(TransferMessage, relayed.payload)
    assert rewritten.fallback_uri == sp1.update_server_uri
    # the five other claims are byte-identical after re-encode
    assert encode(rewritten)[:-len(encode(rewritten.fallback_uri))] \
        == encode(original)[:-len(encode(original.fallback_uri))]
    for field in ("reset_time_not_before", "reset_time_not_after", "ra_uri",
                  "update_uri", "contact_before_enroll", "enroll_uri"):
        assert getattr(rewritten, field) == getattr(original, field)


def test_relay_rejects_tampered_envelope(world):
    h, sp1, sp2 = world
    sp2_envelope = prepared_transfer(world)
    bad = type(sp2_envelope)(sp2_envelope.protected_header,
                             sp2_envelope.payload + b"",
                             sp2_envelope.signature[:-1] + b"\x00")
    with pytest.raises(BadSp2Signature):
        operators.sp1_relay_transfer(sp1, bad, b"device-001")


def test_relay_rejects_wrong_signer(world):
    h, sp1, sp2 = world
    impostor = crypto.generate_key_pair(crypto.digest(b"impostor"))
    envelope = crypto.sign_envelope(
        impostor, EnvelopeProfile.CWT,
        prepared_transfer(world).payload)
    with pytest.raises(BadSp2Signature):
        operators.sp1_relay_transfer(sp1, envelope, b"device-001")


def test_relay_unknown_device(world):
    h, sp1, sp2 = world
    envelope = prepared_transfer(world)
    with pytest.raises(UnknownDevice):
        operators.sp1_relay_transfer(sp1, envelope, b"device-999")


def test_relay_signature_domain_separation(world):
    """Devices must verify the relayed CWT under SP1's key, never SP2's."""
    h, sp1, sp2 = world
    relayed = operators.sp1_relay_transfer(sp1, prepared_transfer(world),
                                           b"device-000")
    assert crypto.verify_envelope(sp1.signing_key.public_key, relayed)
    assert not crypto.verify_envelope(sp2.signing_key.public_key, relayed)


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
