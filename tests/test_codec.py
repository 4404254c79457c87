"""Codec tests: golden bytes, round-trips, rejection corpus, properties."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import refenc
import vector_fixtures as fx
from trustshift import crypto
from trustshift.errors import InvariantViolation, MalformedEncoding
from trustshift.messages import (
    CertificateSigningRequest,
    CertProfile,
    CompactCertificate,
    DeviceUpdateInfo,
    SignedEnvelope,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)

VECTOR_DIR = Path(__file__).resolve().parent.parent / "vectors"

KIND_BY_NAME = {
    "transfer_message": TransferMessage,
    "update_info_list": UpdateInfoList,
    "device_update_info": DeviceUpdateInfo,
    "version_info": VersionInfo,
    "certificate": CompactCertificate,
    "csr": CertificateSigningRequest,
    "signed_envelope": SignedEnvelope,
}


def load_vector(name: str) -> bytes:
    return bytes.fromhex((VECTOR_DIR / f"{name}.hex").read_text().strip())


# ---------------------------------------------------------------------------
# fixtures rebuilt through the production types
# ---------------------------------------------------------------------------

def make_factory_cert(fields, subject_key, issuer_key) -> CompactCertificate:
    unsigned = CompactCertificate(
        serial=fields["serial"],
        subject_name=fields["subject"],
        subject_public_key=subject_key.public_key,
        issuer_name=fields["issuer"],
        not_before=fields["not_before"],
        not_after=fields["not_after"],
        profile=CertProfile(fields["profile"]),
        signature=b"",
    )
    return CompactCertificate(
        **{**unsigned.__dict__, "signature": issuer_key.sign(unsigned.tbs_bytes())})


@pytest.fixture(scope="module")
def keys():
    return {
        "issuer": crypto.generate_key_pair(fx.ISSUER_SEED),
        "device": crypto.generate_key_pair(fx.DEVICE_SEED),
        "device2": crypto.generate_key_pair(fx.seed_for("device-2-factory-key")),
        "signer": crypto.generate_key_pair(fx.SIGNER_SEED),
    }


@pytest.fixture(scope="module")
def fixture_messages(keys):
    cert1 = make_factory_cert(fx.CERT_FIELDS, keys["device"], keys["issuer"])
    cert2 = make_factory_cert(fx.SECOND_CERT_FIELDS, keys["device2"], keys["issuer"])
    vi = VersionInfo(fx.VERSION[0], Uri(fx.VERSION[1]))
    nb, na = fx.UPDATE_WINDOW
    dui1 = DeviceUpdateInfo(cert1, nb, na, vi)
    dui2 = DeviceUpdateInfo(cert2, nb, na, vi)

    tm_basic = TransferMessage(
        fx.TM_BASIC["reset_nb"], fx.TM_BASIC["reset_na"], None,
        Uri(fx.TM_BASIC["update_uri"]), fx.TM_BASIC["update_flag"],
        Uri(fx.TM_BASIC["enroll_uri"]), Uri(fx.TM_BASIC["fallback_uri"]))
    tm_with_ra = TransferMessage(
        fx.TM_WITH_RA["reset_nb"], fx.TM_WITH_RA["reset_na"],
        Uri(fx.TM_WITH_RA["ra_uri"]),
        Uri(fx.TM_WITH_RA["update_uri"]), fx.TM_WITH_RA["update_flag"],
        Uri(fx.TM_WITH_RA["enroll_uri"]), Uri(fx.TM_WITH_RA["fallback_uri"]))

    csr = CertificateSigningRequest(
        fx.CSR_FIELDS["subject"], keys["device"].public_key,
        CertProfile(fx.CSR_FIELDS["profile"]), b"")
    csr = CertificateSigningRequest(
        csr.subject_name, csr.subject_public_key, csr.requested_profile,
        keys["device"].sign(csr.tbs_bytes()))

    from trustshift.messages import EnvelopeProfile
    env_cwt = crypto.sign_envelope(keys["signer"], EnvelopeProfile.CWT,
                                   encode(tm_basic))
    env_list = crypto.sign_envelope(
        keys["signer"], EnvelopeProfile.UPDATE_LIST,
        encode(UpdateInfoList((dui1, dui2))))

    return {
        "transfer_message_basic": tm_basic,
        "transfer_message_with_ra": tm_with_ra,
        "update_info_list_empty": UpdateInfoList(()),
        "update_info_list_one": UpdateInfoList((dui1,)),
        "update_info_list_two": UpdateInfoList((dui1, dui2)),
        "device_update_info": dui1,
        "version_info": vi,
        "certificate_factory": cert1,
        "csr_operational": csr,
        "signed_envelope_cwt": env_cwt,
        "signed_envelope_updatelist": env_list,
    }


GOLDEN_NAMES = [
    ("transfer_message_basic", TransferMessage),
    ("transfer_message_with_ra", TransferMessage),
    ("update_info_list_empty", UpdateInfoList),
    ("update_info_list_one", UpdateInfoList),
    ("update_info_list_two", UpdateInfoList),
    ("device_update_info", DeviceUpdateInfo),
    ("version_info", VersionInfo),
    ("certificate_factory", CompactCertificate),
    ("csr_operational", CertificateSigningRequest),
    ("signed_envelope_cwt", SignedEnvelope),
    ("signed_envelope_updatelist", SignedEnvelope),
]


@pytest.mark.parametrize("name,kind", GOLDEN_NAMES)
def test_golden_bytes(name, kind, fixture_messages):
    """Production encoding matches the frozen reference-encoder bytes."""
    golden = load_vector(name)
    assert encode(fixture_messages[name]).hex() == golden.hex()
    assert decode(kind, golden) == fixture_messages[name]


def test_golden_empty_list_single_byte():
    assert load_vector("update_info_list_empty") == b"\x80"
    assert encode(UpdateInfoList(())) == b"\x80"


def test_transfer_message_six_elements_ra_null(fixture_messages):
    data = encode(fixture_messages["transfer_message_basic"])
    assert data[0] == 0x86  # array(6)
    # after two 3-byte uints, the raURI position holds an explicit null
    assert data[1 + 3 + 3] == 0xF6


def test_reference_encoder_agrees_fresh(fixture_messages):
    """Recompute the reference encoding in-process (not just the frozen file)."""
    tm = fixture_messages["transfer_message_basic"]
    tree = refenc.transfer_message(
        tm.reset_time_not_before, tm.reset_time_not_after, None,
        tm.update_uri.value, tm.contact_before_enroll,
        tm.enroll_uri.value, tm.fallback_uri.value)
    assert refenc.ref_encode(tree) == encode(tm)


def test_decode_rejects_wrong_element_count(fixture_messages):
    data = bytearray(encode(fixture_messages["transfer_message_basic"]))
    data[0] = 0x85  # claim 5 elements; leaves trailing bytes as well
    with pytest.raises(MalformedEncoding):
        decode(TransferMessage, bytes(data))


def test_roundtrip_1000_seeds():
    """Randomized valid messages all round-trip, across every message kind."""
    for seed in range(1000):
        rng = random.Random(seed)
        name, maker = gen.RANDOM_MESSAGE_MAKERS[seed % len(gen.RANDOM_MESSAGE_MAKERS)]
        msg = maker(rng)
        data = encode(msg)
        assert decode(KIND_BY_NAME[name], data) == msg, f"seed {seed} ({name})"


def test_encode_deterministic():
    for seed in (1, 17, 99):
        rng1, rng2 = random.Random(seed), random.Random(seed)
        a = gen.rand_transfer_message(rng1)
        b = gen.rand_transfer_message(rng2)
        assert encode(a) == encode(b)
        assert encode(a) == encode(a)


def test_size_monotone_in_entry_count():
    rng = random.Random(42)
    entries = []
    sizes = []
    for i in range(6):
        entry = gen.rand_device_update_info(rng)
        entry = DeviceUpdateInfo(
            CompactCertificate(**{**entry.factory_certificate.__dict__, "serial": i}),
            entry.update_time_not_before, entry.update_time_not_after,
            entry.version_info)
        entries.append(entry)
        sizes.append(len(encode(UpdateInfoList(tuple(entries)))))
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_malformed_corpus():
    corpus = json.loads((VECTOR_DIR / "malformed" / "corpus.json").read_text())
    assert len(corpus) >= 20
    expected_error = {"malformed": MalformedEncoding, "invariant": InvariantViolation}
    for entry in corpus:
        with pytest.raises(expected_error[entry["error"]]):
            decode(KIND_BY_NAME[entry["kind"]], bytes.fromhex(entry["hex"]))
        # never silently accepted under any other kind either
        for kind in KIND_BY_NAME.values():
            try:
                decode(kind, bytes.fromhex(entry["hex"]))
            except (MalformedEncoding, InvariantViolation):
                pass


def test_trailing_bytes_rejected(fixture_messages):
    for name, kind in GOLDEN_NAMES:
        data = encode(fixture_messages[name]) + b"\x00"
        with pytest.raises(MalformedEncoding):
            decode(kind, data)


def test_uri_invariants():
    with pytest.raises(InvariantViolation):
        Uri("")
    with pytest.raises(InvariantViolation):
        Uri("x" * 256)
    assert Uri("x" * 255).value == "x" * 255
    # multi-byte characters count in UTF-8 bytes, not code points
    with pytest.raises(InvariantViolation):
        Uri("é" * 128)


def test_window_invariants():
    with pytest.raises(InvariantViolation):
        TransferMessage(10, 9, None, Uri("u"), False, Uri("e"), Uri("f"))
    with pytest.raises(InvariantViolation):
        VersionInfo(-1, Uri("u"))


def test_duplicate_serial_rejected():
    rng = random.Random(7)
    entry = gen.rand_device_update_info(rng)
    with pytest.raises(InvariantViolation):
        UpdateInfoList((entry, entry))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

@st.composite
def transfer_messages(draw):
    nb = draw(st.integers(min_value=0, max_value=2**50))
    na = nb + draw(st.integers(min_value=0, max_value=2**20))
    uri_text = st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FF),
        min_size=1, max_size=60)
    ra = draw(st.none() | uri_text)
    return TransferMessage(
        nb, na,
        None if ra is None else Uri(ra),
        Uri(draw(uri_text)), draw(st.booleans()),
        Uri(draw(uri_text)), Uri(draw(uri_text)))


@settings(max_examples=200, deadline=None)
@given(transfer_messages())
def test_property_roundtrip_transfer(tm):
    assert decode(TransferMessage, encode(tm)) == tm


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_property_garbage_never_crashes(data):
    """Arbitrary bytes either decode cleanly or raise a typed codec error."""
    for kind in (TransferMessage, UpdateInfoList,
                 SignedEnvelope, CertificateSigningRequest):
        try:
            decode(kind, data)
        except (MalformedEncoding, InvariantViolation):
            pass
