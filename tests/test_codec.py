"""Codec tests: golden bytes, round-trips, rejection corpus, properties."""

import copy
import dataclasses
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import refenc
import vector_fixtures as fx
from trustshift import codec, crypto, messages, wire
from trustshift.errors import InvariantViolation, MalformedEncoding
from trustshift.messages import (
    CertificateSigningRequest,
    CertProfile,
    CompactCertificate,
    DeviceUpdateInfo,
    EnvelopeHeader,
    EnvelopeProfile,
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
    codec.forget_encoded()  # the strict reader
    assert decode(kind, golden) == fixture_messages[name]


def test_certificate_keeps_its_encodings_outside_its_fields(fixture_messages):
    cert = fixture_messages["certificate_factory"]
    golden = load_vector("certificate_factory")
    assert cert.encoding() == golden and cert.encoding() is cert.encoding()
    assert golden.startswith(b"\x88" + cert.tbs_bytes()[1:])
    assert cert.tbs_bytes() is cert.tbs_bytes()
    assert vars(cert).keys() == {f.name for f in dataclasses.fields(cert)}
    for clone in (copy.copy(cert), copy.deepcopy(cert),
                  pickle.loads(pickle.dumps(cert))):
        assert clone == cert and clone.encoding() == golden


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
        codec.forget_encoded()  # the strict reader
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


@pytest.mark.parametrize("build, error", [
    (lambda: VersionInfo(1, "coaps://fw"), InvariantViolation),
    (lambda: CompactCertificate(1, b"s", b"k" * 32, b"i", 0, 1, "factory",
                                b"\x00" * 64), InvariantViolation),
    (lambda: TransferMessage(0, 1, "coaps://ra", Uri("u"), False, Uri("e"),
                             Uri("f")), InvariantViolation),
    (lambda: EnvelopeHeader(1, "cwt", b"k" * 8), InvariantViolation),
    (lambda: EnvelopeHeader(1, EnvelopeProfile.CWT, b"k" * 7),
     InvariantViolation),
    (lambda: encode(b"not a message"), InvariantViolation),
    (lambda: decode(bytes, b"\x40"), MalformedEncoding),
], ids=["manifest_uri_not_uri", "profile_not_enum", "ra_uri_not_uri",
        "envelope_profile_not_enum", "short_signer_key_id", "encode_non_message",
        "decode_non_payload_class"])
def test_payload_fields_of_the_wrong_kind_are_refused(build, error):
    with pytest.raises(error):
        build()


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
    data = encode(tm)
    codec.forget_encoded()  # the strict reader
    assert decode(TransferMessage, data) == tm


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


# ---------------------------------------------------------------------------
# heads: every width, from the short-head table or not, against the
# reference encoder
# ---------------------------------------------------------------------------

# Each argument where a head changes width, with its neighbours.
HEAD_BOUNDARIES = (0, 23, 24, 255, 256, 65535, 65536, 2**32 - 1, 2**32,
                   2**64 - 1)
HEAD_READERS = {
    0: codec.Decoder.read_uint,
    2: codec.Decoder.read_bytes,
    3: codec.Decoder.read_text,
    4: codec.Decoder.read_array_head,
    5: codec.Decoder.read_map_head,
}
# Major types whose head is the whole item: its encoder and reader.
COUNTS = {0: codec.encode_uint, 4: codec.encode_array_head,
          5: codec.encode_map_head}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COUNTS)),
       st.sampled_from(HEAD_BOUNDARIES) | st.integers(0, 2**64 - 1))
def test_property_count_heads_match_reference(major, arg):
    data = COUNTS[major](arg)
    assert data == refenc._head(major, arg)
    dec = codec.Decoder(data)
    assert HEAD_READERS[major](dec) == arg
    dec.finish()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["bytes", "text"]),
       st.sampled_from([n for n in HEAD_BOUNDARIES if n <= 65536])
       | st.integers(0, 300))
def test_property_strings_match_reference(kind, length):
    """Byte and text strings up to a 65536-byte length; longer ones are
    covered by their heads below."""
    value = b"\xa5" * length if kind == "bytes" else "a" * length
    encode_string = codec.encode_bytes if kind == "bytes" else codec.encode_text
    major = 2 if kind == "bytes" else 3
    data = encode_string(value)
    assert data == refenc.ref_encode((kind, value))
    dec = codec.Decoder(data)
    assert HEAD_READERS[major](dec) == value
    dec.finish()


@pytest.mark.parametrize("major", [2, 3])
@pytest.mark.parametrize("length", HEAD_BOUNDARIES[1:])
def test_string_longer_than_input_is_truncated(major, length):
    with pytest.raises(MalformedEncoding, match="truncated"):
        HEAD_READERS[major](codec.Decoder(refenc._head(major, length) + b"x"))


@pytest.mark.parametrize("length", HEAD_BOUNDARIES[1:])
def test_list_longer_than_input_is_truncated(length):
    """A list head claiming more items than bytes remain, up to 2**64 - 1
    of them, is refused as truncated."""
    data = wire.RegisterReq.PREFIX + refenc._head(4, length) + b"\x40"
    with pytest.raises(MalformedEncoding, match="truncated"):
        wire.decode_wire(data)


def test_uint_outside_64_bits_rejected():
    for value in (-1, 2**64):
        with pytest.raises(MalformedEncoding):
            codec.encode_uint(value)


@pytest.mark.parametrize("major", sorted(HEAD_READERS))
@pytest.mark.parametrize("head", ["5817", "5900ff", "5a0000ffff"])
def test_non_minimal_head_rejected(major, head):
    """23 in a one-byte argument, 255 in two bytes, 65535 in four, under
    every major type."""
    raw = bytearray.fromhex(head)
    raw[0] = (major << 5) | (raw[0] & 0x1F)
    with pytest.raises(MalformedEncoding, match="non-minimal"):
        HEAD_READERS[major](codec.Decoder(bytes(raw) + bytes(65535)))


@pytest.mark.parametrize("major", sorted(HEAD_READERS))
def test_head_of_another_major_rejected(major):
    for other in set(HEAD_READERS) - {major}:
        for arg in (5, 30, 300):
            data = refenc._head(other, arg) + bytes(arg)
            with pytest.raises(MalformedEncoding, match="expected"):
                HEAD_READERS[major](codec.Decoder(data))


@pytest.mark.parametrize("name,kind", GOLDEN_NAMES)
def test_every_truncated_golden_prefix_rejected(name, kind):
    golden = load_vector(name)
    for end in range(len(golden)):
        with pytest.raises(MalformedEncoding):
            decode(kind, golden[:end])


# ---------------------------------------------------------------------------
# canonical parse: every near miss of a valid encoding is refused
# ---------------------------------------------------------------------------

FRAMES = sorted((c for c in vars(wire).values()
                 if isinstance(c, type) and hasattr(c, "PREFIX")),
                key=lambda c: c.PREFIX)
# A maker of random valid values for each payload class.
PAYLOAD_MAKERS = {type(make(random.Random(0))): make
                  for _name, make in gen.RANDOM_MESSAGE_MAKERS}
PAYLOAD_MAKERS[Uri] = gen.rand_uri
FIELD_VALUES = {
    "bytes": st.binary(max_size=30) | st.integers(24, 300).map(bytes),
    "int": st.sampled_from(HEAD_BOUNDARIES) | st.integers(0, 2**64 - 1),
    "bool": st.booleans(),
    "str": st.text(max_size=30),
    "tuple": st.lists(st.binary(max_size=40), max_size=3).map(tuple),
}


def test_every_payload_class_has_a_maker():
    payloads = {c for c in vars(messages).values()
                if isinstance(c, type) and hasattr(c, "KIND")}
    assert payloads == set(PAYLOAD_MAKERS)


def _frame_values(cls):
    return st.builds(cls, *[FIELD_VALUES[f.type] for f in dataclasses.fields(cls)])


def _heads(data: bytes) -> list[tuple[int, int, int, int]]:
    """(offset, major type, argument, size) of each head in one canonical
    item; the contents of byte and text strings are not walked."""
    found = []

    def item(pos):
        major, info = data[pos] >> 5, data[pos] & 0x1F
        if major == 7:
            return pos + 1
        size = 1 if info < 24 else 1 + (1 << (info - 24))
        arg = info if info < 24 else int.from_bytes(data[pos + 1:pos + size], "big")
        found.append((pos, major, arg, size))
        pos += size
        if major in (2, 3):
            return pos + arg
        for _ in range({4: arg, 5: 2 * arg}.get(major, 0)):
            pos = item(pos)
        return pos

    assert item(0) == len(data)
    return found


def _near_misses(data: bytes, bit: int, extra: int):
    """One bit flipped at each position, each head written at each wider or
    narrower width it fits, and one trailing byte."""
    for pos in range(len(data)):
        yield data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]
    for pos, major, arg, size in _heads(data):
        for info in range(24, 28):
            head = refenc.head_at_width(major, arg, info)
            if head is not None and head != data[pos:pos + size]:
                yield data[:pos] + head + data[pos + size:]
    yield data + bytes([extra])


def _assert_canonical_parse(data, decode_one, encode_one, bit, extra):
    # The record of encodings answers only `bytes`: a bytearray of the
    # valid encoding goes through the strict reader.
    assert encode_one(decode_one(bytearray(data))) == data
    for end in range(len(data)):
        with pytest.raises(MalformedEncoding, match="truncated"):
            decode_one(data[:end])
    for near in _near_misses(data, bit, extra):
        try:
            value = decode_one(near)
        except (MalformedEncoding, InvariantViolation):
            continue
        assert encode_one(value) == near, near.hex()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAMES).flatmap(_frame_values), st.integers(0, 7),
       st.integers(0, 255))
def test_property_frames_parse_canonically(frame, bit, extra):
    """Every truncation of a valid frame is refused as truncated; any other
    near miss is refused, or is itself the canonical encoding of what it
    decodes to."""
    data = wire.encode_wire(frame)
    assert wire.decode_wire(data) == frame
    _assert_canonical_parse(data, wire.decode_wire, wire.encode_wire, bit, extra)


# One value of each field kind: a fixed instance of each frame class.
FIXED_FIELDS = {"bytes": bytes(range(30)), "int": 300, "bool": True,
                "str": "reason", "tuple": (b"", bytes(40))}


@pytest.mark.parametrize("cls", FRAMES, ids=lambda c: c.__name__)
def test_frame_decodes_from_any_bytes_like(cls):
    """A bytearray or memoryview of a frame's bytes decodes exactly as the
    bytes do, to the same types; a truncated one is refused as malformed,
    never with a TypeError."""
    frame = cls(*[FIXED_FIELDS[f.type] for f in dataclasses.fields(cls)])
    data = wire.encode_wire(frame)
    for view in (bytearray(data), memoryview(data)):
        assert repr(wire.decode_wire(view)) == repr(frame)
        with pytest.raises(MalformedEncoding, match="truncated"):
            wire.decode_wire(view[:-1])
    assert wire.decode_wire(data) == frame


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PAYLOAD_MAKERS, key=lambda c: c.__name__)),
       st.integers(0, 2**32), st.integers(0, 7), st.integers(0, 255))
def test_property_payloads_parse_canonically(cls, seed, bit, extra):
    data = encode(PAYLOAD_MAKERS[cls](random.Random(seed)))
    _assert_canonical_parse(data, lambda near: decode(cls, near), encode, bit,
                            extra)


# ---------------------------------------------------------------------------
# owed decodes in the record of encodings
# ---------------------------------------------------------------------------

def test_bytes_encoded_twice_are_answered_twice():
    """Two equal frames encoded give two decodes from the record, both the
    first frame; the third decode takes the strict parse."""
    first, second = wire.RaHello(b"twice"), wire.RaHello(b"twice")
    data = wire.encode_wire(first)
    assert wire.encode_wire(second) == data and codec._owed == {data: 1}
    assert wire.decode_wire(data) is first
    assert wire.decode_wire(data) is first
    assert data not in codec._encoded and not codec._owed
    third = wire.decode_wire(data)
    assert third == first and third is not first


def test_owed_copy_is_answered():
    """`owe` of held bytes (a copy put in flight) answers one more decode;
    of bytes the record does not hold, it does nothing."""
    frame = wire.TrustAck(True)
    data = wire.encode_wire(frame)
    codec.owe(data)
    codec.owe(b"never encoded")
    codec.owe(bytearray(data))
    assert codec._owed == {data: 1}
    assert wire.decode_wire(data) is frame
    assert wire.decode_wire(data) is frame
    assert wire.decode_wire(data) is not frame


def test_value_of_another_class_replaces_the_entry_and_its_count():
    """Bytes held for a frame and owed a decode, remembered for a value of
    another class: the entry is that value, and owes nothing."""
    version = VersionInfo(12, Uri("x"))
    data = encode(version)
    frame = wire.RaHello(b"x")
    codec.remember(data, frame)
    codec.remember(data, frame)
    assert codec._encoded[data] is frame and codec._owed == {data: 1}
    codec.remember(data, version, keep=True)
    assert codec._encoded[data] is version and not codec._owed
    assert decode(VersionInfo, data) is version


def test_kept_entries_owe_nothing():
    """A payload encoded again, or its decodes, leave no owed count: its
    decodes keep the entry."""
    cert = gen.rand_certificate(random.Random(8))
    data = encode(cert)
    equal = dataclasses.replace(cert)
    assert encode(cert) == encode(equal) == equal.encoding() == data
    assert decode(CompactCertificate, data) is cert
    assert decode(CompactCertificate, data) is cert
    assert not codec._owed


def test_forget_encoded_empties_both_maps():
    frame = wire.RaHello(b"forgotten")
    data = wire.encode_wire(frame)
    codec.owe(data)
    assert codec._encoded and codec._owed
    codec.forget_encoded()
    assert not codec._encoded and not codec._owed


# Equal frames as distinct objects, equal bytes, and frames of other classes.
OWED_POOL = (wire.RaHello(b"a"), wire.RaHello(b"a"), wire.RaHello(b"b"),
             wire.TrustAck(True), wire.RecordFrame(b"\x01" * 8, 3, b"p"))
OWED_OPS = st.lists(st.tuples(st.sampled_from(["remember", "owe", "recall"]),
                              st.integers(0, len(OWED_POOL) - 1)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(OWED_OPS)
def test_property_owed_decodes_match_a_multiset(ops):
    """Any sequence of encodes, declared copies and decodes against a model:
    a multiset of the decodes each byte string is still owed. A decode is
    answered from the record exactly when the model owes one, with the
    first value encoded; every answer equals the strict parse."""
    codec.forget_encoded()
    strict = {type(f).WRITE(f): wire.decode_wire(type(f).WRITE(f))
              for f in OWED_POOL}
    held, owed = {}, {}  # the model: bytes -> value, count
    try:
        for op, index in ops:
            frame = OWED_POOL[index]
            data = type(frame).WRITE(frame)
            if op == "remember":
                wire.encode_wire(frame)
                if data in owed:
                    owed[data] += 1
                else:
                    held[data], owed[data] = frame, 1
            elif op == "owe":
                codec.owe(data)
                if data in owed:
                    owed[data] += 1
            else:
                answer = wire.decode_wire(data)
                assert repr(answer) == repr(strict[data])
                if data in owed:
                    assert answer is held[data]
                    owed[data] -= 1
                    if not owed[data]:
                        del owed[data], held[data]
                else:
                    assert all(answer is not f for f in OWED_POOL)
            assert set(codec._owed) <= set(codec._encoded)
            assert {d: 1 + codec._owed.get(d, 0) for d in codec._encoded} == owed
    finally:
        codec.forget_encoded()
