"""The record of encodings: a decode of bytes this run encoded is answered
with the value they were encoded from, which is what the strict reader
builds from them, field by field and type by type; anything else, a flipped
or cut byte string, a bytearray, a value the reader would not build, takes
the strict reader."""

import dataclasses
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from test_codec import FRAMES, PAYLOAD_MAKERS, _frame_values
from trustshift import codec, crypto, wire
from trustshift.errors import InvariantViolation, MalformedEncoding
from trustshift.messages import CompactCertificate, TransferMessage, \
    UpdateInfoList, Uri, VersionInfo, decode, encode
from trustshift.scenario import ScenarioConfig, ScenarioOptions, run_scenario

# The hand-written layouts have no `EXACT` check and are never recorded.
RECORDED_PAYLOADS = sorted(set(PAYLOAD_MAKERS) - {TransferMessage, UpdateInfoList},
                           key=lambda c: c.__name__)


def typed(value):
    """`value` with the class of every part of it, nested values too."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(typed(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    if type(value) is tuple:
        return tuple, tuple(map(typed, value))
    return type(value), value


def strict(decode_one, data):
    """What the strict reader makes of `data`."""
    codec.forget_encoded()
    return decode_one(data)


def near_misses(data: bytes, pos: int, mask: int):
    """`data` with one byte flipped, and every truncation of it."""
    flipped = bytearray(data)
    flipped[pos % len(data)] ^= mask
    return [bytes(flipped)] + [data[:end] for end in range(len(data))]


def assert_never_answered_by(value, decode_one, data, pos, mask):
    for near in near_misses(data, pos, mask):
        try:
            assert decode_one(near) is not value, near.hex()
        except (MalformedEncoding, InvariantViolation):
            pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAMES).flatmap(_frame_values),
       st.integers(min_value=0), st.integers(1, 255))
def test_frame_answer_is_the_strict_parse(frame, pos, mask):
    codec.forget_encoded()
    data = wire.encode_wire(frame)
    assert wire.decode_wire(data) is frame
    assert typed(strict(wire.decode_wire, data)) == typed(frame)
    data = wire.encode_wire(frame)
    assert_never_answered_by(frame, wire.decode_wire, data, pos, mask)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RECORDED_PAYLOADS), st.integers(0, 2**32),
       st.integers(min_value=0), st.integers(1, 255))
def test_payload_answer_is_the_strict_parse(cls, seed, pos, mask):
    codec.forget_encoded()
    message = PAYLOAD_MAKERS[cls](random.Random(seed))
    data = encode(message)
    assert decode(cls, data) is message
    assert decode(cls, bytes(bytearray(data))) is message
    assert typed(strict(lambda d: decode(cls, d), data)) == typed(message)
    data = encode(message)
    assert_never_answered_by(message, lambda d: decode(cls, d), data, pos, mask)


@pytest.mark.parametrize("cls", [TransferMessage, UpdateInfoList])
def test_hand_written_payloads_are_never_recorded(cls):
    codec.forget_encoded()
    message = PAYLOAD_MAKERS[cls](random.Random(7))
    data = encode(message)
    assert data not in codec._encoded
    decoded = decode(cls, data)
    assert decoded == message and decoded is not message


@pytest.mark.parametrize("frame, exact", [
    (wire.RegisterReq([b"c1"]), wire.RegisterReq((b"c1",))),
    (wire.RegisterReq((bytearray(b"c1"),)), wire.RegisterReq((b"c1",))),
    (wire.TrustAck(2), wire.TrustAck(True)),
    (wire.UpdateCheck(bytearray(b"vi")), wire.UpdateCheck(b"vi")),
    (wire.RecordFrame(b"s", True, b"p"), wire.RecordFrame(b"s", 1, b"p")),
    (wire.Reject(b"\x01" * 32, type("Text", (str,), {})("x")),
     wire.Reject(b"\x01" * 32, "x")),
], ids=["list", "bytearray_item", "int_as_bool", "bytearray", "bool_as_int",
        "str_subclass"])
def test_frame_the_reader_would_not_build_is_not_recorded(frame, exact):
    """Encoded as an exact frame is, but not recorded: its decode is the
    strict parse, not the frame."""
    codec.forget_encoded()
    data = wire.encode_wire(frame)
    assert data == type(exact).WRITE(exact) and not codec._encoded
    decoded = wire.decode_wire(data)
    assert decoded is not frame and typed(decoded) == typed(exact)


def test_payload_the_reader_would_not_build_is_not_recorded():
    cert = gen.rand_certificate(random.Random(3))
    loose = replace(cert, subject_name=bytearray(cert.subject_name))
    expected = encode(cert)
    codec.forget_encoded()
    assert encode(loose) == expected and not codec._encoded
    decoded = decode(CompactCertificate, expected)
    assert decoded is not loose and typed(decoded) == typed(cert)


def test_bytes_recorded_for_another_class_take_the_strict_reader():
    """A recorded value answers only a decode as its own class: the bytes
    of `VersionInfo(12, Uri("x"))` begin as an `UpdateCheck` frame does,
    and are neither a frame nor a certificate."""
    codec.forget_encoded()
    version = VersionInfo(12, Uri("x"))
    data = encode(version)
    assert data.startswith(wire.UpdateCheck.PREFIX)
    for decode_one in (wire.decode_wire,
                       lambda d: decode(CompactCertificate, d)):
        with pytest.raises(MalformedEncoding):
            decode_one(data)
    assert decode(VersionInfo, data) is version


def test_bytearray_and_memoryview_take_the_strict_reader():
    """Only `bytes` is looked up: another buffer may compare equal to
    recorded bytes and still change after it is read."""
    codec.forget_encoded()
    frame = wire.RecordFrame(b"\x03" * 8, 7, b"payload")
    data = wire.encode_wire(frame)
    decoded = wire.decode_wire(memoryview(data))
    assert decoded == frame and decoded is not frame
    assert wire.decode_wire(data) is frame
    cert = gen.rand_certificate(random.Random(4))
    data = encode(cert)
    for view in (bytearray(data), memoryview(data)):
        decoded = decode(CompactCertificate, view)
        assert decoded == cert and decoded is not cert
    assert decode(CompactCertificate, data) is cert


def test_record_stays_within_its_bound(monkeypatch):
    """The record keeps the newest RECORD_SIZE entries; a frame encoded
    once leaves it at its first decode, and a dropped one takes the strict
    reader."""
    monkeypatch.setattr(codec, "RECORD_SIZE", 8)
    codec.forget_encoded()
    frames = [wire.RaHello(b"bounded %d" % i) for i in range(20)]
    data = [wire.encode_wire(frame) for frame in frames]
    assert list(codec._encoded) == data[-8:]
    first, last = wire.decode_wire(data[0]), wire.decode_wire(data[-1])
    assert first == frames[0] and first is not frames[0]
    assert last is frames[-1] and list(codec._encoded) == data[-8:-1]


def test_record_emptied_at_each_run():
    """`forget_run`, which `run_scenario` calls first, empties the record
    with the record of signatures made."""
    wire.encode_wire(wire.RaHello(b"before"))
    crypto.forget_run(0)
    assert not codec._encoded
    before = wire.encode_wire(wire.RaHello(b"before the run"))
    assert before in codec._encoded
    assert run_scenario(ScenarioConfig(name="reset", variant="a",
                                       device_count=1, seed=1)).ok
    assert codec._encoded and before not in codec._encoded


def test_payload_answer_stays_as_the_newest_entry(monkeypatch):
    """A payload answered from the record stays there, as its newest entry:
    the certificates every handshake decodes outlive the frames around
    them, and leave only when nothing has decoded them for RECORD_SIZE
    encodings."""
    monkeypatch.setattr(codec, "RECORD_SIZE", 4)
    codec.forget_encoded()
    cert = gen.rand_certificate(random.Random(5))
    data = encode(cert)
    for i in range(3):
        wire.encode_wire(wire.RaHello(b"%d" % i))
    assert decode(CompactCertificate, data) is cert
    for i in range(3, 6):
        wire.encode_wire(wire.RaHello(b"%d" % i))
    assert decode(CompactCertificate, data) is cert
    for i in range(6, 10):
        wire.encode_wire(wire.RaHello(b"%d" % i))
    decoded = decode(CompactCertificate, data)
    assert decoded == cert and decoded is not cert


EVERY_OPTION = ScenarioOptions(use_ra=True, contact_update_before_enroll=True,
                               server_keygen=True, last_sp1_update=True,
                               sp1_fallback_ra=True)


@pytest.mark.parametrize("config, digest", [
    (ScenarioConfig(name="replayed", variant="a", device_count=5, seed=1,
                    adversary="replay_all"),
     "b3d2c677559252fd2d930c8b04b61343d6f7df15d76f9e64cd9d622d9dd38900"),
    (ScenarioConfig(name="fleet", variant="b", device_count=20, seed=1),
     "f97a333fc61c223ec4d2bcaaa6004768cfe55aaaf426063bebac508152d14ee8"),
    (ScenarioConfig(name="hostile", variant="a", device_count=5, seed=1,
                    adversary="replay_all", options=EVERY_OPTION),
     "840e5c66c3c6d35286a888077fd6beaca35debc3836eb7eeb5a807b3b25f86b6"),
], ids=["replay_all", "fleet", "hostile"])
def test_every_frame_decode_answered_from_the_record(monkeypatch, config,
                                                     digest):
    """Every copy of a frame is answered from the record: equal frames that
    many devices send, and the copies the adversary replays, make no strict
    frame parse (`decode_wire` starts its `Decoder` past the prefix). The
    record forgets each entry at its first decode: these runs made 129, 142
    and 214 strict parses so. The traces are unchanged."""
    parses = []

    class Counting(codec.Decoder):
        def __init__(self, data, pos=0):
            if pos:
                parses.append(bytes(data))
            super().__init__(data, pos)

    monkeypatch.setattr(codec, "Decoder", Counting)
    result = run_scenario(config)
    assert result.ok and result.trace.digest() == digest
    assert not parses, f"{len(parses)} strict frame parses"


def test_no_payload_owes_a_decode_after_a_run():
    """Payload decodes keep their entries, so a payload's bytes owe nothing,
    however often they are encoded: after a 20-device variant-b run, every
    owed count is a frame's."""
    assert run_scenario(ScenarioConfig(name="fleet", variant="b",
                                       device_count=20, seed=1)).ok
    assert set(codec._owed) <= set(codec._encoded)
    owing = [type(codec._encoded[data]) for data in codec._owed]
    assert not [cls for cls in owing if hasattr(cls, "KIND")]
