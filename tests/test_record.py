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
from trustshift import codec, crypto, simnet, wire
from trustshift.errors import InvariantViolation, MalformedEncoding, \
    ScenarioInvalid
from trustshift.messages import CompactCertificate, DeviceUpdateInfo, \
    TransferMessage, UpdateInfoList, Uri, VersionInfo, decode, encode
from trustshift.scenario import ScenarioConfig, ScenarioOptions, run_scenario

# Every payload class, the hand-written layouts too, has an `EXACT` check.
RECORDED_PAYLOADS = sorted(PAYLOAD_MAKERS, key=lambda c: c.__name__)


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


def test_certificate_encode_records_once(monkeypatch):
    """`encode` of a certificate hands out the encoding the certificate
    recorded when it made it, and records nothing again."""
    cert = gen.rand_certificate(random.Random(8))
    held = []  # per `remember` call: were the bytes held for this value?
    remember = codec.remember

    def counting(data, value, keep=False):
        held.append(codec._encoded.get(data) is value)
        return remember(data, value, keep)
    monkeypatch.setattr(codec, "remember", counting)
    assert encode(cert) is encode(cert) is cert.encoding()
    assert held == [False] and codec._encoded[cert.encoding()] is cert


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
    data = wire.encode_wire(frame)
    assert data == type(exact).WRITE(exact) and not codec._encoded
    decoded = wire.decode_wire(data)
    assert decoded is not frame and typed(decoded) == typed(exact)


def assert_encoded_as_but_not_recorded(cls, loose, exact):
    """`loose` encodes as `exact` does but is not recorded: the decode of
    those bytes is the strict parse, of `exact`'s types."""
    expected = encode(exact)
    codec.forget_encoded()
    assert encode(loose) == expected and not codec._encoded
    decoded = decode(cls, expected)
    assert decoded is not loose and typed(decoded) == typed(exact)


def test_payload_the_reader_would_not_build_is_not_recorded():
    cert = gen.rand_certificate(random.Random(3))
    assert_encoded_as_but_not_recorded(
        CompactCertificate,
        replace(cert, subject_name=bytearray(cert.subject_name)), cert)


def _flag_as_int():
    message = gen.rand_transfer_message(random.Random(7))
    return (replace(message, contact_before_enroll=1),
            replace(message, contact_before_enroll=True))


def _entry_with_a_bytearray():
    cert = gen.rand_certificate(random.Random(7))
    loose = replace(cert, subject_name=bytearray(cert.subject_name))
    version = VersionInfo(1, Uri("x"))
    return tuple(UpdateInfoList((DeviceUpdateInfo(c, 0, 1, version),))
                 for c in (loose, cert))


@pytest.mark.parametrize("cls, make", [
    (TransferMessage, _flag_as_int),
    (UpdateInfoList, _entry_with_a_bytearray),
], ids=["TransferMessage", "UpdateInfoList"])
def test_hand_written_layout_the_reader_would_not_build_is_not_recorded(
        cls, make):
    """A transfer message whose flag is the int 1, and a list whose entry's
    certificate has a bytearray field, encode as their exact twins do but
    are not recorded: their decode is the strict parse."""
    assert_encoded_as_but_not_recorded(cls, *make())


def test_bytes_recorded_for_another_class_take_the_strict_reader():
    """A recorded value answers only a decode as its own class: the bytes
    of `VersionInfo(12, Uri("x"))` begin as an `UpdateCheck` frame does,
    and are neither a frame nor a certificate."""
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


def test_record_holds_every_payload_a_run_encodes():
    """The record has no bound: of 5000 distinct certificates encoded in
    one run, more than an LRU of 4096 entries kept, each decodes to the
    very certificate encoded."""
    rng = random.Random(5)
    certs = [replace(gen.rand_certificate(rng), serial=serial)
             for serial in range(5000)]
    encoded = [encode(cert) for cert in certs]
    assert all(decode(CompactCertificate, data) is cert
               for data, cert in zip(encoded, certs))


def records_as_each_loop_ends(monkeypatch) -> list[tuple[dict, ...]]:
    """Per run from here on, the four per-run maps as its event loop
    returns or raises: `codec._encoded`, `codec._owed`, `crypto._signed`
    and `crypto._derived`, each copied. `run_scenario` empties them once
    the run ends, so a test that reads what a run recorded reads it here."""
    held = []
    run = simnet.Simulator.run

    def probed(sim):
        try:
            return run(sim)
        finally:
            held.append((dict(codec._encoded), dict(codec._owed),
                         set(crypto._signed), dict(crypto._derived)))
    monkeypatch.setattr(simnet.Simulator, "run", probed)
    return held


def test_record_emptied_at_each_run(monkeypatch):
    """`forget_run`, which `run_scenario` calls as a run starts and as it
    ends, empties the record with the record of signatures made: the run
    records its own encodings, none from before it, and leaves none."""
    wire.encode_wire(wire.RaHello(b"before"))
    crypto.forget_run()
    assert not codec._encoded
    before = wire.encode_wire(wire.RaHello(b"before the run"))
    assert before in codec._encoded
    held = records_as_each_loop_ends(monkeypatch)
    assert run_scenario(ScenarioConfig(name="reset", variant="a",
                                       device_count=1, seed=1)).ok
    (encoded, *_), = held
    assert encoded and before not in encoded
    assert not codec._encoded


def test_payload_answer_stays_as_the_newest_entry():
    """A payload answered from the record stays there however many
    encodings follow it: the certificates every handshake decodes outlive
    the frames around them, to the run's end, where an LRU of 4096 entries
    dropped them after 4096 encodings."""
    cert = gen.rand_certificate(random.Random(5))
    data = encode(cert)
    assert decode(CompactCertificate, data) is cert
    for i in range(4100):
        wire.encode_wire(wire.RaHello(b"%d" % i))
    assert decode(CompactCertificate, data) is cert


EVERY_OPTION = ScenarioOptions(use_ra=True, contact_update_before_enroll=True,
                               server_keygen=True, last_sp1_update=True,
                               sp1_fallback_ra=True)


def count_strict_parses(monkeypatch) -> list[type]:
    """The class of each strict parse made from here on: a frame's by its
    `READ`, a payload's by a `messages.decode` the record did not answer."""
    parsed = []

    def counting(cls):
        read = cls.READ

        def counted(dec):
            parsed.append(cls)
            return read(dec)
        return counted

    def recall(data, classes, keep=False):
        value = real_recall(data, classes, keep)
        if value is None and type(classes) is tuple:  # `messages.decode`'s
            parsed.extend(classes)
        return value

    for cls in wire._REGISTRY.values():
        monkeypatch.setattr(cls, "READ", counting(cls))
    real_recall = codec.recall
    monkeypatch.setattr(codec, "recall", recall)
    return parsed


@pytest.mark.parametrize("config, digest", [
    (ScenarioConfig(name="replayed", variant="a", device_count=5, seed=1,
                    adversary="replay_all"),
     "b3d2c677559252fd2d930c8b04b61343d6f7df15d76f9e64cd9d622d9dd38900"),
    (ScenarioConfig(name="fleet", variant="b", device_count=20, seed=1),
     "f97a333fc61c223ec4d2bcaaa6004768cfe55aaaf426063bebac508152d14ee8"),
    (ScenarioConfig(name="hostile", variant="a", device_count=5, seed=1,
                    adversary="replay_all", options=EVERY_OPTION),
     "840e5c66c3c6d35286a888077fd6beaca35debc3836eb7eeb5a807b3b25f86b6"),
    (ScenarioConfig(name="forged", variant="b", device_count=1, seed=1,
                    adversary="forge_transfer"),
     "90ecd611587f7c6f9ab6ec7c6f95601a34d31169e17d593d18f0191b0191dd36"),
], ids=["replay_all", "fleet", "hostile", "forge_transfer"])
def test_every_frame_decode_answered_from_the_record(monkeypatch, config,
                                                     digest):
    """Every decode is answered from the record: equal frames that many
    devices send, the copies the adversary replays, a frame the adversary
    looks into before it injects, and every payload, the transfer message
    and the update list among them, make no strict parse. Had each frame
    entry left the record at its first decode, these runs would have made
    129, 142, 214 and 1 strict frame parses. The traces are unchanged."""
    parsed = count_strict_parses(monkeypatch)
    result = run_scenario(config)
    assert result.ok and result.trace.digest() == digest
    assert not parsed, f"{len(parsed)} strict parses: {set(parsed)}"


def test_no_payload_owes_a_decode_after_a_run(monkeypatch):
    """Payload decodes keep their entries, so a payload's bytes owe nothing,
    however often they are encoded: as the event loop of a 20-device
    variant-b run ends, every owed count is a frame's."""
    held = records_as_each_loop_ends(monkeypatch)
    assert run_scenario(ScenarioConfig(name="fleet", variant="b",
                                       device_count=20, seed=1)).ok
    (encoded, owed, *_), = held
    assert set(owed) <= set(encoded)
    owing = [type(encoded[data]) for data in owed]
    assert not [cls for cls in owing if hasattr(cls, "KIND")]


@pytest.mark.parametrize("budget", [None, 200], ids=["returns", "raises"])
def test_no_per_run_record_outlives_its_run(monkeypatch, budget):
    """A 5-device hostile run (every option, every delivery replayed) ends
    its event loop with encodings, signatures and derived keys recorded;
    once `run_scenario` returns, or raises on a 200-event budget, all four
    per-run maps are empty."""
    if budget is not None:
        monkeypatch.setattr(simnet, "EVENT_BUDGET", budget)
    held = records_as_each_loop_ends(monkeypatch)
    config = ScenarioConfig(name="hostile", variant="a", device_count=5,
                            seed=1, adversary="replay_all",
                            options=EVERY_OPTION)
    if budget is None:
        assert run_scenario(config).ok
    else:
        with pytest.raises(ScenarioInvalid, match="event budget 200"):
            run_scenario(config)
    (encoded, _owed, signed, derived), = held
    assert encoded and signed and derived
    assert not (codec._encoded or codec._owed or crypto._signed
                or crypto._derived)
