"""Simulator tests: determinism, termination, adversary actions, framing."""

import dataclasses
import fnmatch
import hashlib
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden_digests import INLINE, SHIPPED
from trustshift import codec, peers, simnet, wire
from trustshift.errors import MalformedEncoding, ScenarioInvalid
from trustshift.messages import Uri
from trustshift.scenario import ScenarioConfig, run_scenario
from trustshift.simnet import (
    AdversaryRule,
    AdversarySchedule,
    EventKind,
    SimEvent,
    Simulator,
    Sleep,
    Transmit,
    WaitMessage,
    adversary_apply,
)


# ---------------------------------------------------------------------------
# wire framing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("msg", [
    wire.Hello(b"\x01" * 32, b"cert", (b"i1", b"i2")),
    wire.Accept(b"\x01" * 32, b"\x02" * 32, b"cert", ()),
    wire.Reject(b"\x01" * 32, "untrusted"),
    wire.RecordFrame(b"\x03" * 8, 7, b"payload"),
    wire.EnrollReq(b"csr", True),
    wire.EnrollRsp(True, b"cert", b"", (b"c1",), (b"r1", b"r2"), ""),
    wire.UpdateCheck(b"vi"),
    wire.RaReport(b"dev", b"\x04" * 16, b"\x05" * 32),
    wire.TransferDeliver(b"envelope"),
    wire.RegisterReq((b"c1", b"c2", b"c3")),
    wire.FallbackReq(b"dev", "ra_failed"),
    wire.RevokeRsp(True, 3),
])
def test_wire_roundtrip(msg):
    """Through the strict reader: the record of encodings is emptied first."""
    data = wire.encode_wire(msg)
    codec.forget_encoded()
    decoded = wire.decode_wire(data)
    assert decoded == msg and decoded is not msg


def test_wire_rejects_unknown_tag():
    data = bytes([0x81, 0x18, 99])  # [99]
    with pytest.raises(MalformedEncoding):
        wire.decode_wire(data)


def test_wire_rejects_wrong_arity():
    good = wire.encode_wire(wire.TransferAck(True, "x"))
    with pytest.raises(MalformedEncoding):
        wire.decode_wire(good[:1] + good[2:])  # drop the tag element


@pytest.mark.parametrize("tag", [3, 27, 256])
def test_wire_message_refuses_a_clashing_prefix(tag):
    """A tag already taken, or one whose prefix `decode_wire` would not read
    whole (tags past 255), is refused when the frame is declared."""
    class Clash:
        seq: "int"  # a kind is named by its annotation's text

    with pytest.raises(ValueError, match="prefix"):
        wire.wire_message(tag)(Clash)
    data = wire.encode_wire(wire.TrustAck(True))
    codec.forget_encoded()
    assert wire.decode_wire(data) == wire.TrustAck(True)


def test_parse_record_frame_only_matches_records():
    frame = wire.RecordFrame(b"\x01" * 8, 1, b"data")
    data, ack = wire.encode_wire(frame), wire.encode_wire(wire.TmAck(True))
    codec.forget_encoded()  # the strict reader
    assert wire.parse_record_frame(data) == frame
    assert wire.parse_record_frame(ack) is None
    assert wire.parse_record_frame(b"\xff\xff") is None


# ---------------------------------------------------------------------------
# scheduler mechanics
# ---------------------------------------------------------------------------

def test_events_processed_in_time_then_insertion_order():
    sim = Simulator(seed=1)
    seen = []
    sim.register_responder("sink", lambda now, src, data: (data.decode(), []))
    sim.transmit("a", "sink", b"late", delay=5)
    sim.transmit("a", "sink", b"first", delay=1)
    sim.transmit("a", "sink", b"second", delay=1)
    sim.run()
    delivered = [e for e in sim.trace.entries if e["ev"] == "deliver"]
    assert [e["disp"] for e in delivered] == ["first", "second", "late"]


def test_process_sleep_wait_timeout():
    sim = Simulator(seed=1)
    log = []

    def proc():
        yield Sleep(3)
        log.append(("woke", sim.now))
        got = yield WaitMessage(timeout=4)
        log.append(("wait", got is simnet.TIMEOUT, sim.now))

    sim.spawn("p", proc())
    sim.start_ready_processes()
    sim.run()
    assert log == [("woke", 3), ("wait", True, 7)]


def test_process_receives_queued_messages():
    sim = Simulator(seed=1)
    got = []

    def listener():
        while True:
            src, data = yield WaitMessage()
            got.append((src, data))
            if data == b"stop":
                return

    def talker():
        yield Transmit("listener", b"one")
        yield Transmit("listener", b"two")
        yield Sleep(5)
        yield Transmit("listener", b"stop")

    sim.spawn("listener", listener())
    sim.spawn("talker", talker())
    sim.start_ready_processes()
    sim.run()
    assert got == [("talker", b"one"), ("talker", b"two"), ("talker", b"stop")]


def test_event_budget_enforced():
    sim = Simulator(seed=1, event_budget=10)

    def ping_forever():
        while True:
            yield Sleep(1)

    sim.spawn("p", ping_forever())
    sim.start_ready_processes()
    with pytest.raises(ScenarioInvalid):
        sim.run()


def test_quiescence_reached_on_scenarios():
    result = run_scenario(ScenarioConfig(name="q", variant="c",
                                         device_count=3, seed=8))
    assert result.ok  # run() returned, so the queue drained within budget


def test_trace_digest_pure_function_of_scenario_and_seed():
    configs = [ScenarioConfig(name="d", variant="b", device_count=4, seed=99,
                              adversary="replay_transfer") for _ in range(2)]
    digests = {run_scenario(c).trace.digest() for c in configs}
    assert len(digests) == 1
    other = run_scenario(ScenarioConfig(name="d", variant="b", device_count=4,
                                        seed=100, adversary="replay_transfer"))
    assert other.trace.digest() not in digests


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(SHIPPED) + sorted(INLINE))
def test_streamed_digest_is_the_digest_of_the_rendered_trace(name):
    """`digest()` feeds the lines to SHA-256 one by one; it equals the
    digest of `render()` on every shipped config and every inline scenario
    whose digest is pinned."""
    config = INLINE[name][0] if name in INLINE \
        else ScenarioConfig.from_file(REPO / "configs" / name)
    trace = run_scenario(config).trace
    assert trace.digest() == hashlib.sha256(trace.render().encode()).hexdigest()


def test_empty_trace_digest_is_the_digest_of_its_rendering():
    trace = simnet.Trace()
    assert trace.render() == "\n"
    assert trace.digest() == hashlib.sha256(b"\n").hexdigest()


def test_trace_refuses_an_undeclared_kind_or_field():
    trace = simnet.Trace()
    with pytest.raises(ValueError, match="undeclared trace kind 'bogus'"):
        trace.add("bogus", 0)
    with pytest.raises(ValueError, match="'timer' has fields"):
        trace.add("timer", 0, "dev", "extra")
    with pytest.raises(ValueError, match="'record' has fields"):
        trace.add("record", 0, "dev", b"\x01", 1)
    with pytest.raises(ValueError, match="undeclared trace kind 'recrod'"):
        peers.NetHandle(Simulator(1), "dev").note("recrod", b"\x01", 1,
                                                  "accept")
    assert not trace.rows
    trace.add("record", 0, "dev", b"\x01", 1, "accept")
    with pytest.raises(ValueError, match="undeclared trace kind 'bogus'"):
        trace.select("bogus")
    with pytest.raises(ValueError, match=r"no fields \['outcom'\]"):
        trace.select("record", outcom="accept")
    with pytest.raises(KeyError):
        trace.entries[0]["outcom"]


def test_entries_read_plain_forms_and_typed_values():
    """`entry[f]`, `get` and `select` give and match the plain form of a
    typed value, as its line shows it; `typed` gives the value traced."""
    trace = simnet.Trace()
    roots = ((b"ca2", b"\x01" * 32), (b"permanent-ca", b"\x02" * 32))
    trace.add("reset_snapshot", 7, "device-000", "none", "none", roots,
              Uri("coaps://ca2.example/est"), None, None, None)
    trace.add("size", 8, None, "transfer_message_payload", 90)
    trace.add("fallback_contacted", 9, "device-000", False, "ra_failed")
    trace.add("record", 9, "device-000", b"\xab\xcd", 3, "accept")
    assert list(trace.lines()) == [
        "t=00000007 ev=reset_snapshot actor=device-000 op_cert=none "
        "sp1_key=none roots=ca2,permanent-ca ca_uri=coaps://ca2.example/est "
        "update_uri=None ra_uri=None fallback_uri=None",
        "t=00000008 ev=size cls=transfer_message_payload bytes=90",
        "t=00000009 ev=fallback_contacted actor=device-000 ok=False "
        "reason=ra_failed",
        "t=00000009 ev=record actor=device-000 sid=abcd seq=3 outcome=accept"]
    snapshot, size, contacted, record = trace.entries
    assert (snapshot["ev"], snapshot["t"]) == ("reset_snapshot", 7)
    assert snapshot["roots"] == "ca2,permanent-ca"
    assert snapshot.typed("roots") == roots
    assert snapshot["ca_uri"] == "coaps://ca2.example/est"
    assert snapshot["ra_uri"] == "None" and snapshot.typed("ra_uri") is None
    assert size.get("actor") is None and size["bytes"] == 90
    with pytest.raises(KeyError):
        size["actor"]
    assert contacted["ok"] == "False" and contacted.typed("ok") is False
    assert record["sid"] == "abcd" and record.typed("sid") == b"\xab\xcd"
    assert [e.row for e in trace.select("fallback_contacted", ok="False")] \
        == [contacted.row]
    assert trace.select("record", sid=b"\xab\xcd") == []
    assert [e.row for e in trace.select("record", sid="abcd", seq=3)] \
        == [record.row]
    index = trace.index()
    assert index["size"] == [size.row] and index["record"] == [record.row]
    assert len(trace.entries) == 4 and trace.entries[-1].row == record.row


# ---------------------------------------------------------------------------
# adversary controller
# ---------------------------------------------------------------------------

def make_event(payload=b"data", src="a", dst="b", label="msg"):
    return SimEvent(10, EventKind.DELIVER, src, dst, payload, 1, label=label)


def counter():
    state = {"n": 100}

    def next_seq():
        state["n"] += 1
        return state["n"]
    return next_seq


def test_adversary_pass_through_when_no_match():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="drop",
                                                      match_src="nobody")])
    event = make_event()
    out = adversary_apply(schedule, event, counter())
    assert out == [event]


def test_adversary_drop_suppresses_original():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="drop")])
    event = make_event()
    out = adversary_apply(schedule, event, counter())
    assert event not in out
    assert any(e.kind is EventKind.DROP for e in out)


def test_adversary_replay_duplicates_later():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="replay", delay=7)])
    event = make_event()
    out = adversary_apply(schedule, event, counter())
    assert event in out
    replays = [e for e in out if e.kind is EventKind.DELIVER and e is not event]
    assert len(replays) == 1
    assert replays[0].time == event.time + 7
    assert replays[0].payload == event.payload
    assert replays[0].origin == "adversary"


def test_adversary_modify_replaces_with_mutation():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="modify")])
    event = make_event(payload=b"\x00" * 9)
    out = adversary_apply(schedule, event, counter())
    assert event not in out
    mutated = [e for e in out if e.kind is EventKind.DELIVER]
    assert len(mutated) == 1
    assert mutated[0].payload != event.payload
    assert len(mutated[0].payload) == len(event.payload)


def test_adversary_record_then_inject_recorded():
    schedule = AdversarySchedule(rules=[
        AdversaryRule(action="record", match_dst="b", slot="s"),
        AdversaryRule(action="inject_recorded", match_dst="c", slot="s",
                      delay=2),
    ])
    next_seq = counter()
    first = make_event(dst="b", payload=b"captured")
    out1 = adversary_apply(schedule, first, next_seq)
    assert first in out1
    second = make_event(dst="c", payload=b"trigger")
    out2 = adversary_apply(schedule, second, next_seq)
    injected = [e for e in out2 if e.payload == b"captured"]
    assert len(injected) == 1
    assert injected[0].dst == "c"


def test_adversary_inject_frames_into_matched_session():
    frame = wire.encode_wire(wire.RecordFrame(b"\x07" * 8, 5, b"inner"))
    schedule = AdversarySchedule(rules=[
        AdversaryRule(action="inject", inject_payload=b"forged",
                      frame_in_matched_session=True, seq_offset=1),
    ])
    event = make_event(payload=frame)
    out = adversary_apply(schedule, event, counter())
    injected = [e for e in out if e.src == "adversary"
                and e.kind is EventKind.DELIVER]
    assert len(injected) == 1
    parsed = wire.parse_record_frame(injected[0].payload)
    assert parsed.session_id == b"\x07" * 8
    assert parsed.seq == 6
    assert parsed.payload == b"forged"


def test_adversary_inject_spends_first_n_only_on_a_record():
    """An `inject` framed in the matched session lets a delivery that is no
    record frame pass without counting a fire, so with `first_n=1` it still
    injects into the first record it sees."""
    schedule = AdversarySchedule(rules=[
        AdversaryRule(action="inject", inject_payload=b"forged",
                      frame_in_matched_session=True, first_n=1),
    ])
    next_seq = counter()
    hello = make_event(payload=wire.encode_wire(
        wire.Hello(b"\x01" * 32, b"cert", ())))
    assert adversary_apply(schedule, hello, next_seq) == [hello]
    assert schedule.fire_counts == {}
    record = make_event(payload=wire.encode_wire(
        wire.RecordFrame(b"\x07" * 8, 5, b"inner")))
    out = adversary_apply(schedule, record, next_seq)
    injected = [e for e in out if e.src == "adversary"
                and e.kind is EventKind.DELIVER]
    assert len(injected) == 1
    assert wire.parse_record_frame(injected[0].payload).payload == b"forged"
    assert schedule.fire_counts == {0: 1}
    assert adversary_apply(schedule, record, next_seq) == [record]


def test_adversary_every_k_and_first_n():
    schedule = AdversarySchedule(rules=[
        AdversaryRule(action="drop", every_k=2, first_n=2),
    ])
    next_seq = counter()
    dropped = 0
    for i in range(10):
        out = adversary_apply(schedule, make_event(payload=bytes([i])), next_seq)
        if not any(e.kind is EventKind.DELIVER for e in out):
            dropped += 1
    assert dropped == 2  # matches 2,4 fire; 6,8,10 beyond first_n


def test_adversary_never_reprocesses_adversary_traffic():
    result = run_scenario(ScenarioConfig(name="a", variant="b", device_count=1,
                                         seed=3, adversary="replay_all"))
    # every adversary-origin delivery stems from exactly one net observation;
    # replays of replays would blow up the event count
    net_deliveries = [e for e in result.trace.select("deliver")
                      if e["origin"] == "net"]
    adv_deliveries = [e for e in result.trace.select("deliver")
                      if e["origin"] == "adversary"]
    assert 0 < len(adv_deliveries) <= len(net_deliveries)


def test_adversary_module_is_payload_opaque():
    """Structural opacity: the adversary controller never touches message
    decoding beyond record framing; the simulator module cannot import the
    protocol payload codecs."""
    source = inspect.getsource(simnet)
    assert "from . import wire" in source
    assert "messages" not in source.replace("SimEvent", "")
    assert "decode(" not in source.replace("decode_wire", "").replace(
        "parse_record_frame", "")


GLOBS = (st.sampled_from(["*", "?", "[a-c]*", "[!d]*", "device-0*", "ca1.hello",
                          "ca?.*", "*.hello", "[", "[]]"])
         | st.text(alphabet="*?[]!-.ac01", max_size=8))
NAMES = (st.sampled_from(["device-000", "device-12", "ca1.hello", "ca1", "sp2",
                          "", "[", "]", "*"])
         | st.text(alphabet="*?[]!-.abcd01", max_size=10))


@settings(max_examples=200, deadline=None)
@given(st.tuples(GLOBS, GLOBS, GLOBS), st.tuples(NAMES, NAMES, NAMES))
def test_rule_matches_as_fnmatchcase(globs, names):
    """A rule's compiled globs match exactly where `fnmatch.fnmatchcase`
    does, field by field."""
    rule = AdversaryRule(action="drop", match_src=globs[0], match_dst=globs[1],
                         match_label=globs[2])
    event = make_event(src=names[0], dst=names[1], label=names[2])
    assert rule.matches(event) == all(map(fnmatch.fnmatchcase, names, globs))


def test_built_rule_is_frozen():
    rule = AdversaryRule(action="drop", match_src="device-*")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.match_src = "*"
    assert not rule.matches(make_event(src="ca1"))


def test_unknown_adversary_action_rejected():
    """An unknown action is refused when the rule is built, so a rule that
    would never fire cannot hide it."""
    with pytest.raises(ScenarioInvalid):
        AdversaryRule(action="teleport")


@pytest.mark.parametrize("seq_offset", [-1000, 2**63, 2**64 - 1])
def test_seq_offset_outside_counter_range_rejected(seq_offset):
    """An injected frame's sequence number `seq + seq_offset` must fit the
    64-bit record counter, so the offset is refused when the rule is built."""
    with pytest.raises(ScenarioInvalid):
        AdversaryRule(action="inject", frame_in_matched_session=True,
                      seq_offset=seq_offset)
