"""Simulator tests: determinism, termination, adversary actions, framing."""

import copy
import dataclasses
import fnmatch
import hashlib
import inspect
import itertools
import pickle
import re
import typing
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from test_golden_digests import INLINE, SHIPPED
from trustshift import codec, peers, simnet, wire
from trustshift.errors import MalformedEncoding, ScenarioInvalid
from trustshift.messages import Uri
from trustshift.scenario import SCHEDULES, ScenarioConfig, build_adversary, run_scenario
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
    wire.EnrollRsp(True, b"cert", b"", (b"c1", b"c2"), ""),
    wire.UpdateCheck(b"vi"),
    wire.RaReport(b"dev", b"\x04" * 16, b"\x05" * 32),
    wire.TransferDeliver(b"envelope"),
    wire.RegisterReq((b"c1", b"c2", b"c3")),
    wire.FallbackReq(b"dev", "ra_failed"),
    wire.RevokeRsp(True),
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


@pytest.mark.parametrize("tag", [3, 27])
def test_wire_message_refuses_a_clashing_prefix(tag):
    """A tag already taken is refused when the frame is declared, and the
    frames declared still decode."""
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


SAMPLE = {bytes: b"\x01\x02", int: 7, bool: True, str: "text",
          tuple: (b"a", b"b")}


@pytest.mark.parametrize("cls", sorted(wire._REGISTRY.values(),
                                       key=lambda c: c.LABEL))
def test_generated_frame_constructor_keeps_dataclass_semantics(cls):
    """Each frame's generated `__init__` fills the instance as the frozen
    dataclass's own would: a twin declared with `dataclass(frozen=True)`
    alone holds the same `__dict__`, repr and hash, and the frame stays
    frozen, equal to its copies and to nothing of another class."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = [SAMPLE[hint] for hint in typing.get_type_hints(cls).values()]
    frame = cls(*values)
    twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert vars(frame) == vars(twin) and list(vars(frame)) == names
    assert repr(frame) == repr(twin) and hash(frame) == hash(twin)
    assert frame == cls(**dict(zip(names, values))) and frame != twin
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(frame, names[0], values[0])
    for clone in (copy.copy(frame), pickle.loads(pickle.dumps(frame))):
        assert type(clone) is cls and clone == frame and hash(clone) == hash(frame)
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_generated_frame_constructor_calls_post_init():
    class Checked:
        count: "int"

        def __post_init__(self):
            if self.count < 0:
                raise ValueError("negative count")

    frame_cls = wire.compile_frame(Checked, 200)
    assert frame_cls(3).count == 3
    with pytest.raises(ValueError, match="negative count"):
        frame_cls(-1)


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


def test_stale_timer_traces_nothing_and_is_counted():
    """The reply at t=2 ends the wait, so its timer at t=5 is stale: it is
    taken and counted as an event, and traces no `timer` row."""
    sim = Simulator(seed=1)
    sim.register_responder("echo", lambda now, src, data: (
        "echoed", [Transmit(src, data)]))

    def proc():
        yield Transmit("echo", b"ping")
        assert (yield WaitMessage(timeout=5)) == ("echo", b"ping")
        yield Sleep(6)

    sim.spawn("proc", proc())
    sim.start_ready_processes()
    sim.run()
    assert [(e["t"], e["actor"]) for e in sim.trace.select("timer")] \
        == [(8, "proc")]
    assert sim.events_processed == 4  # ping, reply, stale timer, sleep timer


ACTORS = ("p0", "p1", "r0", "r1")
STEPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.sampled_from(ACTORS)),
    st.tuples(st.just("sleep"), st.integers(0, 4)),
    st.tuples(st.just("wait"), st.none() | st.integers(0, 5))), max_size=6)
# Where a responder sends on each delivery: a delay of None returns the
# message from its handler (latency 1), 0-5 transmits it from inside the
# tick, 0 onto the running tick itself.
SENDS = st.lists(st.tuples(st.sampled_from(ACTORS), st.none() | st.integers(0, 5)),
                 max_size=2)


def run_recorded(initial, scripts, replies):
    """Run processes p0, p1 (`scripts`) and responders r0, r1 (`replies`,
    taken round-robin, three hops deep) after the `initial` transmits.
    Returns the simulator, each push as (time, entry, event count when
    pushed), and each dispatch that traced a `deliver` or `timer` row, by
    its event count, with the state and timer token its actor then had."""
    sim, labels = Simulator(seed=1), (f"m{n}" for n in itertools.count())
    pushes, dispatched, turn = [], {}, itertools.count()
    schedule, add = sim._schedule, sim.trace.add

    def record(time, entry):
        pushes.append((time, entry, sim.events_processed))
        schedule(time, entry)

    def traced(*row):
        if row[0] in ("deliver", "timer"):
            proc = sim._processes.get(row[3] if row[0] == "deliver" else row[2])
            dispatched[sim.events_processed] = (
                row, proc and proc.state, proc and proc.timer_token)
        add(*row)

    sim._schedule, sim.trace.add = record, traced

    def responder(name):
        def handle(now, src, data):
            sends = []
            for dst, delay in replies[next(turn) % len(replies)] \
                    if data[0] < 3 else ():
                hop = bytes([data[0] + 1])
                if delay is None:
                    sends.append(Transmit(dst, hop, next(labels)))
                else:
                    sim.transmit(name, dst, hop, next(labels), delay=delay)
            return "handled", sends
        return handle

    def process(steps):
        for step, arg in steps:
            if step == "send":
                yield Transmit(arg, b"\x00", next(labels))
            else:
                yield Sleep(arg) if step == "sleep" else WaitMessage(arg)

    for name in ("r0", "r1"):
        sim.register_responder(name, responder(name))
    for name, steps in zip(("p0", "p1"), scripts):
        sim.spawn(name, process(steps))
    for dst, delay in initial:
        sim.transmit("env", dst, b"\x00", next(labels), delay=delay)
    sim.start_ready_processes()
    sim.run()
    return sim, pushes, dispatched


# p0 waits 2 ticks for r0's answer, which r0 sends from inside t=1 with
# delay 1: it lands on the tick the wait expires, after the timer.
@example(initial=[], scripts=[[("send", "r0"), ("wait", 2), ("wait", 3)], []],
         replies=[[("p0", 1)]])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ACTORS), st.integers(0, 5)),
                max_size=6),
       st.lists(STEPS, min_size=2, max_size=2),
       st.lists(SENDS, min_size=1, max_size=4))
def test_dispatch_order_is_time_then_push_order(initial, scripts, replies):
    """Every entry pushed is taken once, in order of (time, push index),
    and counted in `events_processed`. A delivery traces its `deliver` row.
    A timer traces its `timer` row unless a delivery woke its process from
    the wait between the timer's push and its turn: then it is stale and
    traces nothing."""
    sim, pushes, dispatched = run_recorded(initial, scripts, replies)
    order = sorted(range(len(pushes)), key=lambda i: (pushes[i][0], i))
    assert sim.events_processed == len(pushes)
    for count, index in enumerate(order, 1):
        time, entry, pushed_at = pushes[index]
        row, _state, token = dispatched.get(count, (None, None, None))
        if type(entry) is SimEvent:
            assert row[:2] == ("deliver", time) and row[4] == entry.label
            continue
        proc, timer_token = entry
        if any(pushed_at < at < count and r[0] == "deliver"
               and r[3] == proc.name and state == "waiting"
               for at, (r, state, _) in dispatched.items()):
            assert row is None, "a stale timer traced a row"
            event("stale timer")
        else:
            assert row == ("timer", time, proc.name) and token == timer_token
        if any(r[:2] == ("deliver", time) and r[3] == proc.name
               for r, _, _ in dispatched.values()):
            event("a delivery on the tick its process's timer is due")


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


def test_process_yielding_an_unknown_command_is_refused():
    sim = Simulator(seed=1)

    def proc():
        yield "send it"

    sim.spawn("p", proc())
    with pytest.raises(ScenarioInvalid, match="process p yielded 'send it'"):
        sim.start_ready_processes()


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


def test_event_budget_enforced(monkeypatch):
    monkeypatch.setattr(simnet, "EVENT_BUDGET", 10)
    sim = Simulator(seed=1)

    def ping_forever():
        while True:
            yield Sleep(1)

    sim.spawn("p", ping_forever())
    sim.start_ready_processes()
    with pytest.raises(ScenarioInvalid, match="event budget 10 exceeded"):
        sim.run()
    assert sim.events_processed == 10


def test_events_processed_read_as_run_exits(monkeypatch):
    """A wrapper that reads `events_processed` as `run` exits, as the
    benchmark's run probe does in a `finally`, reads every event taken,
    whether the run drains its queue or the event budget stops it."""
    seen, run = [], Simulator.run

    def probed(sim):
        try:
            return run(sim)
        finally:
            seen.append(sim.events_processed)

    def sleeper(naps):
        for _ in range(naps):
            yield Sleep(1)

    monkeypatch.setattr(Simulator, "run", probed)
    monkeypatch.setattr(simnet, "EVENT_BUDGET", 10)
    for naps in (4, 20):
        sim = Simulator(seed=1)
        sim.spawn("p", sleeper(naps))
        sim.start_ready_processes()
        if naps < 10:
            sim.run()
        else:
            with pytest.raises(ScenarioInvalid, match="budget 10 exceeded"):
                sim.run()
    assert seen == [4, 10]


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


@pytest.mark.parametrize("kind", sorted(simnet.TRACE_KINDS))
def test_trace_refuses_a_row_one_field_short_or_long(kind):
    """Every declared kind: a row one value short or one value long is
    refused with the kind's fields named, the kind's name in capitals is
    undeclared, and a row of the declared width is kept."""
    fields = tuple(word.rstrip("?").partition(":")[0]
                   for word in simnet.TRACE_KINDS[kind].split())
    trace, width = simnet.Trace(), len(fields)
    for values in ((None,) * (width - 1), (None,) * (width + 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"trace kind {kind!r} has fields {fields}, given {values!r}")):
            trace.add(kind, 0, *values)
    with pytest.raises(ValueError,
                       match=f"undeclared trace kind {kind.upper()!r}"):
        trace.add(kind.upper(), 0, *(None,) * width)
    assert not trace.rows
    trace.add(kind, 0, *(None,) * width)
    assert trace.rows == [(kind, 0) + (None,) * width]


def test_entries_read_plain_forms_and_typed_values():
    """`entry[f]`, `get` and `select` give and match the plain form of a
    typed value, as its line shows it; `typed` gives the value traced."""
    trace = simnet.Trace()
    roots = ((b"ca2", b"\x01" * 32), (b"permanent-ca", b"\x02" * 32))
    trace.add("reset_snapshot", 7, "device-000", "none", "none", roots,
              Uri("coaps://ca2.example/est"), None, None, None)
    trace.add("revocation_failed", 8, "sp1-orchestrator", None, "no_route")
    trace.add("fallback_contacted", 9, "device-000", False, "ra_failed")
    trace.add("record", 9, "device-000", b"\xab\xcd", 3, "accept")
    assert list(trace.lines()) == [
        "t=00000007 ev=reset_snapshot actor=device-000 op_cert=none "
        "sp1_key=none roots=ca2,permanent-ca ca_uri=coaps://ca2.example/est "
        "update_uri=None ra_uri=None fallback_uri=None",
        "t=00000008 ev=revocation_failed actor=sp1-orchestrator "
        "status=no_route",
        "t=00000009 ev=fallback_contacted actor=device-000 ok=False "
        "reason=ra_failed",
        "t=00000009 ev=record actor=device-000 sid=abcd seq=3 outcome=accept"]
    snapshot, failed, contacted, record = trace.entries
    assert (snapshot["ev"], snapshot["t"]) == ("reset_snapshot", 7)
    assert snapshot["roots"] == "ca2,permanent-ca"
    assert snapshot.typed("roots") == roots
    assert snapshot["ca_uri"] == "coaps://ca2.example/est"
    assert snapshot["ra_uri"] == "None" and snapshot.typed("ra_uri") is None
    assert failed.get("device") is None and failed["status"] == "no_route"
    with pytest.raises(KeyError):
        failed["device"]
    assert contacted["ok"] == "False" and contacted.typed("ok") is False
    assert record["sid"] == "abcd" and record.typed("sid") == b"\xab\xcd"
    assert [e.row for e in trace.select("fallback_contacted", ok="False")] \
        == [contacted.row]
    assert trace.select("record", sid=b"\xab\xcd") == []
    assert [e.row for e in trace.select("record", sid="abcd", seq=3)] \
        == [record.row]
    index = trace.index()
    assert index["revocation_failed"] == [failed.row]
    assert index["record"] == [record.row]
    assert len(trace.entries) == 4 and trace.entries[-1].row == record.row


# ---------------------------------------------------------------------------
# adversary controller
# ---------------------------------------------------------------------------

def make_event(payload=b"data", src="a", dst="b", label="msg"):
    return SimEvent(10, EventKind.DELIVER, src, dst, payload, label=label)


def test_adversary_pass_through_when_no_match():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="drop",
                                                      match_src="nobody")])
    event = make_event()
    out = adversary_apply(schedule, event)
    assert out == [event]


def test_adversary_drop_suppresses_original():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="drop")])
    event = make_event()
    out = adversary_apply(schedule, event)
    assert event not in out
    assert any(e.kind is EventKind.DROP for e in out)


def test_adversary_replay_duplicates_later():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="replay", delay=7)])
    event = make_event()
    out = adversary_apply(schedule, event)
    assert event in out
    replays = [e for e in out if e.kind is EventKind.DELIVER and e is not event]
    assert len(replays) == 1
    assert replays[0].time == event.time + 7
    assert replays[0].payload == event.payload
    assert replays[0].origin == "adversary"


def test_adversary_modify_replaces_with_mutation():
    schedule = AdversarySchedule(rules=[AdversaryRule(action="modify")])
    event = make_event(payload=b"\x00" * 9)
    out = adversary_apply(schedule, event)
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
    first = make_event(dst="b", payload=b"captured")
    out1 = adversary_apply(schedule, first)
    assert first in out1
    second = make_event(dst="c", payload=b"trigger")
    out2 = adversary_apply(schedule, second)
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
    out = adversary_apply(schedule, event)
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
    hello = make_event(payload=wire.encode_wire(
        wire.Hello(b"\x01" * 32, b"cert", ())))
    assert adversary_apply(schedule, hello) == [hello]
    assert schedule.fire_counts == {}
    record = make_event(payload=wire.encode_wire(
        wire.RecordFrame(b"\x07" * 8, 5, b"inner")))
    out = adversary_apply(schedule, record)
    injected = [e for e in out if e.src == "adversary"
                and e.kind is EventKind.DELIVER]
    assert len(injected) == 1
    assert wire.parse_record_frame(injected[0].payload).payload == b"forged"
    assert schedule.fire_counts == {0: 1}
    assert adversary_apply(schedule, record) == [record]


def test_adversary_every_k_and_first_n():
    schedule = AdversarySchedule(rules=[
        AdversaryRule(action="drop", every_k=2, first_n=2),
    ])
    dropped = 0
    for i in range(10):
        out = adversary_apply(schedule, make_event(payload=bytes([i])))
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
    protocol payload codecs, and takes from `codec` only `owe`, with which
    the run loop declares each copy of a payload it puts in flight."""
    source = inspect.getsource(simnet)
    assert "from . import wire" in source
    assert "messages" not in source.replace("SimEvent", "")
    assert "decode(" not in source.replace("decode_wire", "").replace(
        "parse_record_frame", "")
    assert source.count("codec") == 1 and "from .codec import owe\n" in source


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


# A value other than its default for each field past a rule's trigger.
SET_FIELDS = {"delay": 7, "redirect_dst": "elsewhere", "xor_pos": 2,
              "xor_mask": 0x80, "slot": "s", "inject_payload": b"x",
              "frame_in_matched_session": True, "seq_offset": 1}
TRIGGER = ("action", "match_src", "match_dst", "match_label", "first_n",
           "every_k")
# The fields `adversary_apply` reads for each action, besides the trigger.
READS = {"drop": (), "replay": ("delay", "redirect_dst"),
         "modify": ("xor_pos", "xor_mask"), "record": ("slot",),
         "inject_recorded": ("slot", "delay", "redirect_dst"),
         "inject": ("inject_payload", "frame_in_matched_session", "seq_offset",
                    "delay", "redirect_dst")}


def test_set_fields_cover_every_field_past_the_trigger():
    assert set(SET_FIELDS) == {f.name for f in dataclasses.fields(AdversaryRule)
                               } - set(TRIGGER)
    assert set(READS) == set(simnet.ADVERSARY_ACTIONS)


@pytest.mark.parametrize("action, name", [
    (action, name) for action, reads in READS.items()
    for name in SET_FIELDS if name not in reads])
def test_field_the_action_does_not_read_is_refused(action, name):
    """A rule that sets a field its action never reads would test nothing
    it appears to, so it is refused when built, naming the field."""
    with pytest.raises(ScenarioInvalid, match=f"does not read {name}"):
        AdversaryRule(action=action, **{name: SET_FIELDS[name]})
    AdversaryRule(action=action, **{name: AdversaryRule.__dataclass_fields__[
        name].default})  # its default is no setting


@pytest.mark.parametrize("action, name", [
    (action, name) for action, reads in READS.items() for name in reads])
def test_field_the_action_reads_is_accepted(action, name):
    rule = AdversaryRule(action=action, match_src="sp1", first_n=2, every_k=3,
                         **{name: SET_FIELDS[name]})
    assert getattr(rule, name) == SET_FIELDS[name]


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_every_named_schedule_builds(name):
    schedule = build_adversary(name, seed=1)
    assert len(schedule.rules) == len(SCHEDULES[name])
