"""Deterministic discrete-event network with a Dolev-Yao adversary.

Single-threaded event loop over per-tick buckets: each tick's entries run
in the order they were pushed, and a heap orders only the ticks. Identical
(scenario, seed) inputs replay to byte-identical traces. Actors are either
reactive responders (a handler per delivery that returns the Transmit
commands it sends) or generator-based processes that yield
Transmit/Sleep/WaitMessage commands; a process's timer is a bare
(process, token) entry, stale once the process has moved on.

The trace keeps one typed row per entry, of a kind declared once in
`TRACE_KINDS`; rows render to `key=value` lines only when asked.

The adversary controller observes transmissions in flight and may drop,
replay, modify, record or inject; it sees only framing metadata (source,
destination, label, record session id and sequence number) and treats
record payloads as opaque blobs.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import heapq
import random
import re
import types
import typing
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from enum import Enum

from . import wire
from .codec import owe
from .errors import ScenarioInvalid

LATENCY = 1
# Events one run may process before it is stopped as runaway.
EVENT_BUDGET = 500_000

TIMEOUT = object()  # sentinel delivered to a process when a wait expires


class EventKind(Enum):
    DELIVER = "deliver"
    DROP = "drop"
    ADVERSARY_ACTION = "adversaryAction"


DELIVER, DROP, ADVERSARY_ACTION = EventKind


class SimEvent(typing.NamedTuple):
    time: int
    kind: EventKind
    src: str
    dst: str
    payload: bytes
    label: str = ""
    origin: str = "net"  # net | adversary
    note: str = ""


# --- commands yielded by process actors ---

class Transmit(typing.NamedTuple):
    dst: str
    payload: bytes
    label: str = ""


class Sleep(typing.NamedTuple):
    duration: int


class WaitMessage(typing.NamedTuple):
    timeout: int | None = None


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def _text(name: bytes) -> str:
    return str(name, "utf-8", "replace")


def _root_names(roots) -> str:
    return ",".join(sorted(_text(name) for name, _ in roots))


# Value kind -> the plain form of a typed value: what an entry's line shows
# and what `Entry[...]` and `Trace.select` give and match. A field of no
# kind holds a str or an int, its own plain form.
VALUE_KINDS = {
    "bytes": bytes.hex,
    "name": _text,
    "bool": str,  # True or False; None where there is no verdict
    "uri": str,  # a Uri, or None
    "roots": _root_names,  # ((name, digest of the encoding), ...)
}

# Every trace event kind and its fields, in rendered order: "f" holds a str
# or an int, "f:kind" a typed value of that `VALUE_KINDS` kind, and "f?" may
# be None, which leaves it out of the entry. `actor` names the actor that
# noted the entry (`peers.NetHandle.note`).
TRACE_KINDS = {
    # the simulator
    "deliver": "src dst label size origin disp",
    "drop": "src dst label size note",
    "adversary": "dst label note",
    "timer": "actor",
    # sessions (peers)
    "session": "sid:bytes fp:bytes a b",
    "record": "actor sid:bytes seq outcome",
    "handshake": "actor outcome purpose?",
    "note": "actor what purpose? got?",
    # devices
    "phase": "actor frm to",
    "firmware_updated": "actor seq",
    "trust_push_applied": "actor count",
    "transfer_rejected": "actor reason",
    "transfer_accepted": "actor size",
    "enroll_retry": "actor reason",
    "enroll_gave_up": "actor",
    "sp1_unreachable": "actor",
    "reset_snapshot": "actor op_cert sp1_key roots:roots ca_uri:uri "
                      "update_uri:uri ra_uri:uri fallback_uri:uri",
    "fallback_start": "actor reason",
    "fallback_ra": "actor verdict:bool",
    "fallback_contacted": "actor ok:bool reason",
    "sp2_checkin": "actor ok:bool",
    # servers
    "ra_verdict": "actor device:name verdict:bool",
    "revoked": "actor subject:name count",
    "transfer_ack": "actor device:name accepted:bool reason",
    "fallback_served": "actor device:name reason",
    "list_rejected": "actor reason",
    "tm_rejected": "actor reason",
    "size": "actor cls bytes",
    # operator orchestration
    "push_skipped": "actor device:name reason",
    "prep_pushes_incomplete": "actor count",
    "transfer_pushes_done": "actor unacked",
    "transfer_aborted": "actor step status",
    "revocation_failed": "actor device:name? status",
    "sp1_orchestration_done": "actor",
    "sp2_orchestration_done": "actor",
}


class TraceKind:
    """One declared event kind, read from its `TRACE_KINDS` spec: its field
    names, each field's position in a row, whether it may be left out, and
    the plain form of its typed values."""

    __slots__ = ("fields", "positions", "optional", "plain")

    def __init__(self, spec: str):
        self.fields, self.optional, self.plain = (), set(), {}
        for word in spec.split():
            field_name, _, kind = word.rstrip("?").partition(":")
            self.fields += (field_name,)
            if word.endswith("?"):
                self.optional.add(field_name)
            if kind:
                self.plain[field_name] = VALUE_KINDS[kind]
        # A row is (kind, time, *field values).
        self.positions = {f: i for i, f in enumerate(self.fields, 2)}

    def line(self, row: tuple) -> str:
        parts = [f"t={row[1]:08d} ev={row[0]}"]
        for name, value in zip(self.fields, row[2:]):
            if value is None and name in self.optional:
                continue
            plain = self.plain.get(name)
            parts.append(f"{name}={value if plain is None else plain(value)}")
        return " ".join(parts)


_KINDS = {name: TraceKind(spec) for name, spec in TRACE_KINDS.items()}


def _declared(kind: str) -> TraceKind:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"undeclared trace kind {kind!r}") from None


class Entry:
    """One trace entry read by field name, as its dict was read before
    entries were typed: `entry[f]` and `entry.get(f)` give the plain form
    (hex, comma-joined root names, "True"), `typed(f)` the value traced."""

    __slots__ = ("row",)

    def __init__(self, row: tuple):
        self.row = row

    def typed(self, field_name: str):
        """The value traced for `field_name`; KeyError if the kind has no
        such field or the entry leaves it out."""
        if field_name == "ev":
            return self.row[0]
        if field_name == "t":
            return self.row[1]
        kind = _KINDS[self.row[0]]
        value = self.row[kind.positions[field_name]]
        if value is None and field_name in kind.optional:
            raise KeyError(field_name)
        return value

    def __getitem__(self, field_name: str):
        value = self.typed(field_name)
        plain = _KINDS[self.row[0]].plain.get(field_name)
        return value if plain is None else plain(value)

    def get(self, field_name: str, default=None):
        try:
            return self[field_name]
        except KeyError:
            return default


class Trace:
    """Record of everything that happened, one row per entry: (kind name,
    time, *its field values, typed). Most rows hold only str, int, bytes
    and None, so the garbage collector stops tracking them. Rows render to
    lines only when asked; `render()` and `digest()` are over those lines."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, *row) -> None:
        """Append one entry, `row` = (kind, time, *values): the values of
        the kind's declared fields in order, None for an optional field left
        out. The row is kept as given."""
        declared = _KINDS.get(row[0]) or _declared(row[0])
        if len(row) != len(declared.fields) + 2:
            raise ValueError(f"trace kind {row[0]!r} has fields "
                             f"{declared.fields}, given {row[2:]!r}")
        self.rows.append(row)

    @property
    def entries(self) -> list[Entry]:
        """A view of each row, read by field name."""
        return list(map(Entry, self.rows))

    def index(self) -> dict[str, list[tuple]]:
        """The rows of each kind by kind name, in trace order: one pass."""
        out = defaultdict(list)
        for row in self.rows:
            out[row[0]].append(row)
        return out

    def lines(self):
        """The rendered line of each entry, in order."""
        for row in self.rows:
            yield _KINDS[row[0]].line(row)

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def digest(self) -> str:
        """SHA-256 of `render()`, fed line by line: the rendered trace is
        never held whole."""
        digest = hashlib.sha256(b"" if self.rows else b"\n")
        for line in self.lines():
            digest.update(f"{line}\n".encode())
        return digest.hexdigest()

    def select(self, kind: str, **match) -> list[Entry]:
        """The entries of declared `kind` whose fields' plain forms equal
        `match`; a field the kind does not declare is an error."""
        declared = _declared(kind)
        undeclared = set(match) - set(declared.positions) - {"t"}
        if undeclared:
            raise ValueError(f"trace kind {kind!r} has no fields "
                             f"{sorted(undeclared)}")
        entries = (Entry(row) for row in self.rows if row[0] == kind)
        return [entry for entry in entries
                if all(entry.get(k) == v for k, v in match.items())]


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------

# Each action and the rule fields it reads besides its trigger (`match_*`,
# `first_n`, `every_k`); a rule that sets any other field is refused.
ADVERSARY_ACTIONS = {
    "drop": (),
    "replay": ("delay", "redirect_dst"),
    "modify": ("xor_pos", "xor_mask"),
    "record": ("slot",),
    "inject_recorded": ("slot", "delay", "redirect_dst"),
    "inject": ("inject_payload", "frame_in_matched_session", "seq_offset",
               "delay", "redirect_dst"),
}
_TRIGGER = ("action", "match_src", "match_dst", "match_label", "first_n",
            "every_k")


def _is_a(value, hint) -> bool:
    """isinstance against a resolved annotation; a bool is no int, as in JSON."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_is_a(value, a) for a in args)
    if origin is not None:  # a container; a list's items are checked too
        return isinstance(value, origin) and (
            origin is not list or all(_is_a(v, args[0]) for v in value))
    return type(value) is int if hint is int else isinstance(value, hint)


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class


def check_fields(obj) -> None:
    """Refuse a dataclass holding a field value of another type than its
    annotation: config values are checked when read, not when first used."""
    for name, hint in _type_hints(type(obj)).items():
        if not _is_a(getattr(obj, name), hint):
            raise ScenarioInvalid(f"{type(obj).__name__}.{name} must be "
                                  f"{hint}, not {getattr(obj, name)!r}")


@dataclass(frozen=True)
class AdversaryRule:
    """One trigger/action pair over in-flight transmissions."""

    action: str  # one of ADVERSARY_ACTIONS
    match_src: str = "*"
    match_dst: str = "*"
    match_label: str = "*"
    delay: int = 3
    redirect_dst: str | None = None
    xor_pos: int | None = None
    xor_mask: int = 0x01
    slot: str = "default"
    inject_payload: bytes = b""
    frame_in_matched_session: bool = False
    seq_offset: int = 1_000_000
    first_n: int | None = None
    every_k: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.action not in ADVERSARY_ACTIONS:
            raise ScenarioInvalid(f"unknown adversary action {self.action!r}")
        # seq + seq_offset of an injected frame must fit the 64-bit counter.
        if self.delay < 0 or self.every_k < 1 or not 0 <= self.xor_mask <= 255 \
                or (self.first_n or 0) < 0 or not 0 <= self.seq_offset < 2**63:
            raise ScenarioInvalid("adversary rule needs delay >= 0, every_k >= 1,"
                                  " first_n >= 0, 0 <= xor_mask <= 255 and"
                                  " 0 <= seq_offset < 2**63")
        unread = [f.name for f in fields(self) if getattr(self, f.name) != f.default
                  and f.name not in _TRIGGER + ADVERSARY_ACTIONS[self.action]]
        if unread:
            raise ScenarioInvalid(f"adversary action {self.action!r} does not "
                                  f"read {', '.join(unread)}")
        # Index of the event field and `fnmatch.fnmatchcase`'s matcher, per glob but "*".
        object.__setattr__(self, "_globs", tuple(
            (SimEvent._fields.index(f), re.compile(fnmatch.translate(glob)).match)
            for f in ("src", "dst", "label")
            if (glob := getattr(self, f"match_{f}")) != "*"))

    def matches(self, event: SimEvent) -> bool:
        for index, match in self._globs:
            if match(event[index]) is None:
                return False
        return True


@dataclass
class AdversarySchedule:
    rules: list[AdversaryRule] = field(default_factory=list)
    recorded: dict[str, list[SimEvent]] = field(default_factory=dict)
    match_counts: dict[int, int] = field(default_factory=dict)
    fire_counts: dict[int, int] = field(default_factory=dict)


# `_event(SimEvent, fields)`: an event from all eight of its fields, without
# the namedtuple's Python-level constructor that fills in defaults.
_event = tuple.__new__


def adversary_apply(schedule: AdversarySchedule,
                    event: SimEvent) -> list[SimEvent]:
    """Emit the events that replace an observed delivery.

    Non-consuming rules stack; the first consuming rule (drop, modify) decides
    the fate of the original. A rule counts towards `first_n` only when it
    acts. Payload bytes are never interpreted beyond record framing metadata.
    """
    time, _, src, dst, payload, label = event[:6]
    out: list[SimEvent] = []
    for idx, rule in enumerate(schedule.rules):
        if not rule.matches(event):
            continue
        schedule.match_counts[idx] = schedule.match_counts.get(idx, 0) + 1
        if schedule.match_counts[idx] % rule.every_k != 0:
            continue
        fired = schedule.fire_counts.get(idx, 0)
        if rule.first_n is not None and fired >= rule.first_n:
            continue
        action = rule.action
        if action == "inject" and rule.frame_in_matched_session:
            frame = wire.parse_record_frame(payload)
            if frame is None:
                continue
        schedule.fire_counts[idx] = fired + 1
        out.append(_event(SimEvent, (time, ADVERSARY_ACTION, "adversary", dst,
                                     b"", label, "adversary", f"{action}:{idx}")))
        to = rule.redirect_dst or dst

        if action == "record":
            schedule.recorded.setdefault(rule.slot, []).append(event)
        elif action == "drop":
            out.append(_event(SimEvent, (time, DROP, src, dst, payload, label,
                                         "adversary", "adversary_drop")))
            return out
        elif action == "replay":
            out.append(_event(SimEvent, (time + rule.delay, DELIVER, src, to,
                                         payload, label, "adversary", "")))
        elif action == "modify":
            data = bytearray(payload)
            if data:
                pos = rule.xor_pos if rule.xor_pos is not None else len(data) // 2
                data[pos % len(data)] ^= rule.xor_mask
            out.append(_event(SimEvent, (time, DELIVER, src, dst, bytes(data),
                                         label, "adversary", "")))
            return out
        elif action == "inject_recorded":
            for recorded in schedule.recorded.get(rule.slot, []):
                out.append(_event(SimEvent, (
                    time + rule.delay, DELIVER, recorded.src, to,
                    recorded.payload, recorded.label, "adversary", "")))
        elif action == "inject":
            injected = rule.inject_payload
            if rule.frame_in_matched_session:
                injected = wire.encode_wire(wire.RecordFrame(
                    frame.session_id, frame.seq + rule.seq_offset, injected))
            out.append(_event(SimEvent, (time + rule.delay, DELIVER, "adversary",
                                         to, injected, "injected", "adversary",
                                         "")))
    out.append(event)
    return out


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

class _Process:
    __slots__ = ("generator", "inbox", "state", "timer_token", "name")

    def __init__(self, name, generator):
        self.name = name
        self.generator = generator
        self.inbox = deque()
        self.state = "ready"  # ready | waiting | sleeping | done
        self.timer_token = 0


class Simulator:
    """Deterministic event loop; the only mover of simulated time."""

    def __init__(self, seed: int):
        self.now = 0
        self.seed = seed
        self.trace = Trace()
        self.events_processed = 0
        self.adversary: AdversarySchedule | None = None
        # Each tick's entries in push order: a SimEvent, or a timer
        # (process, token); `_ticks` is a heap of the ticks with a bucket.
        self._buckets: dict[int, deque] = {}
        self._ticks: list[int] = []
        self._responders: dict[str, object] = {}
        self._processes: dict[str, _Process] = {}
        self._uri_map: dict[str, str] = {}

    # --- wiring ---

    def register_responder(self, actor_id: str, handler) -> None:
        self._responders[actor_id] = handler

    def spawn(self, actor_id: str, generator) -> None:
        self._processes[actor_id] = _Process(actor_id, generator)

    def bind_uri(self, uri: str, actor_id: str) -> None:
        self._uri_map[uri] = actor_id

    def resolve(self, uri: str) -> str | None:
        return self._uri_map.get(uri)

    def actor_rng(self, actor_id: str) -> random.Random:
        material = hashlib.sha256(
            self.seed.to_bytes(8, "big") + actor_id.encode()).digest()
        return random.Random(int.from_bytes(material, "big"))

    # --- queue ---

    def _schedule(self, time: int, entry) -> None:
        """Append `entry` to tick `time`'s bucket, new ticks to the heap."""
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            heapq.heappush(self._ticks, time)
        bucket.append(entry)

    def transmit(self, src: str, dst: str, payload: bytes, label: str = "",
                 delay: int = LATENCY) -> None:
        time = self.now + delay
        self._schedule(time, _event(SimEvent, (time, DELIVER, src, dst,
                                               payload, label, "net", "")))

    # --- run loop ---

    def run(self) -> Trace:
        """Run each tick's bucket in push order, ticks in time order. An
        entry pushed for the running tick joins the tail of its bucket."""
        buckets, ticks, trace = self._buckets, self._ticks, self.trace
        budget = EVENT_BUDGET
        while ticks:
            self.now = now = heapq.heappop(ticks)
            bucket = buckets[now]
            while bucket:
                if self.events_processed >= budget:
                    raise ScenarioInvalid(
                        f"event budget {budget} exceeded at t={now}")
                entry = bucket.popleft()
                self.events_processed += 1
                if type(entry) is tuple:  # a timer: (process, token)
                    proc, token = entry
                    if token == proc.timer_token:  # else stale: nothing to do
                        trace.add("timer", now, proc.name)
                        self._resume(proc, TIMEOUT if proc.state == "waiting"
                                     else None)
                elif entry.kind is DELIVER:
                    # give the adversary one look at net-originated traffic
                    if self.adversary is None or entry.origin != "net":
                        self._deliver(entry)
                        continue
                    for emitted in adversary_apply(self.adversary, entry):
                        if emitted is entry:
                            self._deliver(entry)
                            continue
                        if emitted.payload is entry.payload \
                                and emitted.kind is DELIVER:
                            owe(entry.payload)  # a copy: one more decode
                        self._schedule(emitted.time, emitted)
                elif entry.kind is DROP:
                    trace.add("drop", now, entry.src, entry.dst, entry.label,
                              len(entry.payload), entry.note)
                else:
                    trace.add("adversary", now, entry.dst, entry.label,
                              entry.note)
            del buckets[now]
        return trace

    def start_ready_processes(self) -> None:
        for proc in self._processes.values():
            if proc.state == "ready":
                self._resume(proc, None)

    def _deliver(self, event: SimEvent) -> None:
        handler = self._responders.get(event.dst)
        if handler is not None:
            disposition, sends = handler(self.now, event.src, event.payload)
            self.trace.add("deliver", event.time, event.src, event.dst,
                           event.label, len(event.payload), event.origin,
                           disposition)
            for dst, payload, label in sends:
                self.transmit(event.dst, dst, payload, label)
            return

        proc = self._processes.get(event.dst)
        if proc is None or proc.state == "done":
            self.trace.add("deliver", event.time, event.src, event.dst,
                           event.label, len(event.payload), event.origin,
                           "no_actor")
            return
        self.trace.add("deliver", event.time, event.src, event.dst,
                       event.label, len(event.payload), event.origin, "queued")
        proc.inbox.append((event.src, event.payload))
        if proc.state == "waiting":
            proc.timer_token += 1  # invalidate any pending wait timer
            value = proc.inbox.popleft()
            self._resume(proc, value)

    def _resume(self, proc: _Process, value) -> None:
        proc.state = "running"
        try:
            while True:
                command = proc.generator.send(value)
                value = None
                kind = type(command)
                if kind is Transmit:
                    self.transmit(proc.name, *command)
                elif kind is WaitMessage and proc.inbox:
                    value = proc.inbox.popleft()
                elif kind is Sleep or kind is WaitMessage:
                    proc.state = "sleeping" if kind is Sleep else "waiting"
                    proc.timer_token += 1
                    if command[0] is not None:  # the duration or timeout
                        self._schedule(self.now + max(1, command[0]),
                                       (proc, proc.timer_token))
                    return
                else:
                    raise ScenarioInvalid(
                        f"process {proc.name} yielded {command!r}")
        except StopIteration:
            proc.state = "done"
