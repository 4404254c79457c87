"""Deterministic discrete-event network with a Dolev-Yao adversary.

Single-threaded event loop over a (time, tiebreaker) heap; identical
(scenario, seed) inputs replay to byte-identical traces. Actors are either
reactive responders (a handler per delivery that returns the Transmit
commands it sends) or generator-based processes that yield
Transmit/Sleep/WaitMessage commands.

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
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from . import wire
from .errors import ScenarioInvalid

LATENCY = 1

TIMEOUT = object()  # sentinel delivered to a process when a wait expires


class EventKind(Enum):
    DELIVER = "deliver"
    DROP = "drop"
    TIMER_FIRE = "timerFire"
    ADVERSARY_ACTION = "adversaryAction"


class SimEvent(typing.NamedTuple):
    time: int
    kind: EventKind
    src: str
    dst: str
    payload: bytes
    seq: int = 0  # global tie-breaker from Simulator._next_seq
    label: str = ""
    origin: str = "net"  # net | adversary
    note: str = ""


# --- commands yielded by process actors ---

@dataclass(frozen=True)
class Transmit:
    dst: str
    payload: bytes
    label: str = ""


@dataclass(frozen=True)
class Sleep:
    duration: int


@dataclass(frozen=True)
class WaitMessage:
    timeout: int | None = None


class Trace:
    """Structured, line-renderable record of everything that happened."""

    def __init__(self):
        self.entries: list[dict] = []

    def add(self, kind: str, time: int, **fields) -> None:
        self.entries.append({"ev": kind, "t": time, **fields})

    def lines(self) -> list[str]:
        out = []
        for entry in self.entries:
            parts = [f"t={entry['t']:08d}", f"ev={entry['ev']}"]
            for key, value in entry.items():
                if key in ("t", "ev"):
                    continue
                parts.append(f"{key}={value}")
            out.append(" ".join(parts))
        return out

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()

    def select(self, kind: str, **match) -> list[dict]:
        out = []
        for entry in self.entries:
            if entry["ev"] != kind:
                continue
            if all(entry.get(k) == v for k, v in match.items()):
                out.append(entry)
        return out


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------

ADVERSARY_ACTIONS = ("drop", "replay", "modify", "record", "inject_recorded",
                     "inject")


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


def adversary_apply(schedule: AdversarySchedule, event: SimEvent,
                    next_seq) -> list[SimEvent]:
    """Emit the events that replace an observed delivery.

    Non-consuming rules (record) stack; the first consuming rule decides the
    fate of the original. Payload bytes are never interpreted beyond record
    framing metadata.
    """
    out: list[SimEvent] = []
    consumed = False
    for idx, rule in enumerate(schedule.rules):
        if consumed or not rule.matches(event):
            continue
        schedule.match_counts[idx] = schedule.match_counts.get(idx, 0) + 1
        count = schedule.match_counts[idx]
        if count % rule.every_k != 0:
            continue
        if rule.first_n is not None and schedule.fire_counts.get(idx, 0) >= rule.first_n:
            continue
        schedule.fire_counts[idx] = schedule.fire_counts.get(idx, 0) + 1

        marker = SimEvent(event.time, EventKind.ADVERSARY_ACTION, "adversary",
                          event.dst, b"", next_seq(), label=event.label,
                          origin="adversary", note=f"{rule.action}:{idx}")
        if rule.action == "inject" and rule.frame_in_matched_session:
            frame = wire.parse_record_frame(event.payload)
            if frame is None:
                continue
        out.append(marker)

        if rule.action == "record":
            schedule.recorded.setdefault(rule.slot, []).append(event)
            continue

        if rule.action == "drop":
            out.append(SimEvent(event.time, EventKind.DROP, event.src, event.dst,
                                event.payload, next_seq(), label=event.label,
                                origin="adversary", note="adversary_drop"))
            consumed = True
            continue

        if rule.action == "replay":
            dst = rule.redirect_dst or event.dst
            out.append(SimEvent(event.time + rule.delay, EventKind.DELIVER,
                                event.src, dst, event.payload, next_seq(),
                                label=event.label, origin="adversary"))
            continue

        if rule.action == "modify":
            data = bytearray(event.payload)
            if data:
                pos = rule.xor_pos if rule.xor_pos is not None else len(data) // 2
                data[pos % len(data)] ^= rule.xor_mask
            out.append(SimEvent(event.time, EventKind.DELIVER, event.src,
                                event.dst, bytes(data), next_seq(),
                                label=event.label, origin="adversary"))
            consumed = True
            continue

        if rule.action == "inject_recorded":
            for recorded in schedule.recorded.get(rule.slot, []):
                dst = rule.redirect_dst or event.dst
                out.append(SimEvent(event.time + rule.delay, EventKind.DELIVER,
                                    recorded.src, dst, recorded.payload,
                                    next_seq(), label=recorded.label,
                                    origin="adversary"))
            continue

        if rule.action == "inject":
            payload = rule.inject_payload
            if rule.frame_in_matched_session:
                payload = wire.encode_wire(wire.RecordFrame(
                    frame.session_id, frame.seq + rule.seq_offset, payload))
            dst = rule.redirect_dst or event.dst
            out.append(SimEvent(event.time + rule.delay, EventKind.DELIVER,
                                "adversary", dst, payload, next_seq(),
                                label="injected", origin="adversary"))

    if not consumed:
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

    def __init__(self, seed: int, event_budget: int = 500_000):
        self.now = 0
        self.seed = seed
        self.trace = Trace()
        self.event_budget = event_budget
        self.events_processed = 0
        self._queue: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
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

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, event: SimEvent) -> None:
        heapq.heappush(self._queue, (event.time, event.seq, event))

    def transmit(self, src: str, dst: str, payload: bytes, label: str = "",
                 delay: int = LATENCY) -> None:
        self._push(SimEvent(self.now + delay, EventKind.DELIVER, src, dst,
                            payload, self._next_seq(), label=label))

    def _schedule_timer(self, actor_id: str, delay: int, token: int) -> None:
        self._push(SimEvent(self.now + delay, EventKind.TIMER_FIRE, actor_id,
                            actor_id, token.to_bytes(8, "big"),
                            self._next_seq()))

    # --- adversary ---

    adversary: AdversarySchedule | None = None

    def set_adversary(self, schedule: AdversarySchedule | None) -> None:
        self.adversary = schedule

    # --- run loop ---

    def run(self) -> Trace:
        while self._queue:
            if self.events_processed >= self.event_budget:
                raise ScenarioInvalid(
                    f"event budget {self.event_budget} exceeded at t={self.now}")
            _, _, event = heapq.heappop(self._queue)
            self.now = event.time
            self.events_processed += 1
            self._dispatch(event)
        return self.trace

    def start_ready_processes(self) -> None:
        for proc in self._processes.values():
            if proc.state == "ready":
                self._resume(proc, None)

    def _dispatch(self, event: SimEvent) -> None:
        if event.kind is EventKind.TIMER_FIRE:
            self._on_timer(event)
            return
        if event.kind is EventKind.DROP:
            self.trace.add("drop", event.time, src=event.src, dst=event.dst,
                           label=event.label, size=len(event.payload),
                           note=event.note)
            return
        if event.kind is EventKind.ADVERSARY_ACTION:
            self.trace.add("adversary", event.time, dst=event.dst,
                           label=event.label, note=event.note)
            return

        # DELIVER: give the adversary one look at net-originated traffic
        if self.adversary is not None and event.origin == "net":
            replacement = adversary_apply(self.adversary, event, self._next_seq)
            for emitted in replacement:
                if emitted is event:
                    self._deliver(event)
                else:
                    self._push(emitted)
            return
        self._deliver(event)

    def _deliver(self, event: SimEvent) -> None:
        handler = self._responders.get(event.dst)
        if handler is not None:
            disposition, sends = handler(self.now, event.src, event.payload)
            self.trace.add("deliver", event.time, src=event.src, dst=event.dst,
                           label=event.label, size=len(event.payload),
                           origin=event.origin, disp=disposition)
            for send in sends:
                self.transmit(event.dst, send.dst, send.payload, send.label)
            return

        proc = self._processes.get(event.dst)
        if proc is None or proc.state == "done":
            self.trace.add("deliver", event.time, src=event.src, dst=event.dst,
                           label=event.label, size=len(event.payload),
                           origin=event.origin, disp="no_actor")
            return
        self.trace.add("deliver", event.time, src=event.src, dst=event.dst,
                       label=event.label, size=len(event.payload),
                       origin=event.origin, disp="queued")
        proc.inbox.append((event.src, event.payload))
        if proc.state == "waiting":
            proc.timer_token += 1  # invalidate any pending wait timer
            value = proc.inbox.popleft()
            self._resume(proc, value)

    def _on_timer(self, event: SimEvent) -> None:
        proc = self._processes.get(event.dst)
        token = int.from_bytes(event.payload, "big")
        if proc is None or proc.state == "done" or token != proc.timer_token:
            return  # stale timer
        self.trace.add("timer", event.time, actor=event.dst)
        if proc.state == "waiting":
            self._resume(proc, TIMEOUT)
        elif proc.state == "sleeping":
            self._resume(proc, None)

    def _resume(self, proc: _Process, value) -> None:
        proc.state = "running"
        try:
            while True:
                command = proc.generator.send(value)
                value = None
                if isinstance(command, Transmit):
                    self.transmit(proc.name, command.dst, command.payload,
                                  command.label)
                elif isinstance(command, Sleep):
                    proc.state = "sleeping"
                    proc.timer_token += 1
                    self._schedule_timer(proc.name, max(1, command.duration),
                                         proc.timer_token)
                    return
                elif isinstance(command, WaitMessage):
                    if proc.inbox:
                        value = proc.inbox.popleft()
                        continue
                    proc.state = "waiting"
                    proc.timer_token += 1
                    if command.timeout is not None:
                        self._schedule_timer(proc.name, max(1, command.timeout),
                                             proc.timer_token)
                    return
                else:
                    raise ScenarioInvalid(
                        f"process {proc.name} yielded {command!r}")
        except StopIteration:
            proc.state = "done"
