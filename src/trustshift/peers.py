"""Session machinery on top of the simulator for both kinds of actor.

Every actor, process or responder, reaches the simulator through one
`NetHandle`. Initiator side: generator helpers (open_session, session_call,
session_wait) that processes drive via `yield from`, parked on one reply
loop that notes and discards each frame that is not the reply. Responder
side: a session table keyed by session id with handshake freshness
tracking, answering each record from one acceptance table: message class
-> (peer profiles admitted, handler, refusal to any other peer).

Both sides take the handshake's steps from `session` and accept records
with `_accept_record`, which writes the one `record` trace entry per
inbound record, keyed by (actor, session id, sequence number); only the
reaction to a failure is per side. A session knows its peer's actor id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pki, session, simnet, wire
from .errors import MalformedEncoding, ReplayDetected, WrongSession
from .messages import CertProfile
from .simnet import TIMEOUT, Transmit, WaitMessage


# Simulated time units an initiator waits for a reply, and how many times it
# resends before giving up.
REPLY_TIMEOUT = 8
RETRIES = 3

# Every end-entity profile; a CA certificate never opens a session.
ANY_PEER = frozenset({CertProfile.FACTORY, CertProfile.OPERATIONAL,
                      CertProfile.SERVER})


class NetHandle:
    """What an actor sees of the network and simulation: its id, clock and
    RNG, URI resolution, the revoked serials it checks peers against, and
    its own trace entries."""

    def __init__(self, sim: simnet.Simulator, actor_id: str,
                 revocation_view: set[int] = frozenset()):
        self.sim = sim
        self.actor_id = actor_id
        self.rng = sim.actor_rng(actor_id)
        # Devices never query revocation state; servers get the live set.
        self.revocation_view = revocation_view

    def now(self) -> int:
        return self.sim.now

    def resolve(self, uri) -> str | None:
        return None if uri is None else self.sim.resolve(str(uri))

    def note(self, kind: str, *values) -> None:
        """Trace an entry of declared `kind` by this actor, now: `values`
        are its fields after `actor`, positionally."""
        self.sim.trace.add(kind, self.sim.now, self.actor_id, *values)


def _accept_record(net: NetHandle, sess: session.AuthenticatedSession | None,
                   frame: wire.RecordFrame):
    """Run one inbound record through the session layer, trace the outcome
    and decode the application message; returns (outcome, message), message
    None unless accepted. A record whose payload does not decode is traced
    `accept` (its sequence number is spent) and returns "malformed_app".
    `sess` is None when the record names no session the actor holds."""
    outcome, payload = "wrong_session", None
    if sess is not None:
        try:
            payload = session.receive(sess, frame)
            outcome = "accept"
        except WrongSession:
            pass
        except ReplayDetected:
            outcome = "replay_detected"
    net.note("record", frame.session_id, frame.seq, outcome)
    try:
        return outcome, None if payload is None else wire.decode_wire(payload)
    except MalformedEncoding:
        return "malformed_app", None


def send_record(sess: session.AuthenticatedSession, app_msg) -> Transmit:
    """The next record of `sess`, carrying `app_msg`, addressed to its peer."""
    return Transmit(sess.peer, session.send(sess, app_msg), label=app_msg.LABEL)


# ---------------------------------------------------------------------------
# initiator side
# ---------------------------------------------------------------------------

def _await_reply(net: NetHandle, pick, timeout: int | None):
    """Park until `pick(data)` makes a result of an inbound frame (None: the
    frame is discarded) or `timeout` expires; returns the result or None."""
    deadline = None if timeout is None else net.now() + timeout
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - net.now()
            if remaining <= 0:
                return None
        got = yield WaitMessage(timeout=remaining)
        if got is TIMEOUT:
            return None
        result = pick(got[1])
        if result is not None:
            return result


def open_session(net: NetHandle, dst: str, cred: pki.Credential,
                 store: pki.TrustStore, purpose: str = "session"):
    """Two-message handshake; returns (AuthenticatedSession | None, status),
    the status "no_route", "timeout" or one `session.finish` ends with; a
    reply `finish` discards does not end the wait."""
    if dst is None:
        return None, "no_route"

    def pick(data):
        try:
            msg = wire.decode_wire(data)
        except MalformedEncoding:
            net.note("note", "malformed_frame_discarded", purpose, None)
            return None
        if not isinstance(msg, (wire.Accept, wire.Reject)):
            net.note("note", "unexpected_frame_discarded", purpose, None)
            return None
        sess, status = session.finish(ephemeral, store, net.now(),
                                      net.revocation_view, dst, msg)
        if status in session.DISCARDED:
            net.note("handshake", status, purpose)
            return None
        return sess, status

    for _attempt in range(RETRIES + 1):
        ephemeral, hello = session.start(cred, net.rng)
        yield Transmit(dst, wire.encode_wire(hello), label=f"{purpose}.hello")
        outcome = yield from _await_reply(net, pick, REPLY_TIMEOUT)
        if outcome is not None:
            return outcome
    return None, "timeout"


def _pick_record(net: NetHandle, sess: session.AuthenticatedSession, data):
    """The application message of an inbound frame accepted on `sess`, or
    None once the frame is noted and discarded."""
    frame = wire.parse_record_frame(data)
    if frame is None:
        net.note("note", "non_record_frame_discarded", None, None)
        return None
    outcome, msg = _accept_record(net, sess, frame)
    if outcome == "malformed_app":
        net.note("note", "malformed_app_payload", None, None)
    return msg


def session_call(net: NetHandle, sess: session.AuthenticatedSession, request,
                 expect: tuple[type, ...]):
    """Request/response over an established session with retries; returns
    (reply message, "ok") or (None, "timeout"). Records that are not the
    reply are discarded, and so is a valid but unexpected application
    message (our flows are strictly lock-step per session)."""
    def pick(data):
        reply = _pick_record(net, sess, data)
        if reply is None or isinstance(reply, expect):
            return reply
        net.note("note", "unexpected_app_message", None,
                 type(reply).__name__)
        return None

    for _attempt in range(RETRIES + 1):
        yield send_record(sess, request)
        reply = yield from _await_reply(net, pick, REPLY_TIMEOUT)
        if reply is not None:
            return reply, "ok"
    return None, "timeout"


def session_wait(net: NetHandle, sess: session.AuthenticatedSession,
                 timeout: int | None = None):
    """Park on a session until the next accepted record; its message, or
    None once `timeout` expires."""
    return (yield from _await_reply(
        net, lambda data: _pick_record(net, sess, data), timeout))


# ---------------------------------------------------------------------------
# responder side
# ---------------------------------------------------------------------------

@dataclass
class ResponderPeer:
    """Server-side endpoint: handshake acceptance plus per-session dispatch.

    It registers `handle` as the simulator responder of `net`'s actor: each
    frame is answered to its sender. `table` maps each application message
    class it serves to (peer profiles admitted, `handler(now, sess, msg)`
    returning the reply or None, the reply or None to any other peer); the
    handshake admits the union of the rows' profiles.
    """

    net: NetHandle
    credential: pki.Credential
    truststore: pki.TrustStore
    table: dict
    sessions: dict[bytes, session.AuthenticatedSession] = field(default_factory=dict)
    seen_ephemerals: set[bytes] = field(default_factory=set)

    def __post_init__(self):
        self.admitted = frozenset().union(
            *(profiles for profiles, _handler, _refusal in self.table.values()))
        self.rng = self.net.sim.actor_rng(self.net.actor_id + "/hs")
        self.net.sim.register_responder(self.net.actor_id, self.handle)

    def handle(self, now, src, data):
        try:
            msg = wire.decode_wire(data)
        except MalformedEncoding:
            return "malformed", []
        if isinstance(msg, wire.Hello):
            return self._on_hello(src, msg)
        if isinstance(msg, wire.RecordFrame):
            return self._on_record(now, src, msg)
        return "ignored", []

    def _on_hello(self, src, msg):
        if msg.ephemeral in self.seen_ephemerals:
            self.net.note("handshake", "replayed_hello_discarded", None)
            return "handshake_replay", []
        self.seen_ephemerals.add(msg.ephemeral)
        sess, reply = session.respond(
            self.credential, self.truststore, self.net.now(),
            self.net.revocation_view, self.admitted, self.rng, src, msg)
        sends = [Transmit(src, wire.encode_wire(reply), label=reply.LABEL)]
        if sess is None:
            return f"hello_rejected:{reply.reason}", sends
        self.sessions[sess.session_id] = sess
        self.net.sim.trace.add("session", self.net.now(), sess.session_id,
                               sess.session_key_fingerprint, src,
                               self.net.actor_id)
        return "hello_accepted", sends

    def _on_record(self, now, src, frame):
        sess = self.sessions.get(frame.session_id)
        outcome, app_msg = _accept_record(self.net, sess, frame)
        if app_msg is None:
            return outcome, []
        return f"accepted:{app_msg.LABEL}", [
            Transmit(src, session.send(sess, reply), label=reply.LABEL)
            for reply in self.dispatch(now, sess, app_msg)]

    def dispatch(self, now, sess: session.AuthenticatedSession, msg) -> list:
        """The replies to `msg` on `sess`: its row's handler's for a peer the
        row admits, else the row's refusal; none for a class with no row."""
        row = self.table.get(type(msg))
        if row is None:
            return []
        profiles, handler, refusal = row
        reply = handler(now, sess, msg) if sess.peer_cert.profile in profiles \
            else refusal
        return [] if reply is None else [reply]
