"""Session machinery on top of the simulator for both kinds of actor.

Initiator side: generator helpers (open_session, session_call) that device
and operator processes drive via `yield from`. Responder side: a session
table keyed by session id with handshake freshness tracking, wrapping an
application-level request handler.

Both sides derive, frame and accept through `session`; every record
acceptance or rejection lands in the trace as one `record` entry keyed by
(actor, session id, sequence number), written by `_accept_record` alone.
Replay analysis in tests is built entirely on those entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import messages, pki, session, simnet, wire
from .errors import Error, MalformedEncoding, ReplayDetected, WrongSession
from .messages import CertProfile, MessageKind
from .simnet import TIMEOUT, Transmit, WaitMessage


# Simulated time units an initiator waits for a reply, and how many times it
# resends before giving up.
CALL_TIMEOUT = 8
CALL_RETRIES = 3
HANDSHAKE_TIMEOUT = 8
HANDSHAKE_RETRIES = 3


class NetHandle:
    """What a process actor sees of the network and simulation."""

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
        return self.sim.resolve(str(uri))

    def note(self, kind: str, **fields) -> None:
        self.sim.trace.add(kind, self.sim.now, actor=self.actor_id, **fields)


def _cred_to_wire(cred: pki.Credential) -> tuple[bytes, tuple[bytes, ...]]:
    return (messages.encode(cred.certificate),
            tuple(messages.encode(c) for c in cred.intermediates))


def _cred_from_wire(cert_bytes: bytes, intermediates: tuple[bytes, ...]):
    cert = messages.decode(MessageKind.CERTIFICATE, cert_bytes)
    inters = tuple(messages.decode(MessageKind.CERTIFICATE, b)
                   for b in intermediates)
    return cert, inters


def _accept_record(trace: simnet.Trace, now: int, actor: str,
                   sess: session.AuthenticatedSession | None,
                   frame: wire.RecordFrame) -> tuple[str, bytes | None]:
    """Run one inbound record through the session layer and trace the
    outcome; returns (outcome, payload), payload None unless accepted.
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
    trace.add("record", now, actor=actor, sid=frame.session_id.hex(),
              seq=frame.seq, outcome=outcome)
    return outcome, payload


def send_record(sess: session.AuthenticatedSession, dst: str,
                app_msg) -> Transmit:
    """The next record of `sess`, carrying `app_msg`, addressed to `dst`."""
    return Transmit(dst, session.send(sess, app_msg), label=app_msg.LABEL)


# ---------------------------------------------------------------------------
# initiator side
# ---------------------------------------------------------------------------

def open_session(net: NetHandle, dst: str, cred: pki.Credential,
                 store: pki.TrustStore, purpose: str = "session"):
    """Two-message handshake; returns (AuthenticatedSession | None, status).

    Status is "ok", "peer_untrusted:<reason>", "peer_rejected:<reason>",
    "no_route" or "timeout". Stale or replayed handshake replies (echo
    mismatch) are discarded without ending the wait.
    """
    if dst is None:
        return None, "no_route"
    for _attempt in range(HANDSHAKE_RETRIES + 1):
        ephemeral = net.rng.randbytes(32)
        cert_bytes, inter_bytes = _cred_to_wire(cred)
        hello = wire.encode_wire(wire.Hello(ephemeral, cert_bytes, inter_bytes))
        yield Transmit(dst, hello, label=f"{purpose}.hello")
        deadline = net.now() + HANDSHAKE_TIMEOUT
        while True:
            remaining = deadline - net.now()
            if remaining <= 0:
                break
            got = yield WaitMessage(timeout=remaining)
            if got is TIMEOUT:
                break
            _src, data = got
            try:
                msg = wire.decode_wire(data)
            except MalformedEncoding:
                net.note("note", what="malformed_frame_discarded", purpose=purpose)
                continue
            if isinstance(msg, wire.Accept):
                if msg.echo_ephemeral != ephemeral:
                    net.note("handshake", outcome="stale_accept_discarded",
                             purpose=purpose)
                    continue
                try:
                    peer_cert, inters = _cred_from_wire(msg.cert_bytes,
                                                        msg.intermediates)
                except Error:
                    net.note("handshake", outcome="bad_accept_cert",
                             purpose=purpose)
                    continue
                check = pki.verify_chain(peer_cert, list(inters), store,
                                         net.now(), net.revocation_view)
                if not check:
                    return None, f"peer_untrusted:{check.reason.value}"
                return session.derive(ephemeral, msg.ephemeral, peer_cert), "ok"
            if isinstance(msg, wire.Reject):
                if msg.echo_ephemeral != ephemeral:
                    net.note("handshake", outcome="stale_reject_discarded",
                             purpose=purpose)
                    continue
                return None, f"peer_rejected:{msg.reason}"
            net.note("note", what="unexpected_frame_discarded", purpose=purpose)
    return None, "timeout"


def _receive_record(net: NetHandle, sess: session.AuthenticatedSession,
                    data: bytes):
    """Session-layer filter for one inbound frame; returns payload or None."""
    frame = wire.parse_record_frame(data)
    if frame is None:
        net.note("note", what="non_record_frame_discarded")
        return None
    return _accept_record(net.sim.trace, net.now(), net.actor_id, sess,
                          frame)[1]


def session_call(net: NetHandle, sess: session.AuthenticatedSession, dst: str,
                 request, expect: tuple[type, ...]):
    """Request/response over an established session with retries.

    Returns (reply message, "ok") or (None, "timeout"). Replayed, duplicate
    or alien records observed while waiting are discarded and the wait
    continues; an unexpected but valid application message is also
    discarded (our flows are strictly lock-step per session).
    """
    for _attempt in range(CALL_RETRIES + 1):
        yield send_record(sess, dst, request)
        deadline = net.now() + CALL_TIMEOUT
        while True:
            reply, _src = yield from session_wait(net, sess,
                                                  deadline - net.now())
            if reply is None:
                break
            if isinstance(reply, expect):
                return reply, "ok"
            net.note("note", what="unexpected_app_message",
                     got=type(reply).__name__)
    return None, "timeout"


def session_wait(net: NetHandle, sess: session.AuthenticatedSession,
                 timeout: int | None = None):
    """Park on a session until the next accepted record; (msg, src) or None."""
    deadline = None if timeout is None else net.now() + timeout
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - net.now()
            if remaining <= 0:
                return None, None
        got = yield WaitMessage(timeout=remaining)
        if got is TIMEOUT:
            return None, None
        src, data = got
        payload = _receive_record(net, sess, data)
        if payload is None:
            continue
        try:
            return wire.decode_wire(payload), src
        except MalformedEncoding:
            net.note("note", what="malformed_app_payload")
            continue


# ---------------------------------------------------------------------------
# responder side
# ---------------------------------------------------------------------------

@dataclass
class PeerSession:
    endpoint: session.AuthenticatedSession
    initiator: str

    @property
    def peer_cert(self) -> messages.CompactCertificate:
        return self.endpoint.peer_identity


@dataclass
class ResponderPeer:
    """Server-side endpoint: handshake acceptance plus per-session dispatch.

    `app_handler(now, src, peer_session, msg)` returns a list of wire
    messages to send back on the same session.
    """

    sim: simnet.Simulator
    actor_id: str
    credential: pki.Credential
    truststore: pki.TrustStore
    app_handler: object
    revocation_view: set[int] = frozenset()
    allowed_profiles: tuple[CertProfile, ...] = (
        CertProfile.FACTORY, CertProfile.OPERATIONAL, CertProfile.SERVER)
    sessions: dict[bytes, PeerSession] = field(default_factory=dict)
    seen_ephemerals: set[bytes] = field(default_factory=set)

    def __post_init__(self):
        self.rng = self.sim.actor_rng(self.actor_id + "/hs")

    def handle(self, now, src, data):
        try:
            msg = wire.decode_wire(data)
        except MalformedEncoding:
            return "malformed", []
        if isinstance(msg, wire.Hello):
            return self._on_hello(now, src, msg)
        if isinstance(msg, wire.RecordFrame):
            return self._on_record(now, src, msg)
        return "ignored", []

    def _reject(self, echo: bytes, reason: str):
        data = wire.encode_wire(wire.Reject(echo, reason))
        return f"hello_rejected:{reason}", [(None, data, "reject")]

    def _on_hello(self, now, src, msg):
        if msg.ephemeral in self.seen_ephemerals:
            self.sim.trace.add("handshake", now, actor=self.actor_id,
                               outcome="replayed_hello_discarded")
            return "handshake_replay", []
        self.seen_ephemerals.add(msg.ephemeral)
        try:
            peer_cert, inters = _cred_from_wire(msg.cert_bytes, msg.intermediates)
        except Exception:
            return self._reject(msg.ephemeral, "bad_certificate")
        check = pki.verify_chain(peer_cert, list(inters), self.truststore,
                                 now, self.revocation_view)
        if not check:
            return self._reject(msg.ephemeral, check.reason.value)
        if peer_cert.profile not in self.allowed_profiles:
            return self._reject(msg.ephemeral, "profile_not_allowed")

        responder_ephemeral = self.rng.randbytes(32)
        endpoint = session.derive(msg.ephemeral, responder_ephemeral, peer_cert)
        self.sessions[endpoint.session_id] = PeerSession(endpoint, src)
        self.sim.trace.add("session", now, sid=endpoint.session_id.hex(),
                           fp=endpoint.session_key_fingerprint.hex(),
                           a=src, b=self.actor_id)
        cert_bytes, inter_bytes = _cred_to_wire(self.credential)
        accept = wire.encode_wire(wire.Accept(
            msg.ephemeral, responder_ephemeral, cert_bytes, inter_bytes))
        return "hello_accepted", [(None, accept, "accept")]

    def _on_record(self, now, src, frame):
        entry = self.sessions.get(frame.session_id)
        outcome, payload = _accept_record(self.sim.trace, now, self.actor_id,
                                          entry.endpoint if entry else None,
                                          frame)
        if payload is None:
            return outcome, []
        try:
            app_msg = wire.decode_wire(payload)
        except MalformedEncoding:
            return "malformed_app", []
        replies = self.app_handler(now, src, entry, app_msg)
        return f"accepted:{app_msg.LABEL}", [
            (None, session.send(entry.endpoint, reply), reply.LABEL)
            for reply in replies]

    def bind(self):
        """Adapter matching the simulator responder signature."""
        def handler(now, src, data):
            disposition, sends = self.handle(now, src, data)
            return disposition, [(dst or src, payload, label)
                                 for dst, payload, label in sends]
        return handler
