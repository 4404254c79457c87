"""The session layer: handshake steps, record framing, record acceptance.

The initiator's `start` and `finish` and the responder's `respond` work on
plain values, with no simulator, clock or trace; each side checks the chain
the other presents with `check_peer` before it derives its end. A session
holds the peer's verified certificate and actor id; its id and key
fingerprint are hashes of the two ephemerals. Records are framed with the
session id and a per-direction, strictly increasing sequence number, and
each record is accepted at most once, in order.

This is a model, not yet a stand-in for DTLS/EDHOC: the handshake has no
proof of possession of the certificate's key, no key is ever derived (the
fingerprint only names the session), and records carry no integrity
protection. An on-path party can therefore impersonate a peer whose
certificate it has seen, and forge records into a session it observes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, pki, wire
from .errors import Error, ReplayDetected, WrongSession
from .messages import CompactCertificate

SESSION_ID_LEN = 8
# `finish`'s statuses for a reply the initiator discards, waiting on.
DISCARDED = frozenset({"stale_accept_discarded", "stale_reject_discarded",
                       "bad_accept_cert"})


@dataclass
class AuthenticatedSession:
    peer_cert: CompactCertificate
    peer: str  # the other end's actor id
    session_id: bytes
    session_key_fingerprint: bytes
    send_seq: int = 0
    recv_seq: int = 0


def derive(initiator_ephemeral: bytes, responder_ephemeral: bytes,
           peer_cert: CompactCertificate, peer: str) -> AuthenticatedSession:
    """One endpoint of the session the two ephemerals define, with actor
    `peer`; `peer_cert` is that side's already verified certificate."""
    material = initiator_ephemeral + responder_ephemeral
    return AuthenticatedSession(
        peer_cert=peer_cert, peer=peer,
        session_id=crypto.digest(b"session-id" + material)[:SESSION_ID_LEN],
        session_key_fingerprint=crypto.digest(b"session-key" + material))


def check_peer(cert_bytes: bytes, intermediates: tuple[bytes, ...],
               store: pki.TrustStore, now: int, revoked):
    """(a peer's decoded certificate, why its chain fails at `now` under the
    `revoked` serials or None), or (None, "bad_certificate") if undecodable."""
    try:
        cert = pki.decode_certificate(cert_bytes)
        inters = [pki.decode_certificate(b) for b in intermediates]
    except Error:
        return None, "bad_certificate"
    check = pki.verify_chain(cert, inters, store, now, revoked)
    return cert, None if check else check.reason.value


def _presented(cred: pki.Credential) -> tuple[bytes, tuple[bytes, ...]]:
    return (cred.certificate.encoding(),
            tuple(c.encoding() for c in cred.intermediates))


def start(cred: pki.Credential, rng) -> tuple[bytes, wire.Hello]:
    """The initiator's ephemeral, which `finish` needs, and its Hello."""
    ephemeral = rng.randbytes(32)
    return ephemeral, wire.Hello(ephemeral, *_presented(cred))


def respond(cred: pki.Credential, store: pki.TrustStore, now: int, revoked,
            admitted, rng, peer: str, hello: wire.Hello):
    """(its end of a session with actor `peer`, the Accept), or None and a
    Reject: the Hello's chain fails, or its profile is not in `admitted`."""
    peer_cert, reason = check_peer(hello.cert_bytes, hello.intermediates,
                                   store, now, revoked)
    if reason is None and peer_cert.profile not in admitted:
        reason = "profile_not_allowed"
    if reason is not None:
        return None, wire.Reject(hello.ephemeral, reason)
    ephemeral = rng.randbytes(32)
    return (derive(hello.ephemeral, ephemeral, peer_cert, peer),
            wire.Accept(hello.ephemeral, ephemeral, *_presented(cred)))


def finish(ephemeral: bytes, store: pki.TrustStore, now: int, revoked,
           peer: str, reply: wire.Accept | wire.Reject):
    """(its end of the session with actor `peer`, "ok"), or None and
    "peer_rejected:<reason>", "peer_untrusted:<reason>" or a `DISCARDED`."""
    if reply.echo_ephemeral != ephemeral:
        return None, f"stale_{reply.LABEL}_discarded"
    if isinstance(reply, wire.Reject):
        return None, f"peer_rejected:{reply.reason}"
    peer_cert, reason = check_peer(reply.cert_bytes, reply.intermediates,
                                   store, now, revoked)
    if peer_cert is None:
        return None, "bad_accept_cert"
    if reason is not None:
        return None, f"peer_untrusted:{reason}"
    return derive(ephemeral, reply.ephemeral, peer_cert, peer), "ok"


def send(session: AuthenticatedSession, app_msg) -> bytes:
    """Frame one application message as the next record of the session."""
    session.send_seq += 1
    return wire.encode_wire(wire.RecordFrame(
        session.session_id, session.send_seq, wire.encode_wire(app_msg)))


def receive(session: AuthenticatedSession, frame: wire.RecordFrame) -> bytes:
    """Accept a record exactly once, in order; duplicates and cross-session
    records are rejected, never silently accepted."""
    if frame.session_id != session.session_id:
        raise WrongSession(
            f"record for session {frame.session_id.hex()}, "
            f"this is {session.session_id.hex()}")
    if frame.seq <= session.recv_seq:
        raise ReplayDetected(
            f"record seq {frame.seq} <= last accepted {session.recv_seq}")
    session.recv_seq = frame.seq
    return frame.payload
