"""The session layer: session derivation, record framing, record acceptance.

A session is derived once both handshake ephemerals are known and the
peer's certificate chain has verified against the local truststore
(`peers.open_session` on the initiator side, `ResponderPeer` on the
responder side). It holds the peer's verified certificate and actor id;
its id and key fingerprint are hashes of the two ephemerals. Records are
framed with the session id and a per-direction, strictly increasing
sequence number, and each record is accepted at most once, in order.

This is a model, not yet a stand-in for DTLS/EDHOC: the handshake has no
proof of possession of the certificate's key, no key is ever derived (the
fingerprint only names the session), and records carry no integrity
protection. An on-path party can therefore impersonate a peer whose
certificate it has seen, and forge records into a session it observes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .errors import ReplayDetected, WrongSession
from .messages import CompactCertificate

SESSION_ID_LEN = 8


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
