"""Transport framing for the simulated network.

Every transmission is a tagged array. Handshake messages and session
records are framing only: session-record payloads and embedded
certificates/envelopes stay opaque byte strings here, decoded by the
receiving actor. The session id and sequence number of a record are
cleartext framing (as in DTLS), which is exactly what an on-path adversary
gets to see.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import codec
from .errors import MalformedEncoding

_REGISTRY: dict[int, type] = {}  # tag -> frame class
_PREFIXES: dict[bytes, type] = {}  # array head, tag (0x18, tag if 24-255) -> class


def snake_case(name: str) -> str:
    """`TrustPush` -> `trust_push`: trace labels and reason strings."""
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("_")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


def encode_wire(msg) -> bytes:
    return codec.remember(type(msg).WRITE(msg), msg)


def _prefix(data: bytes) -> bytes:
    return bytes(data[:3] if data[1:2] == b"\x18" else data[:2])


def decode_wire(data: bytes):
    cls = _PREFIXES.get(_prefix(data))
    if cls is None:  # the strict parse says why no frame matched
        dec = codec.Decoder(data)
        count = dec.read_array_head()
        if count < 1:
            raise MalformedEncoding("empty wire frame")
        tag = dec.read_uint()
        if tag not in _REGISTRY:
            raise MalformedEncoding(f"unknown wire tag {tag}")
        raise MalformedEncoding(
            f"wire tag {tag} expects {_REGISTRY[tag].ARITY} elements, got {count}")
    msg = codec.recall(data, cls)
    if msg is None:
        dec = codec.Decoder(data, len(cls.PREFIX))
        msg = cls.READ(dec)
        dec.finish()
    return msg


def compile_frame(cls, tag: int):
    """Make `cls` a frame under `tag`, without registering the tag: a
    frozen dataclass with a generated constructor, its trace label, its
    array length (tag and fields) and its writer and field reader, compiled
    once."""
    cls = dataclass(frozen=True)(cls)
    cls.__init__ = codec.compile_init(cls)
    cls.LABEL = snake_case(cls.__name__)
    cls.ARITY = len(fields(cls)) + 1
    cls.PREFIX = codec.encode_array_head(cls.ARITY) + codec.encode_uint(tag)
    cls.WRITE = codec.compile_writer(cls, cls.PREFIX)
    cls.READ = codec.compile_reader(cls)
    return cls


def wire_message(tag):
    """Declare a frame: a tagged array of its fields, each of a kind in
    `codec.FIELD_KINDS`, decoded by `decode_wire`; refuse a taken prefix.
    Only a declared frame has the `EXACT` check that lets the record keep it."""
    def wrap(cls):
        cls = compile_frame(cls, tag)
        if tag in _REGISTRY or _prefix(cls.PREFIX) != cls.PREFIX:
            raise ValueError(f"wire tag {tag}: prefix {cls.PREFIX.hex()} is taken"
                             " or not found in one lookup")
        _REGISTRY[tag] = _PREFIXES[cls.PREFIX] = cls
        cls.EXACT = codec.compile_exact(cls)
        return cls
    return wrap


# --- handshake and records ---

@wire_message(0)
class Hello:
    ephemeral: bytes
    cert_bytes: bytes
    intermediates: tuple


@wire_message(1)
class Accept:
    echo_ephemeral: bytes
    ephemeral: bytes
    cert_bytes: bytes
    intermediates: tuple


@wire_message(2)
class Reject:
    echo_ephemeral: bytes
    reason: str


@wire_message(3)
class RecordFrame:
    session_id: bytes
    seq: int
    payload: bytes


# --- application payloads carried inside session records ---

@wire_message(10)
class EnrollReq:
    csr_bytes: bytes
    server_keygen: bool


@wire_message(11)
class EnrollRsp:
    ok: bool
    cert_bytes: bytes
    key_seed: bytes
    chain_certs: tuple
    reason: str


@wire_message(12)
class UpdateCheck:
    version_bytes: bytes


@wire_message(13)
class UpdateRsp:
    has_update: bool
    version_bytes: bytes


@wire_message(14)
class RaHello:
    device_id: bytes


@wire_message(15)
class RaChallenge:
    nonce: bytes


@wire_message(16)
class RaReport:
    device_id: bytes
    nonce: bytes
    measurement: bytes


@wire_message(17)
class RaVerdict:
    ok: bool


@wire_message(18)
class TransferDeliver:
    envelope_bytes: bytes


@wire_message(19)
class TransferAck:
    ok: bool
    reason: str


@wire_message(20)
class ListDeliver:
    envelope_bytes: bytes


@wire_message(21)
class ListAck:
    ok: bool


@wire_message(22)
class TmDeliver:
    envelope_bytes: bytes


@wire_message(23)
class TmAck:
    ok: bool


@wire_message(24)
class RegisterReq:
    cert_list: tuple


@wire_message(25)
class RegisterRsp:
    ok: bool
    enroll_uri: str
    reason: str


@wire_message(26)
class TrustPush:
    root_certs: tuple


@wire_message(27)
class TrustAck:
    ok: bool


@wire_message(28)
class FinalUpdate:
    version_bytes: bytes


@wire_message(29)
class FinalAck:
    ok: bool


@wire_message(30)
class FallbackReq:
    device_id: bytes
    reason: str


@wire_message(31)
class FallbackRsp:
    ok: bool
    require_ra: bool


@wire_message(32)
class RevokeReq:
    subject_name: bytes


@wire_message(33)
class RevokeRsp:
    ok: bool


def parse_record_frame(data: bytes) -> RecordFrame | None:
    """Framing metadata of a session record, or None if not a record.

    This is the whole adversary-visible surface of a record: session id,
    sequence number, and an opaque payload blob.
    """
    try:
        msg = decode_wire(data)
    except MalformedEncoding:
        return None
    return msg if isinstance(msg, RecordFrame) else None
