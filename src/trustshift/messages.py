"""Protocol payload types and their deterministic binary codec.

A regular payload (`@_payload`) is the fixed-arity array of its fields in
declared order, each encoded by its kind in `codec.FIELD_KINDS`, the table
that also drives the wire frames. Payload classes, profiles and the
envelope header are kinds there too, so payloads nest. Hand-written are
only the layouts the frozen vectors make irregular: a bare-text `Uri`,
`TransferMessage` (a nested `[updateUri, flag]` pair, an explicit null for
no RA endpoint), the bare entry array of `UpdateInfoList`, and the
canonical header map. `decode` takes the payload class. Values are
immutable and validated at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from . import codec
from .errors import InvariantViolation, MalformedEncoding

MAX_URI_BYTES = 255

# Signature algorithm identifier carried in envelope headers. A single
# suite is implemented; the header field exists so it can be swapped.
ALG_ED25519 = 1

TimeStamp = int


def _check_timestamp(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvariantViolation(f"{name} must be a non-negative integer")


def _payload_kind(cls, encode, read) -> None:
    """Make `cls` a payload (what `encode`/`decode` accept) and a field kind."""
    cls.KIND = codec.FIELD_KINDS[cls.__name__] = (encode, read)


def _encode_array(msg, spec) -> bytes:
    return codec.encode_array_head(len(spec)) + codec.encode_fields(msg, spec)


def _payload(cls):
    """Declare a regular payload: the fixed-arity array of its fields."""
    cls = dataclass(frozen=True)(cls)
    cls.SPEC = codec.field_spec(cls)

    def read(dec: codec.Decoder):
        dec.read_array_head(expected=len(cls.SPEC))
        return cls(*codec.read_fields(dec, cls.SPEC))

    _payload_kind(cls, lambda msg: _encode_array(msg, msg.SPEC), read)
    return cls


def _read_enum(enum_cls):
    def read(dec: codec.Decoder):
        raw = dec.read_uint()
        try:
            return enum_cls(raw)
        except ValueError as exc:
            raise MalformedEncoding(f"unknown {enum_cls.__name__} {raw}") from exc
    return read


class CertProfile(IntEnum):
    ROOT_CA = 0
    SUB_CA = 1
    FACTORY = 2
    OPERATIONAL = 3
    SERVER = 4


class EnvelopeProfile(IntEnum):
    CWT = 1
    UPDATE_LIST = 2


codec.FIELD_KINDS.update(
    TimeStamp=codec.FIELD_KINDS["int"],
    CertProfile=(codec.encode_uint, _read_enum(CertProfile)),
    EnvelopeProfile=(codec.encode_uint, _read_enum(EnvelopeProfile)),
)


@dataclass(frozen=True)
class Uri:
    value: str

    def __post_init__(self):
        if not isinstance(self.value, str) or not self.value:
            raise InvariantViolation("URI must be a nonempty text string")
        if len(self.value.encode("utf-8")) > MAX_URI_BYTES:
            raise InvariantViolation(f"URI exceeds {MAX_URI_BYTES} UTF-8 bytes")

    def __str__(self):
        return self.value


def _encode_uri(uri: Uri) -> bytes:
    return codec.encode_text(uri.value)


def _read_uri(dec: codec.Decoder) -> Uri:
    return Uri(dec.read_text())


_payload_kind(Uri, _encode_uri, _read_uri)


@_payload
class VersionInfo:
    manifest_sequence: int
    manifest_uri: Uri

    def __post_init__(self):
        _check_timestamp("manifestSequence", self.manifest_sequence)
        if not isinstance(self.manifest_uri, Uri):
            raise InvariantViolation("manifestUri must be a Uri")


@_payload
class CompactCertificate:
    """Simplified compact credential binding a name to a public key."""

    serial: int
    subject_name: bytes
    subject_public_key: bytes
    issuer_name: bytes
    not_before: TimeStamp
    not_after: TimeStamp
    profile: CertProfile
    signature: bytes

    def __post_init__(self):
        _check_timestamp("serial", self.serial)
        _check_timestamp("notBefore", self.not_before)
        _check_timestamp("notAfter", self.not_after)
        if self.not_before > self.not_after:
            raise InvariantViolation("certificate notBefore > notAfter")
        if not isinstance(self.profile, CertProfile):
            raise InvariantViolation("profile must be a CertProfile")

    @property
    def is_self_signed(self) -> bool:
        return self.issuer_name == self.subject_name

    def tbs_bytes(self) -> bytes:
        """To-be-signed body: the seven fields preceding the signature."""
        return _encode_array(self, self.SPEC[:7])


@_payload
class DeviceUpdateInfo:
    factory_certificate: CompactCertificate
    update_time_not_before: TimeStamp
    update_time_not_after: TimeStamp
    version_info: VersionInfo

    def __post_init__(self):
        _check_timestamp("updateTimeNotBefore", self.update_time_not_before)
        _check_timestamp("updateTimeNotAfter", self.update_time_not_after)
        if self.update_time_not_before > self.update_time_not_after:
            raise InvariantViolation("updateTimeNotBefore > updateTimeNotAfter")


@dataclass(frozen=True)
class UpdateInfoList:
    entries: tuple[DeviceUpdateInfo, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        serials = [e.factory_certificate.serial for e in self.entries]
        if len(serials) != len(set(serials)):
            raise InvariantViolation("duplicate factory-certificate serial in list")


def _encode_update_info_list(msg: UpdateInfoList) -> bytes:
    return codec.encode_array_head(len(msg.entries)) + b"".join(
        map(DeviceUpdateInfo.KIND[0], msg.entries))


def _read_update_info_list(dec: codec.Decoder) -> UpdateInfoList:
    read_entry = DeviceUpdateInfo.KIND[1]
    return UpdateInfoList(tuple(read_entry(dec)
                                for _ in range(dec.read_array_head())))


_payload_kind(UpdateInfoList, _encode_update_info_list, _read_update_info_list)


@dataclass(frozen=True)
class TransferMessage:
    """The six-claim payload driving the operator change on a device."""

    reset_time_not_before: TimeStamp
    reset_time_not_after: TimeStamp
    ra_uri: Uri | None
    update_uri: Uri
    contact_before_enroll: bool
    enroll_uri: Uri
    fallback_uri: Uri

    def __post_init__(self):
        _check_timestamp("resetTimeNotBefore", self.reset_time_not_before)
        _check_timestamp("resetTimeNotAfter", self.reset_time_not_after)
        if self.reset_time_not_before > self.reset_time_not_after:
            raise InvariantViolation("resetTimeNotBefore > resetTimeNotAfter")
        if self.ra_uri is not None and not isinstance(self.ra_uri, Uri):
            raise InvariantViolation("raURI must be a Uri or None")


def _encode_transfer_message(msg: TransferMessage) -> bytes:
    ra = codec.encode_null() if msg.ra_uri is None else _encode_uri(msg.ra_uri)
    return (
        codec.encode_array_head(6)
        + codec.encode_uint(msg.reset_time_not_before)
        + codec.encode_uint(msg.reset_time_not_after)
        + ra
        + codec.encode_array_head(2)
        + _encode_uri(msg.update_uri)
        + codec.encode_bool(msg.contact_before_enroll)
        + _encode_uri(msg.enroll_uri)
        + _encode_uri(msg.fallback_uri)
    )


def _read_transfer_message(dec: codec.Decoder) -> TransferMessage:
    dec.read_array_head(expected=6)
    nb = dec.read_uint()
    na = dec.read_uint()
    ra = None if dec.skip_null() else _read_uri(dec)
    dec.read_array_head(expected=2)
    update_uri = _read_uri(dec)
    flag = dec.read_bool()
    return TransferMessage(nb, na, ra, update_uri, flag, _read_uri(dec),
                           _read_uri(dec))


_payload_kind(TransferMessage, _encode_transfer_message, _read_transfer_message)


@_payload
class CertificateSigningRequest:
    subject_name: bytes
    subject_public_key: bytes
    requested_profile: CertProfile
    proof_of_possession: bytes

    def __post_init__(self):
        if self.requested_profile not in (CertProfile.FACTORY, CertProfile.OPERATIONAL):
            raise InvariantViolation("requested profile must be factory or operational")

    def tbs_bytes(self) -> bytes:
        """Bytes covered by the proof-of-possession signature."""
        return _encode_array(self, self.SPEC[:3])


# Map key of each EnvelopeHeader field; ascending keys keep the map canonical.
_HEADER_KEYS = (1, 3, 4)


@dataclass(frozen=True)
class EnvelopeHeader:
    algorithm_id: int
    profile: EnvelopeProfile
    signer_key_id: bytes

    def __post_init__(self):
        _check_timestamp("algorithmId", self.algorithm_id)
        if not isinstance(self.profile, EnvelopeProfile):
            raise InvariantViolation("profile must be an EnvelopeProfile")
        if len(self.signer_key_id) != 8:
            raise InvariantViolation("signerKeyId must be 8 bytes")

    def encode(self) -> bytes:
        return codec.encode_map_head(len(_HEADER_KEYS)) + b"".join([
            codec.encode_uint(key) + encode(getattr(self, name))
            for key, (name, encode, _read) in zip(_HEADER_KEYS, self.SPEC)])


EnvelopeHeader.SPEC = codec.field_spec(EnvelopeHeader)


def _read_envelope_header(dec: codec.Decoder) -> EnvelopeHeader:
    """The byte-wrapped header map. Only the canonical form parses (every
    key once, in order, minimal heads), so a decoded header re-encodes to
    exactly the bytes that were signed."""
    inner = codec.Decoder(dec.read_bytes())
    count = inner.read_map_head()
    if count != len(_HEADER_KEYS):
        raise MalformedEncoding(f"{count}-entry header map")
    values = []
    for expected, (_name, _encode, read) in zip(_HEADER_KEYS,
                                                EnvelopeHeader.SPEC):
        key = inner.read_uint()
        if key != expected:
            raise MalformedEncoding(f"header key {key} where {expected} belongs")
        values.append(read(inner))
    inner.finish()
    return EnvelopeHeader(*values)


codec.FIELD_KINDS["EnvelopeHeader"] = (
    lambda header: codec.encode_bytes(header.encode()), _read_envelope_header)


@_payload
class SignedEnvelope:
    """Detached-header signature container carrying CWTs and signed lists."""

    protected_header: EnvelopeHeader
    payload: bytes
    signature: bytes

    def signing_input(self) -> bytes:
        return self.protected_header.encode() + self.payload


def encode(message) -> bytes:
    """Encode any protocol payload; equal values yield identical bytes."""
    kind = getattr(type(message), "KIND", None)
    if kind is None:
        raise InvariantViolation(f"not an encodable message: {type(message).__name__}")
    return kind[0](message)


def decode(cls, data: bytes):
    """Decode one payload of class `cls`; trailing bytes are rejected."""
    kind = getattr(cls, "KIND", None)
    if kind is None:
        raise MalformedEncoding(f"not a payload class: {cls!r}")
    dec = codec.Decoder(data)
    message = kind[1](dec)
    dec.finish()
    return message
