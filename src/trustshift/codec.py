"""Deterministic binary primitives for the protocol messages.

A small CBOR subset: unsigned integers, byte strings, UTF-8 text strings,
definite-length arrays and maps, booleans and null. Encoding is canonical
(minimal-length heads) and the decoder rejects anything else, so equal
values always produce identical bytes and every encoding has exactly one
parse.

`FIELD_KINDS` maps a dataclass field annotation to its encoder and reader.
It is the one table behind every fixed-arity array of typed fields: the
wire frames (`wire.py`) and the protocol payloads (`messages.py`, which
adds its own kinds).
"""

from __future__ import annotations

import struct
from dataclasses import fields

from .errors import MalformedEncoding

_MAJOR_UINT = 0
_MAJOR_BYTES = 2
_MAJOR_TEXT = 3
_MAJOR_ARRAY = 4
_MAJOR_MAP = 5

_FALSE = 0xF4
_TRUE = 0xF5
_NULL = 0xF6


def _encode_head(major: int, arg: int) -> bytes:
    if arg < 24:
        return bytes([(major << 5) | arg])
    if arg <= 0xFF:
        return bytes([(major << 5) | 24, arg])
    if arg <= 0xFFFF:
        return bytes([(major << 5) | 25]) + struct.pack(">H", arg)
    if arg <= 0xFFFFFFFF:
        return bytes([(major << 5) | 26]) + struct.pack(">I", arg)
    if arg <= 0xFFFFFFFFFFFFFFFF:
        return bytes([(major << 5) | 27]) + struct.pack(">Q", arg)
    raise MalformedEncoding("integer exceeds 64-bit range")


def encode_uint(value: int) -> bytes:
    if value < 0:
        raise MalformedEncoding("unsigned integer expected")
    return _encode_head(_MAJOR_UINT, value)


def encode_bytes(value: bytes) -> bytes:
    return _encode_head(_MAJOR_BYTES, len(value)) + value


def encode_text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _encode_head(_MAJOR_TEXT, len(raw)) + raw


def encode_array_head(length: int) -> bytes:
    return _encode_head(_MAJOR_ARRAY, length)


def encode_map_head(length: int) -> bytes:
    return _encode_head(_MAJOR_MAP, length)


def encode_bool(value: bool) -> bytes:
    return bytes([_TRUE if value else _FALSE])


def encode_null() -> bytes:
    return bytes([_NULL])


class Decoder:
    """Strict cursor over one encoded item stream."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedEncoding("truncated input")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def _read_head(self) -> tuple[int, int]:
        initial = self._take(1)[0]
        major = initial >> 5
        info = initial & 0x1F
        if info < 24:
            return major, info
        if info == 24:
            arg = self._take(1)[0]
            min_excl = 23
        elif info == 25:
            arg = struct.unpack(">H", self._take(2))[0]
            min_excl = 0xFF
        elif info == 26:
            arg = struct.unpack(">I", self._take(4))[0]
            min_excl = 0xFFFF
        elif info == 27:
            arg = struct.unpack(">Q", self._take(8))[0]
            min_excl = 0xFFFFFFFF
        else:
            raise MalformedEncoding(f"unsupported additional info {info}")
        if arg <= min_excl:
            raise MalformedEncoding("non-minimal length encoding")
        return major, arg

    def read_uint(self) -> int:
        major, arg = self._read_head()
        if major != _MAJOR_UINT:
            raise MalformedEncoding(f"expected unsigned integer, got major {major}")
        return arg

    def read_bytes(self) -> bytes:
        major, arg = self._read_head()
        if major != _MAJOR_BYTES:
            raise MalformedEncoding(f"expected byte string, got major {major}")
        return bytes(self._take(arg))

    def read_text(self) -> str:
        major, arg = self._read_head()
        if major != _MAJOR_TEXT:
            raise MalformedEncoding(f"expected text string, got major {major}")
        raw = self._take(arg)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("invalid UTF-8 in text string") from exc

    def read_array_head(self, expected: int | None = None) -> int:
        major, arg = self._read_head()
        if major != _MAJOR_ARRAY:
            raise MalformedEncoding(f"expected array, got major {major}")
        if expected is not None and arg != expected:
            raise MalformedEncoding(f"expected {expected}-element array, got {arg}")
        return arg

    def read_map_head(self) -> int:
        major, arg = self._read_head()
        if major != _MAJOR_MAP:
            raise MalformedEncoding(f"expected map, got major {major}")
        return arg

    def read_bool(self) -> bool:
        byte = self._take(1)[0]
        if byte == _TRUE:
            return True
        if byte == _FALSE:
            return False
        raise MalformedEncoding(f"expected boolean, got 0x{byte:02x}")

    def skip_null(self) -> bool:
        """Consume a null if it is the next item; True if there was one."""
        if self._pos >= len(self._data):
            raise MalformedEncoding("truncated input")
        if self._data[self._pos] != _NULL:
            return False
        self._pos += 1
        return True

    def finish(self) -> None:
        """Reject trailing bytes after the decoded item."""
        if self._pos != len(self._data):
            raise MalformedEncoding(
                f"{len(self._data) - self._pos} trailing byte(s) after message")


def _encode_bytes_list(items) -> bytes:
    return encode_array_head(len(items)) + b"".join(map(encode_bytes, items))


def _read_bytes_list(dec: Decoder) -> tuple:
    return tuple(dec.read_bytes() for _ in range(dec.read_array_head()))


# Field annotation -> (encoder, reader); a reader takes the `Decoder`.
FIELD_KINDS = {
    "bytes": (encode_bytes, Decoder.read_bytes),
    "int": (encode_uint, Decoder.read_uint),
    "bool": (encode_bool, Decoder.read_bool),
    "str": (encode_text, Decoder.read_text),
    "tuple": (_encode_bytes_list, _read_bytes_list),
}


def field_spec(cls) -> tuple:
    """(name, encoder, reader) of each field of a dataclass, in order."""
    return tuple((f.name, *FIELD_KINDS[f.type]) for f in fields(cls))


def encode_fields(value, spec) -> bytes:
    """The fields of `value` named in `spec`, encoded back to back."""
    return b"".join([encode(getattr(value, name)) for name, encode, _read in spec])


def read_fields(dec: Decoder, spec) -> list:
    return [read(dec) for _name, _encode, read in spec]
