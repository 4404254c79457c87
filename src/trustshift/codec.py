"""Deterministic binary primitives for the protocol messages.

A small CBOR subset: unsigned integers, byte strings, UTF-8 text strings,
definite-length arrays and maps, booleans and null. Encoding is canonical
(minimal-length heads) and the decoder rejects anything else, so equal
values always produce identical bytes and every encoding has exactly one
parse.

`FIELD_KINDS` maps a dataclass field annotation to its encoder and reader.
It is the one table behind every fixed-arity array of typed fields: the
wire frames (`wire.py`) and the protocol payloads (`messages.py`, which
adds its own kinds). `compile_writer` generates one straight-line
function per class at declaration, as `dataclasses` does, that writes
minimal heads of arguments 0-255 inline for the `bytes`, `int` and `bool`
kinds; `compile_reader` reads each field by its kind's strict reader.

A per-run record answers a decode of bytes this process encoded with the
value it encoded (`remember`, `recall`): that value is frozen, and exact
(`compile_exact`), so it is the one parse of its canonical bytes. Every
frame and payload class has an exact check, the hand-written layouts of
`messages.py` too: `compile_exact` reads `X | None` and `tuple[X, ...]`
annotations. An entry read without `keep` (a frame's) answers one decode
for each time its bytes were encoded and one for each copy declared in
flight (`owe`), and leaves at the last; an entry read with `keep` (a
payload's) owes nothing and stays. The record has no bound: it holds what
this run encoded; `crypto.forget_run` empties it as each run starts and ends.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

from .errors import MalformedEncoding

_MAJOR_UINT = 0
_MAJOR_BYTES = 2
_MAJOR_TEXT = 3
_MAJOR_ARRAY = 4
_MAJOR_MAP = 5

_FALSE = 0xF4
_TRUE = 0xF5
_NULL = 0xF6


# The head of each argument 0-255 of each major type, built once: nearly
# every integer and length (keys, ephemerals, signatures) is in this range.
_SHORT_HEADS = tuple(
    tuple(bytes([(major << 5) | arg]) if arg < 24
          else bytes([(major << 5) | 24, arg]) for arg in range(256))
    for major in range(8))


def _encode_head(major: int, arg: int) -> bytes:
    if arg < 256:
        return _SHORT_HEADS[major][arg]
    for info, width in ((25, 2), (26, 4), (27, 8)):
        if arg < 1 << 8 * width:
            return bytes([(major << 5) | info]) + arg.to_bytes(width, "big")
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


# Indexed by major type; 1, negative integers, is not in the subset.
_MAJOR_NAMES = ("unsigned integer", "", "byte string", "text string", "array",
                "map")


class Decoder:
    """Strict cursor over one encoded item stream."""

    def __init__(self, data: bytes):
        self._data = bytes(data)  # so every string read from it is bytes
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedEncoding("truncated input")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def _arg(self, major: int) -> int:
        """The argument of the next head, which must be of type `major`."""
        initial = self._take(1)[0]
        arg = initial & 0x1F
        if arg >= 24:
            if arg > 27:
                raise MalformedEncoding(f"unsupported additional info {arg}")
            width = 1 << (arg - 24)
            arg = int.from_bytes(self._take(width), "big")
            if arg <= (23 if width == 1 else (1 << 4 * width) - 1):
                raise MalformedEncoding("non-minimal length encoding")
        if initial >> 5 != major:
            raise MalformedEncoding(
                f"expected {_MAJOR_NAMES[major]}, got major {initial >> 5}")
        return arg

    def read_uint(self) -> int:
        return self._arg(_MAJOR_UINT)

    def read_bytes(self) -> bytes:
        return self._take(self._arg(_MAJOR_BYTES))

    def read_text(self) -> str:
        raw = self._take(self._arg(_MAJOR_TEXT))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("invalid UTF-8 in text string") from exc

    def read_array_head(self, expected: int | None = None) -> int:
        arg = self._arg(_MAJOR_ARRAY)
        if expected is not None and arg != expected:
            raise MalformedEncoding(f"expected {expected}-element array, got {arg}")
        return arg

    def read_map_head(self) -> int:
        return self._arg(_MAJOR_MAP)

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


# Inlined per kind: an expression over the field value `{v}`.
_WRITE_INLINE = {
    encode_uint: "H0[{v}] if 0 <= {v} < 256 else encode_uint({v})",
    encode_bytes: "H2[n] if (n := len({v})) < 256 else _encode_head(2, n), {v}",
    encode_bool: r"b'\xf5' if {v} else b'\xf4'",
}


def _define(signature: str, body: list[str], namespace: dict):  # the one exec
    exec("\n".join([f"def {signature}:", *body]), namespace)
    return namespace[signature.partition("(")[0]]


def compile_writer(cls, head: bytes, count: int | None = None):
    """`write(value)`: `head`, then the first `count` fields of dataclass
    `cls` (all of them by default), each encoded by its kind."""
    namespace = {"HEAD": head, "H0": _SHORT_HEADS[0], "H2": _SHORT_HEADS[2],
                 "encode_uint": encode_uint, "_encode_head": _encode_head}
    body, parts = [], ["HEAD"]
    for i, (name, encode, _read) in enumerate(field_spec(cls)[:count]):
        namespace[f"e{i}"] = encode
        body.append(f"    v{i} = value.{name}")
        parts.append(_WRITE_INLINE.get(encode, "e{i}({v})").format(v=f"v{i}", i=i))
    body.append(f"    return b''.join(({', '.join(parts)},))")
    return _define("write(value)", body, namespace)


def compile_reader(cls, array: bool = False):
    """`read(dec)`: the fields of dataclass `cls`, each read by its kind in
    declared order, as an instance; with `array`, after the head of an
    array of them."""
    readers = [read for _name, _encode, read in field_spec(cls)]

    def read(dec: Decoder):
        if array:
            dec.read_array_head(len(readers))
        return cls(*[read_field(dec) for read_field in readers])
    return read


def _exact_term(expr: str, kind, namespace: dict) -> str:
    """A test that `expr` is of annotation `kind` exactly, as its reader
    builds it: a nested value exact too, a bare `tuple` one of bytes."""
    args = get_args(kind)
    if kind is tuple or get_origin(kind) is tuple:  # `tuple[X, ...]`
        item = _exact_term("x", args[0] if args else bytes, namespace)
        return f"type({expr}) is tuple and all({item} for x in {expr})"
    if type(None) in args:  # `X | None`
        return f"({expr} is None or {_exact_term(expr, args[0], namespace)})"
    name = f"t{len(namespace)}"
    namespace[name] = kind
    return f"type({expr}) is {name}" + (
        f" and {name}.EXACT({expr})" if hasattr(kind, "EXACT") else "")


def compile_exact(cls):
    """`exact(value)`: whether each field of `value` is of its annotated
    class exactly, as its reader builds it, so the strict parse of its
    bytes rebuilds it."""
    namespace = {}
    terms = [_exact_term(f"value.{name}", kind, namespace)
             for name, kind in get_type_hints(cls).items()]
    return _define("exact(value)", [f"    return {' and '.join(terms)}"],
                   namespace)


def compile_init(cls):
    """`__init__` of frozen dataclass `cls`, whose fields have no defaults:
    it fills the instance `__dict__` directly, where the dataclass's sets
    each field through `object.__setattr__`; then `__post_init__`, if any."""
    names = [f.name for f in fields(cls)]
    body = ["    d = self.__dict__", *(f"    d[{n!r}] = {n}" for n in names)]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    return _define(f"__init__(self, {', '.join(names)})", body, {})


# What this run encoded: bytes -> the value they encode; and, for bytes
# encoded or put in flight more than once, how many more decodes the entry
# still answers after the next.
_encoded: dict[bytes, object] = {}
_owed: dict[bytes, int] = {}


def forget_encoded() -> None:
    _encoded.clear()
    _owed.clear()


def remember(data: bytes, value, keep: bool = False) -> bytes:
    """Record `value` as what `data` decodes to if its class has an `EXACT`
    check and `value` passes it; return `data`. Bytes already held for a
    value of the same class owe one more decode instead, unless `keep`
    (they are read with `keep`, and owe nothing)."""
    exact = getattr(type(value), "EXACT", None)
    if exact is not None and exact(value):
        held = _encoded.get(data)
        if held is None:
            _encoded[data] = value
        elif type(held) is type(value):
            if not keep:
                _owed[data] = _owed.get(data, 0) + 1
        else:
            _encoded[data] = value
            _owed.pop(data, None)
    return data


def owe(data: bytes) -> None:
    """One more decode of `data`, a copy of bytes already in flight, to be
    answered from the record if it holds them."""
    if type(data) is bytes and data in _encoded:
        _owed[data] = _owed.get(data, 0) + 1


def recall(data, classes, keep: bool = False):
    """The value this run encoded as `data`, a `bytes`, if its class is
    exactly one of `classes`; else None. With `keep` the entry stays;
    without, it is taken out at the last decode it owes."""
    value = _encoded.get(data) if type(data) is bytes else None
    if type(value) not in classes:
        return None
    if keep:
        return value
    owed = _owed.pop(data, 0)
    if owed > 1:
        _owed[data] = owed - 1
    elif not owed:
        del _encoded[data]
    return value
