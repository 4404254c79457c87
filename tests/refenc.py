"""Independent reference encoder used as the codec oracle.

Deliberately implemented in a different style from the production codec:
messages are described as tagged trees built by hand straight from the wire
layout, so golden bytes do not depend on any production code path.
"""

import struct


def _head(major, arg):
    if arg < 0:
        raise ValueError("negative argument")
    if arg < 24:
        return bytes([(major << 5) | arg])
    if arg < 0x100:
        return bytes([(major << 5) | 24]) + struct.pack(">B", arg)
    if arg < 0x10000:
        return bytes([(major << 5) | 25]) + struct.pack(">H", arg)
    if arg < 0x100000000:
        return bytes([(major << 5) | 26]) + struct.pack(">I", arg)
    if arg < 0x10000000000000000:
        return bytes([(major << 5) | 27]) + struct.pack(">Q", arg)
    raise ValueError("argument too large")


def head_at_width(major, arg, info):
    """The head of `arg` under `major` with additional info `info` (24-27:
    a 1-, 2-, 4- or 8-byte argument), minimal or not; None if `arg` does
    not fit that width."""
    fmt = ">" + "BHIQ"[info - 24]
    if arg >= 1 << (8 * struct.calcsize(fmt)):
        return None
    return bytes([(major << 5) | info]) + struct.pack(fmt, arg)


def ref_encode(node):
    """Encode a tagged tree: ("uint", n) | ("bytes", b) | ("text", s) |
    ("bool", v) | ("null",) | ("array", [nodes]) | ("map", [(k, v) nodes])."""
    tag = node[0]
    if tag == "uint":
        return _head(0, node[1])
    if tag == "bytes":
        return _head(2, len(node[1])) + node[1]
    if tag == "text":
        raw = node[1].encode("utf-8")
        return _head(3, len(raw)) + raw
    if tag == "array":
        out = _head(4, len(node[1]))
        for item in node[1]:
            out += ref_encode(item)
        return out
    if tag == "map":
        out = _head(5, len(node[1]))
        for key, value in node[1]:
            out += ref_encode(key) + ref_encode(value)
        return out
    if tag == "bool":
        return b"\xf5" if node[1] else b"\xf4"
    if tag == "null":
        return b"\xf6"
    raise ValueError(f"unknown tag {tag!r}")


# --- tagged-tree builders for each wire layout, written from the field order ---

def uri(value):
    return ("text", value)


def timestamp(seconds):
    return ("uint", seconds)


def version_info(seq, manifest_uri):
    return ("array", [("uint", seq), uri(manifest_uri)])


def certificate(serial, subject, subject_pub, issuer, not_before, not_after,
                profile, signature):
    return ("array", [
        ("uint", serial),
        ("bytes", subject),
        ("bytes", subject_pub),
        ("bytes", issuer),
        ("uint", not_before),
        ("uint", not_after),
        ("uint", profile),
        ("bytes", signature),
    ])


def device_update_info(cert_node, nb, na, vi_node):
    return ("array", [cert_node, ("uint", nb), ("uint", na), vi_node])


def update_info_list(entries):
    return ("array", list(entries))


def transfer_message(reset_nb, reset_na, ra_uri, update_uri, update_flag,
                     enroll_uri, fallback_uri):
    ra_node = ("null",) if ra_uri is None else uri(ra_uri)
    return ("array", [
        ("uint", reset_nb),
        ("uint", reset_na),
        ra_node,
        ("array", [uri(update_uri), ("bool", update_flag)]),
        uri(enroll_uri),
        uri(fallback_uri),
    ])


def csr(subject, subject_pub, profile, pop):
    return ("array", [
        ("bytes", subject),
        ("bytes", subject_pub),
        ("uint", profile),
        ("bytes", pop),
    ])


def envelope_header(alg, profile, key_id):
    return ("map", [
        (("uint", 1), ("uint", alg)),
        (("uint", 3), ("uint", profile)),
        (("uint", 4), ("bytes", key_id)),
    ])


def signed_envelope(header_bytes, payload, signature):
    return ("array", [
        ("bytes", header_bytes),
        ("bytes", payload),
        ("bytes", signature),
    ])
