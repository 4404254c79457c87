"""Key generation, digesting and detached signatures for envelopes.

One fixed suite: Ed25519 over SHA-256 key fingerprints. Ed25519 signing is
deterministic, which keeps golden vectors and simulation traces stable; the
algorithm id travels in envelope headers so the suite could be swapped.

A signature check is a pure function of its (key, signature, message)
bytes. `_check` is the one Ed25519 verify; `_verify` memoizes it, and on a
miss takes the answer of the verify-ahead worker when one is ready. The
memo's scope is one run: `scenario.run_scenario` empties it first
(`forget_verified`), so a run's memo hits and memory depend on nothing that
ran before it in the process. Where
the process may fork and has a second CPU, the first signature starts that
worker (`_Ahead`): every signature this process makes is handed to it with
its key and message over one pipe, and it checks them while the simulation
runs on, writing each answer into a page both share, so a receiver that
checks one a tick later usually finds the answer waiting. Nothing waits for
the worker: a triple that cannot be sent at once is not sent, a check whose
answer has not arrived runs in-process and flags the triple in the same
page so that the worker skips it, and a worker that is gone turns the path
off.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import mmap
import os
import select
import signal
import threading
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import BadSeedLength, InvariantViolation
from .messages import ALG_ED25519, EnvelopeHeader, EnvelopeProfile, SignedEnvelope

KEY_ID_LEN = 8
SEED_LEN = 32
# Bound on memoized verify results. A 1000-device variant-b run makes 20022
# checks of 6011 distinct triples; each device's repeats come close
# together, so 4096 entries still catch every repeat (0.700 of calls) where
# 1024 catch 0.626. Entries hold their bytes, and only the current run's.
VERIFY_MEMO_SIZE = 4096
# Frame slots shared with the verify-ahead worker, the bound on the triples
# sent to it and not yet claimed: a slot is reused once its last frame is
# answered. A 1000-device variant-b run has 0.83 of its memo misses answered
# ahead at 1024 and 0.12 at 256, where bursts of signatures overrun the bound.
VERIFY_AHEAD_SIZE = 1024
_KEY_LEN, _SIGNATURE_LEN = 32, 64
# A slot's answer byte: its frame not answered yet, checked and accepted,
# checked and refused, or not checked (its flag was set, or no frame yet).
_PENDING, _TRUE, _FALSE, _SKIPPED = range(4)
# A frame to the worker: the message length (2 bytes), key, signature,
# message. At most PIPE_BUF bytes, so a non-blocking write is whole or none.
_FRAME_HEAD = 2 + _KEY_LEN + _SIGNATURE_LEN
_MAX_MESSAGE = select.PIPE_BUF - _FRAME_HEAD


def digest(data: bytes) -> bytes:
    """SHA-256; 32-byte output."""
    return hashlib.sha256(data).digest()


def key_id_for(public_key: bytes) -> bytes:
    return digest(public_key)[:KEY_ID_LEN]


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    key_id: bytes
    _private: Ed25519PrivateKey = field(repr=False, compare=False)

    def sign(self, data: bytes) -> bytes:
        signature = self._private.sign(data)
        _ahead.offer(self.public_key, signature, data)
        return signature


def generate_key_pair(seed: bytes) -> KeyPair:
    """Derive a signing key pair from a 32-byte seed (same seed, same keys)."""
    if len(seed) != SEED_LEN:
        raise BadSeedLength(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(
        encoding=serialization.Encoding.Raw,
        format=serialization.PublicFormat.Raw,
    )
    return KeyPair(public_key=public, key_id=key_id_for(public), _private=private)


def _check(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """The one Ed25519 verify, in this process or in the worker."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def _may_fork() -> bool:
    """True where this process can fork, runs no other thread (a lock one
    held would stay held in the worker) and may use two or more CPUs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _serve(requests: int, page: mmap.mmap) -> None:
    """The worker: for each frame, in order, write its answer byte in the
    second half of `page` at its slot (sequence number modulo half the page
    size): _SKIPPED if the slot's flag in the first half is set, else _TRUE
    or _FALSE as `_check` accepts its triple or not, until the requests
    reach end of file (the parent closed its end or exited)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    size = len(page) // 2
    buffer, sequence = b"", 0
    while chunk := os.read(requests, 1 << 16):
        buffer += chunk
        start = 0
        while len(buffer) - start >= _FRAME_HEAD:
            key = start + 2
            sig = key + _KEY_LEN
            data = sig + _SIGNATURE_LEN
            end = data + int.from_bytes(buffer[start:key], "big")
            if end > len(buffer):
                break
            slot = sequence % size
            if page[slot]:
                page[size + slot] = _SKIPPED
            elif _check(buffer[key:sig], buffer[sig:data], buffer[data:end]):
                page[size + slot] = _TRUE
            else:
                page[size + slot] = _FALSE
            sequence += 1
            start = end
        buffer = buffer[start:]


class _Ahead:
    """The parent's side of the one verify-ahead worker.

    Frame number n goes to slot n modulo VERIFY_AHEAD_SIZE. `page`, shared
    with the worker, holds a flag byte per slot and then an answer byte per
    slot; `slots` holds the triple last sent in each slot, and `asked` maps
    each triple sent and not yet claimed to its slot. Only single bytes
    cross the page, and each byte has one writer at a time: the parent
    writes the flags; the worker writes an answer byte once it has read its
    frame, and the parent writes it only while the worker is done with the
    slot (the byte is not _PENDING) and has no frame for it: _PENDING just
    before it sends the slot's next frame, and back if that send fails. An
    offer whose slot is still _PENDING is dropped, which is the whole bound;
    nothing waits. Reusing a slot takes its last triple out of `asked`, so
    an answer is only read for the triple whose frame it answers.
    """

    def __init__(self):
        self.pid = 0  # the worker's; 0 before it starts, -1 once turned off
        self.owner = 0  # the process that started it
        self.requests = -1
        self.page: mmap.mmap | None = None  # shared with the worker
        self.sent = 0  # frames sent, the next frame's sequence number
        self.slots: list[tuple[bytes, bytes, bytes] | None] = []
        self.asked: dict[tuple[bytes, bytes, bytes], int] = {}

    def offer(self, public_key: bytes, signature: bytes, data: bytes) -> None:
        """Send a triple ahead if that needs no wait; otherwise drop it."""
        if self.owner != os.getpid() and not self._start():
            return
        if type(public_key) is not bytes or type(signature) is not bytes \
                or type(data) is not bytes or len(public_key) != _KEY_LEN \
                or len(signature) != _SIGNATURE_LEN \
                or len(data) > _MAX_MESSAGE:
            return
        slot = self.sent % len(self.slots)
        answer_at = len(self.slots) + slot
        last_answer = self.page[answer_at]
        if last_answer == _PENDING:  # its last frame is not answered yet
            return
        self.page[slot] = 0
        self.page[answer_at] = _PENDING
        frame = len(data).to_bytes(2, "big") + public_key + signature + data
        try:
            os.write(self.requests, frame)
        except BlockingIOError:  # the pipe is full: not sent ahead
            self.page[answer_at] = last_answer
            return
        except BrokenPipeError:  # the worker is gone
            self.stop()
            return
        last = self.slots[slot]
        if self.asked.get(last) == slot:
            del self.asked[last]
        triple = (public_key, signature, data)
        self.slots[slot] = triple
        self.asked[triple] = slot
        self.sent += 1

    def claim(self, public_key: bytes, signature: bytes,
              data: bytes) -> bool | None:
        """The worker's answer for exactly these three bytes objects, or
        None if it has not arrived; an answer is used at most once. A triple
        left to an in-process check has its flag set, so the worker skips
        it. Only the worker's owner reads the page: a process forked from it
        holds a stale `asked`."""
        if self.owner != os.getpid() or type(public_key) is not bytes \
                or type(signature) is not bytes or type(data) is not bytes:
            return None
        slot = self.asked.pop((public_key, signature, data), None)
        if slot is None:
            return None
        answer = self.page[len(self.slots) + slot]
        if answer == _TRUE or answer == _FALSE:
            return answer == _TRUE
        if answer == _PENDING:
            self.page[slot] = 1  # checked here: skip it
        return None

    def _start(self) -> bool:
        """Fork the worker on the first offer where `_may_fork`. Any other
        process turns the path off: one forked from the worker's owner
        closes its copy of the pipe and never writes to it."""
        if self.pid != 0 or not _may_fork():
            self.stop()
            return False
        # Shared with the worker: no flag set, and every slot free and
        # without an answer.
        page = mmap.mmap(-1, 2 * VERIFY_AHEAD_SIZE)
        page[VERIFY_AHEAD_SIZE:] = bytes((_SKIPPED,)) * VERIFY_AHEAD_SIZE
        requests_r, requests_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(requests_r)
            os.close(requests_w)
            self.pid = -1
            return False
        if pid == 0:
            try:
                # Keep only the worker's end of the pipe: a copy of any other
                # descriptor, such as the parent's end of a pipe to another
                # process, would hold it open after the parent closed it.
                os.closerange(0, requests_r)
                os.closerange(requests_r + 1, os.sysconf("SC_OPEN_MAX"))
                _serve(requests_r, page)
            finally:
                os._exit(0)
        os.close(requests_r)
        os.set_blocking(requests_w, False)
        self.pid, self.owner = pid, os.getpid()
        self.requests, self.page = requests_w, page
        self.slots = [None] * VERIFY_AHEAD_SIZE
        atexit.register(self.stop)
        return True

    def stop(self) -> None:
        """Turn the path off: close the pipe, so that the worker reads end
        of file and exits, and reap it if this process started it."""
        if self.pid > 0:
            os.close(self.requests)
            self.page.close()
            if self.owner == os.getpid():
                try:
                    os.waitpid(self.pid, 0)
                except ChildProcessError:  # already reaped elsewhere
                    pass
        self.pid, self.owner = -1, 0
        self.slots.clear()
        self.asked.clear()


_ahead = _Ahead()


@functools.lru_cache(maxsize=VERIFY_MEMO_SIZE)
def _verify(public_key: bytes, signature: bytes, data: bytes) -> bool:
    answer = _ahead.claim(public_key, signature, data)
    return _check(public_key, signature, data) if answer is None else answer


def forget_verified() -> None:
    """Empty the verify memo, its hit and miss counts too."""
    _verify.cache_clear()


def verify_raw(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """Raw signature check; False on any malformed input.

    A check is a pure function of its arguments, so its result, True or
    False, is memoized on the exact bytes and a repeat costs a lookup; an
    unhashable argument (a bytearray) is checked in-process, without the
    memo or the worker's answers."""
    try:
        return _verify(public_key, signature, data)
    except TypeError:  # lru_cache could not hash an argument
        return _check(public_key, signature, data)


def sign_envelope(key: KeyPair, profile: EnvelopeProfile, payload: bytes) -> SignedEnvelope:
    """Sign payload into an envelope whose header names the signer key."""
    if not payload:
        raise InvariantViolation("envelope payload must be nonempty")
    header = EnvelopeHeader(
        algorithm_id=ALG_ED25519,
        profile=EnvelopeProfile(profile),
        signer_key_id=key.key_id,
    )
    signing_input = header.encode() + payload
    return SignedEnvelope(header, payload, key.sign(signing_input))


def verify_envelope(public_key: bytes | None, envelope: SignedEnvelope,
                    profile: EnvelopeProfile) -> bool:
    """The one acceptance check for a signed envelope: True iff a key is
    given, the header names this suite and `profile`, and the signature
    matches header-bytes||payload under the key."""
    header = envelope.protected_header
    if public_key is None or header.algorithm_id != ALG_ED25519 \
            or header.profile is not profile:
        return False
    return verify_raw(public_key, envelope.signature, envelope.signing_input())
