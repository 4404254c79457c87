"""Key generation, digesting and detached signatures for envelopes.

One fixed suite: Ed25519 over SHA-256 key fingerprints. Ed25519 signing is
deterministic, which keeps golden vectors and simulation traces stable; the
algorithm id travels in envelope headers so the suite could be swapped.

A signature check is a pure function of its (key, signature, message)
bytes. `_check` is the one Ed25519 verify; `_verify` memoizes it, and on a
miss takes the answer of the verify-ahead worker when one is ready. Where
the process may fork and has a second CPU, the first signature starts that
worker (`_Ahead`): every signature this process makes is handed to it with
its key and message, and it checks them while the simulation runs on, so a
receiver that checks one a tick later usually finds the answer waiting.
Nothing waits for the worker: a triple that cannot be sent at once is not
sent, a check whose answer has not arrived runs in-process, and a worker
that is gone turns the path off. A triple this process has checked itself
is flagged in a page both share, and the worker skips it.
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
import time
from collections import deque
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
# 1024 catch 0.626. Entries hold their bytes: at 4096 the bench's `configs`
# workload (many scenarios per process) peaks 5.8% higher in memory.
VERIFY_MEMO_SIZE = 4096
# Bound on the triples handed to the verify-ahead worker and not yet asked
# for: those sent and unanswered plus the answers no check has claimed. A
# 1000-device variant-b run has 0.83 of its memo misses answered ahead at
# 1024 and 0.12 at 256, where bursts of signatures overrun the bound.
VERIFY_AHEAD_SIZE = 1024
_KEY_LEN, _SIGNATURE_LEN = 32, 64
# The worker's answer to a frame whose flag was set: not checked, no answer.
_SKIPPED = 2
# A frame to the worker: the message length (2 bytes), key, signature,
# message. At most PIPE_BUF bytes, so a non-blocking write is whole or none.
_FRAME_HEAD = 2 + _KEY_LEN + _SIGNATURE_LEN
_MAX_MESSAGE = select.PIPE_BUF - _FRAME_HEAD
# An answer left unclaimed this long, or up to twice as long, is dropped. In
# a 1000-device variant-b run no claimed answer had waited more than 0.5 s,
# while answers nothing claims (certificates of servers a run never calls)
# would stay until the bound pushed them out: ~0.4 MB in a process that
# runs hundreds of scenarios.
_ANSWER_LIFE_S = 2.0


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


def _serve(requests: int, answers: int, flags: mmap.mmap) -> None:
    """The worker: answer each frame with one byte, in order, _SKIPPED if
    its flag (sequence number modulo page size) is set, else 1 if `_check`
    accepts its triple and 0 if not, until the requests reach end of file
    (the parent closed its end or exited) or the answers pipe breaks."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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
            if flags[sequence % len(flags)]:
                answer = _SKIPPED
            else:
                answer = _check(buffer[key:sig], buffer[sig:data], buffer[data:end])
            os.write(answers, bytes((answer,)))
            sequence += 1
            start = end
        buffer = buffer[start:]


class _Ahead:
    """The parent's side of the one verify-ahead worker.

    `in_flight` holds the triples sent and not yet answered, oldest first;
    `asked` gives, for each, its frame's slot in `flags` (the frame sequence
    number modulo a page no smaller than the bound), or -1 once a check has
    run it in-process and set that flag, so that its answer is of no use.
    `ready` holds the answers read back in this period of _ANSWER_LIFE_S
    that no check has claimed, and `older` those of the period before. All
    three hold at most VERIFY_AHEAD_SIZE triples together, so the worker
    never has more answer bytes outstanding than a pipe holds and never
    blocks either.
    """

    def __init__(self):
        self.pid = 0  # the worker's; 0 before it starts, -1 once turned off
        self.owner = 0  # the process that started it
        self.requests = self.answers = -1
        self.flags: mmap.mmap | None = None  # shared with the worker
        self.sent = 0  # frames sent, the next frame's sequence number
        self.in_flight: deque[tuple[bytes, bytes, bytes]] = deque()
        self.asked: dict[tuple[bytes, bytes, bytes], int] = {}
        self.ready: dict[tuple[bytes, bytes, bytes], bool] = {}
        self.older: dict[tuple[bytes, bytes, bytes], bool] = {}
        self.period_ends = 0.0

    def offer(self, public_key: bytes, signature: bytes, data: bytes) -> None:
        """Send a triple ahead if that needs no wait; otherwise drop it."""
        if self.owner != os.getpid() and not self._start():
            return
        if type(public_key) is not bytes or type(signature) is not bytes \
                or type(data) is not bytes or len(public_key) != _KEY_LEN \
                or len(signature) != _SIGNATURE_LEN \
                or len(data) > _MAX_MESSAGE:
            return
        if len(self.in_flight) + len(self.ready) + len(self.older) \
                >= VERIFY_AHEAD_SIZE:
            self._drain()
            oldest = self.older or self.ready
            if not oldest:
                return
            del oldest[next(iter(oldest))]
        frame = len(data).to_bytes(2, "big") + public_key + signature + data
        slot = self.sent % len(self.flags)
        self.flags[slot] = 0  # the worker is done with its last frame
        try:
            os.write(self.requests, frame)
        except BlockingIOError:  # the pipe is full: not sent ahead
            return
        except BrokenPipeError:  # the worker is gone
            self.stop()
            return
        triple = (public_key, signature, data)
        self.sent += 1
        self.in_flight.append(triple)
        self.asked[triple] = slot

    def claim(self, public_key: bytes, signature: bytes,
              data: bytes) -> bool | None:
        """The worker's answer for exactly these three bytes objects, or
        None if none has arrived; an answer is used at most once. Only the
        worker's owner reads answers and sets flags: a process forked from
        it would take them from under the owner."""
        owner = self.owner == os.getpid()
        if self.in_flight and owner:
            self._drain()
        if type(public_key) is not bytes or type(signature) is not bytes \
                or type(data) is not bytes:
            return None
        triple = (public_key, signature, data)
        answer = self.ready.pop(triple, None)
        if answer is None:
            answer = self.older.pop(triple, None)
        if answer is None and owner and self.asked.get(triple, -1) >= 0:
            self.flags[self.asked[triple]] = 1  # checked here: skip it
            self.asked[triple] = -1
        return answer

    def _drain(self) -> None:
        """Move every answer that has arrived into `ready`, without waiting,
        after turning the period if it has ended."""
        now = time.monotonic()
        if now >= self.period_ends:
            self.older, self.ready = self.ready, {}
            self.period_ends = now + _ANSWER_LIFE_S
        try:
            answers = os.read(self.answers, VERIFY_AHEAD_SIZE)
        except BlockingIOError:
            return
        if not answers:  # end of file: the worker is gone
            self.stop()
            return
        for answer in answers:
            triple = self.in_flight.popleft()
            if self.asked.pop(triple, -1) >= 0 and answer != _SKIPPED:
                self.ready[triple] = answer == 1

    def _start(self) -> bool:
        """Fork the worker on the first offer where `_may_fork`. Any other
        process turns the path off: one forked from the worker's owner
        closes its copies of the pipes and never writes to them."""
        if self.pid != 0 or not _may_fork():
            self.stop()
            return False
        flags = mmap.mmap(-1, VERIFY_AHEAD_SIZE)  # shared, all zero
        requests_r, requests_w = os.pipe()
        answers_r, answers_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, answers_r, answers_w):
                os.close(fd)
            self.pid = -1
            return False
        if pid == 0:
            try:
                # Keep only the worker's two pipe ends: a copy of any other
                # descriptor, such as the parent's end of a pipe to another
                # process, would hold it open after the parent closed it.
                low, high = sorted((requests_r, answers_w))
                os.closerange(0, low)
                os.closerange(low + 1, high)
                os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
                _serve(requests_r, answers_w, flags)
            finally:
                os._exit(0)
        os.close(requests_r)
        os.close(answers_w)
        os.set_blocking(requests_w, False)
        os.set_blocking(answers_r, False)
        self.pid, self.owner = pid, os.getpid()
        self.requests, self.answers, self.flags = requests_w, answers_r, flags
        atexit.register(self.stop)
        return True

    def stop(self) -> None:
        """Turn the path off: close the pipes, so that the worker reads end
        of file and exits, and reap it if this process started it."""
        if self.pid > 0:
            os.close(self.requests)
            os.close(self.answers)
            self.flags.close()
            if self.owner == os.getpid():
                try:
                    os.waitpid(self.pid, 0)
                except ChildProcessError:  # already reaped elsewhere
                    pass
        self.pid, self.owner = -1, 0
        self.in_flight.clear()
        self.asked.clear()
        self.ready.clear()
        self.older.clear()


_ahead = _Ahead()


@functools.lru_cache(maxsize=VERIFY_MEMO_SIZE)
def _verify(public_key: bytes, signature: bytes, data: bytes) -> bool:
    answer = _ahead.claim(public_key, signature, data)
    return _check(public_key, signature, data) if answer is None else answer


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
