"""A fixed reference loop that measures how fast the host runs right now.

On a shared 2-CPU host the speed available to one process drifts by a
third or more over minutes, which is wider than any useful regression
bound. The benchmark therefore times this loop just before and just after
every round and reports the round's times scaled by NOMINAL_MS / measured,
i.e. as they would read on a host where the loop takes NOMINAL_MS.

The loop uses only the standard library and the `cryptography` package, so
no change to the program under test can change its speed. Its mix (dicts,
f-strings, sorting, SHA-256 and Ed25519 verification) follows the program's
own.
"""

import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# About the loop's time on the 2-CPU host the first baseline was taken on,
# so that scaled figures read close to that host's unscaled ones.
NOMINAL_MS = 8.0
REPEATS = 5

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"reference loop " * 12
_SIGNATURE = _KEY.sign(_MESSAGE)
# Shaped like a trace of a few hundred devices, which the run-level checks
# scan: the host's speed for such scans drifts differently from its speed
# for small, cache-resident work.
_NAMES = [f"device-{i:03d}" for i in range(200)]
_ENTRIES = [{"ev": ("deliver", "record", "phase", "session")[i % 4], "t": i,
             "actor": _NAMES[i % 200], "src": _NAMES[i % 200],
             "dst": ("ca1", "sp1", "ca2")[i % 3], "label": "record",
             "size": 100 + i % 97, "disp": "queued"}
            for i in range(15000)]
_MATCH = {"actor": "device-007", "dst": "ca1"}


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(300):
        entry = {"ev": "deliver", "t": i, "src": f"device-{i % 300:03d}",
                 "dst": "ca1"}
        parts = [f"{k}={v}" for k, v in entry.items()]
        total += len(hashlib.sha256(" ".join(parts).encode()).digest())
        total += len(sorted(parts, key=len))
    for _ in range(10):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    found = [e for e in _ENTRIES if e["ev"] == "phase"
             and all(e.get(k) == v for k, v in _MATCH.items())]
    total += len(found)
    return time.perf_counter() - start


def reference_ms() -> float:
    """Median time of the reference loop over a few repeats, in ms."""
    return statistics.median(_loop() for _ in range(REPEATS)) * 1000
