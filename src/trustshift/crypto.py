"""Key generation, digesting and detached signatures for envelopes.

One fixed suite: Ed25519 over SHA-256 key fingerprints. Ed25519 signing is
deterministic, which keeps golden vectors and simulation traces stable; the
algorithm id travels in envelope headers so the suite could be swapped.
"""

from __future__ import annotations

import functools
import hashlib
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
        return self._private.sign(data)


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


@functools.lru_cache(maxsize=VERIFY_MEMO_SIZE)
def _verify(public_key: bytes, signature: bytes, data: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def verify_raw(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """Raw signature check; False on any malformed input.

    A check is a pure function of its arguments, so its result, True or
    False, is memoized on the exact bytes and a repeat costs a lookup; an
    unhashable argument (a bytearray) is checked without the memo."""
    try:
        return _verify(public_key, signature, data)
    except TypeError:  # lru_cache could not hash an argument
        return _verify.__wrapped__(public_key, signature, data)


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
