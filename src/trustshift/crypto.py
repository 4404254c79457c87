"""Key generation, digesting and detached signatures for envelopes.

One fixed suite: Ed25519 over SHA-256 key fingerprints. Ed25519 signing is
deterministic, which keeps golden vectors and simulation traces stable; the
algorithm id travels in envelope headers so the suite could be swapped.

A signature check is a pure function of its (key, signature, message)
bytes. `_check` is the one Ed25519 verify. `KeyPair.sign` records each
triple it makes, and Ed25519 accepts every signature it makes under its
own key, so `verify_raw` answers a recorded triple with True and runs
`_check` on anything else: a flipped byte, another signer's key or a
signature made elsewhere is always checked.

A key pair is a pure function of its seed. `_derive` is the one Ed25519
key derivation, and `generate_key_pair` answers a `bytes` seed this run
already derived from the record of derived keys: under `server_keygen` a
device derives the seed its CA has just derived. A bytearray or
memoryview seed is always derived, and only 32-byte seeds are recorded.

The records of signatures and of derived keys hold one run, as does the
codec's record of encodings. None of the three has a bound: each holds
what this run made, and `scenario.run_scenario` empties all three
(`forget_run`) when a run starts and when it ends, so a run's answers and
memory depend on nothing that ran before it in the process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import codec
from .errors import BadSeedLength, InvariantViolation
from .messages import ALG_ED25519, EnvelopeHeader, EnvelopeProfile, SignedEnvelope

KEY_ID_LEN = 8
SEED_LEN = 32


def digest(data: bytes) -> bytes:
    """SHA-256; 32-byte output."""
    return hashlib.sha256(data).digest()


def key_id_for(public_key: bytes) -> bytes:
    return digest(public_key)[:KEY_ID_LEN]


# The (public key, signature, message) triples `KeyPair.sign` made in this
# run. Only `_derive` builds a KeyPair, so each key is its private key's
# own and each triple verifies.
_signed: set[tuple[bytes, bytes, bytes]] = set()
# The key pairs `_derive` made in this run from `bytes` seeds, by seed.
# KeyPair is frozen and derivation deterministic, so an entry is what
# `_derive` would return.
_derived: dict[bytes, KeyPair] = {}


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    key_id: bytes
    _private: Ed25519PrivateKey = field(repr=False, compare=False)

    def sign(self, data: bytes) -> bytes:
        """Sign `data`; a `bytes` message is recorded with the signature,
        so that its check costs a lookup."""
        signature = self._private.sign(data)
        if type(data) is bytes:
            _signed.add((self.public_key, signature, data))
        return signature


def _derive(seed: bytes) -> KeyPair:
    """The one Ed25519 key derivation."""
    if len(seed) != SEED_LEN:
        raise BadSeedLength(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes_raw()
    return KeyPair(public_key=public, key_id=key_id_for(public), _private=private)


def generate_key_pair(seed: bytes) -> KeyPair:
    """Derive a signing key pair from a 32-byte seed (same seed, same keys).

    A `bytes` seed derived in this run is answered from the record of
    derived keys; any other seed goes to `_derive`, and a `bytes` one is
    then recorded. An argument of another type (a bytearray, a memoryview)
    never is: a memoryview compares and hashes equal to the bytes it
    views, but its bytes may change after the call."""
    if type(seed) is not bytes:
        return _derive(seed)
    key = _derived.get(seed)
    if key is None:
        key = _derived[seed] = _derive(seed)
    return key


def _check(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """The one Ed25519 verify."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def forget_run() -> None:
    """Empty the per-run records, of signatures made, of derived keys and
    of encodings."""
    _signed.clear()
    _derived.clear()
    codec.forget_encoded()


def verify_raw(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """Raw signature check; False on any malformed input.

    A triple that `KeyPair.sign` made in this run is answered True from the
    record; any other is checked by `_check`.
    An argument of another type than `bytes` (a bytearray, a memoryview)
    always is: it may compare equal to bytes that the record holds, yet
    Ed25519 may answer it otherwise (a memoryview key is refused)."""
    if type(public_key) is bytes and type(signature) is bytes \
            and type(data) is bytes \
            and (public_key, signature, data) in _signed:
        return True
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
