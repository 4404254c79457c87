"""Crypto tests: determinism, key ids, tamper resistance, digest behavior."""

import random

import pytest

from trustshift import crypto
from trustshift.errors import BadSeedLength, InvariantViolation
from trustshift.messages import (
    EnvelopeHeader,
    EnvelopeProfile,
    SignedEnvelope,
    decode,
    encode,
)


def seeded_key(tag: bytes) -> crypto.KeyPair:
    return crypto.generate_key_pair(crypto.digest(tag))


def test_same_seed_same_keys():
    seed = bytes(range(32))
    a = crypto.generate_key_pair(seed)
    b = crypto.generate_key_pair(seed)
    assert a.public_key == b.public_key
    assert a.key_id == b.key_id


def test_distinct_seeds_distinct_keys():
    a = crypto.generate_key_pair(b"\x01" * 32)
    b = crypto.generate_key_pair(b"\x02" * 32)
    assert a.public_key != b.public_key


def test_key_id_length_and_derivation():
    key = seeded_key(b"kid")
    assert len(key.key_id) == 8
    assert key.key_id == crypto.digest(key.public_key)[:8]


@pytest.mark.parametrize("n", [0, 16, 31, 33, 64])
def test_bad_seed_length(n):
    with pytest.raises(BadSeedLength):
        crypto.generate_key_pair(b"\x00" * n)


def test_sign_verify_roundtrip():
    key = seeded_key(b"roundtrip")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"hello world")
    assert env.protected_header.signer_key_id == key.key_id
    assert crypto.verify_envelope(key.public_key, env)


def test_verify_with_other_key_fails():
    key = seeded_key(b"signer")
    other = seeded_key(b"someone else")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"payload")
    assert not crypto.verify_envelope(other.public_key, env)


def test_empty_payload_rejected():
    with pytest.raises(InvariantViolation):
        crypto.sign_envelope(seeded_key(b"k"), EnvelopeProfile.CWT, b"")


def test_payload_bit_flips_all_rejected():
    """Flip one bit at 100 random positions; none may verify."""
    key = seeded_key(b"bitflip")
    payload = bytes(random.Random(1).getrandbits(8) for _ in range(64))
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, payload)
    rng = random.Random(2)
    for _ in range(100):
        pos = rng.randrange(len(payload) * 8)
        mutated = bytearray(payload)
        mutated[pos // 8] ^= 1 << (pos % 8)
        forged = SignedEnvelope(env.protected_header, bytes(mutated), env.signature)
        assert not crypto.verify_envelope(key.public_key, forged)


def test_signing_deterministic():
    key = seeded_key(b"deterministic")
    a = crypto.sign_envelope(key, EnvelopeProfile.UPDATE_LIST, b"data")
    b = crypto.sign_envelope(key, EnvelopeProfile.UPDATE_LIST, b"data")
    assert encode(a) == encode(b)


def test_header_binding():
    """Changing any protected-header field invalidates the signature."""
    key = seeded_key(b"header")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"payload")
    swapped_profile = SignedEnvelope(
        EnvelopeHeader(env.protected_header.algorithm_id,
                       EnvelopeProfile.UPDATE_LIST,
                       env.protected_header.signer_key_id),
        env.payload, env.signature)
    assert not crypto.verify_envelope(key.public_key, swapped_profile)
    swapped_kid = SignedEnvelope(
        EnvelopeHeader(env.protected_header.algorithm_id,
                       env.protected_header.profile, b"\x00" * 8),
        env.payload, env.signature)
    assert not crypto.verify_envelope(key.public_key, swapped_kid)


def test_tamper_suite_randomized():
    """Header, payload and signature each mutated across random cases: no
    envelope verifies unless it came out of sign_envelope unmodified."""
    key = seeded_key(b"tamper")
    rng = random.Random(99)
    for case in range(300):
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 120)))
        env = crypto.sign_envelope(key, EnvelopeProfile.CWT, payload)
        data = bytearray(encode(env))
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        try:
            forged = decode(SignedEnvelope, bytes(data))
        except Exception:
            continue  # frame no longer parses: rejected earlier in the stack
        if forged == env:
            continue  # mutation landed outside any semantic field
        assert not crypto.verify_envelope(key.public_key, forged), f"case {case}"


def test_verify_malformed_signature_returns_false():
    key = seeded_key(b"short sig")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"x")
    truncated = SignedEnvelope(env.protected_header, env.payload, env.signature[:10])
    assert not crypto.verify_envelope(key.public_key, truncated)
    assert not crypto.verify_envelope(b"\x00" * 3, env)


def test_digest_deterministic_and_sized():
    assert crypto.digest(b"abc") == crypto.digest(b"abc")
    assert len(crypto.digest(b"")) == 32


def test_digest_no_collisions_10k():
    rng = random.Random(1234)
    seen = set()
    for _ in range(10_000):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 48)))
        seen.add(crypto.digest(data))
    # distinct inputs may repeat in the corpus; dedupe inputs first
    inputs = set()
    rng = random.Random(1234)
    for _ in range(10_000):
        inputs.add(bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 48))))
    assert len(seen) == len(inputs)
