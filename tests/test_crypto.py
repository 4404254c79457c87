"""Crypto tests: determinism, key ids, tamper resistance, digest behavior,
the record of derived keys as the key-derivation shortcut and the record
of signatures made as the verify shortcut. How the record of signatures
answers a check ahead is tested in `test_verify_ahead.py`."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_record import records_as_each_loop_ends
from test_verify_ahead import counted_checks
from trustshift import crypto
from trustshift.errors import BadSeedLength, InvariantViolation
from trustshift.messages import (
    EnvelopeHeader,
    EnvelopeProfile,
    SignedEnvelope,
    decode,
    encode,
)
from trustshift.scenario import ScenarioConfig, ScenarioOptions, run_scenario


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
    """Refused with a 32-byte seed of the same bytes recorded: only
    32-byte seeds are recorded, so any other length misses."""
    crypto.generate_key_pair(b"\x00" * 32)
    with pytest.raises(BadSeedLength):
        crypto.generate_key_pair(b"\x00" * n)


# ---------------------------------------------------------------------------
# the record of derived keys: a run derives each bytes seed once
# ---------------------------------------------------------------------------

def counted_derivations(mp) -> list:
    """Record each seed that reaches `_derive` from now on."""
    derive, seeds = crypto._derive, []
    mp.setattr(crypto, "_derive", lambda seed: seeds.append(seed) or derive(seed))
    return seeds


def test_derived_key_answered_from_the_record(monkeypatch):
    """Within a run, a bytes seed is derived once: later calls return the
    same KeyPair, whose key is the one a fresh derivation gives."""
    seeds = counted_derivations(monkeypatch)
    seed = crypto.digest(b"recorded")
    key = crypto.generate_key_pair(seed)
    assert crypto.generate_key_pair(bytes(bytearray(seed))) is key
    assert seeds == [seed]
    fresh = crypto._derive(seed)
    assert fresh is not key
    assert (fresh.public_key, fresh.key_id) == (key.public_key, key.key_id)


def test_forget_run_empties_the_record_of_derived_keys(monkeypatch):
    seed = crypto.digest(b"forgotten")
    key = crypto.generate_key_pair(seed)
    crypto.forget_run()
    seeds = counted_derivations(monkeypatch)
    assert crypto.generate_key_pair(seed) is not key
    assert seeds == [seed]


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_derived_key_of_a_bytearray_or_memoryview_is_not_recorded(kind, monkeypatch):
    """A seed of another type than bytes is always derived and never
    recorded, before or after its bytes are."""
    seeds = counted_derivations(monkeypatch)
    seed = crypto.digest(b"not bytes")
    first = crypto.generate_key_pair(kind(seed))
    key = crypto.generate_key_pair(seed)
    assert crypto.generate_key_pair(kind(seed)) is not key
    assert first.public_key == key.public_key
    assert len(seeds) == 3


def test_server_keygen_run_derives_each_seed_once(monkeypatch):
    """Under `server_keygen` a device derives the seed its CA has just
    derived, and in variant a CA2 draws CA1's seeds; a run still hands each
    seed to `_derive` once."""
    seeds = counted_derivations(monkeypatch)
    result = run_scenario(ScenarioConfig(
        name="keygen", variant="a", device_count=3, seed=1,
        options=ScenarioOptions(server_keygen=True)))
    assert result.ok
    assert seeds and len(seeds) == len(set(seeds))


def test_sign_verify_roundtrip():
    key = seeded_key(b"roundtrip")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"hello world")
    assert env.protected_header.signer_key_id == key.key_id
    assert crypto.verify_envelope(key.public_key, env, EnvelopeProfile.CWT)


def test_verify_with_other_key_fails():
    key = seeded_key(b"signer")
    other = seeded_key(b"someone else")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"payload")
    assert not crypto.verify_envelope(other.public_key, env,
                                      EnvelopeProfile.CWT)


def test_verify_refuses_missing_key_and_other_profile():
    """No key, or a header naming another profile than the one expected,
    fails the check even when the signature itself is good."""
    key = seeded_key(b"signer")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"payload")
    assert not crypto.verify_envelope(None, env, EnvelopeProfile.CWT)
    assert not crypto.verify_envelope(key.public_key, env,
                                      EnvelopeProfile.UPDATE_LIST)


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
        assert not crypto.verify_envelope(key.public_key, forged,
                                          EnvelopeProfile.CWT)


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
    assert not crypto.verify_envelope(key.public_key, swapped_profile,
                                      EnvelopeProfile.UPDATE_LIST)
    swapped_kid = SignedEnvelope(
        EnvelopeHeader(env.protected_header.algorithm_id,
                       env.protected_header.profile, b"\x00" * 8),
        env.payload, env.signature)
    assert not crypto.verify_envelope(key.public_key, swapped_kid,
                                      EnvelopeProfile.CWT)


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
        assert not crypto.verify_envelope(
            key.public_key, forged, forged.protected_header.profile), \
            f"case {case}"


def test_verify_malformed_signature_returns_false():
    key = seeded_key(b"short sig")
    env = crypto.sign_envelope(key, EnvelopeProfile.CWT, b"x")
    truncated = SignedEnvelope(env.protected_header, env.payload, env.signature[:10])
    assert not crypto.verify_envelope(key.public_key, truncated,
                                      EnvelopeProfile.CWT)
    assert not crypto.verify_envelope(b"\x00" * 3, env, EnvelopeProfile.CWT)


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


# ---------------------------------------------------------------------------
# the record of signatures made, as a verify shortcut: same answers as an
# uncached check, bounded, and answering every check of an honest run
# ---------------------------------------------------------------------------

_MEMO_KEY = seeded_key(b"memo")
_MEMO_DATA = b"signed once, checked many times"
GENUINE = (_MEMO_KEY.public_key, _MEMO_KEY.sign(_MEMO_DATA), _MEMO_DATA)
FORGED = (GENUINE[0], bytes([GENUINE[1][0] ^ 1]) + GENUINE[1][1:], GENUINE[2])


def record_genuine() -> None:
    """Put GENUINE in the record again; a run may have emptied it."""
    assert _MEMO_KEY.sign(_MEMO_DATA) == GENUINE[1]
    assert GENUINE in crypto._signed


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["key", "signature", "data"]),
       st.integers(min_value=0), st.integers(min_value=1, max_value=255))
def test_memo_flipped_byte_rejected_after_genuine_cached(part, pos, mask):
    """With the genuine triple in the record, a triple that differs from it
    in any one byte of the key, the signature or the data is still checked,
    and refused."""
    record_genuine()
    index = ("key", "signature", "data").index(part)
    flipped = bytearray(GENUINE[index])
    flipped[pos % len(flipped)] ^= mask
    triple = list(GENUINE)
    triple[index] = bytes(flipped)
    with pytest.MonkeyPatch.context() as mp:
        checks = counted_checks(mp)
        assert crypto.verify_raw(*GENUINE)
        assert crypto.verify_raw(*GENUINE)
        assert checks == []
        assert not crypto.verify_raw(*triple)
        assert crypto.verify_raw(*GENUINE)
        assert checks == [tuple(triple)]


def test_memo_cached_forgery_does_not_shadow_genuine(monkeypatch):
    """A refused forgery is never recorded: each of its checks runs
    `_check`, and the genuine triple is still answered from the record."""
    record_genuine()
    checks = counted_checks(monkeypatch)
    assert not crypto.verify_raw(*FORGED)
    assert not crypto.verify_raw(*FORGED)
    assert crypto.verify_raw(*GENUINE)
    assert not crypto.verify_raw(*FORGED)
    assert checks == [FORGED] * 3
    assert list(crypto._signed) == [GENUINE]


@pytest.mark.parametrize("key", [None, b"", GENUINE[0][:31], GENUINE[0] + b"\0"],
                         ids=["none", "empty", "31_bytes", "33_bytes"])
def test_memo_malformed_key_stays_false(key):
    """Refused on the first call and again, with the genuine triple in the
    record."""
    record_genuine()
    assert not crypto.verify_raw(key, *GENUINE[1:])
    assert not crypto.verify_raw(key, *GENUINE[1:])


@pytest.mark.parametrize("triple", [GENUINE, FORGED], ids=["genuine", "forged"])
@pytest.mark.parametrize("index", [1, 2], ids=["signature", "data"])
def test_memo_bytearray_same_as_bytes(triple, index):
    """A bytearray argument is never answered from the record; `_check`
    gives it the same answer as a bytes copy gets."""
    record_genuine()
    as_bytearray = list(triple)
    as_bytearray[index] = bytearray(triple[index])
    assert crypto.verify_raw(*as_bytearray) == crypto.verify_raw(*triple)


def test_memo_bytearray_key_stays_false():
    """The Ed25519 primitive takes a public key only as bytes, so a
    bytearray key is malformed input, whatever the record holds."""
    record_genuine()
    assert not crypto.verify_raw(bytearray(GENUINE[0]), *GENUINE[1:])


def test_record_holds_every_triple_a_run_signs(monkeypatch):
    """The record has no bound: of 5000 distinct messages signed in one
    run, more than an LRU of 4096 entries kept, no check reaches `_check`."""
    made = [(_MEMO_KEY.public_key, _MEMO_KEY.sign(data), data) for data in
            (i.to_bytes(4, "big") for i in range(5000))]
    checks = counted_checks(monkeypatch)
    assert all(crypto.verify_raw(*triple) for triple in made)
    assert checks == [] and crypto._signed == set(made)


def test_honest_transfer_runs_no_ed25519_check(monkeypatch):
    """Every signature an honest run checks was signed in that run, so the
    record answers all of them: a 20-device variant-b transfer makes 422
    checks and runs `_check` 0 times."""
    checks = counted_checks(monkeypatch)
    result = run_scenario(ScenarioConfig(name="memo", variant="b",
                                         device_count=20, seed=1))
    assert result.ok
    assert checks == []


def test_a_run_does_not_depend_on_earlier_runs(monkeypatch):
    """A run holds only its own signatures: as each run's event loop ends
    the record holds only triples that run signed, and two identical runs,
    with another run between them, make as many `_check` calls as each
    other and fill the record as full. A record kept across runs gave a
    run the triples of the runs before it too."""
    checks, made = counted_checks(monkeypatch), []
    held = records_as_each_loop_ends(monkeypatch)
    sign = crypto.KeyPair.sign

    def noted_sign(key, data):
        signature = sign(key, data)
        made.append((key.public_key, signature, data))
        return signature

    monkeypatch.setattr(crypto.KeyPair, "sign", noted_sign)
    forged = ScenarioConfig(name="twice", variant="b", device_count=3, seed=3,
                            adversary="forge_transfer")
    other = ScenarioConfig(name="between", variant="c", device_count=2, seed=4)
    counts = []
    for config in (forged, other, forged):
        del checks[:], made[:], held[:]
        assert run_scenario(config).ok
        (_encoded, _owed, signed, _derived), = held
        assert signed <= set(made)
        counts.append((len(checks), len(signed)))
    assert counts[0] == counts[2]
    assert counts[0][0] > 0 and counts[0][1] > 0


@pytest.mark.parametrize("triple", [GENUINE, FORGED], ids=["genuine", "forged"])
def test_memoryview_key_refused_even_with_its_bytes_memoized(triple):
    """Ed25519 takes a public key only as bytes, so a memoryview key is
    refused; it compares equal to the bytes key the record holds, and must
    not be answered from the record."""
    record_genuine()
    crypto.verify_raw(*triple)
    assert crypto.verify_raw(memoryview(triple[0]), *triple[1:]) is False
