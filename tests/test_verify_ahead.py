"""The record of signatures made: a check of a triple this run has signed is
answered ahead, at signing time, without Ed25519; anything else gets a
real check, so `verify_raw` answers as `_check` does."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustshift import crypto


def seeded_key(tag: bytes) -> crypto.KeyPair:
    return crypto.generate_key_pair(crypto.digest(tag))


SIGNER = seeded_key(b"record signer")
OTHER = seeded_key(b"another signer")


def counted_checks(mp) -> list:
    """Record each triple that reaches `_check` from now on."""
    check, checks = crypto._check, []
    mp.setattr(crypto, "_check",
               lambda *triple: checks.append(triple) or check(*triple))
    return checks


def refused_unchecked(*triple):
    pytest.fail("a recorded triple reached _check")


@settings(max_examples=150, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32),
       payload=st.binary(min_size=1, max_size=300),
       part=st.sampled_from(["key", "signature", "data", "other signer"]),
       pos=st.integers(min_value=0), mask=st.integers(min_value=1, max_value=255))
def test_answer_ahead_is_check(seed, payload, part, pos, mask):
    """A triple just signed verifies without `_check`, which would accept
    it too. A one-byte flip of its key, signature or data, another
    signer's key, or a signature made outside `KeyPair.sign` reaches
    `_check`, which refuses the twins and accepts the last."""
    crypto.forget_run()
    key = crypto.generate_key_pair(seed)
    genuine = (key.public_key, key.sign(payload), payload)
    assert crypto._check(*genuine)
    if part == "other signer":
        assume(OTHER.public_key != key.public_key)
        twin = (OTHER.public_key, *genuine[1:])
    else:
        index = ("key", "signature", "data").index(part)
        flipped = bytearray(genuine[index])
        flipped[pos % len(flipped)] ^= mask
        twin = (*genuine[:index], bytes(flipped), *genuine[index + 1:])
    data = payload + b" signed elsewhere"
    elsewhere = (key.public_key, key._private.sign(data), data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_check", refused_unchecked)
        assert crypto.verify_raw(*genuine) is True
    with pytest.MonkeyPatch.context() as mp:
        checks = counted_checks(mp)
        assert crypto.verify_raw(*twin) is False
        assert crypto.verify_raw(*elsewhere) is True
        assert checks == [twin, elsewhere]


def test_bytearray_check_skips_ready_answers(monkeypatch):
    """A bytearray may change after it is signed, so it is not recorded:
    its check, and that of a bytes copy, run `_check`."""
    data = bytearray(b"mutable message")
    triple = (SIGNER.public_key, SIGNER.sign(data), data)
    assert not crypto._signed
    checks = counted_checks(monkeypatch)
    assert crypto.verify_raw(*triple) is True
    as_bytes = (*triple[:2], bytes(data))
    assert crypto.verify_raw(*as_bytes) is True
    assert checks == [triple, as_bytes]


def test_unclaimed_answers_stay_bounded_and_sends_never_block(monkeypatch):
    """The record holds what one run signed: every triple signed stays,
    checked or not, and its checks reach no `_check`. `forget_run`, which
    starts each run, empties it, and a triple of the run before is then
    still accepted, by `_check`."""
    made = [(SIGNER.public_key, SIGNER.sign(data), data)
            for data in (b"unclaimed %d" % i for i in range(20))]
    checks = counted_checks(monkeypatch)
    assert all(crypto.verify_raw(*triple) for triple in made[::2])
    assert crypto._signed == set(made) and checks == []
    crypto.forget_run()
    assert not crypto._signed
    assert crypto.verify_raw(*made[-2]) and checks == [made[-2]]
