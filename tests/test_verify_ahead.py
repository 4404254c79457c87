"""The verify-ahead worker: its answers are `_check`'s, it never makes the
process wait, it is bounded, and it never outlives or confuses its owner.

Each test but the subprocess one gets a fresh worker (`ahead`, or
`small_ahead` with 64 slots), started even on a one-CPU host, and stopped
and reaped when the test ends. A test holds the worker with SIGSTOP where
it needs an answer not to have arrived.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden_digests import INLINE
from trustshift import crypto
from trustshift.messages import EnvelopeProfile
from trustshift.scenario import run_scenario

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def seeded_key(tag: bytes) -> crypto.KeyPair:
    return crypto.generate_key_pair(crypto.digest(tag))


SIGNER = seeded_key(b"ahead signer")
OTHER = seeded_key(b"ahead other")
SP1 = seeded_key(b"sp1")
ADVERSARY = seeded_key(b"adversary")


def fresh_worker(monkeypatch):
    fresh = crypto._Ahead()
    monkeypatch.setattr(crypto, "_ahead", fresh)
    monkeypatch.setattr(crypto, "_may_fork", lambda: True)
    crypto._verify.cache_clear()
    SIGNER.sign(b"start the worker")
    assert fresh.pid > 0
    yield fresh
    worker = fresh.pid
    if worker > 0:
        os.kill(worker, signal.SIGCONT)
    fresh.stop()
    crypto._verify.cache_clear()
    if worker > 0:
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)


@pytest.fixture
def ahead(monkeypatch):
    yield from fresh_worker(monkeypatch)


@pytest.fixture
def small_ahead(monkeypatch):
    monkeypatch.setattr(crypto, "VERIFY_AHEAD_SIZE", 64)
    yield from fresh_worker(monkeypatch)


@contextmanager
def held(ahead):
    """The worker stopped: nothing sent in the block is answered in it."""
    os.kill(ahead.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        os.kill(ahead.pid, signal.SIGCONT)


def answer_at(ahead, slot: int) -> int:
    """The answer byte of `slot` in the page shared with the worker."""
    return ahead.page[len(ahead.slots) + slot]


def await_slot(ahead, slot: int) -> int:
    """Poll the answer byte of `slot` until the worker has written it."""
    deadline = time.monotonic() + 10
    while answer_at(ahead, slot) == crypto._PENDING:
        assert time.monotonic() < deadline, "no answer in 10 s"
        time.sleep(0.001)
    return answer_at(ahead, slot)


def await_answer(ahead, triple) -> int:
    """The answer byte of the slot `triple` was last sent in, once written."""
    assert triple in ahead.asked, "never sent, or already claimed"
    return await_slot(ahead, ahead.asked[triple])


def twin_of(triple, part: str, pos: int, mask: int):
    """`triple` with one byte of one part flipped, or another signer's key."""
    if part == "wrong key":
        return (OTHER.public_key, *triple[1:])
    index = ("key", "signature", "data").index(part)
    flipped = bytearray(triple[index])
    flipped[pos % len(flipped)] ^= mask
    return (*triple[:index], bytes(flipped), *triple[index + 1:])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.binary(min_size=1, max_size=300),
       envelope=st.booleans(),
       part=st.sampled_from(["key", "signature", "data", "wrong key"]),
       pos=st.integers(min_value=0), mask=st.integers(min_value=1, max_value=255))
def test_answer_ahead_is_check(ahead, payload, envelope, part, pos, mask):
    """A genuine triple is answered ahead with `_check`'s True; each twin,
    asked while the genuine answer is in flight and again once it is ready,
    gets `_check`'s False and leaves the genuine answer where it was. An
    adversary-signed envelope checked under SP1's key is such a twin."""
    crypto._verify.cache_clear()
    with held(ahead):
        if envelope:
            env = crypto.sign_envelope(ADVERSARY, EnvelopeProfile.CWT, payload)
            genuine = (ADVERSARY.public_key, env.signature, env.signing_input())
        else:
            genuine = (SIGNER.public_key, SIGNER.sign(payload), payload)
        twin = twin_of(genuine, part, pos, mask)
        if envelope and part == "wrong key":
            twin = (SP1.public_key, *genuine[1:])
        assert crypto._check(*genuine) and not crypto._check(*twin)
        assert answer_at(ahead, ahead.asked[genuine]) == crypto._PENDING
        assert crypto.verify_raw(*twin) is False
        assert answer_at(ahead, ahead.asked[genuine]) == crypto._PENDING
    await_answer(ahead, genuine)
    crypto._verify.cache_clear()
    assert crypto.verify_raw(*twin) is False
    if envelope and part == "wrong key":
        assert not crypto.verify_envelope(SP1.public_key, env,
                                          EnvelopeProfile.CWT)
    assert answer_at(ahead, ahead.asked[genuine]) == crypto._TRUE
    assert crypto.verify_raw(*genuine) is True
    assert genuine not in ahead.asked


@pytest.mark.parametrize("case", ["no fork", "one CPU", "another thread"])
def test_no_worker_without_fork_second_cpu_or_alone(monkeypatch, case):
    """Nothing is forked where the process cannot fork, may use one CPU
    only, or runs another thread; checks then all run in-process."""
    fresh = crypto._Ahead()
    monkeypatch.setattr(crypto, "_ahead", fresh)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if case == "another thread":
        other.start()
    try:
        triple = (SIGNER.public_key, SIGNER.sign(b"alone"), b"alone")
    finally:
        release.set()
        if other.is_alive():
            other.join(10)
    assert fresh.pid == -1 and not fresh.asked
    crypto._verify.cache_clear()
    assert crypto.verify_raw(*triple)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="no /proc")
def test_worker_holds_only_its_pipe_end(ahead):
    """The worker closes every descriptor it inherited but its own end of
    the request pipe, so it holds open nothing of the parent's."""
    read_end, write_end = os.pipe()  # open in the parent at the fork
    high_end = os.dup2(write_end, 512)  # above the worker's pipe end
    try:
        fresh = crypto._Ahead()
        triple = (SIGNER.public_key, SIGNER.sign(b"fds"), b"fds")
        fresh.offer(*triple)
        try:
            await_answer(fresh, triple)  # so the worker is past its set-up
            fds = os.listdir(f"/proc/{fresh.pid}/fd")
            assert len(fds) == 1, fds
        finally:
            fresh.stop()
    finally:
        for fd in (read_end, write_end, high_end):
            os.close(fd)


def test_refused_triple_is_answered_false_ahead(ahead):
    data = b"refused ahead"
    signature = SIGNER.sign(data)
    bad = (SIGNER.public_key, signature[:-1] + bytes([signature[-1] ^ 1]), data)
    ahead.offer(*bad)
    assert await_answer(ahead, bad) == crypto._FALSE
    assert crypto.verify_raw(*bad) is False and bad not in ahead.asked


def test_reused_slot_never_answers_the_triple_it_held(small_ahead):
    """A refused triple answered ahead and left unclaimed until a genuine
    triple reuses its slot gets no answer from that slot: `claim` gives
    None, and the in-process check False, not the newcomer's True."""
    ahead = small_ahead
    data = b"refused, then its slot reused"
    signature = SIGNER.sign(data)
    refused = (SIGNER.public_key, signature[:-1] + bytes([signature[-1] ^ 1]),
               data)
    ahead.offer(*refused)
    slot = ahead.asked[refused]
    assert await_answer(ahead, refused) == crypto._FALSE
    for i in range(len(ahead.slots)):  # the last of these reuses `slot`
        data = b"genuine %d" % i
        genuine = (SIGNER.public_key, SIGNER.sign(data), data)
        assert await_answer(ahead, genuine) == crypto._TRUE
    assert ahead.slots[slot] == genuine and ahead.asked[genuine] == slot
    assert ahead.claim(*refused) is None
    crypto._verify.cache_clear()
    assert crypto.verify_raw(*refused) is False


def test_answer_after_an_in_process_check_is_dropped(ahead):
    """A triple checked before its answer arrives is in the memo already,
    so it leaves `asked` and its flag is set: the worker skips its frame
    and no answer for it is held."""
    data = b"checked before its answer"
    with held(ahead):
        early = (SIGNER.public_key, SIGNER.sign(data), data)
        slot = ahead.asked[early]
        assert crypto.verify_raw(*early) is True
        assert early not in ahead.asked and ahead.page[slot] == 1
    data = b"sent after it"
    later = (SIGNER.public_key, SIGNER.sign(data), data)
    await_answer(ahead, later)
    assert answer_at(ahead, slot) == crypto._SKIPPED
    assert early not in ahead.asked


def test_flagged_frame_is_skipped_not_checked(ahead):
    """The worker answers a frame whose flag is set with the skipped byte,
    which only that branch writes, and checks the frames around it."""
    with held(ahead):
        sent = []
        for data in (b"before", b"flagged", b"after"):
            sent.append((SIGNER.public_key, SIGNER.sign(data), data))
        slots = [ahead.asked[t] for t in sent]
        assert crypto.verify_raw(*sent[1]) is True  # checked here
        assert [t in ahead.asked for t in sent] == [True, False, True]
    answers = [await_slot(ahead, slot) for slot in slots]
    assert answers == [crypto._TRUE, crypto._SKIPPED, crypto._TRUE]


def test_skipped_byte_never_answers_a_triple_offered_again(ahead):
    """A triple checked in-process and then offered again has one frame
    skipped and one answered; the skipped byte is never read as False, so
    every answer the triple gets ahead is `_check`'s True."""
    data = b"checked, then offered again"
    with held(ahead):
        triple = (SIGNER.public_key, SIGNER.sign(data), data)
        first = ahead.asked[triple]
        assert crypto.verify_raw(*triple) is True
        ahead.offer(*triple)
        assert ahead.slots.count(triple) == 2
    assert await_answer(ahead, triple) == crypto._TRUE
    assert answer_at(ahead, first) == crypto._SKIPPED
    assert ahead.claim(*triple) is True
    with held(ahead):  # a skipped frame of a triple still asked for
        data = b"flagged while still asked for"
        triple = (SIGNER.public_key, SIGNER.sign(data), data)
        ahead.page[ahead.asked[triple]] = 1
    assert await_answer(ahead, triple) == crypto._SKIPPED
    assert ahead.claim(*triple) is None


def test_only_exact_bytes_of_the_right_lengths_are_sent(ahead):
    key, data = SIGNER.public_key, b"m" * crypto._MAX_MESSAGE
    signature = SIGNER._private.sign(data)

    class Bytes(bytes):
        pass

    refused = [(bytearray(key), signature, data), (key, Bytes(signature), data),
               (key, signature, memoryview(data)), (key[:31], signature, data),
               (key + b"\0", signature, data), (key, signature[:63], data),
               (key, signature, data + b"m")]
    sent = ahead.sent
    for triple in refused:
        ahead.offer(*triple)
    assert ahead.sent == sent
    ahead.offer(key, signature, data)  # a frame of exactly PIPE_BUF bytes
    assert await_answer(ahead, (key, signature, data)) == crypto._TRUE


def test_bytearray_check_skips_ready_answers(ahead):
    """An unhashable argument is checked in-process: it neither trips over
    nor takes the worker's answer for the same bytes."""
    data = b"bytearray twin"
    genuine = (SIGNER.public_key, SIGNER.sign(data), data)
    assert await_answer(ahead, genuine) == crypto._TRUE
    for index in (1, 2):
        as_bytearray = list(genuine)
        as_bytearray[index] = bytearray(genuine[index])
        assert crypto.verify_raw(*as_bytearray) is True
        assert crypto._verify.__wrapped__(*as_bytearray) is True
    assert answer_at(ahead, ahead.asked[genuine]) == crypto._TRUE


def test_killed_worker_leaves_digest_unchanged(ahead, monkeypatch):
    """A worker SIGKILLed mid-run turns the path off: the run's trace is
    the golden one, the worker is reaped, later checks run in-process."""
    config, golden = INLINE["replay_all_full_options"]
    worker, offer, offers = ahead.pid, ahead.offer, []

    def offer_then_kill(*triple):
        offers.append(triple)
        if len(offers) == 10:
            os.kill(worker, signal.SIGKILL)
        offer(*triple)

    monkeypatch.setattr(ahead, "offer", offer_then_kill)
    assert run_scenario(config).trace.digest() == golden
    assert len(offers) > 20 and ahead.pid == -1
    assert not ahead.asked and not ahead.slots
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
    checks = []
    monkeypatch.setattr(crypto, "_check",
                        lambda *triple: checks.append(triple) or True)
    crypto._verify.cache_clear()
    assert crypto.verify_raw(*offers[-1]) and checks == [offers[-1]]


def test_forked_child_never_touches_the_worker(ahead):
    """A child forked from the worker's owner neither reads the owner's
    answers, nor sets a flag, nor writes to the worker: it turns the path
    off for itself and closes its copy of the pipe. The owner's answers
    arrive, in order, none of them skipped."""
    data = b"owner before the fork"
    triple = (SIGNER.public_key, SIGNER.sign(data), data)
    assert await_answer(ahead, triple) == crypto._TRUE  # arrived, unclaimed
    with held(ahead):
        data = b"in flight at the fork"
        pending = (SIGNER.public_key, SIGNER.sign(data), data)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                crypto._verify.cache_clear()
                assert crypto._ahead.claim(*triple) is None
                crypto.verify_raw(SIGNER.public_key, triple[1], b"a miss")
                crypto.verify_raw(*pending)  # a miss the owner has in flight
                for i in range(20):
                    SIGNER.sign(b"child %d" % i)
                status = 0 if crypto._ahead.pid == -1 else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        size = len(ahead.slots)
        assert ahead.page[:size] == bytes(size)
    assert await_answer(ahead, triple) == crypto._TRUE
    assert await_answer(ahead, pending) == crypto._TRUE
    data = b"owner after the fork"
    triple = (SIGNER.public_key, SIGNER.sign(data), data)
    assert await_answer(ahead, triple) == crypto._TRUE
    time.sleep(0.2)
    assert ahead.page[size + ahead.sent:] == \
        bytes((crypto._SKIPPED,)) * (size - ahead.sent), \
        "the worker answered a frame its owner never sent"


def test_unclaimed_answers_stay_bounded_and_sends_never_block(small_ahead):
    """Ten times the bound of signatures nobody checks, some of them
    refused, first with the worker held (the pipe fills) and then running:
    `asked` never holds more triples than there are slots, no send waits,
    and every answer is `_check`'s."""
    ahead = small_ahead
    bound = len(ahead.slots)

    class Blocked(Exception):
        pass

    def blocked(signum, frame):
        raise Blocked("a send to the worker blocked")

    def sign_some(data):
        signature = SIGNER.sign(data)
        if data[-1] % 3 == 0:
            ahead.offer(SIGNER.public_key, signature[::-1], data)
        assert len(ahead.asked) <= bound

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(30)
    try:
        with held(ahead):
            for i in range(5 * bound):
                sign_some(i.to_bytes(4, "big") * 900)
            assert ahead.sent < bound  # the pipe filled first
        for triple in list(ahead.asked):
            await_answer(ahead, triple)
        sent = ahead.sent
        sign_some(b"once the pipe has room")
        assert ahead.sent == sent + 1  # a send the pipe refused freed its slot
        for i in range(5 * bound):
            sign_some(b"unclaimed %d" % i)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert ahead.asked
    for triple in list(ahead.asked):
        expected = crypto._TRUE if crypto._check(*triple) else crypto._FALSE
        assert await_answer(ahead, triple) == expected


SCRIPT = """
import atexit, os, signal, time
from trustshift import crypto
from trustshift.scenario import ScenarioConfig, run_scenario


@atexit.register
def reaped():  # registered first, so it runs after the worker's handler
    try:
        os.waitpid(crypto._ahead.pid, os.WNOHANG)
    except ChildProcessError:
        return
    os._exit(3)


crypto._may_fork = lambda: True
assert run_scenario(ScenarioConfig(name="one", variant="b", device_count=1,
                                   seed=1)).ok
ahead = crypto._ahead
assert ahead.pid > 0
os.kill(ahead.pid, signal.SIGINT)
key = crypto.generate_key_pair(bytes(32))
triple = (key.public_key, key.sign(b"after SIGINT"), b"after SIGINT")
slot = len(ahead.slots) + ahead.asked[triple]
deadline = time.monotonic() + 10
while ahead.page[slot] == crypto._PENDING and time.monotonic() < deadline:
    time.sleep(0.001)
assert ahead.claim(*triple) is True, "the worker died of SIGINT"
print(ahead.pid, flush=True)
"""


def test_worker_reaped_when_its_process_exits():
    """A process that ran a scenario leaves no child behind: the worker
    ignores SIGINT, reads end of file when `atexit` closes the pipe, and
    is reaped before the process ends."""
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    worker = int(done.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
