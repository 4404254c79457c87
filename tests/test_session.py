"""Session layer tests on the path the simulator runs.

Handshakes are `peers.open_session` against a `ResponderPeer` in a small
simulator; records are framed by `session.send` and accepted through
`ResponderPeer.handle` (responder side) or `session.receive` (initiator
side), so every check here exercises the code scenarios use.
"""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustshift import crypto, peers, pki, session, simnet, wire
from trustshift.errors import WrongSession
from trustshift.messages import CertProfile

NOW = 1_000
LIFETIME = (0, 10**9)


def build(variant, seed=3):
    h = pki.build_hierarchy(variant, random.Random(seed))
    h.trust_roots()
    return h


def device_credential(h, name=b"dev-1"):
    key = crypto.generate_key_pair(crypto.digest(name))
    cert = pki.issue_certificate(h.permanent, name, key.public_key,
                                 CertProfile.FACTORY, LIFETIME)
    return pki.Credential(cert, (), key)


def echo(now, sess, msg):
    return msg


def echo_responder(h, store, seed=7, revocation_view=frozenset(),
                   profiles=peers.ANY_PEER):
    """A `ca2` responder under CA2's credential, in its own simulator, that
    echoes an `UpdateCheck` from a peer of one of `profiles`."""
    return peers.ResponderPeer(
        peers.NetHandle(simnet.Simulator(seed), "ca2", revocation_view),
        h.ca2.credential(), store, {wire.UpdateCheck: (profiles, echo, None)})


def handshakes(h, cred, dev_store, responder_store, count=1, seed=7,
               revocation_view=frozenset()):
    """Run `count` device handshakes against an echoing `ca2` responder.

    Returns ([(initiator session or None, status), ...], responder)."""
    responder = echo_responder(h, responder_store, seed, revocation_view)
    sim = responder.net.sim
    results = []

    def device():
        net = peers.NetHandle(sim, "dev")
        for _ in range(count):
            results.append((yield from peers.open_session(net, "ca2", cred,
                                                          dev_store)))

    sim.spawn("dev", device())
    sim.start_ready_processes()
    sim.run()
    return results, responder


def handshake(h, cred, dev_store, responder_store, **kwargs):
    [(sess, status)], responder = handshakes(h, cred, dev_store,
                                             responder_store, **kwargs)
    return sess, status, responder


def test_establish_variant_c_with_permanent_root_only():
    h = build("c")
    cred = device_credential(h)
    dev_store = h.store_for({pki.PERMANENT_CA_NAME})
    dev_side, status, responder = handshake(h, cred, dev_store,
                                            h.ca2.truststore)
    assert status == "ok"
    ca_side = responder.sessions[dev_side.session_id]
    assert dev_side.session_key_fingerprint == ca_side.session_key_fingerprint
    assert (dev_side.peer_cert, dev_side.peer) == (h.ca2.certificate, "ca2")
    assert (ca_side.peer_cert, ca_side.peer) == (cred.certificate, "dev")
    [traced] = responder.net.sim.trace.select("session")
    assert traced["sid"] == dev_side.session_id.hex()
    assert traced["fp"] == dev_side.session_key_fingerprint.hex()


def test_establish_fails_without_required_root():
    h = build("a")
    cred = device_credential(h)
    dev_store = h.store_for({pki.CA1_NAME})  # no CA2 root pushed
    sess, status, _ = handshake(h, cred, dev_store, h.ca2.truststore)
    assert sess is None
    assert status == "peer_untrusted:untrusted"


def test_establish_fails_when_responder_distrusts_initiator():
    h = build("a")
    cred = device_credential(h)
    dev_store = h.store_for({pki.CA1_NAME, pki.CA2_NAME})
    sess, status, responder = handshake(h, cred, dev_store, pki.TrustStore())
    assert sess is None
    assert status == "peer_rejected:untrusted"
    assert not responder.sessions


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_no_session_without_both_verifications(variant):
    """Exhaustively prune each side's truststore: a session only forms when
    both sides can verify the peer."""
    h = build(variant)
    cred = device_credential(h)
    ca_cred = h.ca2.credential()
    dev_names = sorted(pki.minimal_truststore(variant, pki.TrustPhase.PRE_TRANSFER))
    for dev_subset in itertools.chain.from_iterable(
            itertools.combinations(dev_names, k) for k in range(len(dev_names) + 1)):
        for ca_subset in (set(), {pki.PERMANENT_CA_NAME}):
            dev_store = h.store_for(set(dev_subset))
            ca_store = h.store_for(ca_subset)
            dev_can_verify = bool(pki.verify_chain(
                ca_cred.certificate, list(ca_cred.intermediates), dev_store,
                NOW, set()))
            ca_can_verify = bool(pki.verify_chain(
                cred.certificate, [], ca_store, NOW, set()))
            sess, status, _ = handshake(h, cred, dev_store, ca_store)
            assert (sess is not None) == (dev_can_verify and ca_can_verify), \
                (dev_subset, ca_subset, status)


def test_fresh_establishments_have_distinct_fingerprints():
    h = build("c")
    cred = device_credential(h)
    dev_store = h.store_for({pki.PERMANENT_CA_NAME})
    results, _ = handshakes(h, cred, dev_store, h.ca2.truststore, count=10,
                            seed=11)
    assert all(status == "ok" for _, status in results)
    assert len({s.session_key_fingerprint for s, _ in results}) == 10


def test_revoked_initiator_rejected_by_responder_view():
    h = build("c")
    cred = device_credential(h)
    dev_store = h.store_for({pki.PERMANENT_CA_NAME})
    pki.revoke(h.permanent, cred.certificate.serial)
    sess, status, responder = handshake(h, cred, dev_store, h.ca2.truststore,
                                        revocation_view=h.revocation_view())
    assert sess is None
    assert status == "peer_rejected:revoked"
    assert not responder.sessions


# ---------------------------------------------------------------------------
# the handshake steps, both ends in memory
# ---------------------------------------------------------------------------

@functools.cache
def step_ends():
    """Variant c: a device's factory credential and truststore, and CA2's
    credential and truststore."""
    h = build("c")
    return (device_credential(h), h.store_for({pki.PERMANENT_CA_NAME}),
            h.ca2.credential(), h.ca2.truststore)


def respond_to(hello, seed=2):
    """CA2's answer to `hello` from actor `dev`: (its end or None, reply)."""
    _cred, _store, ca_cred, ca_store = step_ends()
    return session.respond(ca_cred, ca_store, NOW, frozenset(), peers.ANY_PEER,
                           random.Random(seed), "dev", hello)


def finish_with(ephemeral, reply):
    """The device's end of the handshake with `ca2` on `reply`."""
    return session.finish(ephemeral, step_ends()[1], NOW, frozenset(), "ca2",
                          reply)


SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=50, deadline=None)
@given(SEEDS, SEEDS)
def test_property_honest_steps_agree_on_the_session(initiator_seed,
                                                    responder_seed):
    """An honest start, respond and finish give two ends of one session:
    equal id and fingerprint, each holding the other side's certificate
    and actor id."""
    cred, _store, ca_cred, _ca_store = step_ends()
    ephemeral, hello = session.start(cred, random.Random(initiator_seed))
    responder, accept = respond_to(hello, responder_seed)
    initiator, status = finish_with(ephemeral, accept)
    assert status == "ok"
    assert (initiator.session_id, initiator.session_key_fingerprint) \
        == (responder.session_id, responder.session_key_fingerprint)
    assert (initiator.peer_cert, initiator.peer) == (ca_cred.certificate, "ca2")
    assert (responder.peer_cert, responder.peer) == (cred.certificate, "dev")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_flipped_hello_certificate_is_rejected(data):
    """Any single-bit flip of the Hello's certificate bytes ends in a
    Reject, never in a responder session."""
    _ephemeral, hello = session.start(step_ends()[0], random.Random(1))
    bit = data.draw(st.integers(0, 8 * len(hello.cert_bytes) - 1))
    flipped = bytearray(hello.cert_bytes)
    flipped[bit // 8] ^= 1 << bit % 8
    sess, reply = respond_to(wire.Hello(hello.ephemeral, bytes(flipped),
                                        hello.intermediates))
    assert sess is None
    assert reply == wire.Reject(hello.ephemeral, reply.reason)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.booleans())
def test_property_reply_to_another_hello_is_discarded(echo, accept):
    """An Accept or Reject whose echo is not this Hello's ephemeral is
    discarded: no session, and a status the initiator waits on after."""
    ephemeral, hello = session.start(step_ends()[0], random.Random(1))
    assume(echo != ephemeral)
    genuine = respond_to(hello)[1]
    reply = wire.Accept(echo, genuine.ephemeral, genuine.cert_bytes,
                        genuine.intermediates) if accept \
        else wire.Reject(echo, "untrusted")
    sess, status = finish_with(ephemeral, reply)
    assert sess is None
    assert status == f"stale_{reply.LABEL}_discarded"
    assert status in session.DISCARDED


@settings(max_examples=50, deadline=None)
@given(st.booleans(), st.binary(max_size=32), st.text(max_size=20))
def test_property_reject_never_yields_a_session(echoed, echo, reason):
    """A Reject, echoing this Hello or not, with any reason, never gives
    the initiator a session."""
    ephemeral, _hello = session.start(step_ends()[0], random.Random(1))
    sess, status = finish_with(ephemeral,
                               wire.Reject(ephemeral if echoed else echo, reason))
    assert sess is None
    if echoed:
        assert status == f"peer_rejected:{reason}"


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def make_pair(seed=7):
    """An initiator session and the responder holding its other end."""
    h = build("c")
    cred = device_credential(h)
    dev_store = h.store_for({pki.PERMANENT_CA_NAME})
    sess, status, responder = handshake(h, cred, dev_store, h.ca2.truststore,
                                        seed=seed)
    assert status == "ok"
    return sess, responder


def answer(responder, frame, src="dev"):
    """The responder's disposition of `frame` from `src`, and what it sends
    back as (destination, bytes) pairs."""
    disposition, sends = responder.handle(responder.net.now(), src, frame)
    return disposition, [(send.dst, send.payload) for send in sends]


def deliver(responder, frame):
    disposition, sends = answer(responder, frame)
    return disposition, [data for _dst, data in sends]


def trace_of(responder):
    return responder.net.sim.trace


def record_outcomes(responder):
    return [e["outcome"] for e in trace_of(responder).select("record")]


def test_send_receive_roundtrip():
    a, responder = make_pair()
    request = wire.UpdateCheck(b"payload")
    disposition, [reply] = deliver(responder, session.send(a, request))
    assert disposition == "accepted:update_check"
    frame = wire.parse_record_frame(reply)
    assert wire.decode_wire(session.receive(a, frame)) == request


def test_duplicate_record_rejected():
    a, responder = make_pair()
    frame = session.send(a, wire.UpdateCheck(b"payload"))
    assert deliver(responder, frame)[0] == "accepted:update_check"
    assert deliver(responder, frame) == ("replay_detected", [])
    assert record_outcomes(responder) == ["accept", "replay_detected"]


def test_out_of_order_record_rejected():
    a, responder = make_pair()
    r1 = session.send(a, wire.UpdateCheck(b"one"))
    r2 = session.send(a, wire.UpdateCheck(b"two"))
    assert deliver(responder, r2)[0] == "accepted:update_check"
    assert deliver(responder, r1) == ("replay_detected", [])


def test_cross_session_record_rejected():
    a1, responder1 = make_pair(seed=7)
    a2, responder2 = make_pair(seed=8)
    assert a1.session_id != a2.session_id
    # responder side: a record naming a session the responder never formed
    assert deliver(responder2, session.send(a1, wire.UpdateCheck(b"x"))) \
        == ("wrong_session", [])
    assert record_outcomes(responder2) == ["wrong_session"]
    # initiator side: a reply from the other session
    _, [reply] = deliver(responder1, session.send(a1, wire.UpdateCheck(b"y")))
    with pytest.raises(WrongSession):
        session.receive(a2, wire.parse_record_frame(reply))
    # ...and the same reply reaching a device parked on the other session
    sim = responder2.net.sim
    got = []

    def waiter():
        net = peers.NetHandle(sim, "dev-2")
        got.append((yield from peers.session_wait(net, a2, timeout=5)))

    sim.spawn("dev-2", waiter())
    sim.transmit("ca2", "dev-2", reply)
    sim.start_ready_processes()
    sim.run()
    assert got == [None]
    assert sim.trace.select("record", actor="dev-2")[-1]["outcome"] \
        == "wrong_session"


def test_resending_same_content_in_new_record_is_accepted():
    """Replay protection covers records, not application content: an endpoint
    may legitimately resend identical payload bytes in a fresh record."""
    a, responder = make_pair()
    same = wire.UpdateCheck(b"same bytes")
    assert deliver(responder, session.send(a, same))[0] == "accepted:update_check"
    assert deliver(responder, session.send(a, same))[0] == "accepted:update_check"


def test_at_most_once_under_adversarial_reordering():
    """Any duplication/reordering schedule delivers each record at most once."""
    a, responder = make_pair()
    records = [session.send(a, wire.UpdateCheck(bytes([i]))) for i in range(10)]
    rng = random.Random(5)
    schedule = records * 3
    rng.shuffle(schedule)
    accepted = []
    for frame in schedule:
        disposition, _ = deliver(responder, frame)
        if disposition.startswith("accepted:"):
            accepted.append(wire.parse_record_frame(frame).seq)
    assert accepted
    assert accepted == sorted(set(accepted))


def ca_responder(h):
    """An echoing `ca2` responder that, like a CA, serves factory and
    server certificates only."""
    return echo_responder(h, h.ca2.truststore, profiles={
        CertProfile.FACTORY, CertProfile.SERVER})


def hello_under(cred):
    return wire.encode_wire(session.start(cred, random.Random(0))[1])


def _operational_hello(h):
    """A Hello under an operational certificate CA2 issued to a device."""
    key = crypto.generate_key_pair(crypto.digest(b"op"))
    cert = pki.issue_certificate(h.ca2, b"dev-1", key.public_key,
                                 CertProfile.OPERATIONAL, LIFETIME)
    return ca_responder(h), hello_under(
        pki.Credential(cert, h.ca2.issuer_chain, key))


def _replayed_hello(h):
    responder, hello = ca_responder(h), hello_under(device_credential(h))
    assert answer(responder, hello)[0] == "hello_accepted"
    return responder, hello


def _undecodable_payload(h):
    sess, responder = make_pair()
    return responder, session.send(sess, UnknownApp())


def _unknown_session(h):
    sess, _ = make_pair(seed=7)
    return make_pair(seed=8)[1], session.send(sess, wire.UpdateCheck(b"x"))


# Each disposition of `ResponderPeer.handle` for a frame it does not serve:
# how the responder and the frame are built, and the disposition.
RESPONDER_DISPOSITIONS = {
    "malformed": (lambda h: (ca_responder(h), b"\xff")),
    "ignored": (lambda h: (ca_responder(h),
                           wire.encode_wire(wire.TrustAck(True)))),
    "hello_rejected:bad_certificate": (lambda h: (
        ca_responder(h),
        wire.encode_wire(wire.Hello(bytes(range(32)), b"junk", ())))),
    "hello_rejected:profile_not_allowed": _operational_hello,
    "handshake_replay": _replayed_hello,
    "malformed_app": _undecodable_payload,
    "wrong_session": _unknown_session,
}


@pytest.mark.parametrize("disposition", list(RESPONDER_DISPOSITIONS))
def test_responder_disposition(disposition):
    """The disposition the simulator traces for each frame a responder does
    not serve; a refused Hello gets a `Reject` back to its sender, and
    nothing else gets a reply."""
    responder, frame = RESPONDER_DISPOSITIONS[disposition](build("c"))
    sessions = dict(responder.sessions)
    got, sends = answer(responder, frame, src="dev-9")
    assert got == disposition
    assert responder.sessions == sessions
    if disposition.startswith("hello_rejected:"):
        [(dst, data)] = sends
        assert dst == "dev-9"
        assert wire.decode_wire(data) == wire.Reject(
            wire.decode_wire(frame).ephemeral, disposition.split(":")[1])
    else:
        assert sends == []
    trace = trace_of(responder)
    if disposition == "handshake_replay":
        assert trace.select("handshake", actor="ca2",
                            outcome="replayed_hello_discarded")
    if disposition in ("malformed_app", "wrong_session"):
        last = trace.select("record", actor="ca2")[-1]
        assert last["outcome"] == disposition.replace("malformed_app", "accept")
    if disposition == "malformed_app":
        # The undecodable payload still spends its record's sequence number.
        assert answer(responder, frame)[0] == "replay_detected"


# ---------------------------------------------------------------------------
# the initiator's reply loop
# ---------------------------------------------------------------------------

class UnknownApp:
    """An application message under a tag no peer knows: compiled like every
    frame, but its tag is never registered, so no receiver decodes it."""


UnknownApp = wire.compile_frame(UnknownApp, 99)


def _accept(echo, cert_bytes):
    return wire.encode_wire(wire.Accept(echo, bytes(32), cert_bytes, ()))


# Each discard branch of the reply loop: the trace entry it writes (kind,
# field), what the bad frame is sent ahead of, and how it is built. Ahead
# of the handshake reply and of a record reply the network sends bytes (made
# from the Hello for the former); ahead of a call's reply the responder's
# row handler sends an extra application message on the session.
REPLY_LOOP_DISCARDS = {
    "malformed_frame_discarded": ("note", "what", "hello",
                                  lambda hello: b"\xff"),
    "unexpected_frame_discarded": (
        "note", "what", "hello",
        lambda hello: wire.encode_wire(wire.TrustAck(True))),
    "stale_accept_discarded": ("handshake", "outcome", "hello",
                               lambda hello: _accept(bytes(32), b"")),
    "stale_reject_discarded": (
        "handshake", "outcome", "hello",
        lambda hello: wire.encode_wire(wire.Reject(bytes(32), "stale"))),
    "bad_accept_cert": ("handshake", "outcome", "hello",
                        lambda hello: _accept(hello.ephemeral, b"junk")),
    "non_record_frame_discarded": ("note", "what", "record", b"\xff"),
    "malformed_app_payload": ("note", "what", "app", UnknownApp()),
    "unexpected_app_message": ("note", "what", "app", wire.RaVerdict(True)),
}


def run_reply_loop(case=None):
    """A device handshake and one echoed call against `ca2`, with the bad
    frame of `case` (if any) delivered just ahead of the genuine reply.
    Returns the device's results and finish times, and the simulator."""
    h = build("c")
    cred = device_credential(h)
    dev_store = h.store_for({pki.PERMANENT_CA_NAME})
    sim = simnet.Simulator(7)
    _kind, _key, ahead_of, bad = REPLY_LOOP_DISCARDS.get(
        case, (None, None, None, None))

    def app(now, sess, msg):
        if ahead_of == "app":
            sim.transmit("ca2", sess.peer, session.send(sess, bad))
        return msg

    responder = peers.ResponderPeer(
        peers.NetHandle(sim, "ca2"), h.ca2.credential(), h.ca2.truststore,
        {wire.UpdateCheck: (peers.ANY_PEER, app, None)})

    def handle(now, src, data):
        disposition, sends = responder.handle(now, src, data)
        msg = wire.decode_wire(data)
        if ahead_of == "hello" and isinstance(msg, wire.Hello):
            sends = [simnet.Transmit(src, bad(msg), "bad")] + sends
        elif ahead_of == "record" and isinstance(msg, wire.RecordFrame):
            sends = [simnet.Transmit(src, bad, "bad")] + sends
        return disposition, sends

    sim.register_responder("ca2", handle)
    done = {}

    def device():
        net = peers.NetHandle(sim, "dev")
        sess, done["status"] = yield from peers.open_session(net, "ca2", cred,
                                                             dev_store)
        done["handshake_t"] = net.now()
        done["reply"] = yield from peers.session_call(
            net, sess, wire.UpdateCheck(b"ping"), (wire.UpdateCheck,))
        done["call_t"] = net.now()

    sim.spawn("dev", device())
    sim.start_ready_processes()
    sim.run()
    return done, sim


@pytest.mark.parametrize("case", list(REPLY_LOOP_DISCARDS))
def test_reply_loop_discards_bad_frame_within_deadline(case):
    """A bad frame ahead of the genuine reply is noted and discarded, and the
    genuine reply still completes the exchange at the time it would have
    without the bad frame: no resend, no longer wait."""
    kind, key, _ahead_of, _bad = REPLY_LOOP_DISCARDS[case]
    clean, clean_sim = run_reply_loop()
    got, sim = run_reply_loop(case)
    assert sim.trace.select(kind, actor="dev", **{key: case})
    assert not clean_sim.trace.select(kind, actor="dev", **{key: case})
    assert (got["status"], got["reply"]) == ("ok", wire.UpdateCheck(b"ping"))
    assert (got["handshake_t"], got["call_t"]) \
        == (clean["handshake_t"], clean["call_t"])
    assert len(sim.trace.select("deliver", dst="ca2")) == 2


def test_discarded_frame_does_not_extend_the_wait():
    """A frame the loop discards leaves the deadline where it was."""
    sess, responder = make_pair()
    sim = responder.net.sim
    start = sim.now
    done = []

    def waiter():
        net = peers.NetHandle(sim, "dev-2")
        done.append((yield from peers.session_wait(net, sess, timeout=5)))
        done.append(net.now())

    sim.spawn("dev-2", waiter())
    sim.transmit("ca2", "dev-2", b"\xff", delay=3)
    sim.start_ready_processes()
    sim.run()
    assert done == [None, start + 5]
    assert sim.trace.select("note", actor="dev-2",
                            what="non_record_frame_discarded")
