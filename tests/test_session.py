"""Session layer tests on the path the simulator runs.

Handshakes are `peers.open_session` against a `ResponderPeer` in a small
simulator; records are framed by `session.send` and accepted through
`ResponderPeer.handle` (responder side) or `session.receive` (initiator
side), so every check here exercises the code scenarios use.
"""

import itertools
import random

import pytest

from trustshift import crypto, peers, pki, session, simnet, wire
from trustshift.errors import WrongSession
from trustshift.messages import CertProfile

NOW = 1_000
LIFETIME = (0, 10**9)


def build(variant, seed=3):
    return pki.build_hierarchy(variant, random.Random(seed))


def device_credential(h, name=b"dev-1"):
    key = crypto.generate_key_pair(crypto.digest(name))
    csr = pki.make_csr(name, key, CertProfile.FACTORY)
    cert = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME)
    return pki.Credential(cert, (), key)


def handshakes(h, cred, dev_store, responder_store, count=1, seed=7,
               revocation_view=frozenset()):
    """Run `count` device handshakes against an echoing `ca2` responder.

    Returns ([(initiator session or None, status), ...], responder)."""
    sim = simnet.Simulator(seed)
    responder = peers.ResponderPeer(
        sim, "ca2", h.ca2.credential(), responder_store,
        app_handler=lambda now, src, entry, msg: [msg],
        revocation_view=revocation_view)
    sim.register_responder("ca2", responder.bind())
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
    ca_side = responder.sessions[dev_side.session_id].endpoint
    assert dev_side.session_key_fingerprint == ca_side.session_key_fingerprint
    assert dev_side.peer_identity == h.ca2.certificate
    assert ca_side.peer_identity == cred.certificate
    [traced] = responder.sim.trace.select("session")
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


def deliver(responder, frame):
    disposition, sends = responder.handle(responder.sim.now, "dev", frame)
    return disposition, [data for _dst, data, _label in sends]


def record_outcomes(responder):
    return [e["outcome"] for e in responder.sim.trace.select("record")]


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
    net = peers.NetHandle(responder2.sim, "dev")
    assert peers._receive_record(net, a2, reply) is None
    assert responder2.sim.trace.select("record", actor="dev")[-1]["outcome"] \
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
