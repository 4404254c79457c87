"""Authorization at actor boundaries: profile separation, rejected peers,
and device ids that must match the session's authenticated peer."""

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustshift import crypto, operators, peers, pki, session, simnet, wire
from trustshift.messages import CertProfile, Uri, VersionInfo, encode
from trustshift.scenario import ScenarioConfig, run_scenario

LIFETIME = (0, 10**9)


def mini_world(variant="b", seed=77):
    sim = simnet.Simulator(seed=seed)
    h = pki.build_hierarchy(variant, random.Random(seed))
    h.trust_roots()
    return sim, h


def issued_credential(h, ca, name, profile):
    key = crypto.generate_key_pair(crypto.digest(name))
    cert = pki.issue_certificate(ca, name, key.public_key, profile, LIFETIME)
    return pki.Credential(cert, ca.issuer_chain, key)


def hello_for(cred, rng):
    return wire.encode_wire(session.start(cred, rng)[1])


def open_session_against(sim, responder, cred, seed=5):
    """Drive the responder's handshake directly; returns its session."""
    disposition, _sends = responder.handle(0, "tester",
                                           hello_for(cred, random.Random(seed)))
    if disposition != "hello_accepted":
        return None, disposition
    newest_sid = list(responder.sessions)[-1]
    return responder.sessions[newest_sid], disposition


def initiator_session(responder, cred, seed=5):
    """Handshake with `responder` as `cred`, checking its chain under its own
    truststore; returns the initiator's end."""
    ephemeral, hello = session.start(cred, random.Random(seed))
    disposition, [send] = responder.handle(0, "tester", wire.encode_wire(hello))
    assert disposition == "hello_accepted", disposition
    sess, status = session.finish(ephemeral, responder.truststore, 0, set(),
                                  responder.net.actor_id,
                                  wire.decode_wire(send.payload))
    assert status == "ok", status
    return sess


def call(responder, sess, msg):
    """Deliver `msg` as the next record of `sess`; returns the replies."""
    _disposition, sends = responder.handle(0, "tester", session.send(sess, msg))
    return [wire.decode_wire(session.receive(
        sess, wire.parse_record_frame(send.payload))) for send in sends]


def operator_state():
    return operators.OperatorState(
        name="sp1", signing_key=crypto.generate_key_pair(crypto.digest(b"k")),
        update_server_uri=Uri("coaps://u.sp1"),
        current_version=VersionInfo(1, Uri("u")))


def test_update_server_rejects_unauthenticated_peer():
    """A certificate outside the server's trust roots never reaches the
    application layer: the handshake is refused with the chain reason."""
    sim, h = mini_world()
    state = operators.OperatorState(
        name="sp1", signing_key=crypto.generate_key_pair(crypto.digest(b"k")),
        update_server_uri=Uri("coaps://u.sp1"), current_version=VersionInfo(1, Uri("u")))
    actor = operators.OperatorActor(
        peers.NetHandle(sim, "sp1"), state,
        issued_credential(h, h.ca1, b"sp1", CertProfile.SERVER),
        h.store_for({pki.PERMANENT_CA_NAME}))
    rogue_key = crypto.generate_key_pair(crypto.digest(b"rogue"))
    rogue_cert = pki._signed_cert(b"rogue", rogue_key, 999, b"rogue",
                                  rogue_key.public_key, LIFETIME,
                                  CertProfile.OPERATIONAL)
    rogue = pki.Credential(rogue_cert, (), rogue_key)
    disposition, sends = actor.peer.handle(0, "rogue",
                                           hello_for(rogue, random.Random(1)))
    assert disposition.startswith("hello_rejected:untrusted")
    reject = wire.decode_wire(sends[0].payload)
    assert isinstance(reject, wire.Reject)


def test_factory_profile_rejected_where_server_profile_required():
    """Capability restriction: factory-authenticated peers cannot drive
    operator-to-operator or CA administration messages."""
    sim, h = mini_world()
    sp_state = operators.OperatorState(
        name="sp1", signing_key=crypto.generate_key_pair(crypto.digest(b"k")),
        update_server_uri=Uri("coaps://u.sp1"),
        current_version=VersionInfo(1, Uri("u")))
    sp_state.peer_signer_keys["sp1"] = sp_state.signing_key.public_key
    sp_state.peer_signer_keys["sp2"] = sp_state.signing_key.public_key
    sp_actor = operators.OperatorActor(
        peers.NetHandle(sim, "sp1"), sp_state,
        issued_credential(h, h.ca1, b"sp1", CertProfile.SERVER),
        h.store_for({pki.PERMANENT_CA_NAME}))
    ca_actor = operators.CaActor(
        peers.NetHandle(sim, "ca2", h.revocation_view()), h.ca2)

    factory_cred = issued_credential(h, h.permanent, b"dev", CertProfile.FACTORY)

    entry, disposition = open_session_against(sim, sp_actor.peer, factory_cred)
    assert entry is not None, disposition
    assert sp_actor.peer.dispatch(0, entry, wire.ListDeliver(b"x")) \
        == [wire.ListAck(False)]
    assert sp_actor.peer.dispatch(0, entry, wire.TmDeliver(b"x")) \
        == [wire.TmAck(False)]

    entry, disposition = open_session_against(sim, ca_actor.peer, factory_cred)
    assert entry is not None, disposition
    reply = ca_actor.peer.dispatch(0, entry, wire.RegisterReq(()))
    assert reply == [wire.RegisterRsp(False, "", "profile_not_allowed")]
    reply = ca_actor.peer.dispatch(0, entry, wire.RevokeReq(b"victim"))
    assert reply == [wire.RevokeRsp(False)]


def test_server_profile_cannot_enroll():
    """The inverse separation: enrollment authorization requires a factory
    identity, not any trusted certificate."""
    sim, h = mini_world()
    ca_actor = operators.CaActor(
        peers.NetHandle(sim, "ca1", h.revocation_view()), h.ca1)
    server_cred = issued_credential(h, h.ca1, b"server", CertProfile.SERVER)
    entry, disposition = open_session_against(sim, ca_actor.peer, server_cred)
    assert entry is not None, disposition
    reply = ca_actor.peer.dispatch(0, entry, wire.EnrollReq(b"", True))
    assert reply[0].ok is False
    assert reply[0].reason == "profile_not_allowed"


def test_ca_actor_refuses_a_csr_whose_proof_of_possession_fails():
    """An enrollment request from a registered device whose CSR carries a
    proof of possession with one bit flipped gets a negative reply naming
    the failed proof, and the CA issues nothing."""
    sim, h = mini_world()
    ca_actor = operators.CaActor(
        peers.NetHandle(sim, "ca1", h.revocation_view()), h.ca1)
    factory_cred = issued_credential(h, h.permanent, b"dev", CertProfile.FACTORY)
    pki.register_factory_certs(h.ca1, [factory_cred.certificate], 0)
    entry, disposition = open_session_against(sim, ca_actor.peer, factory_cred)
    assert entry is not None, disposition
    csr = pki.make_csr(b"dev", crypto.generate_key_pair(crypto.digest(b"op")),
                       CertProfile.OPERATIONAL)
    pop = csr.proof_of_possession
    bad = replace(csr, proof_of_possession=pop[:-1] + bytes([pop[-1] ^ 1]))
    issued = dict(h.ca1.issued)
    reply = ca_actor.peer.dispatch(0, entry, wire.EnrollReq(encode(bad), False))
    assert reply == [wire.EnrollRsp(False, b"", b"", (),
                                    "bad_proof_of_possession")]
    assert h.ca1.issued == issued


def test_adversary_modify_and_drop_across_all_classes():
    """Sparse corruption and loss across every message class still lets every
    device terminate, with rejections visible in the trace."""
    from trustshift.scenario import ScenarioOptions
    rules = [
        {"action": "modify", "every_k": 7},
        {"action": "drop", "every_k": 11},
    ]
    config = ScenarioConfig(name="mangle", variant="b", device_count=3,
                            seed=13, adversary=rules,
                            options=ScenarioOptions(
                                use_ra=True, contact_update_before_enroll=True))
    result = run_scenario(config)
    assert all(o.phase in ("reenrolled", "fallback") for o in result.devices)
    assert result.trace.select("drop")
    modified = [e for e in result.trace.select("adversary")
                if e["note"].startswith("modify")]
    assert modified


DEVICE_0, DEVICE_1 = b"device-000", b"device-001"
PENDING_NONCE = b"\x07" * 16


def ra_world(verifier):
    """A verifier that knows both devices and has a challenge outstanding
    for device-001, its responder, and device-000's session to it.
    `verifier` is the stand-alone RA verifier or SP1's fallback
    attestation."""
    sim, h = mini_world()
    ra_state = operators.RaVerifierState(
        expected={DEVICE_0: b"m0", DEVICE_1: b"m1"},
        outstanding={DEVICE_1: PENDING_NONCE})
    server = issued_credential(h, h.ca1, b"server", CertProfile.SERVER)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    if verifier == "ra_verifier":
        net = peers.NetHandle(sim, "ra")
        peer = peers.ResponderPeer(net, server, store, operators.ra_rows(
            ra_state, sim.actor_rng("ra/nonce"), net.note))
    else:
        peer = operators.OperatorActor(peers.NetHandle(sim, "sp1"),
                                       operator_state(), server, store,
                                       fallback_ra_state=ra_state).peer
    device = issued_credential(h, h.permanent, DEVICE_0, CertProfile.FACTORY)
    return sim, peer, ra_state, initiator_session(peer, device)


@pytest.mark.parametrize("verifier", ["ra_verifier", "sp1_fallback"])
def test_ra_hello_in_another_devices_name_refused(verifier):
    """A device cannot ask for a challenge in another device's name; its own
    name still gets one."""
    _sim, peer, ra_state, sess = ra_world(verifier)
    assert call(peer, sess, wire.RaHello(DEVICE_1)) == [wire.RaVerdict(False)]
    assert ra_state.outstanding == {DEVICE_1: PENDING_NONCE}
    [challenge] = call(peer, sess, wire.RaHello(DEVICE_0))
    assert challenge == wire.RaChallenge(ra_state.outstanding[DEVICE_0])


@pytest.mark.parametrize("verifier", ["ra_verifier", "sp1_fallback"])
def test_ra_report_in_another_devices_name_refused(verifier):
    """A report that would pass for device-001 is refused on device-000's
    session: no verdict under device-001, and its challenge stays open."""
    sim, peer, ra_state, sess = ra_world(verifier)
    report = wire.RaReport(DEVICE_1, PENDING_NONCE,
                           crypto.digest(b"m1" + PENDING_NONCE))
    assert call(peer, sess, report) == [wire.RaVerdict(False)]
    assert ra_state.outstanding == {DEVICE_1: PENDING_NONCE}
    assert not sim.trace.select("ra_verdict")


def test_fallback_request_in_another_devices_name_refused():
    """SP1 serves a fallback only to the device the session authenticated."""
    sim, h = mini_world()
    actor = operators.OperatorActor(
        peers.NetHandle(sim, "sp1"), operator_state(),
        issued_credential(h, h.ca1, b"sp1", CertProfile.SERVER),
        h.store_for({pki.PERMANENT_CA_NAME}))
    sess = initiator_session(actor.peer, issued_credential(
        h, h.permanent, DEVICE_0, CertProfile.FACTORY))
    assert call(actor.peer, sess, wire.FallbackReq(DEVICE_1, "update_failed")) \
        == [wire.FallbackRsp(False, False)]
    assert not sim.trace.select("fallback_served")
    assert call(actor.peer, sess, wire.FallbackReq(DEVICE_0, "update_failed")) \
        == [wire.FallbackRsp(True, False)]
    [served] = sim.trace.select("fallback_served")
    assert served["device"] == "device-000"


def test_revoke_req_revokes_only_the_subjects_operational_serials():
    """A server-authenticated RevokeReq revokes every operational
    certificate of the subject, and neither its factory certificate nor
    another subject's. In variant d, CA1 is the permanent CA, so it issued
    the factory certificate too."""
    sim, h = mini_world("d")
    ca = h.ca1
    factory = issued_credential(h, ca, DEVICE_0, CertProfile.FACTORY)
    operational = [issued_credential(h, ca, DEVICE_0, CertProfile.OPERATIONAL)
                   .certificate.serial for _ in range(2)]
    other = issued_credential(h, ca, DEVICE_1, CertProfile.OPERATIONAL)
    ca_actor = operators.CaActor(
        peers.NetHandle(sim, "ca1", h.revocation_view()), ca)
    sess = initiator_session(ca_actor.peer, issued_credential(
        h, ca, b"sp1", CertProfile.SERVER))
    assert call(ca_actor.peer, sess, wire.RevokeReq(DEVICE_0)) \
        == [wire.RevokeRsp(True)]
    assert h.revocation_view() == set(operational)
    assert factory.certificate.serial not in h.revocation_view()
    assert other.certificate.serial not in h.revocation_view()
    [revoked] = sim.trace.select("revoked")
    assert (revoked["subject"], revoked["count"]) == ("device-000", 2)


# ---------------------------------------------------------------------------
# the responders' acceptance tables
# ---------------------------------------------------------------------------

PROFILES = {"F": CertProfile.FACTORY, "O": CertProfile.OPERATIONAL,
            "S": CertProfile.SERVER}
# Per responder, each message class its table has a row for and the peer
# profiles the row admits: a changed row shows up here as a diff.
ADMITTED = {
    "ca1": {"EnrollReq": "F", "RegisterReq": "S", "RevokeReq": "S"},
    "ca2": {"EnrollReq": "F", "RegisterReq": "S", "RevokeReq": "S"},
    "sp1": {"UpdateCheck": "FOS", "TransferAck": "FOS", "TrustAck": "FOS",
            "FinalAck": "FOS", "FallbackReq": "FOS", "ListDeliver": "S",
            "TmDeliver": "S", "RaHello": "FOS", "RaReport": "FOS"},
    "sp2": {"UpdateCheck": "FOS", "TransferAck": "FOS", "TrustAck": "FOS",
            "FinalAck": "FOS", "FallbackReq": "FOS", "ListDeliver": "S",
            "TmDeliver": "S"},
    "ra": {"RaHello": "FOS", "RaReport": "FOS"},
}
# The reply to a peer a row does not admit; a row not named here sends none.
REFUSALS = {
    wire.EnrollReq: wire.EnrollRsp(False, b"", b"", (),
                                   "profile_not_allowed"),
    wire.RegisterReq: wire.RegisterRsp(False, "", "profile_not_allowed"),
    wire.RevokeReq: wire.RevokeRsp(False),
    wire.ListDeliver: wire.ListAck(False),
    wire.TmDeliver: wire.TmAck(False),
}
# Every frame a session record can carry.
APP_CLASSES = sorted((c for c in vars(wire).values()
                      if isinstance(c, type) and hasattr(c, "PREFIX")
                      and c not in (wire.Hello, wire.Accept, wire.Reject,
                                    wire.RecordFrame)),
                     key=lambda c: c.PREFIX)
NOT_ADMITTED = [(name, cls, letter) for name in ADMITTED
                for cls in APP_CLASSES for letter in PROFILES
                if letter not in ADMITTED[name].get(cls.__name__, "")]
FIELD_VALUES = {
    "bytes": st.sampled_from([DEVICE_0, DEVICE_1, PENDING_NONCE])
    | st.binary(max_size=40),
    "int": st.integers(0, 2**64 - 1),
    "bool": st.booleans(),
    "str": st.text(max_size=20),
    "tuple": st.lists(st.binary(max_size=40), max_size=3).map(tuple),
}


@pytest.fixture(scope="module")
def responders():
    """CA1, CA2, SP1 with fallback attestation, SP2 and the stand-alone
    verifier in one simulator: each name's responder and a snapshot of the
    state its handlers write; plus a session under each peer profile."""
    sim, h = mini_world()
    store = h.store_for({pki.PERMANENT_CA_NAME})
    server = issued_credential(h, h.ca1, b"server", CertProfile.SERVER)
    certs = {"F": issued_credential(h, h.permanent, DEVICE_0,
                                    CertProfile.FACTORY).certificate,
             "O": issued_credential(h, h.ca1, DEVICE_0,
                                    CertProfile.OPERATIONAL).certificate,
             "S": server.certificate}
    sessions = {letter: session.derive(bytes(32), letter.encode() * 32, cert,
                                       "peer")
                for letter, cert in certs.items()}
    found = {}
    for name, ca in (("ca1", h.ca1), ("ca2", h.ca2)):
        actor = operators.CaActor(
            peers.NetHandle(sim, name, h.revocation_view()), ca)
        found[name] = actor.peer, lambda ca=ca: (
            dict(ca.issued), set(ca.revoked), dict(ca.registered_factory))
    for name in ("sp1", "sp2"):
        ra_state = operators.RaVerifierState(
            expected={DEVICE_0: b"m0", DEVICE_1: b"m1"},
            outstanding={DEVICE_1: PENDING_NONCE})
        actor = operators.OperatorActor(
            peers.NetHandle(sim, name), operator_state(), server, store,
            fallback_ra_state=ra_state if name == "sp1" else None)
        found[name] = actor.peer, lambda state=actor.state, ra=ra_state: (
            {d: dict(kinds) for d, kinds in state.acks.items()},
            dict(state.device_sessions), state.received_list,
            state.received_tm, dict(ra.outstanding))
    ra_state = operators.RaVerifierState(
        expected={DEVICE_0: b"m0", DEVICE_1: b"m1"},
        outstanding={DEVICE_1: PENDING_NONCE})
    net = peers.NetHandle(sim, "ra")
    found["ra"] = peers.ResponderPeer(net, server, store, operators.ra_rows(
        ra_state, sim.actor_rng("ra/nonce"), net.note)), \
        lambda: dict(ra_state.outstanding)
    return sim, found, sessions


def test_acceptance_tables_are_the_pinned_rows(responders):
    """Each responder's rows admit exactly the pinned (class, profile)
    pairs, and its handshake admits exactly their profiles: no CA opens a
    session with an operational peer, and no responder with a CA."""
    _sim, found, _sessions = responders
    for name, (peer, _snapshot) in found.items():
        rows = {cls.__name__: "".join(letter for letter, profile
                                      in PROFILES.items() if profile in row[0])
                for cls, row in peer.table.items()}
        assert rows == ADMITTED[name], name
        assert peer.admitted == {PROFILES[letter]
                                 for letter in "".join(rows.values())}, name


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(NOT_ADMITTED), st.data())
def test_property_rows_refuse_every_pair_they_do_not_admit(responders, case,
                                                           data):
    """Any message of a class a responder's rows do not admit from the
    session peer's profile, with any field values, gets the row's refusal
    (or nothing, without a row), changes no state and writes no trace."""
    sim, found, sessions = responders
    name, cls, letter = case
    msg = data.draw(st.builds(cls, *[FIELD_VALUES[f.type]
                                     for f in fields(cls)]))
    peer, snapshot = found[name]
    before, entries = snapshot(), len(sim.trace.entries)
    refusal = REFUSALS.get(cls) if cls.__name__ in ADMITTED[name] else None
    assert peer.dispatch(0, sessions[letter], msg) \
        == ([] if refusal is None else [refusal])
    assert snapshot() == before
    assert len(sim.trace.entries) == entries
