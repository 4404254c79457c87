"""The ledger of known defects: one test per defect in ROADMAP item 18,
each asserting the secure outcome.

Each ledger test is marked `xfail(strict=True, raises=AssertionError)`
with the ROADMAP item that mends it. Today each fails at its assertion; an
error of any other kind is not counted as the expected failure. The change
that mends a defect makes its test pass, which strict mode reports as a
failure, so that change removes the marker.

The last test pins the tie rule of the simulator's clock, which a bounded
delay explorer (ROADMAP item 17) relies on; it passes.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from trustshift import crypto, operators, peers, pki, session, simnet, wire
from trustshift.messages import CertProfile, Uri, VersionInfo, encode
from trustshift.scenario import ScenarioConfig, ScenarioOptions, run_scenario

from test_actor_auth import call, issued_credential, mini_world
from test_device import _PLANTED_CA2


def known(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP {item}")


def require(condition, what):
    """A precondition of a ledger test. Its failure is a plain failure,
    never counted as the expected one, which only an assertion is."""
    if not condition:
        pytest.fail(f"precondition failed: {what}")


def every_root(h):
    """A truststore holding each root of the hierarchy."""
    return h.store_for(h.root_names())


def handshake(peer, cred, store, seed):
    """Open a session with responder `peer` as `cred` through the handshake
    steps; the initiator's end, or None when either side refuses."""
    ephemeral, hello = session.start(cred, random.Random(seed))
    disposition, [send] = peer.handle(0, "tester", wire.encode_wire(hello))
    if disposition != "hello_accepted":
        return None
    sess, _status = session.finish(ephemeral, store, 0, set(),
                                   peer.net.actor_id,
                                   wire.decode_wire(send.payload))
    return sess


def push_into_sp1_session(variant, frame):
    """One device at seed 5, with `frame` injected as the next record of
    its session with SP1, after SP1's update answer."""
    rule = {"action": "inject", "match_src": "sp1", "match_dst": "device-*",
            "match_label": "update_rsp",
            "inject_payload_hex": wire.encode_wire(frame).hex(),
            "frame_in_matched_session": True, "seq_offset": 1}
    return run_scenario(ScenarioConfig(name="ledger", variant=variant,
                                       device_count=1, seed=5,
                                       adversary=[rule]))


@known("1a")
def test_a_no_enrollment_without_the_factory_key():
    """(a) A party holding device-000's factory certificate but not its key
    opens a session with CA1 and asks for certificates: on a CSR over its
    own key, and under server keygen. Today CA1 issues both."""
    attacker = crypto.generate_key_pair(crypto.digest(b"attacker"))
    for variant in "abcd":
        sim, h = mini_world(variant)
        factory = issued_credential(h, h.permanent, b"device-000",
                                    CertProfile.FACTORY)
        pki.register_factory_certs(h.ca1, [factory.certificate], 0)
        ca1 = operators.CaActor(
            peers.NetHandle(sim, "ca1", h.revocation_view()), h.ca1)
        sess = handshake(ca1.peer, pki.Credential(factory.certificate, (),
                                                  attacker),
                         every_root(h), seed=1)
        if sess is None:
            continue
        csr = pki.make_csr(b"device-000", attacker, CertProfile.OPERATIONAL)
        for request in (wire.EnrollReq(encode(csr), False),
                        wire.EnrollReq(b"", True)):
            [reply] = call(ca1.peer, sess, request)
            assert not reply.ok, (variant, request.server_keygen)


@known("1b")
def test_b_key_seeds_never_travel_in_the_clear(monkeypatch):
    """(b) Under server keygen, no seed a CA generated for a device appears
    in the bytes of any transmission: of any delivery the simulator
    schedules, a process's, a responder's or the adversary's."""
    seeds, payloads = [], []
    keygen, schedule = pki.enroll_server_keygen, simnet.Simulator._schedule

    def recorded_keygen(*args):
        cert, seed = keygen(*args)
        seeds.append(seed)
        return cert, seed

    def recorded_schedule(sim, time, entry):
        if type(entry) is simnet.SimEvent:
            payloads.append(entry.payload)
        return schedule(sim, time, entry)

    monkeypatch.setattr(pki, "enroll_server_keygen", recorded_keygen)
    monkeypatch.setattr(simnet.Simulator, "_schedule", recorded_schedule)
    result = run_scenario(ScenarioConfig(
        name="ledger", variant="a", device_count=3, seed=1,
        options=ScenarioOptions(server_keygen=True)))
    require(result.ok and len(seeds) == 6, "an ok run with six seeds made")
    leaked = [seed.hex() for seed in seeds
              if any(seed in payload for payload in payloads)]
    assert not leaked


@known("1b")
def test_c_injected_firmware_never_runs():
    """(c) A FinalUpdate offering firmware 999, injected into the device's
    SP1 session, never installs: firmware stays at the transfer version."""
    rollover = wire.FinalUpdate(encode(VersionInfo(
        999, Uri("coaps://update.evil.example/fw"))))
    for variant in "abcd":
        result = push_into_sp1_session(variant, rollover)
        highest = result.sp1_state.current_version.manifest_sequence
        firmware = result.device_states["device-000"].firmware
        assert firmware.manifest_sequence <= highest, variant


@known("1b")
def test_d_injected_root_never_kept():
    """(d) A persistent TrustPush of a self-signed root named `ca2`,
    injected into the device's SP1 session, is never kept."""
    plant = wire.TrustPush((encode(_PLANTED_CA2),))
    for variant in "abcd":
        result = push_into_sp1_session(variant, plant)
        kept = result.device_states["device-000"].truststore.root(b"ca2")
        assert kept is None or encode(kept) != encode(_PLANTED_CA2), variant


@known("1b")
def test_e_injected_record_burns_no_sequence_number():
    """(e) A record injected into the device's SP1 session ahead of SP1's
    next one costs no genuine record: the device refuses none as a
    replay."""
    for variant in "abcd":
        result = push_into_sp1_session(variant, wire.TmAck(True))
        refused = result.trace.select("record", actor="device-000",
                                      outcome="replay_detected")
        assert not refused, variant


@known("1a")
def test_f_two_cas_never_issue_one_key():
    """(f) Under server keygen, the operational key CA1 makes for a device
    differs from the one CA2 makes for it."""
    def keys(ca, subject):
        return {ca.issued[serial].subject_public_key
                for serial in ca.issued_serials_for(subject)
                if ca.issued[serial].profile is CertProfile.OPERATIONAL}

    for variant in "abcd":
        for seed in (1, 2):
            result = run_scenario(ScenarioConfig(
                name="ledger", variant=variant, device_count=3, seed=seed,
                options=ScenarioOptions(server_keygen=True)))
            h = result.hierarchy
            for device_id in result.device_states:
                subject = device_id.encode()
                require(keys(h.ca1, subject), f"CA1 keyed {device_id}")
                assert not keys(h.ca1, subject) & keys(h.ca2, subject), \
                    (variant, seed, device_id)


@known("12")
def test_g_only_sp1_revokes_at_ca1():
    """(g) CA1 refuses a RevokeReq from SERVER credentials CA2 issued to
    `sp2` and `ra`, by refusing the handshake or the request."""
    for variant in "abcd":
        sim, h = mini_world(variant)
        operational = issued_credential(h, h.ca1, b"device-000",
                                        CertProfile.OPERATIONAL)
        ca1 = operators.CaActor(
            peers.NetHandle(sim, "ca1", h.revocation_view()), h.ca1)
        for seed, name in enumerate((b"sp2", b"ra")):
            server = issued_credential(h, h.ca2, name, CertProfile.SERVER)
            sess = handshake(ca1.peer, server, every_root(h), seed)
            if sess is None:
                continue
            [reply] = call(ca1.peer, sess, wire.RevokeReq(b"device-000"))
            assert not reply.ok, (variant, name)
        assert operational.certificate.serial not in h.revocation_view()


@known("17")
def test_h_late_ra_challenge_costs_no_attestation():
    """(h) An RA challenge replayed late, on the tick the device's wait
    expires, with the original dropped, does not cost a genuine device its
    attestation: it ends `reenrolled` on a True verdict."""
    for variant in "abcd":
        for delay in (6, 8):
            trigger = {"match_src": "ra", "match_dst": "device-*",
                       "match_label": "ra_challenge", "first_n": 1}
            rules = [{"action": "replay", "delay": delay, **trigger},
                     {"action": "drop", **trigger}]
            result = run_scenario(ScenarioConfig(
                name="ledger", variant=variant, device_count=1, seed=5,
                options=ScenarioOptions(use_ra=True), adversary=rules))
            verdicts = [e["verdict"] for e in result.trace.select("ra_verdict")]
            assert (result.devices[0].phase, verdicts) \
                == ("reenrolled", ["True"]), (variant, delay)


ATTACKS = sorted((Path(__file__).resolve().parent.parent / "configs"
                  / "attacks").glob("*.json"))


@pytest.mark.parametrize("path", [
    pytest.param(path, marks=known("1a")) if path.stem == "modify_transfer"
    else path for path in ATTACKS], ids=[path.stem for path in ATTACKS])
def test_i_every_attack_config_acts(path):
    """(i) Each shipped attack config's schedule acts at least once (an
    `adversary` row), and its trace differs from the same config's with no
    adversary. Today `modify_transfer` matches `src = "sp1"`, but
    `transfer_deliver` is sent by `sp1-orchestrator`, so it never fires."""
    config = ScenarioConfig.from_file(path)
    result = run_scenario(config)
    benign = run_scenario(replace(config, adversary="none"))
    assert result.trace.select("adversary"), path.stem
    assert result.trace.digest() != benign.trace.digest(), path.stem


@pytest.mark.parametrize("timeout, got", [(2, "timeout"), (3, "reply")])
def test_reply_on_the_tick_a_wait_expires_loses_to_the_timer(timeout, got):
    """A process sends at t=0 and waits; the reply arrives at t=2. Events of
    one tick run in the order they were pushed, and the wait's timer was
    pushed first, so a wait that expires at t=2 ends in a timeout."""
    sim = simnet.Simulator(1)
    sim.register_responder("echo", lambda now, src, data: (
        "echoed", [simnet.Transmit(src, data)]))
    results = []

    def process():
        yield simnet.Transmit("echo", b"ping")
        results.append((yield simnet.WaitMessage(timeout=timeout)))

    sim.spawn("proc", process())
    sim.start_ready_processes()
    sim.run()
    assert results == [simnet.TIMEOUT if got == "timeout" else ("echo", b"ping")]
    [reply] = sim.trace.select("deliver", dst="proc")
    assert reply["t"] == 2
