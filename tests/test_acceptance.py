"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
"""

import json
import random
import sys
from pathlib import Path

import pytest

import gen
from test_device import _register_nothing
from trustshift import codec, crypto, operators, pki
from trustshift.device import DevicePhase, handle_transfer_message
from trustshift.errors import (
    BadSignature,
    InvariantViolation,
    MalformedEncoding,
    NameMismatch,
)
from trustshift.messages import (
    CertificateSigningRequest,
    CertProfile,
    CompactCertificate,
    DeviceUpdateInfo,
    EnvelopeProfile,
    SignedEnvelope,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)
from trustshift.scenario import (
    ScenarioConfig,
    ScenarioFaults,
    ScenarioOptions,
    run_scenario,
)

VECTOR_DIR = Path(__file__).resolve().parent.parent / "vectors"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}", file=sys.stderr)
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. end-to-end transfer, 100 devices, each hierarchy variant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_c1_end_to_end_100_devices(variant):
    config = ScenarioConfig(name=f"c1-{variant}", variant=variant,
                            device_count=100, seed=1)
    result = run_scenario(config)
    reenrolled = [o for o in result.devices if o.phase == "reenrolled"]
    ca2_issued = [o for o in reenrolled
                  if o.issuer == result.hierarchy.ca2.name.decode()]
    ok = (len(reenrolled) == 100 and len(ca2_issued) == 100
          and result.expectation_ok and all(c.ok for c in result.checks))
    report(f"C1 end-to-end variant {variant}", ok,
           f"{len(ca2_issued)}/100 reenrolled under CA2")


# ---------------------------------------------------------------------------
# 2. minimal-truststore matrix
# ---------------------------------------------------------------------------

def test_c2_minimal_truststore_matrix():
    failures = []
    # a, b: without the CA2 root push every device must end in fallback
    for variant in ("a", "b"):
        config = ScenarioConfig(
            name=f"c2-{variant}", variant=variant, device_count=10, seed=2,
            options=ScenarioOptions(push_ca2_root=False),
            expect_default="fallback")
        result = run_scenario(config)
        if not all(o.phase == "fallback" for o in result.devices):
            failures.append(f"{variant}: not all fallback without CA2 root")
    # c, d: devices succeed provisioned with only the permanent root
    for variant in ("c", "d"):
        assert pki.minimal_truststore(variant, pki.TrustPhase.PRE_ENROLL) \
            == {pki.PERMANENT_CA_NAME}
        config = ScenarioConfig(name=f"c2-{variant}", variant=variant,
                                device_count=10, seed=2)
        result = run_scenario(config)
        for actor_id, state in result.device_states.items():
            if state.truststore.root_names() != {pki.PERMANENT_CA_NAME}:
                failures.append(f"{variant}: {actor_id} grew extra roots")
                break
        if not all(o.phase == "reenrolled" for o in result.devices):
            failures.append(f"{variant}: devices failed with permanent root only")
    # with the push enabled, the post-reset store matches the oracle exactly
    for variant in pki.VARIANTS:
        config = ScenarioConfig(name=f"c2x-{variant}", variant=variant,
                                device_count=3, seed=2)
        result = run_scenario(config)
        oracle = {n.decode() for n in pki.minimal_truststore(
            variant, pki.TrustPhase.PRE_TRANSFER)}
        for snap in result.trace.select("reset_snapshot"):
            roots = set(snap["roots"].split(","))
            if roots != oracle:
                failures.append(f"{variant}: reset store {roots} != {oracle}")
                break
    report("C2 minimal-truststore matrix", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# 3. FR1 impersonation suite
# ---------------------------------------------------------------------------

def _fr1_fixture(seed: int):
    h = pki.build_hierarchy("b", random.Random(seed))
    h.trust_roots()
    sp1_key = crypto.generate_key_pair(crypto.digest(b"sp1%d" % seed))
    sp2_key = crypto.generate_key_pair(crypto.digest(b"sp2%d" % seed))
    return h, sp1_key, sp2_key


def test_c3_fr1_impersonation():
    failures = []

    # forged transfer CWT from an adversary key, in-simulator, 100 runs
    for seed in range(100):
        config = ScenarioConfig(name="c3-forge", variant="b", device_count=1,
                                seed=seed, adversary="forge_transfer")
        result = run_scenario(config)
        rejected = [e for e in result.trace.select("transfer_rejected")
                    if e["reason"] == "BadSignature"]
        if not rejected or not result.expectation_ok:
            failures.append(f"forge seed {seed}")
            break

    # SP2-signed CWT delivered directly to a device: 100 seeded fixtures
    from trustshift.device import DeviceState
    from trustshift import device as device_mod
    for seed in range(100):
        h, sp1_key, sp2_key = _fr1_fixture(seed)
        dev_key = crypto.generate_key_pair(crypto.digest(b"d%d" % seed))
        cert = pki.issue_certificate(h.permanent, b"dev", dev_key.public_key,
                                     CertProfile.FACTORY, (0, 10**9))
        state = DeviceState(device_id=b"dev")
        device_mod.provision_factory(
            state, dev_key, cert, pki.TrustStore(), h.ca1.enroll_uri,
            sp1_signer_key=sp1_key.public_key)
        state.set_phase(DevicePhase.ENROLLED)
        message = TransferMessage(0, 10**6, None, Uri("u"), False, Uri("e"),
                                  Uri("f"))
        sp2_signed = crypto.sign_envelope(sp2_key, EnvelopeProfile.CWT,
                                          encode(message))
        try:
            handle_transfer_message(state, sp2_signed, now=10)
            failures.append(f"sp2-cwt accepted seed {seed}")
            break
        except BadSignature:
            pass

    # name-mismatched enrollment CSR: 100 seeded fixtures
    for seed in range(100):
        h, _, _ = _fr1_fixture(seed)
        dev_key = crypto.generate_key_pair(crypto.digest(b"dk%d" % seed))
        fcert = pki.issue_certificate(h.permanent, b"victim",
                                      dev_key.public_key, CertProfile.FACTORY,
                                      (0, 10**9))
        pki.register_factory_certs(h.ca1, [fcert], 0)
        impostor_key = crypto.generate_key_pair(crypto.digest(b"imp%d" % seed))
        impostor_csr = pki.make_csr(b"impostor", impostor_key,
                                    CertProfile.OPERATIONAL)
        try:
            pki.enroll(h.ca1, fcert, impostor_csr, (0, 10**6))
            failures.append(f"name mismatch accepted seed {seed}")
            break
        except NameMismatch:
            pass

    # post-transfer revocation: the old SP1 operational certificate is
    # rejected by SP1 servers
    result = run_scenario(ScenarioConfig(name="c3-revoke", variant="b",
                                         device_count=3, seed=7))
    h = result.hierarchy
    old_certs = [c for c in h.ca1.issued.values()
                 if c.profile is CertProfile.OPERATIONAL]
    if not old_certs:
        failures.append("no pre-transfer operational certificates issued")
    sp1_store = h.store_for({pki.PERMANENT_CA_NAME, pki.CA2_NAME})
    for cert in old_certs:
        check = pki.verify_chain(cert, list(h.ca1.issuer_chain), sp1_store,
                                 result.trace.entries[-1]["t"],
                                 h.revocation_view())
        if check or check.reason is not pki.ChainReason.REVOKED:
            failures.append(f"old cert serial {cert.serial} still accepted")

    report("C3 FR1 impersonation suite", not failures, "; ".join(failures[:3]))


# ---------------------------------------------------------------------------
# 4. FR2 replay suite, 1000 seeded adversary schedules
# ---------------------------------------------------------------------------

CORE_RECORD_CLASSES = {
    "enroll_req", "enroll_rsp", "update_check", "update_rsp",
    "transfer_deliver", "transfer_ack", "trust_push", "trust_ack",
    "list_deliver", "list_ack", "tm_deliver", "tm_ack",
    "register_req", "register_rsp", "revoke_req", "revoke_rsp",
    "ra_hello", "ra_challenge", "ra_report", "ra_verdict",
}
HANDSHAKE_CLASSES = {"accept"}  # plus per-purpose "*.hello" labels


def _replay_run_ok(result) -> str | None:
    accepted = {}
    for entry in result.trace.select("record"):
        if entry["outcome"] != "accept":
            continue
        key = (entry.get("actor"), entry["sid"], entry["seq"])
        if key in accepted:
            return f"double acceptance {key}"
        accepted[key] = True
    return None


def test_c4_fr2_replay_suite():
    failures = []
    replayed_labels = set()
    detections = 0

    def run_one(seed, variant, adversary, options=None, expect="reenrolled"):
        nonlocal detections
        config = ScenarioConfig(name="c4", variant=variant, device_count=1,
                                seed=seed, adversary=adversary,
                                options=options or ScenarioOptions(),
                                expect_default=expect)
        result = run_scenario(config)
        problem = _replay_run_ok(result)
        if problem:
            failures.append(f"seed {seed}: {problem}")
            return
        if not result.expectation_ok:
            failures.append(f"seed {seed}: bad terminal phase")
            return
        for entry in result.trace.select("deliver", origin="adversary"):
            label = entry.get("label", "")
            replayed_labels.add(label.split(".")[-1])
        detections += sum(1 for e in result.trace.select("record")
                          if e["outcome"] in ("replay_detected",
                                              "wrong_session"))
        detections += len(result.trace.select(
            "handshake", outcome="replayed_hello_discarded"))

    full = ScenarioOptions(use_ra=True, contact_update_before_enroll=True,
                           last_sp1_update=True)
    for seed in range(500):
        run_one(seed, "b", "replay_all")
    for seed in range(500, 800):
        run_one(seed, "a", "replay_all", options=full)
    for seed in range(800, 900):
        run_one(seed, "d", "replay_all")
    for seed in range(900, 1000):
        run_one(seed, "b", "cross_session_replay")
        if failures:
            break

    missing = (CORE_RECORD_CLASSES | HANDSHAKE_CLASSES) - replayed_labels
    if missing:
        failures.append(f"classes never replayed: {sorted(missing)}")
    if detections == 0:
        failures.append("no replay detections recorded")
    report("C4 FR2 replay suite", not failures,
           "; ".join(failures[:3]) or f"{detections} rejections, 0 false accepts")


# ---------------------------------------------------------------------------
# 5. FR3 / FR4 model checks on every end-to-end run
# ---------------------------------------------------------------------------

def test_c5_fr3_fr4_checks():
    failures = []
    for variant in pki.VARIANTS:
        for options in (ScenarioOptions(),
                        ScenarioOptions(use_ra=True,
                                        contact_update_before_enroll=True,
                                        last_sp1_update=True)):
            config = ScenarioConfig(name="c5", variant=variant, device_count=5,
                                    seed=3, options=options)
            result = run_scenario(config)
            names = {c.name for c in result.checks}
            if not {"fr3_forward_secrecy", "fr4_backward_secrecy"} <= names:
                failures.append(f"{variant}: checks missing")
            for check in result.checks:
                if not check.ok:
                    failures.append(f"{variant}: {check.name} {check.detail}")
    report("C5 FR3/FR4 model checks", not failures, "; ".join(failures[:3]))


# ---------------------------------------------------------------------------
# 6. message-size feasibility and the signature-verification substitute
# ---------------------------------------------------------------------------

def test_c6_sizes_and_tamper_substitute():
    failures = []
    config = ScenarioConfig(name="c6", variant="b", device_count=3, seed=4,
                            options=ScenarioOptions(use_ra=True))
    result = run_scenario(config)
    sizes = {}
    for entry in result.trace.select("size"):
        sizes.setdefault(entry["cls"], entry["bytes"])
    payload = sizes.get("transfer_message_payload", 10**9)
    envelope = sizes.get("relayed_transfer_envelope", 10**9)
    uris = [str(u) for u in ("coaps://update.sp1.example",
                             "coaps://update.sp2.example",
                             "coaps://ra.sp2.example",
                             str(result.hierarchy.ca2.enroll_uri))]
    if any(len(u.encode()) > 32 for u in uris):
        failures.append("a representative URI exceeds 32 bytes")
    if payload > 200:
        failures.append(f"unsigned payload {payload} > 200")
    if envelope > 512:
        failures.append(f"signed CWT {envelope} > 512")

    # hardware-timing substitute: 10^4 randomized tamper cases, 0 false accepts
    key = crypto.generate_key_pair(crypto.digest(b"c6-key"))
    rng = random.Random(606)
    false_accepts = 0
    for _ in range(10_000):
        body = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 96)))
        signed = crypto.sign_envelope(key, EnvelopeProfile.CWT, body)
        data = bytearray(encode(signed))
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        try:
            forged = decode(SignedEnvelope, bytes(data))
        except (MalformedEncoding, InvariantViolation):
            continue
        if forged != signed and crypto.verify_envelope(
                key.public_key, forged, forged.protected_header.profile):
            false_accepts += 1
    if false_accepts:
        failures.append(f"{false_accepts} false accepts in tamper suite")
    report("C6 size feasibility + tamper substitute", not failures,
           "; ".join(failures) or
           f"payload={payload}B envelope={envelope}B, 10^4 tampers rejected")


# ---------------------------------------------------------------------------
# 7. codec properties
# ---------------------------------------------------------------------------

KIND_BY_NAME = {
    "transfer_message": TransferMessage,
    "update_info_list": UpdateInfoList,
    "device_update_info": DeviceUpdateInfo,
    "version_info": VersionInfo,
    "certificate": CompactCertificate,
    "csr": CertificateSigningRequest,
    "signed_envelope": SignedEnvelope,
}


def test_c7_codec_properties():
    failures = []
    for seed in range(1000):
        rng = random.Random(seed)
        name, maker = gen.RANDOM_MESSAGE_MAKERS[seed % len(gen.RANDOM_MESSAGE_MAKERS)]
        msg = maker(rng)
        first, again = encode(msg), encode(msg)
        codec.forget_encoded()  # the strict reader
        if again != first or decode(KIND_BY_NAME[name], first) != msg:
            failures.append(f"round-trip seed {seed}")
            break

    for path in sorted(VECTOR_DIR.glob("*.hex")):
        golden = bytes.fromhex(path.read_text().strip())
        kind = {
            "transfer_message_basic": TransferMessage,
            "transfer_message_with_ra": TransferMessage,
            "update_info_list_empty": UpdateInfoList,
            "update_info_list_one": UpdateInfoList,
            "update_info_list_two": UpdateInfoList,
            "device_update_info": DeviceUpdateInfo,
            "version_info": VersionInfo,
            "certificate_factory": CompactCertificate,
            "csr_operational": CertificateSigningRequest,
            "signed_envelope_cwt": SignedEnvelope,
            "signed_envelope_updatelist": SignedEnvelope,
        }[path.stem]
        codec.forget_encoded()
        if encode(decode(kind, golden)) != golden:
            failures.append(f"golden drift: {path.stem}")

    corpus = json.loads((VECTOR_DIR / "malformed" / "corpus.json").read_text())
    if len(corpus) < 20:
        failures.append(f"malformed corpus has only {len(corpus)} vectors")
    for entry in corpus:
        try:
            decode(KIND_BY_NAME[entry["kind"]], bytes.fromhex(entry["hex"]))
            failures.append(f"malformed vector accepted: {entry['name']}")
        except (MalformedEncoding, InvariantViolation):
            pass
    report("C7 codec properties", not failures,
           "; ".join(failures[:3]) or
           f"1000 round-trips, {len(corpus)} malformed vectors rejected")


# ---------------------------------------------------------------------------
# 8. fallback totality under fault injection, 200 seeds
# ---------------------------------------------------------------------------

def test_c8_fallback_totality(monkeypatch):
    failures = []
    terminal = {"reenrolled", "fallback"}
    for seed in range(200):
        kind = seed % 3
        if kind == 0:
            config = ScenarioConfig(
                name="c8-ra", variant="c", device_count=2, seed=seed,
                options=ScenarioOptions(use_ra=True),
                faults=ScenarioFaults(ra_tamper_devices=[0]),
                expect_overrides={"device-000": "fallback"})
            affected = {"device-000"}
        elif kind == 1:
            config = ScenarioConfig(
                name="c8-reg", variant="b", device_count=2, seed=seed,
                expect_default="fallback")
            affected = {"device-000", "device-001"}
        else:
            config = ScenarioConfig(
                name="c8-drop", variant="d", device_count=2, seed=seed,
                adversary="drop_enroll", expect_default="fallback")
            affected = {"device-000", "device-001"}
        with monkeypatch.context() as patch:
            if kind == 1:
                patch.setattr(operators.CaActor, "_register",
                              _register_nothing)
            result = run_scenario(config)
        phases = {o.actor_id: o.phase for o in result.devices}
        if any(p not in terminal for p in phases.values()):
            failures.append(f"seed {seed}: stuck phase {phases}")
            break
        contacted = {e["actor"] for e in result.trace.select(
            "fallback_contacted", ok="True")}
        served = {e["device"] for e in result.trace.select("fallback_served")}
        for actor_id in affected:
            if phases[actor_id] != "fallback":
                failures.append(f"seed {seed}: {actor_id} not in fallback")
                break
            if actor_id not in contacted or actor_id not in served:
                failures.append(f"seed {seed}: {actor_id} never completed "
                                "the fallback contact")
                break
        if failures:
            break
    report("C8 fallback totality", not failures, "; ".join(failures[:2]))
