"""Scenario assembly and execution: config file to finished trace.

A scenario builds the hierarchy of one `pki.VARIANTS` variant, provisions
devices in a trusted pre-deployment step, wires all network actors,
installs an adversary schedule (named in `SCHEDULES`, or an inline rule
list), runs the event loop to quiescence, and evaluates the per-device
expectations plus the forward/backward-secrecy and lifecycle-order checks
that every run must satisfy.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto, device, operators, peers, pki, simnet, wire
from .errors import ConfigParseError, ScenarioInvalid
from .messages import CertProfile, DeviceUpdateInfo, EnvelopeProfile, TransferMessage, Uri, VersionInfo, encode
from .operators import CA1_ACTOR, CA2_ACTOR, SP1_ACTOR, SP2_ACTOR
from .simnet import AdversaryRule, AdversarySchedule, Sleep

SP1_URI = "coaps://update.sp1.example"
SP2_URI = "coaps://update.sp2.example"
RA_URI = "coaps://ra.sp2.example"
# The reset window every managed device's update info carries, and when
# SP1 starts the transfer.
RESET_WINDOW = (0, 1_000_000)
TRANSFER_START = 40

# The keys a config file may hold at its top level and in "expectation"; any
# other key is a config error, as is an unknown "options" or "faults" field.
CONFIG_KEYS = frozenset({"schema", "name", "hierarchy_variant", "device_count",
                         "seed", "adversary", "options", "faults",
                         "expectation"})
EXPECTATION_KEYS = frozenset({"default", "overrides"})


@dataclass
class ScenarioOptions:
    use_ra: bool = False
    contact_update_before_enroll: bool = False
    server_keygen: bool = False
    last_sp1_update: bool = False
    sp1_fallback_ra: bool = False
    push_ca2_root: bool = True


@dataclass
class ScenarioFaults:
    ra_tamper_devices: list[int] = field(default_factory=list)


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    variant: str = "d"
    device_count: int = 1
    seed: int = 1
    adversary: object = "none"  # schedule name or list of rule dicts
    options: ScenarioOptions = field(default_factory=ScenarioOptions)
    faults: ScenarioFaults = field(default_factory=ScenarioFaults)
    expect_default: str = "reenrolled"
    expect_overrides: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for part in (self, self.options, self.faults):
            simnet.check_fields(part)
        if self.variant not in pki.VARIANTS:
            raise ScenarioInvalid(f"unknown hierarchy variant {self.variant!r}")
        if not 0 <= self.seed < 2**64:  # hashed as 8 bytes per actor
            raise ScenarioInvalid("seed must be in [0, 2**64)")
        if self.device_count < 1:
            raise ScenarioInvalid("device_count must be >= 1")
        actor_ids = {device_actor_id(i) for i in range(self.device_count)}
        strays = sorted(set(self.expect_overrides) - actor_ids)
        strays += [i for i in self.faults.ra_tamper_devices
                   if i not in range(self.device_count)]
        if strays:
            raise ScenarioInvalid(f"{strays} name no device of the "
                                  f"{self.device_count}")
        unknown = {self.expect_default, *self.expect_overrides.values()} \
            - {p.value for p in device.DevicePhase}
        if unknown:
            raise ScenarioInvalid(f"{sorted(unknown)} are not device phases")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigParseError("config root must be an object")
        if raw.get("schema") != 1:
            raise ConfigParseError("config schema field must be 1")
        expectation = raw.get("expectation", {})
        if not isinstance(expectation, dict):
            raise ConfigParseError("expectation must be an object")
        unknown = sorted(set(raw) - CONFIG_KEYS) + sorted(
            f"expectation.{k}" for k in set(expectation) - EXPECTATION_KEYS)
        if unknown:
            raise ConfigParseError(f"unknown config keys {unknown}")
        try:
            return cls(
                name=raw.get("name", "scenario"),
                variant=raw.get("hierarchy_variant", "d"),
                device_count=raw.get("device_count", 1),
                seed=raw.get("seed", 1),
                adversary=raw.get("adversary", "none"),
                options=ScenarioOptions(**raw.get("options", {})),
                faults=ScenarioFaults(**raw.get("faults", {})),
                expect_default=expectation.get("default", "reenrolled"),
                expect_overrides=dict(expectation.get("overrides", {})),
            )
        except (TypeError, ValueError) as err:
            raise ConfigParseError(f"bad config value: {err}") from err

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as err:
            raise ConfigParseError(f"cannot read {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigParseError(f"invalid JSON in {path}: {err}") from err
        return cls.from_dict(raw)


def device_actor_id(index: int) -> str:
    return f"device-{index:03d}"


# ---------------------------------------------------------------------------
# adversary schedules
# ---------------------------------------------------------------------------

def _forged_transfer_payload(seed: int) -> bytes:
    """A transfer CWT signed by a key nobody agreed on."""
    adversary_key = crypto.generate_key_pair(
        crypto.digest(b"adversary-key" + seed.to_bytes(8, "big")))
    message = TransferMessage(0, 2**40, None, Uri("coaps://evil.example"),
                              False, Uri("coaps://evil.example/est"),
                              Uri("coaps://evil.example/fb"))
    envelope = crypto.sign_envelope(adversary_key, EnvelopeProfile.CWT,
                                    encode(message))
    return wire.encode_wire(wire.TransferDeliver(encode(envelope)))


# Each named schedule, as the inline rule list it stands for.
SCHEDULES = {
    "replay_transfer": [{"action": "replay", "match_src": SP1_ACTOR,
                         "match_dst": "device-*", "delay": 3}],
    "modify_transfer": [{"action": "modify", "match_src": SP1_ACTOR,
                         "match_dst": "device-*",
                         "match_label": "transfer_deliver", "first_n": 1}],
    # Ride the standing SP1 session (observed at the first update reply)
    # so the forged CWT arrives while the device is parked and enrolled.
    # `build_adversary` fills in the CWT, signed by a key drawn from the seed.
    "forge_transfer": [{"action": "inject", "match_src": SP1_ACTOR,
                        "match_dst": "device-*", "match_label": "update_rsp",
                        "frame_in_matched_session": True, "seq_offset": 1,
                        "delay": 2}],
    "drop_enroll": [{"action": "drop", "match_src": "device-*",
                     "match_dst": CA2_ACTOR}],
    "cross_session_replay": [
        {"action": "record", "match_src": "device-*", "match_dst": CA1_ACTOR,
         "match_label": "enroll_req", "slot": "enroll"},
        {"action": "inject_recorded", "match_src": "device-*",
         "match_dst": CA2_ACTOR, "match_label": "enroll_req", "slot": "enroll",
         "first_n": 1, "delay": 1},
    ],
    "replay_all": [{"action": "replay", "delay": 5}],
    "drop_10pct": [{"action": "drop", "every_k": 10}],
}


def build_adversary(spec, seed: int) -> AdversarySchedule | None:
    """A named schedule (see `SCHEDULES`) or an inline list of rule dicts
    mirroring AdversaryRule, both parsed by the one loop below."""
    if spec in (None, "none"):
        return None
    if spec == "forge_transfer":
        spec = [{**SCHEDULES[spec][0],
                 "inject_payload": _forged_transfer_payload(seed)}]
    elif isinstance(spec, str) and spec in SCHEDULES:
        spec = SCHEDULES[spec]
    elif not isinstance(spec, list):
        raise ScenarioInvalid(f"unknown adversary schedule {spec!r}")
    rules = []
    for raw in spec:
        try:
            raw = dict(raw)
            if "inject_payload_hex" in raw:
                raw["inject_payload"] = bytes.fromhex(
                    raw.pop("inject_payload_hex"))
            rules.append(AdversaryRule(**raw))
        except (TypeError, ValueError) as err:
            raise ScenarioInvalid(f"bad adversary rule: {err}") from err
    return AdversarySchedule(rules=rules)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class DeviceOutcome:
    actor_id: str
    phase: str
    issuer: str
    serial: int


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trace: simnet.Trace
    devices: list[DeviceOutcome]
    checks: list[CheckResult]
    device_states: dict[str, device.DeviceState]
    hierarchy: pki.HierarchyConfig
    sp1_state: operators.OperatorState

    def report(self) -> str:
        cfg = self.config
        lines = [
            f"scenario {cfg.name} variant={cfg.variant} "
            f"devices={cfg.device_count} seed={cfg.seed} "
            f"adversary={cfg.adversary if isinstance(cfg.adversary, str) else 'inline'}",
            f"trace_digest={self.trace.digest()}",
        ]
        for outcome in self.devices:
            lines.append(f"device {outcome.actor_id} phase={outcome.phase} "
                         f"issuer={outcome.issuer} serial={outcome.serial}")
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            detail = f" {check.detail}" if check.detail else ""
            lines.append(f"check {check.name} {status}{detail}")
        status = "ok" if self.expectation_ok else "FAIL"
        lines.append(f"expectation {status} ({self.matched}/{len(self.devices)})")
        return "\n".join(lines)

    @property
    def matched(self) -> int:
        """How many devices ended in the phase the config expects of them."""
        cfg = self.config
        return sum(1 for o in self.devices
                   if o.phase == cfg.expect_overrides.get(o.actor_id,
                                                          cfg.expect_default))

    @property
    def expectation_ok(self) -> bool:
        return self.matched == len(self.devices)

    @property
    def ok(self) -> bool:
        return self.expectation_ok and all(c.ok for c in self.checks)


def _device_process(state: device.DeviceState, net: peers.NetHandle,
                    server_keygen: bool, start_delay: int):
    yield Sleep(start_delay)
    yield from device.lifecycle(state, net, server_keygen)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    # A run holds only its own state: no signature or encoding recorded
    # in an earlier run. Set-up runs in passes: CA certificates made and
    # roots trusted; each factory and server certificate issued straight
    # over the key just drawn for it (set-up holds every key it certifies,
    # so it makes no CSR); devices provisioned; factory certificates
    # registered. The pass order fixes the key draws and serials (device,
    # then server order), and so every digest.
    crypto.forget_run(config.device_count)
    sim = simnet.Simulator(config.seed)
    build_rng = sim.actor_rng("hierarchy-build")
    hierarchy = pki.build_hierarchy(config.variant, build_rng)
    opts = config.options

    firmware_uri = Uri(SP1_URI + "/fw")
    base_version = VersionInfo(1, firmware_uri)
    transfer_version = (VersionInfo(2, firmware_uri)
                        if opts.last_sp1_update else base_version)
    sp2_version = VersionInfo(max(3, transfer_version.manifest_sequence + 1),
                              Uri(SP2_URI + "/fw"))

    key_rng = sim.actor_rng("key-material")
    sp1_state = operators.OperatorState(
        name=SP1_ACTOR, signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP1_URI), current_version=transfer_version)
    sp2_state = operators.OperatorState(
        name=SP2_ACTOR, signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP2_URI), current_version=sp2_version)
    sp1_state.peer_signer_keys[SP2_ACTOR] = sp2_state.signing_key.public_key
    sp2_state.peer_signer_keys[SP1_ACTOR] = sp1_state.signing_key.public_key

    hierarchy.trust_roots()
    server_store = hierarchy.store_for(hierarchy.root_names())

    # Factory provisioning happens in a trusted environment before any
    # network traffic: keys, factory certificates, initial truststores.
    # Each device process starts staggered, once the simulation runs.
    def credential(ca: pki.CaState, name: bytes,
                   profile: CertProfile) -> pki.Credential:
        key = crypto.generate_key_pair(key_rng.randbytes(32))
        return pki.Credential(pki.issue_certificate(
            ca, name, key.public_key, profile, pki.CERT_VALIDITY),
            ca.issuer_chain, key)

    factory = [credential(hierarchy.permanent, device_actor_id(i).encode(),
                          CertProfile.FACTORY)
               for i in range(config.device_count)]
    # Server certificates for both operators, then for the RA verifier
    # with use_ra only: without it, nothing would check that certificate.
    sp1_cred = credential(hierarchy.ca1, b"sp1", CertProfile.SERVER)
    sp2_cred = credential(hierarchy.ca2, b"sp2", CertProfile.SERVER)
    ra_cred = (credential(hierarchy.ca2, b"ra", CertProfile.SERVER)
               if opts.use_ra else None)

    pre_enroll, pre_transfer = (pki.minimal_truststore(config.variant, phase)
                                for phase in pki.TrustPhase)
    initial_store = pki.TrustStore()  # each device gets a copy
    for name in sorted(pre_enroll):
        initial_store.add_root(hierarchy.root_cert(name),
                               persist=name in pre_transfer)
    devices: dict[str, device.DeviceState] = {}
    ra_state = operators.RaVerifierState()
    expected_digest = crypto.digest(encode(transfer_version))
    for index, factory_cred in enumerate(factory):
        actor_id = device_actor_id(index)
        device_id = actor_id.encode()
        firmware = base_version
        if index in config.faults.ra_tamper_devices:
            firmware = VersionInfo(base_version.manifest_sequence,
                                   Uri(str(firmware_uri) + "?tampered"))
        state = device.DeviceState(device_id=device_id, firmware=firmware)
        net = peers.NetHandle(sim, actor_id)
        device.provision_factory(state, factory_cred.key_pair,
                                 factory_cred.certificate,
                                 initial_store, hierarchy.ca1.enroll_uri,
                                 update_uri=Uri(SP1_URI),
                                 sp1_signer_key=sp1_state.signing_key.public_key,
                                 trace=net.note)
        devices[actor_id] = state
        sim.spawn(actor_id, _device_process(state, net, opts.server_keygen,
                                            1 + index % 7))
        sp1_state.managed_devices[device_id] = DeviceUpdateInfo(
            factory_cred.certificate, *RESET_WINDOW, transfer_version)
        ra_state.expected[device_id] = expected_digest

    # Pre-deployment step over the unconstrained Internet: SP1 shares the
    # factory certificates with its operational CA.
    pki.register_factory_certs(hierarchy.ca1,
                               [cred.certificate for cred in factory], 0)

    # Every server checks its peers under the hierarchy's revoked serials.
    revocation_view = hierarchy.revocation_view()

    def server(actor_id: str) -> peers.NetHandle:
        return peers.NetHandle(sim, actor_id, revocation_view)

    # Network actors.
    operators.CaActor(server(CA1_ACTOR), hierarchy.ca1)
    operators.CaActor(server(CA2_ACTOR), hierarchy.ca2)
    sp1_ra_state = None
    if opts.sp1_fallback_ra:
        sp1_ra_state = operators.RaVerifierState(expected=dict(ra_state.expected))
    sp1_actor = operators.OperatorActor(server(SP1_ACTOR), sp1_state, sp1_cred,
                                        server_store,
                                        fallback_ra_state=sp1_ra_state)
    sp2_actor = operators.OperatorActor(server(SP2_ACTOR), sp2_state, sp2_cred,
                                        server_store)
    if opts.use_ra:  # the stand-alone attestation verifier
        ra_net = server("ra")
        peers.ResponderPeer(ra_net, ra_cred, server_store, operators.ra_rows(
            ra_state, sim.actor_rng("ra/nonce"), ra_net.note))

    sim.bind_uri(str(hierarchy.ca1.enroll_uri), CA1_ACTOR)
    sim.bind_uri(str(hierarchy.ca2.enroll_uri), CA2_ACTOR)
    sim.bind_uri(SP1_URI, SP1_ACTOR)
    sim.bind_uri(SP2_URI, SP2_ACTOR)
    sim.bind_uri(RA_URI, "ra")

    # Operator orchestration processes.
    push_names = sorted(pre_transfer - pre_enroll) if opts.push_ca2_root else []
    push_roots = [hierarchy.root_cert(name) for name in push_names]

    sim.spawn("sp1-orchestrator", operators.sp1_transfer_process(
        server("sp1-orchestrator"),
        sp1_actor, list(sp1_state.managed_devices),
        TRANSFER_START, push_roots, opts.last_sp1_update))
    sim.spawn("sp2-orchestrator", operators.sp2_transfer_process(
        server("sp2-orchestrator"),
        sp2_actor, Uri(RA_URI) if opts.use_ra else None,
        opts.contact_update_before_enroll))

    sim.adversary = build_adversary(config.adversary, config.seed)
    sim.start_ready_processes()
    trace = sim.run()

    # Outcomes and run-level checks.
    outcomes = []
    for actor_id, state in devices.items():
        cert = state.operational_cert
        outcomes.append(DeviceOutcome(
            actor_id=actor_id, phase=state.phase.value,
            issuer=cert.issuer_name.decode(errors="replace") if cert else "none",
            serial=cert.serial if cert else 0))

    agreed_roots = {crypto.digest(hierarchy.root_cert(name).encoding())
                    for name in pre_transfer}
    checks = run_checks(trace, devices, agreed_roots)

    return ScenarioResult(config=config, trace=trace, devices=outcomes,
                          checks=checks, device_states=devices,
                          hierarchy=hierarchy, sp1_state=sp1_state)


# ---------------------------------------------------------------------------
# run-level checks (FR3 / FR4 / lifecycle)
# ---------------------------------------------------------------------------

SP1_SIDE_ACTORS = {SP1_ACTOR, CA1_ACTOR, "sp1-orchestrator"}

# The lifecycle graph `DeviceState.set_phase` enforces, by traced phase name.
_PHASE_EDGES = {frm.value: {to.value for to in tos}
                for frm, tos in device.EDGES.items()}


def run_checks(trace: simnet.Trace, device_ids,
               agreed_roots: set[bytes]) -> list[CheckResult]:
    """FR3, FR4 and lifecycle order of every device, from the trace's rows
    by kind; each check names its first failing device in device order.

    FR3: no session a device opens from its last re-enrollment on shares a
    key fingerprint with any session SP1's side ever saw. FR4: every
    post-reset snapshot holds no operational material, no SP1 signer key
    and only roots whose encodings digest to one of `agreed_roots`.
    Lifecycle: every traced phase change is an edge of `device.EDGES`.
    """
    rows = trace.index()
    sp1_fps = set()
    sessions, phases, snapshots = (defaultdict(list), defaultdict(list),
                                   defaultdict(list))
    for _, t, _sid, fp, a, b in rows.get("session", ()):
        sessions[a].append((t, fp))
        if a in SP1_SIDE_ACTORS or b in SP1_SIDE_ACTORS:
            sp1_fps.add(fp)
    for _, t, actor, frm, to in rows.get("phase", ()):
        phases[actor].append((t, frm, to))
    for _, _t, actor, op_cert, sp1_key, roots, *_uris in rows.get(
            "reset_snapshot", ()):
        snapshots[actor].append((op_cert, sp1_key, roots))

    fr3 = fr4 = order = ""  # detail of each check's first failure
    for actor_id in device_ids:
        steps = phases.get(actor_id, ())
        reenrolled = [t for t, _frm, to in steps if to == "reenrolled"]
        if not fr3 and reenrolled:
            overlap = sp1_fps & {fp for t, fp in sessions.get(actor_id, ())
                                 if t >= reenrolled[-1]}
            if overlap:
                fr3 = f"{actor_id} shares {len(overlap)} fingerprints"
        for op_cert, sp1_key, roots in snapshots.get(actor_id, ()):
            if fr4:
                break
            kept = sorted(name.decode(errors="replace")
                          for name, digest in roots if digest not in agreed_roots)
            if op_cert != "none" or sp1_key != "none":
                fr4 = f"{actor_id} kept SP1 material across reset"
            elif kept:
                fr4 = f"{actor_id} kept roots {kept}"
        bad = next(((frm, to) for _t, frm, to in steps
                    if to not in _PHASE_EDGES.get(frm, ())), None)
        if not order and bad:
            order = f"{actor_id}: {bad[0]} -> {bad[1]} is not a lifecycle edge"
    return [CheckResult("fr3_forward_secrecy", not fr3, fr3),
            CheckResult("fr4_backward_secrecy", not fr4, fr4),
            CheckResult("lifecycle_prefix", not order, order)]
