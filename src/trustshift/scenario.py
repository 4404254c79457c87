"""Scenario assembly and execution: config file to finished trace.

A scenario builds one hierarchy, provisions devices in a trusted
pre-deployment step, wires all network actors, installs an adversary
schedule, runs the event loop to quiescence, and evaluates the per-device
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
from .messages import CertProfile, EnvelopeProfile, TransferMessage, Uri, VersionInfo, encode
from .operators import CA1_ACTOR, CA2_ACTOR, SP1_ACTOR, SP2_ACTOR
from .simnet import AdversaryRule, AdversarySchedule, Sleep

SP1_URI = "coaps://update.sp1.example"
SP2_URI = "coaps://update.sp2.example"
RA_URI = "coaps://ra.sp2.example"
# Validity of the factory, CA and server certificates.
FACTORY_LIFETIME = 10**9

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
    skip_ca2_registration: bool = False


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    variant: str = "d"
    device_count: int = 1
    seed: int = 1
    adversary: object = "none"  # schedule name or list of rule dicts
    options: ScenarioOptions = field(default_factory=ScenarioOptions)
    faults: ScenarioFaults = field(default_factory=ScenarioFaults)
    # No config file sets these three; the window-expiry and renewal tests
    # (tests/test_device.py::test_transfer_after_window_leaves_device_enrolled
    # and ::test_expiry_driven_reenrollment_loops_at_enrolled) do.
    reset_window: tuple[int, int] = (0, 1_000_000)
    operational_lifetime: int = 10**6
    transfer_start: int = 40
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


def build_adversary(spec, seed: int) -> AdversarySchedule | None:
    """Named schedule or inline rule list (dicts mirroring AdversaryRule)."""
    if spec in (None, "none"):
        return None
    if isinstance(spec, list):
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
    if spec == "replay_transfer":
        return AdversarySchedule(rules=[
            AdversaryRule(action="replay", match_src=SP1_ACTOR,
                          match_dst="device-*", delay=3),
        ])
    if spec == "modify_transfer":
        return AdversarySchedule(rules=[
            AdversaryRule(action="modify", match_src=SP1_ACTOR,
                          match_dst="device-*", match_label="transfer_deliver",
                          first_n=1),
        ])
    if spec == "forge_transfer":
        # Ride the standing SP1 session (observed at the first update reply)
        # so the forged CWT arrives while the device is parked and enrolled.
        return AdversarySchedule(rules=[
            AdversaryRule(action="inject", match_src=SP1_ACTOR,
                          match_dst="device-*", match_label="update_rsp",
                          inject_payload=_forged_transfer_payload(seed),
                          frame_in_matched_session=True, seq_offset=1,
                          delay=2),
        ])
    if spec == "drop_enroll":
        return AdversarySchedule(rules=[
            AdversaryRule(action="drop", match_src="device-*",
                          match_dst=CA2_ACTOR),
        ])
    if spec == "cross_session_replay":
        return AdversarySchedule(rules=[
            AdversaryRule(action="record", match_src="device-*",
                          match_dst=CA1_ACTOR, match_label="enroll_req",
                          slot="enroll"),
            AdversaryRule(action="inject_recorded", match_src="device-*",
                          match_dst=CA2_ACTOR, match_label="enroll_req",
                          slot="enroll", first_n=1, delay=1),
        ])
    if spec == "replay_all":
        return AdversarySchedule(rules=[
            AdversaryRule(action="replay", delay=5),
        ])
    if spec == "drop_10pct":
        return AdversarySchedule(rules=[
            AdversaryRule(action="drop", every_k=10),
        ])
    raise ScenarioInvalid(f"unknown adversary schedule {spec!r}")


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
    # Set-up runs in passes, each signature checked a pass after it is made,
    # when the verify-ahead worker (crypto.py) has answered it: CA
    # certificates, keys and CSRs made; roots trusted and certificates
    # issued; devices provisioned; factory certificates registered. Key
    # draws and serials keep device, then server order.
    sim = simnet.Simulator(config.seed)
    build_rng = sim.actor_rng("hierarchy-build")
    hierarchy = pki.build_hierarchy(config.variant, build_rng,
                                    ca_validity=(0, FACTORY_LIFETIME))
    opts = config.options

    firmware_uri = Uri("coaps://update.sp1.example/fw")
    base_version = VersionInfo(1, firmware_uri)
    transfer_version = (VersionInfo(2, firmware_uri)
                        if opts.last_sp1_update else base_version)
    sp2_version = VersionInfo(max(3, transfer_version.manifest_sequence + 1),
                              Uri("coaps://update.sp2.example/fw"))

    key_rng = sim.actor_rng("key-material")
    sp1_state = operators.OperatorState(
        name=SP1_ACTOR, signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP1_URI), current_version=transfer_version)
    sp2_state = operators.OperatorState(
        name=SP2_ACTOR, signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP2_URI), current_version=sp2_version)
    sp1_state.peer_signer_keys[SP2_ACTOR] = sp2_state.signing_key.public_key
    sp2_state.peer_signer_keys[SP1_ACTOR] = sp1_state.signing_key.public_key

    # Factory provisioning happens in a trusted environment before any
    # network traffic: keys, factory certificates, initial truststores.
    # Each device process starts staggered, once the simulation runs.
    def keyed_csr(name: bytes, profile: CertProfile):
        key = crypto.generate_key_pair(key_rng.randbytes(32))
        return key, pki.make_csr(name, key, profile)

    factory_csrs = [keyed_csr(device_actor_id(i).encode(), CertProfile.FACTORY)
                    for i in range(config.device_count)]
    server_csrs = [(keyed_csr(name, CertProfile.OPERATIONAL), ca) for name, ca
                   in ((b"sp1", hierarchy.ca1), (b"sp2", hierarchy.ca2),
                       (b"ra", hierarchy.ca2))]
    hierarchy.trust_roots()
    all_root_names = {hierarchy.permanent.name}
    for ca in (hierarchy.ca1, hierarchy.ca2):
        if ca.certificate.is_self_signed:
            all_root_names.add(ca.name)
    server_store = hierarchy.store_for(all_root_names)

    factory_certs = [pki.issue_certificate(hierarchy.permanent, csr,
                                           CertProfile.FACTORY,
                                           (0, FACTORY_LIFETIME))
                     for _, csr in factory_csrs]
    # Server certificates for both operators and the RA verifier.
    sp1_cred, sp2_cred, ra_cred = (
        pki.Credential(pki.issue_certificate(ca, csr, CertProfile.SERVER,
                                             (0, FACTORY_LIFETIME)),
                       ca.issuer_chain, key)
        for (key, csr), ca in server_csrs)

    pre_enroll = pki.minimal_truststore(config.variant,
                                        pki.TrustPhase.PRE_ENROLL)
    pre_transfer = pki.minimal_truststore(config.variant,
                                          pki.TrustPhase.PRE_TRANSFER)
    initial_store = pki.TrustStore()  # each device gets a copy
    for name in sorted(pre_enroll):
        initial_store.add_root(hierarchy.root_cert(name),
                               persist=name in pre_transfer)
    devices: dict[str, device.DeviceState] = {}
    ra_state = operators.RaVerifierState()
    for index, ((factory_key, _), factory_cert) in enumerate(
            zip(factory_csrs, factory_certs)):
        actor_id = device_actor_id(index)
        device_id = actor_id.encode()
        state = device.DeviceState(device_id=device_id, firmware=base_version)
        net = peers.NetHandle(sim, actor_id)
        device.provision_factory(state, factory_key, factory_cert,
                                 initial_store, hierarchy.ca1.enroll_uri,
                                 update_uri=Uri(SP1_URI),
                                 sp1_signer_key=sp1_state.signing_key.public_key,
                                 firmware=base_version, trace=net.note)
        if index in config.faults.ra_tamper_devices:
            state.firmware = VersionInfo(
                base_version.manifest_sequence,
                Uri(str(firmware_uri) + "?tampered"))
        devices[actor_id] = state
        sim.spawn(actor_id, _device_process(state, net, opts.server_keygen,
                                            1 + index % 7))
        sp1_state.managed_devices[device_id] = operators.ManagedDevice(
            factory_cert=factory_cert, version=transfer_version,
            window=config.reset_window)
        ra_state.expected[device_id] = crypto.digest(encode(transfer_version))

    # Pre-deployment step over the unconstrained Internet: SP1 shares the
    # factory certificates with its operational CA.
    pki.register_factory_certs(hierarchy.ca1, factory_certs, 0)

    # Every server checks its peers under the hierarchy's revoked serials.
    revocation_view = hierarchy.revocation_view()

    def server(actor_id: str) -> peers.NetHandle:
        return peers.NetHandle(sim, actor_id, revocation_view)

    # Network actors.
    operators.CaActor(server(CA1_ACTOR), hierarchy.ca1,
                      operational_lifetime=config.operational_lifetime)
    operators.CaActor(server(CA2_ACTOR), hierarchy.ca2,
                      operational_lifetime=config.operational_lifetime)
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
    push_roots = []
    if opts.push_ca2_root:
        for name in sorted(pre_transfer - pre_enroll):
            push_roots.append(hierarchy.root_cert(name))

    sim.spawn("sp1-orchestrator", operators.sp1_transfer_process(
        server("sp1-orchestrator"),
        sp1_actor, list(sp1_state.managed_devices),
        config.transfer_start, push_roots, opts.last_sp1_update))
    sim.spawn("sp2-orchestrator", operators.sp2_transfer_process(
        server("sp2-orchestrator"),
        sp2_actor, Uri(RA_URI) if opts.use_ra else None,
        opts.contact_update_before_enroll,
        hierarchy.ca2.enroll_uri if config.faults.skip_ca2_registration
        else None))

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

    agreed_roots = {n.decode() for n in pre_transfer}
    agreed_roots |= {c.subject_name.decode() for c in push_roots}
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
               agreed_roots: set[str]) -> list[CheckResult]:
    """FR3, FR4 and lifecycle order of every device, from one pass over the
    trace; each check names its first failing device in device order.

    FR3: no session a device opens from its last re-enrollment on shares a
    key fingerprint with any session SP1's side ever saw. FR4: every
    post-reset snapshot holds no operational material, no SP1 signer key
    and only agreed roots. Lifecycle: every traced phase change is an edge
    of `device.EDGES`.
    """
    sp1_fps = set()
    sessions, phases, snapshots = (defaultdict(list), defaultdict(list),
                                   defaultdict(list))
    for entry in trace.entries:
        kind = entry["ev"]
        if kind == "session":
            sessions[entry["a"]].append(entry)
            if entry["a"] in SP1_SIDE_ACTORS or entry["b"] in SP1_SIDE_ACTORS:
                sp1_fps.add(entry["fp"])
        elif kind == "phase":
            phases[entry["actor"]].append(entry)
        elif kind == "reset_snapshot":
            snapshots[entry["actor"]].append(entry)

    fr3 = fr4 = order = ""  # detail of each check's first failure
    for actor_id in device_ids:
        steps = phases.get(actor_id, ())
        reenrolled = [e["t"] for e in steps if e["to"] == "reenrolled"]
        if not fr3 and reenrolled:
            overlap = sp1_fps & {e["fp"] for e in sessions.get(actor_id, ())
                                 if e["t"] >= reenrolled[-1]}
            if overlap:
                fr3 = f"{actor_id} shares {len(overlap)} fingerprints"
        for snap in snapshots.get(actor_id, ()):
            if fr4:
                break
            roots = set(snap["roots"].split(",")) if snap["roots"] else set()
            if snap["op_cert"] != "none" or snap["sp1_key"] != "none":
                fr4 = f"{actor_id} kept SP1 material across reset"
            elif not roots <= agreed_roots:
                fr4 = f"{actor_id} kept roots {sorted(roots - agreed_roots)}"
        bad = next((e for e in steps
                    if e["to"] not in _PHASE_EDGES.get(e["frm"], ())), None)
        if not order and bad:
            order = (f"{actor_id}: {bad['frm']} -> {bad['to']} "
                     "is not a lifecycle edge")
    return [CheckResult("fr3_forward_secrecy", not fr3, fr3),
            CheckResult("fr4_backward_secrecy", not fr4, fr4),
            CheckResult("lifecycle_prefix", not order, order)]
