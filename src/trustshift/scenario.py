"""Scenario assembly and execution: config file to finished trace.

A scenario builds one hierarchy, provisions devices in a trusted
pre-deployment step, wires all network actors, installs an adversary
schedule, runs the event loop to quiescence, and evaluates the per-device
expectations plus the forward/backward-secrecy checks that every run must
satisfy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto, device, operators, peers, pki, simnet
from .errors import ConfigParseError, ScenarioInvalid
from .messages import CertProfile, EnvelopeProfile, TransferMessage, Uri, VersionInfo, encode
from .simnet import AdversaryRule, AdversarySchedule, Sleep

SP1_URI = "coaps://update.sp1.example"
SP2_URI = "coaps://update.sp2.example"
RA_URI = "coaps://ra.sp2.example"


@dataclass
class ScenarioOptions:
    use_ra: bool = False
    contact_update_before_enroll: bool = False
    server_keygen: bool = False
    last_sp1_update: bool = False
    sp1_fallback_ra: bool = False
    push_ca2_root: bool = True
    narrow_windows: bool = False


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
    reset_window: tuple[int, int] = (0, 1_000_000)
    factory_lifetime: int = 10**9
    operational_lifetime: int = 10**6
    transfer_start: int = 40
    event_budget: int = 500_000
    expect_default: str = "reenrolled"
    expect_overrides: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in pki.VARIANTS:
            raise ScenarioInvalid(f"unknown hierarchy variant {self.variant!r}")
        if self.device_count < 1:
            raise ScenarioInvalid("device_count must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigParseError("config root must be an object")
        if raw.get("schema") != 1:
            raise ConfigParseError("config schema field must be 1")
        try:
            options = ScenarioOptions(**raw.get("options", {}))
            faults = ScenarioFaults(**raw.get("faults", {}))
            windows = raw.get("windows", {})
            expectation = raw.get("expectation", {})
            return cls(
                name=raw.get("name", "scenario"),
                variant=raw.get("hierarchy_variant", "d"),
                device_count=int(raw.get("device_count", 1)),
                seed=int(raw.get("seed", 1)),
                adversary=raw.get("adversary", "none"),
                options=options,
                faults=faults,
                reset_window=tuple(windows.get("reset", (0, 1_000_000))),
                factory_lifetime=int(windows.get("factory_lifetime", 10**9)),
                operational_lifetime=int(windows.get("operational_lifetime",
                                                     10**6)),
                transfer_start=int(raw.get("transfer_start", 40)),
                event_budget=int(raw.get("event_budget", 500_000)),
                expect_default=expectation.get("default", "reenrolled"),
                expect_overrides=dict(expectation.get("overrides", {})),
            )
        except ScenarioInvalid:
            raise
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
    from . import wire
    return wire.encode_wire(wire.TransferDeliver(encode(envelope)))


def build_adversary(spec, seed: int) -> AdversarySchedule | None:
    """Named schedule or inline rule list (dicts mirroring AdversaryRule)."""
    if spec in (None, "none"):
        return None
    if isinstance(spec, list):
        rules = []
        for raw in spec:
            raw = dict(raw)
            if "inject_payload_hex" in raw:
                raw["inject_payload"] = bytes.fromhex(raw.pop("inject_payload_hex"))
            rules.append(AdversaryRule(**raw))
        return AdversarySchedule(rules=rules)
    if spec == "replay_transfer":
        return AdversarySchedule(rules=[
            AdversaryRule(action="replay", match_src="sp1",
                          match_dst="device-*", delay=3),
        ])
    if spec == "modify_transfer":
        return AdversarySchedule(rules=[
            AdversaryRule(action="modify", match_src="sp1",
                          match_dst="device-*", match_label="transfer_deliver",
                          first_n=1),
        ])
    if spec == "forge_transfer":
        # Ride the standing SP1 session (observed at the first update reply)
        # so the forged CWT arrives while the device is parked and enrolled.
        return AdversarySchedule(rules=[
            AdversaryRule(action="inject", match_src="sp1",
                          match_dst="device-*", match_label="update_rsp",
                          inject_payload=_forged_transfer_payload(seed),
                          frame_in_matched_session=True, seq_offset=1,
                          delay=2),
        ])
    if spec == "drop_enroll":
        return AdversarySchedule(rules=[
            AdversaryRule(action="drop", match_src="device-*",
                          match_dst="ca2"),
        ])
    if spec == "cross_session_replay":
        return AdversarySchedule(rules=[
            AdversaryRule(action="record", match_src="device-*",
                          match_dst="ca1", match_label="enroll_req",
                          slot="enroll"),
            AdversaryRule(action="inject_recorded", match_src="device-*",
                          match_dst="ca2", match_label="enroll_req",
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
    expectation_ok: bool
    device_states: dict[str, device.DeviceState]
    hierarchy: pki.HierarchyConfig
    sp1_state: operators.OperatorState
    sp2_state: operators.OperatorState

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
        matched = sum(1 for o in self.devices
                      if o.phase == self._expected_phase(o.actor_id))
        status = "ok" if self.expectation_ok else "FAIL"
        lines.append(f"expectation {status} ({matched}/{len(self.devices)})")
        return "\n".join(lines)

    def _expected_phase(self, actor_id: str) -> str:
        return self.config.expect_overrides.get(actor_id,
                                                self.config.expect_default)

    @property
    def ok(self) -> bool:
        return self.expectation_ok and all(c.ok for c in self.checks)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    sim = simnet.Simulator(config.seed, event_budget=config.event_budget)
    build_rng = sim.actor_rng("hierarchy-build")
    hierarchy = pki.build_hierarchy(config.variant, build_rng,
                                    ca_validity=(0, config.factory_lifetime))
    opts = config.options

    all_root_names = {hierarchy.permanent.name}
    for ca in (hierarchy.ca1, hierarchy.ca2):
        if ca.certificate.is_self_signed:
            all_root_names.add(ca.name)
    server_store = hierarchy.store_for(all_root_names)

    firmware_uri = Uri("coaps://update.sp1.example/fw")
    base_version = VersionInfo(1, firmware_uri)
    transfer_version = (VersionInfo(2, firmware_uri)
                        if opts.last_sp1_update else base_version)
    sp2_version = VersionInfo(max(3, transfer_version.manifest_sequence + 1),
                              Uri("coaps://update.sp2.example/fw"))

    key_rng = sim.actor_rng("key-material")
    sp1_state = operators.OperatorState(
        name="sp1", signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP1_URI), current_version=base_version)
    sp2_state = operators.OperatorState(
        name="sp2", signing_key=crypto.generate_key_pair(key_rng.randbytes(32)),
        update_server_uri=Uri(SP2_URI), current_version=sp2_version)
    sp1_state.peer_signer_keys["sp2"] = sp2_state.signing_key.public_key
    sp2_state.peer_signer_keys["sp1"] = sp1_state.signing_key.public_key

    # Factory provisioning happens in a trusted environment before any
    # network traffic: keys, factory certificates, initial truststores.
    pre_enroll = pki.minimal_truststore(config.variant,
                                        pki.TrustPhase.PRE_ENROLL)
    pre_transfer = pki.minimal_truststore(config.variant,
                                          pki.TrustPhase.PRE_TRANSFER)
    devices: dict[str, device.DeviceState] = {}
    ra_state = operators.RaVerifierState()
    for index in range(config.device_count):
        actor_id = device_actor_id(index)
        device_id = actor_id.encode()
        factory_key = crypto.generate_key_pair(key_rng.randbytes(32))
        csr = pki.make_csr(device_id, factory_key, CertProfile.FACTORY)
        factory_cert = pki.issue_certificate(hierarchy.permanent, csr,
                                             CertProfile.FACTORY,
                                             (0, config.factory_lifetime))
        initial_store = pki.TrustStore()
        for name in sorted(pre_enroll):
            initial_store.add_root(hierarchy.root_cert(name),
                                   persist=name in pre_transfer)
        state = device.DeviceState(device_id=device_id, firmware=base_version)

        def tracer(kind, _actor=actor_id, **fields):
            sim.trace.add(kind, sim.now, actor=_actor, **fields)

        device.provision_factory(state, factory_key, factory_cert,
                                 initial_store, hierarchy.ca1.enroll_uri,
                                 update_uri=Uri(SP1_URI),
                                 sp1_signer_key=sp1_state.signing_key.public_key,
                                 firmware=base_version, trace=tracer)
        if index in config.faults.ra_tamper_devices:
            state.firmware = VersionInfo(
                base_version.manifest_sequence,
                Uri(str(firmware_uri) + "?tampered"))
        devices[actor_id] = state
        sp1_state.managed_devices[device_id] = operators.ManagedDevice(
            factory_cert=factory_cert, version=transfer_version,
            window=config.reset_window)
        ra_state.expected[device_id] = crypto.digest(encode(transfer_version))

    # Pre-deployment step over the unconstrained Internet: SP1 shares the
    # factory certificates with its operational CA.
    pki.register_factory_certs(
        hierarchy.ca1,
        [m.factory_cert for m in sp1_state.managed_devices.values()], 0)

    revocation_view = hierarchy.revocation_view()

    # Server certificates for both operators and the RA verifier.
    def server_credential(name: bytes, ca: pki.CaState) -> pki.Credential:
        key = crypto.generate_key_pair(key_rng.randbytes(32))
        csr = pki.make_csr(name, key, CertProfile.OPERATIONAL)
        cert = pki.issue_certificate(ca, csr, CertProfile.SERVER,
                                     (0, config.factory_lifetime))
        return pki.Credential(cert, ca.issuer_chain, key)

    sp1_cred = server_credential(b"sp1", hierarchy.ca1)
    sp2_cred = server_credential(b"sp2", hierarchy.ca2)
    ra_cred = server_credential(b"ra", hierarchy.ca2)

    # Network actors.
    operators.CaActor(sim, "ca1", hierarchy.ca1,
                      operational_lifetime=config.operational_lifetime)
    operators.CaActor(sim, "ca2", hierarchy.ca2,
                      operational_lifetime=config.operational_lifetime)
    sp1_ra_state = None
    if opts.sp1_fallback_ra:
        sp1_ra_state = operators.RaVerifierState(expected=dict(ra_state.expected))
    sp1_actor = operators.OperatorActor(sim, "sp1", sp1_state, sp1_cred,
                                        server_store,
                                        revocation_view=revocation_view,
                                        fallback_ra_state=sp1_ra_state)
    sp2_actor = operators.OperatorActor(sim, "sp2", sp2_state, sp2_cred,
                                        server_store,
                                        revocation_view=revocation_view)
    if opts.use_ra:
        operators.RaVerifierActor(sim, "ra", ra_state, ra_cred, server_store,
                                  revocation_view=revocation_view)

    sim.bind_uri(str(hierarchy.ca1.enroll_uri), "ca1")
    sim.bind_uri(str(hierarchy.ca2.enroll_uri), "ca2")
    sim.bind_uri(SP1_URI, "sp1")
    sim.bind_uri(SP2_URI, "sp2")
    sim.bind_uri(RA_URI, "ra")

    # Device processes, start staggered.
    for index in range(config.device_count):
        actor_id = device_actor_id(index)

        def device_proc(actor_id=actor_id, index=index):
            yield Sleep(1 + index % 7)
            net = peers.NetHandle(sim, actor_id)
            yield from device.lifecycle(devices[actor_id], net,
                                        opts.server_keygen)

        sim.spawn(actor_id, device_proc())

    # Operator orchestration processes.
    push_roots = []
    if opts.push_ca2_root:
        for name in sorted(pre_transfer - pre_enroll):
            push_roots.append(hierarchy.root_cert(name))

    transfer_options = operators.TransferOptions(
        ra_uri=Uri(RA_URI) if opts.use_ra else None,
        contact_before_enroll=opts.contact_update_before_enroll)

    sp1_cfg = operators.Sp1PlanConfig(
        device_ids=[device_actor_id(i).encode()
                    for i in range(config.device_count)],
        sp2_actor="sp2", ca1_actor="ca1", start_time=config.transfer_start,
        last_update=opts.last_sp1_update, push_roots=tuple(push_roots),
        narrow_windows=opts.narrow_windows)

    def sp1_proc():
        net = peers.NetHandle(sim, "sp1-orchestrator",
                              revocation_view=revocation_view)
        if opts.last_sp1_update:
            sp1_state.current_version = transfer_version
        yield from operators.sp1_transfer_process(net, sp1_actor, sp1_cred,
                                                  server_store, sp1_cfg)

    sp2_cfg = operators.Sp2PlanConfig(
        ca2_actor="ca2", sp1_actor="sp1", options=transfer_options,
        skip_registration=config.faults.skip_ca2_registration,
        fallback_enroll_uri=hierarchy.ca2.enroll_uri)

    def sp2_proc():
        net = peers.NetHandle(sim, "sp2-orchestrator",
                              revocation_view=revocation_view)
        yield from operators.sp2_transfer_process(net, sp2_actor, sp2_cred,
                                                  server_store, sp2_cfg)

    sim.spawn("sp1-orchestrator", sp1_proc())
    sim.spawn("sp2-orchestrator", sp2_proc())

    sim.set_adversary(build_adversary(config.adversary, config.seed))
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

    checks = [
        _check_forward_secrecy(trace, devices),
        _check_backward_secrecy(trace, devices, pre_transfer, push_roots),
        _check_lifecycle_prefixes(trace, devices),
    ]

    expectation_ok = all(
        o.phase == config.expect_overrides.get(o.actor_id, config.expect_default)
        for o in outcomes)

    return ScenarioResult(config=config, trace=trace, devices=outcomes,
                          checks=checks, expectation_ok=expectation_ok,
                          device_states=devices, hierarchy=hierarchy,
                          sp1_state=sp1_state, sp2_state=sp2_state)


# ---------------------------------------------------------------------------
# run-level checks (FR3 / FR4 / lifecycle)
# ---------------------------------------------------------------------------

SP1_SIDE_ACTORS = {"sp1", "ca1", "sp1-orchestrator"}


def _check_forward_secrecy(trace: simnet.Trace, devices) -> CheckResult:
    """Session-key fingerprints SP1 ever observed are disjoint from the
    fingerprints of sessions the device establishes after re-enrollment."""
    sp1_fps = {e["fp"] for e in trace.select("session")
               if e["a"] in SP1_SIDE_ACTORS or e["b"] in SP1_SIDE_ACTORS}
    for actor_id in devices:
        reenrolled_at = None
        for entry in trace.select("phase", actor=actor_id, to="reenrolled"):
            reenrolled_at = entry["t"]
        if reenrolled_at is None:
            continue
        after = {e["fp"] for e in trace.select("session", a=actor_id)
                 if e["t"] >= reenrolled_at}
        overlap = after & sp1_fps
        if overlap:
            return CheckResult("fr3_forward_secrecy", False,
                               f"{actor_id} shares {len(overlap)} fingerprints")
    return CheckResult("fr3_forward_secrecy", True)


def _check_backward_secrecy(trace: simnet.Trace, devices, pre_transfer,
                            push_roots) -> CheckResult:
    """Post-reset state carries only agreed values: no operational material,
    no SP1 signer key, truststore within the agreed root set."""
    agreed = {n.decode() for n in pre_transfer}
    agreed |= {c.subject_name.decode() for c in push_roots}
    for actor_id in devices:
        for snap in trace.select("reset_snapshot", actor=actor_id):
            if snap["op_cert"] != "none" or snap["sp1_key"] != "none":
                return CheckResult("fr4_backward_secrecy", False,
                                   f"{actor_id} kept SP1 material across reset")
            roots = set(snap["roots"].split(",")) if snap["roots"] else set()
            if not roots <= agreed:
                return CheckResult(
                    "fr4_backward_secrecy", False,
                    f"{actor_id} kept roots {sorted(roots - agreed)}")
    return CheckResult("fr4_backward_secrecy", True)


_LIFECYCLE_ORDER = ["blank", "provisioned", "enrolled", "transferPending",
                    "resetDone", "attested", "updated", "reenrolled"]


def _check_lifecycle_prefixes(trace: simnet.Trace, devices) -> CheckResult:
    """Phase sequences follow the lifecycle graph: monotone progress along
    the main path, optional attested/updated, fallback only after reset."""
    for actor_id in devices:
        seq = [(e["frm"], e["to"]) for e in trace.select("phase", actor=actor_id)]
        position = 0
        for frm, to in seq:
            if frm not in _LIFECYCLE_ORDER and frm != "fallback":
                return CheckResult("lifecycle_prefix", False,
                                   f"{actor_id}: unknown phase {frm}")
            if to == "fallback":
                if _LIFECYCLE_ORDER.index(frm) < _LIFECYCLE_ORDER.index("resetDone"):
                    return CheckResult("lifecycle_prefix", False,
                                       f"{actor_id}: fallback from {frm}")
                continue
            if to == "enrolled" and frm == "enrolled":
                continue
            new_position = _LIFECYCLE_ORDER.index(to)
            if new_position <= position and not (to == "enrolled" and frm == "enrolled"):
                if not (position == 0 and new_position == 0):
                    return CheckResult("lifecycle_prefix", False,
                                       f"{actor_id}: {frm} -> {to} regressed")
            position = new_position
    return CheckResult("lifecycle_prefix", True)
