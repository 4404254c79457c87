"""Workloads and the two kinds of run: timed end-to-end and traced per-layer.

A workload is a function from (seed, round) to a list of scenario configs;
every input comes from the benchmark seed. Each round of a run uses fresh
derived seeds, so no key, certificate or signature repeats between rounds
and a process-wide cache cannot carry work from one round to the next.

Scenarios run one after another in this process, on one thread: a closed
loop with a single client, which starts the next scenario when the last one
has returned its checked result.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from trustshift import scenario
from trustshift.scenario import ScenarioConfig, ScenarioOptions

from layers import Recorder, RunProbe, installed
from reference import NOMINAL_MS, reference_ms

clock = time.perf_counter

FLEET_DEVICES = 200
HOSTILE_DEVICES = 50
MIN_ROUNDS = 3  # timed rounds even when --seconds runs out first
CONFIG_GLOBS = ("configs/*.json", "configs/attacks/*.json")


def derive_seed(seed: int, workload: str, round_index: int, slot: int) -> int:
    material = f"{workload}/{seed}/{round_index}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


def fleet(seed: int, round_index: int, devices: int | None = None):
    """One variant-b transfer of a few hundred devices, no adversary.

    200 rather than 300 devices: a 30 s run then holds about ten rounds,
    short enough for the reference-loop scaling to follow the host's speed,
    and the quadratic run-level checks are still the largest traced share.
    """
    return [ScenarioConfig(
        name="fleet", variant="b", device_count=devices or FLEET_DEVICES,
        seed=derive_seed(seed, "fleet", round_index, 0))]


def hostile(seed: int, round_index: int, devices: int | None = None):
    """Variant a with every option on, every delivery replayed."""
    options = ScenarioOptions(use_ra=True, contact_update_before_enroll=True,
                              server_keygen=True, last_sp1_update=True,
                              sp1_fallback_ra=True)
    return [ScenarioConfig(
        name="hostile", variant="a", device_count=devices or HOSTILE_DEVICES,
        seed=derive_seed(seed, "hostile", round_index, 0),
        adversary="replay_all", options=options)]


def shipped_configs(root: Path) -> list[ScenarioConfig]:
    paths = sorted(p for pattern in CONFIG_GLOBS for p in root.glob(pattern))
    if not paths:
        raise FileNotFoundError(f"no scenario configs under {root}/configs")
    return [ScenarioConfig.from_file(p) for p in paths]


def configs_workload(root: Path):
    shipped = shipped_configs(root)

    def configs(seed: int, round_index: int, devices: int | None = None):
        """Every shipped config, each with a seed derived from the bench seed."""
        return [dataclasses.replace(
                    cfg, seed=derive_seed(seed, "configs", round_index, slot))
                for slot, cfg in enumerate(shipped)]
    return configs


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, round_index, devices=None) -> list[ScenarioConfig]
    trace_rounds: int  # fixed, so that traced counts repeat exactly


def workloads(root: Path) -> dict[str, Workload]:
    return {
        "fleet": Workload("fleet", fleet, trace_rounds=2),
        "configs": Workload("configs", configs_workload(root), trace_rounds=10),
        "hostile": Workload("hostile", hostile, trace_rounds=6),
    }


@dataclass
class Report:
    attempted: int = 0
    failures: dict = dataclasses.field(default_factory=dict)  # scenario: why
    digests: list = dataclasses.field(default_factory=list)  # of round 0
    rounds: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    raw: dict = dataclasses.field(default_factory=dict)  # unscaled, printed

    def fail(self, config: ScenarioConfig, why: str) -> None:
        self.failures.setdefault(f"{config.name} seed={config.seed}", why)

    @property
    def combined_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def _run(config: ScenarioConfig, report: Report):
    """One run_scenario call; (result or None, wall seconds, start time).

    A scenario that raises counts as failed; the run goes on.
    """
    report.attempted += 1
    start = clock()
    try:
        result = scenario.run_scenario(config)
    except Exception as exc:  # the benchmark must report, not abort
        wall = clock() - start
        traceback.print_exc(file=sys.stderr)
        report.fail(config, f"{type(exc).__name__}: {exc}")
        return None, wall, start
    wall = clock() - start
    if not result.ok:
        report.fail(config, "not ok")
    return result, wall, start


def end_to_end(workload: Workload, seed: int, seconds: float,
               rounds: int | None = None, devices: int | None = None) -> Report:
    """Timed rounds until `seconds` is spent (or exactly `rounds` rounds).

    Times are scaled to the reference loop's nominal speed, round by round
    (see reference.py); `report.raw` keeps the unscaled medians.
    Round 0 is run a second time afterwards; a trace digest that does not
    reproduce counts as a failure.
    """
    report = Report()
    probe = RunProbe()
    per_device_ms, setup_s, scenario_ms, round_s, refs = [], [], [], [], []
    raw_device_ms = []
    with installed(probe):
        start = clock()
        ref_before = reference_ms()
        while True:
            gc.collect()
            configs = workload.build(seed, report.rounds, devices)
            wall_sum = setup_sum = 0.0
            walls = []
            for config in configs:
                result, wall, began = _run(config, report)
                wall_sum += wall
                walls.append(wall)
                if result is not None:
                    setup_sum += probe.entered - began
                    if report.rounds == 0:
                        report.digests.append(result.trace.digest())
                elif report.rounds == 0:
                    report.digests.append("failed")
                del result
            ref_after = reference_ms()
            refs.append((ref_before + ref_after) / 2)
            scale = NOMINAL_MS / refs[-1]
            ref_before = ref_after
            raw_device_ms.append(
                wall_sum * 1000 / sum(c.device_count for c in configs))
            per_device_ms.append(raw_device_ms[-1] * scale)
            scenario_ms.extend(wall * 1000 * scale for wall in walls)
            setup_s.append(setup_sum * scale)
            round_s.append(wall_sum)
            report.rounds += 1
            if rounds is not None:
                if report.rounds >= rounds:
                    break
            elif report.rounds >= MIN_ROUNDS and (
                    clock() - start + statistics.median(round_s) > seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        gc.collect()
        for config, digest in zip(workload.build(seed, 0, devices),
                                  report.digests):
            again, _, _ = _run(config, Report())
            if again is None or again.trace.digest() != digest:
                report.fail(config, "trace digest does not reproduce")

    report.metrics = {
        "device_ms": statistics.median(per_device_ms),
        "scenario_p50_ms": statistics.median(scenario_ms),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    report.raw = {"device_ms": statistics.median(raw_device_ms),
                  "reference_ms": statistics.median(refs)}
    return report


_HANDSHAKE_OUTCOMES = ("replayed_hello_discarded", "stale_accept_discarded",
                       "stale_reject_discarded", "bad_accept_cert")
_RECORD_OUTCOMES = ("accept", "replay_detected", "wrong_session")


def _count_trace(trace, counts: Counter) -> None:
    """Handshake and record outcomes, read from a finished trace."""
    for entry in trace.entries:
        kind = entry["ev"]
        if kind == "handshake":
            outcome = entry.get("outcome")
            key = outcome if outcome in _HANDSHAKE_OUTCOMES else "other"
            counts["peers.handshake." + key] += 1
        elif kind == "record":
            outcome = entry.get("outcome")
            if outcome in _RECORD_OUTCOMES:
                counts["peers.record." + outcome] += 1
        elif kind == "deliver":
            disp = entry.get("disp", "")
            if disp == "hello_accepted":
                counts["peers.handshake.accepted"] += 1
            elif disp.startswith("hello_rejected"):
                counts["peers.handshake.rejected"] += 1


def traced(workload: Workload, seed: int, rounds: int | None = None,
           devices: int | None = None) -> Report:
    """The first `trace_rounds` rounds with every layer wrapper installed.

    The same rounds then run untraced, for the tracing overhead and to check
    that tracing leaves every trace digest unchanged. The traced pass runs
    first so that its counts never see state an earlier pass left behind.
    """
    report = Report()
    probe = RunProbe()
    rec = Recorder()
    counts: Counter = Counter()
    times: Counter = Counter(dict.fromkeys(
        ("scenario.total_s", "scenario.setup_s", "scenario.checks_s",
         "simnet.run.s"), 0.0))
    traced_digests = {}  # (round, slot) -> digest
    n_rounds = rounds or workload.trace_rounds
    refs = [reference_ms()]
    with installed(probe, rec):
        for round_index in range(n_rounds):
            gc.collect()
            for slot, config in enumerate(
                    workload.build(seed, round_index, devices)):
                result, wall, began = _run(config, report)
                if result is None:
                    continue
                times["scenario.total_s"] += wall
                times["scenario.setup_s"] += probe.entered - began
                times["scenario.checks_s"] += began + wall - probe.exited
                times["simnet.run.s"] += probe.exited - probe.entered
                counts["simnet.events"] += probe.events
                counts["simnet.trace.entries"] += len(result.trace.entries)
                _count_trace(result.trace, counts)
                for outcome in result.devices:
                    counts["device." + outcome.phase] += 1
                traced_digests[round_index, slot] = result.trace.digest()
            report.rounds += 1
    refs.append(reference_ms())

    untraced_s = 0.0
    with installed(probe):
        for round_index in range(n_rounds):
            gc.collect()
            for slot, config in enumerate(
                    workload.build(seed, round_index, devices)):
                result, wall, _ = _run(config, Report())
                untraced_s += wall
                digest = "failed" if result is None else result.trace.digest()
                if round_index == 0:
                    report.digests.append(digest)
                if traced_digests.get((round_index, slot)) != digest:
                    report.fail(config, "traced and untraced digests differ")

    calls, secs, self_secs, tally = rec.calls, rec.seconds, rec.self_seconds, rec.tally
    records = sum(counts["peers.record." + o] for o in _RECORD_OUTCOMES)
    m = dict(times)
    m.update({
        "simnet.trace.select.calls": calls["simnet.trace.select"],
        "simnet.trace.select.s": secs["simnet.trace.select"],
        "crypto.verify.calls": calls["crypto.verify"],
        "crypto.verify.s": secs["crypto.verify"],
        "crypto.verify.unique_ratio": (len(rec.verify_triples)
                                       / max(1, calls["crypto.verify"])),
        "crypto.sign.calls": calls["crypto.sign"],
        "crypto.sign.s": secs["crypto.sign"],
        "crypto.keygen.calls": calls["crypto.keygen"],
        "crypto.keygen.s": secs["crypto.keygen"],
        "pki.verify_chain.calls": calls["pki.verify_chain"],
        "pki.verify_chain.self_s": self_secs["pki.verify_chain"],
        "pki.verify_chain.fail": tally["pki.verify_chain.fail"],
        "pki.issue.calls": calls["pki.issue"],
        "pki.issue.s": secs["pki.issue"],
        "pki.add_root.calls": calls["pki.add_root"],
        "pki.revocation_view.calls": calls["pki.revocation_view"],
        "pki.revocation_view.s": secs["pki.revocation_view"],
        "messages.encode.calls": calls["messages.encode"],
        "messages.encode.s": secs["messages.encode"],
        "messages.decode.calls": calls["messages.decode"],
        "messages.decode.s": secs["messages.decode"],
        "codec.encode.bytes": tally["codec.encode.bytes"],
        "codec.decode.bytes": tally["codec.decode.bytes"],
        "wire.encode.calls": calls["wire.encode"],
        "wire.encode.s": secs["wire.encode"],
        "wire.decode.calls": calls["wire.decode"],
        "wire.decode.s": secs["wire.decode"],
        "wire.decode.malformed": tally["wire.decode.malformed"],
        "session.send.calls": calls["session.send"],
        "session.receive.calls": calls["session.receive"],
        "session.receive.replay": tally["session.receive.replay"],
        "peers.handle.calls": calls["peers.handle"],
        "peers.handle.self_s": self_secs["peers.handle"],
        "peers.record.accept_ratio": (counts["peers.record.accept"]
                                      / max(1, records)),
        "simnet.events_per_s": (counts["simnet.events"]
                                / max(times["simnet.run.s"], 1e-9)),
        "simnet.adversary_apply.calls": calls["simnet.adversary_apply"],
        "simnet.adversary_apply.s": secs["simnet.adversary_apply"],
        "device.handle_transfer_message.calls":
            calls["device.handle_transfer_message"],
        "device.reset.calls": calls["device.reset"],
        "operators.relay.calls": calls["operators.relay"],
        "operators.relay.s": secs["operators.relay"],
        "operators.ra_verify.calls": calls["operators.ra_verify"],
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": times["scenario.total_s"] - untraced_s,
        "trace.reference_ms": statistics.mean(refs),
    })
    for key in ("peers.handshake.accepted", "peers.handshake.rejected",
                "peers.handshake.other", "simnet.events",
                "simnet.trace.entries", "device.reenrolled", "device.fallback",
                *("peers.handshake." + o for o in _HANDSHAKE_OUTCOMES),
                *("peers.record." + o for o in _RECORD_OUTCOMES)):
        m[key] = counts[key]
    report.metrics = m
    return report
