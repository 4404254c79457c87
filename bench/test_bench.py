"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest -q -p no:cacheprovider bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402
from trustshift import pki, simnet  # noqa: E402

SMOKE_DEVICES = {"fleet": 6, "hostile": 4, "configs": None}
WORKLOADS = harness.workloads(ROOT)


def _bindings():
    """Every attribute of every trustshift module and wrapped class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "trustshift" or name.startswith("trustshift."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (simnet.Simulator, simnet.Trace, pki.TrustStore,
                pki.HierarchyConfig):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_restore_originals():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.RunProbe(), layers.Recorder()):
            during = _bindings()
            assert during[("trustshift.messages", "encode")] \
                is not before[("trustshift.messages", "encode")]
            assert during[("trustshift.scenario", "encode")] \
                is during[("trustshift.messages", "encode")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name):
    workload = WORKLOADS[name]
    devices = SMOKE_DEVICES[name]
    timed = harness.end_to_end(workload, seed=3, seconds=0, rounds=2,
                               devices=devices)
    assert not timed.failures
    assert set(timed.metrics) == {n for n, *_ in END_TO_END}
    assert all(v > 0 for v in timed.metrics.values())

    first = harness.traced(workload, seed=3, rounds=1, devices=devices)
    second = harness.traced(workload, seed=3, rounds=1, devices=devices)
    assert not first.failures and not second.failures
    assert set(first.metrics) == {n for n, *_ in PER_LAYER}
    assert {k: first.metrics[k] for k in DETERMINISTIC} \
        == {k: second.metrics[k] for k in DETERMINISTIC}
    assert first.combined_digest == timed.combined_digest
    assert first.metrics["peers.handshake.other"] == 0
    if name == "fleet":
        assert first.metrics["simnet.adversary_apply.calls"] == 0
    else:
        assert first.metrics["simnet.adversary_apply.calls"] > 0


def _cli(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_result_line():
    proc = _cli(ROOT, "--workload", "configs", "--seed", "5", "--seconds",
                "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {n: u for n, u, *_ in END_TO_END}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "fleet", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
