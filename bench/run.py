#!/usr/bin/env python3
"""trustshift benchmark: whole scenarios end to end, then layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Workloads:
  fleet    one variant-b transfer of 200 devices, no adversary
  configs  every configs/*.json and configs/attacks/*.json, seeds derived
  hostile  50 variant-a devices, every option on, every delivery replayed

With --trace 0 the run is timed: rounds of the workload run until
--seconds is spent (at least three rounds) and the end-to-end metrics are
printed. Their times are scaled, round by round, to the speed at which a
fixed reference loop takes its nominal time (reference.py), because the
speed a shared host gives one process drifts by more than any useful
bound; the unscaled figures are printed as well. With --trace 1 a fixed number of rounds runs with a wrapper around
every layer's public functions, and the per-layer metrics are printed;
their counts repeat exactly for a given seed.

Every scenario must end `ok`, and its trace digest must reproduce (on a
second run, and with and without tracing); each one that does not counts
as failed. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def machine_info(loadavg) -> dict:
    import cryptography
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trustshift" / "__init__.py").is_file():
        print(f"error: no trustshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from metrics import END_TO_END, PER_LAYER, UNITS
    from trustshift.errors import Error

    try:
        workloads = harness.workloads(ROOT)
    except (OSError, Error) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2

    print("machine", json.dumps(machine_info(loadavg)))
    if args.trace:
        report = harness.traced(workload, args.seed)
    else:
        report = harness.end_to_end(workload, args.seed, args.seconds)
    print(f"workload {workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={report.rounds} scenarios={report.attempted}")
    print(f"digest {workload.name} seed={args.seed} round=0 "
          f"combined={report.combined_digest}")
    failed = len(report.failures)
    print(f"fail_ratio {failed}/{report.attempted}")
    for scenario, why in report.failures.items():
        print("FAILED", scenario, why)
    for name, *_ in PER_LAYER if args.trace else END_TO_END:
        print(f"  {name:42s} {report.metrics[name]:.6g} {UNITS[name]}")
    for name, value in report.raw.items():
        print(f"  unscaled {name:33s} {value:.6g} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
