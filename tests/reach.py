#!/usr/bin/env python3
"""Reach report: which lines of `src/trustshift` tier-1 runs, and which a
sweep of scenario runs reaches, collected with the standard library's
`sys.settrace` alone.

Run from the root of a checkout:

    python3 tests/reach.py

Each collection runs in a fresh interpreter, so that module-level lines
count too:
  tier1  the tier-1 suite, `pytest -q --continue-on-collection-errors`
  sweep  variants a-d x all 64 option sets x no adversary and each named
         schedule, seed 1, 3 devices; then `trustshift run` (with
         `--trace` and `--dump-devices`), `sizes` and `attack-suite` on
         every shipped config

A line start is a line number that a code object of the module maps an
instruction to. Per module the report counts its line starts, the ones
tier-1 runs and the ones of those the sweep reaches, and lists the lines
tier-1 never runs and the lines only tier-1 runs; then the totals. Each
collection takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustshift"


def line_starts(path: Path) -> set[int]:
    """Every line number a code object compiled from `path` maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(run) -> dict[str, list[int]]:
    """The lines of each package module that `run()` executes."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def tracer(frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    def local(frame, _event, _arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return {Path(name).name: sorted(lines) for name, lines in reached.items()}


def run_tier1() -> None:
    import pytest
    pytest.main(["-q", "--continue-on-collection-errors", "-p",
                 "no:cacheprovider"])


def run_sweep() -> None:
    from trustshift import cli
    from trustshift.scenario import SCHEDULES, ScenarioConfig, \
        ScenarioOptions, run_scenario
    from trustshift.errors import Error

    names = list(ScenarioOptions.__dataclass_fields__)
    for variant, flags, adversary in itertools.product(
            "abcd", itertools.product((False, True), repeat=len(names)),
            ["none", *sorted(SCHEDULES)]):
        config = ScenarioConfig(name="reach", variant=variant, device_count=3,
                                seed=1, adversary=adversary,
                                options=ScenarioOptions(**dict(zip(names, flags))))
        try:
            run_scenario(config)
        except Error:
            pass
    shipped = sorted((ROOT / "configs").rglob("*.json"))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            tempfile.TemporaryDirectory() as tmp:
        for path in shipped:
            cli.main(["run", str(path), "--dump-devices",
                      "--trace", str(Path(tmp) / "trace.txt")])
            cli.main(["sizes", str(path)])
        for directory in sorted({path.parent for path in shipped}):
            cli.main(["attack-suite", str(directory)])


def spans(lines: set[int]) -> str:
    """`lines` as ascending runs of consecutive numbers: "3, 7-9"."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs) or "-"


def gather(stage: str) -> dict[str, list[int]]:
    """Collect `stage` in a fresh interpreter."""
    with tempfile.NamedTemporaryFile("r", suffix=".json") as out:
        subprocess.run([sys.executable, __file__, stage, out.name],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.load(out)


def main(argv: list[str]) -> int:
    if argv:  # a collection: stage, output file
        stage, out = argv
        sys.path.insert(0, str(ROOT / "src"))
        lines = collect({"tier1": run_tier1, "sweep": run_sweep}[stage])
        Path(out).write_text(json.dumps(lines))
        return 0
    tier1, sweep = gather("tier1"), gather("sweep")
    totals = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        starts = line_starts(path)
        ran = starts & set(tier1.get(path.name, ()))
        only = ran - set(sweep.get(path.name, ()))
        unrun = starts - ran
        for i, n in enumerate((len(starts), len(unrun), len(only))):
            totals[i] += n
        print(f"{path.name}: {len(starts)} line starts, tier-1 runs "
              f"{len(ran)}, the sweep reaches {len(ran) - len(only)}")
        print(f"  never run by tier-1: {spans(unrun)}")
        print(f"  run by tier-1 only: {spans(only)}")
    print("total: {} line starts, {} never run by tier-1, {} run by tier-1 "
          "but by no scenario run".format(*totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
