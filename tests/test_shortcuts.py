"""The per-run shortcuts change no outcome.

A run answers a decode of bytes it encoded from the record of encodings
(`codec.recall`), and a check of a signature it made, or checked before,
from the signing record and the verify memo (`crypto.verify_raw`). Here
each shipped and attack config runs once as is and once with both turned
off in the test: every decode parses, and every signature check runs
Ed25519 (`crypto._check`). The trace digest, each device's phase and the
run's verdict stay the same.
"""

from pathlib import Path

import pytest

from trustshift import codec, crypto
from trustshift.scenario import ScenarioConfig, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def outcome(path: Path):
    result = run_scenario(ScenarioConfig.from_file(path))
    return (result.trace.digest(),
            [(device.actor_id, device.phase) for device in result.devices],
            result.ok)


@pytest.mark.parametrize("name", sorted(
    str(path.relative_to(CONFIGS)) for path in CONFIGS.rglob("*.json")))
def test_shortcuts_change_no_outcome(name, monkeypatch):
    with_shortcuts = outcome(CONFIGS / name)
    checks, check = [], crypto._check
    monkeypatch.setattr(codec, "recall", lambda data, cls, keep=False: None)
    monkeypatch.setattr(crypto, "verify_raw",
                        lambda *triple: checks.append(triple) or check(*triple))
    assert outcome(CONFIGS / name) == with_shortcuts
    assert checks
