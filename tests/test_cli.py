"""CLI and scenario-config tests: parsing, exit codes, reports, size table."""

import json
from pathlib import Path

import pytest

from trustshift import cli, scenario
from trustshift.errors import (
    ConfigParseError,
    InvariantViolation,
    ScenarioInvalid,
)
from trustshift.scenario import ScenarioConfig, run_scenario

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **overrides):
    raw = {
        "schema": 1,
        "name": "test",
        "hierarchy_variant": "b",
        "device_count": 2,
        "seed": 3,
        "adversary": "none",
        "expectation": {"default": "reenrolled"},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_config_from_file_roundtrip(tmp_path):
    path = write_config(tmp_path, device_count=4, hierarchy_variant="c")
    config = ScenarioConfig.from_file(path)
    assert config.device_count == 4
    assert config.variant == "c"


def test_config_rejects_bad_schema(tmp_path):
    path = write_config(tmp_path, schema=2)
    with pytest.raises(ConfigParseError):
        ScenarioConfig.from_file(path)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigParseError):
        ScenarioConfig.from_file(str(path))


def test_config_rejects_bad_variant(tmp_path):
    path = write_config(tmp_path, hierarchy_variant="z")
    with pytest.raises(ScenarioInvalid):
        ScenarioConfig.from_file(path)


def test_config_rejects_zero_devices(tmp_path):
    path = write_config(tmp_path, device_count=0)
    with pytest.raises(ScenarioInvalid):
        ScenarioConfig.from_file(path)


def test_run_exit_zero_and_report(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "expectation ok (2/2)" in out
    assert "trace_digest=" in out
    assert out.count("phase=reenrolled") == 2


def test_run_exit_one_on_expectation_mismatch(tmp_path, capsys):
    path = write_config(tmp_path,
                        expectation={"default": "fallback"})
    assert cli.main(["run", path]) == cli.EXIT_EXPECTATION
    assert "expectation FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("overrides", [
    None,  # no config file at all
    {"hierarchy_varient": "a"},
    {"device_count": 3.9},
    {"device_count": "3"},
    {"seed": True},
    {"expectation": {"default": "reenrolled",
                     "overrides": {"device-007": "fallback"}}},
    {"expectation": {"default": "reenrolled", "overide": {}}},
    {"faults": {"ra_tamper_devices": [9]}},
    {"options": {"narrow_windows": False}},
    {"windows": {"reset": [0, 1000000]}},
    {"transfer_start": 40},
    {"event_budget": 500000},
    {"adversary": [{"action": "drop", "bogus": 1}]},
    {"adversary": [{"action": "explode", "match_label": "nothing"}]},
    {"adversary": [{"action": "inject", "inject_payload_hex": "zz"}]},
    {"adversary": ["drop"]},
    {"adversary": [{"action": "replay", "delay": "x"}]},
    {"adversary": [{"action": "drop", "match_src": 5}]},
    {"adversary": [{"action": "replay", "delay": -5}]},
    {"adversary": [{"action": "drop", "every_k": 0}]},
    {"adversary": [{"action": "drop", "first_n": -1}]},
    {"adversary": [{"action": "modify", "xor_mask": 256}]},
    {"adversary": [{"action": "inject", "frame_in_matched_session": True,
                    "seq_offset": -1000}]},
    {"adversary": [{"action": "inject", "frame_in_matched_session": True,
                    "seq_offset": 2**64 - 1}]},
    {"options": {"use_ra": "false"}},
    {"faults": {"ra_tamper_devices": "no"}},
    {"expectation": {"default": "reenroled"}},
    {"expectation": {"default": "reenrolled",
                     "overrides": {"device-001": "gone"}}},
    {"seed": -1},
    {"seed": 2**64},
], ids=["missing_file", "misspelt_key", "fractional_count", "string_count",
        "bool_seed", "override_names_no_device", "unknown_expectation_key",
        "tamper_names_no_device", "removed_option", "windows_key",
        "transfer_start_key", "event_budget_key", "adversary_unknown_field",
        "adversary_unknown_action", "adversary_bad_hex", "adversary_not_object",
        "adversary_string_delay", "adversary_int_pattern",
        "adversary_negative_delay", "adversary_every_k_zero",
        "adversary_negative_first_n", "adversary_xor_mask_over_byte",
        "adversary_negative_seq_offset", "adversary_seq_offset_over_counter",
        "string_option", "string_fault", "unknown_default_phase",
        "unknown_override_phase", "negative_seed", "seed_over_64_bits"])
def test_run_exit_two_on_config_error(tmp_path, capsys, overrides):
    path = (tmp_path / "missing.json" if overrides is None
            else write_config(tmp_path, **overrides))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_writes_trace_file(tmp_path, capsys):
    path = write_config(tmp_path, device_count=1)
    trace_path = tmp_path / "out.trace"
    assert cli.main(["run", path, "--trace", str(trace_path)]) == cli.EXIT_OK
    text = trace_path.read_text()
    assert "ev=phase" in text and "ev=deliver" in text


def test_run_dump_devices_reports_each_device(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", path, "--dump-devices"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "device device-000\n  phase: reenrolled" in out
    assert "device device-001\n  phase: reenrolled" in out
    assert out.count("\n  operational_cert: serial=") == 2
    assert out.count("\n  endpoints: ca=coaps://ca2.example/est ") == 2


def test_run_seed_override_changes_digest(tmp_path, capsys):
    path = write_config(tmp_path, device_count=1)
    cli.main(["run", path, "--seed", "5"])
    first = capsys.readouterr().out
    cli.main(["run", path, "--seed", "6"])
    second = capsys.readouterr().out

    def digest(report):
        for line in report.splitlines():
            if line.startswith("trace_digest="):
                return line
        return None
    assert digest(first) != digest(second)


@pytest.mark.parametrize("command", ["run", "attack-suite", "sizes"])
def test_out_of_range_seed_override_is_config_error(tmp_path, capsys,
                                                    command):
    target = (str(REPO / "configs" / "attacks") if command == "attack-suite"
              else write_config(tmp_path))
    assert cli.main([command, target, "--seed", "-1"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_report_determinism(tmp_path):
    path = write_config(tmp_path)
    config = ScenarioConfig.from_file(path)
    assert run_scenario(config).report() == run_scenario(config).report()


def test_sizes_table_and_bounds(tmp_path, capsys):
    path = write_config(tmp_path, device_count=2)
    assert cli.main(["sizes", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "TransferMessage payload" in out
    assert "UpdateInfoList(2)" in out
    assert "SIZE CHECK FAIL" not in out


def test_sizes_checks_the_relayed_payload(tmp_path, capsys, monkeypatch):
    """The payload row checked is the one SP1 relays, whose fallback URI
    is SP1's, not SP2's unrelayed one: the check holds when the two
    operators' URIs differ in length."""
    monkeypatch.setattr(scenario, "SP2_URI",
                        "coaps://update.sp2-longer-name.example")
    assert cli.main(["sizes", write_config(tmp_path)]) == cli.EXIT_OK
    assert "SIZE CHECK FAIL" not in capsys.readouterr().out


def test_sizes_reports_each_mismatch_with_the_static_sizes(
        tmp_path, capsys, monkeypatch):
    """A trace size that differs from the static re-encoding is a failed
    size check, one line per message, and exit 1."""
    monkeypatch.setattr(cli, "_static_transfer_sizes", lambda config: (1, 2))
    assert cli.main(["sizes", write_config(tmp_path)]) == cli.EXIT_EXPECTATION
    fails = [line for line in capsys.readouterr().out.splitlines()
             if "SIZE CHECK FAIL" in line]
    assert len(fails) == 2
    assert fails[0].endswith("!= static 1") and "trace payload size" in fails[0]
    assert fails[1].endswith("!= static 2") and "trace envelope size" in fails[1]


def test_sizes_without_a_transfer_fails_every_check(tmp_path, capsys):
    """With SP2 unreachable no transfer message is built: its rows read
    n/a, and each of the four size checks fails."""
    path = write_config(tmp_path, adversary=[
        {"action": "drop", "match_dst": "sp2"}])
    assert cli.main(["sizes", path]) == cli.EXIT_EXPECTATION
    out = capsys.readouterr().out
    assert "  relayed TransferMessage CWT" in out and " n/a" in out
    assert [line.split(": ", 1)[1] for line in out.splitlines()
            if "SIZE CHECK FAIL" in line][2:] \
        == ["unsigned payload exceeds 200 bytes", "signed CWT exceeds 512 bytes"]


def test_attack_suite_on_shipped_configs(capsys):
    suite_dir = REPO / "configs" / "attacks"
    assert cli.main(["attack-suite", str(suite_dir)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "attack suite:" in out
    assert "FAIL" not in out.replace("SIZE CHECK FAIL", "")


def test_attack_suite_missing_dir(tmp_path):
    assert cli.main(["attack-suite", str(tmp_path / "nope")]) == cli.EXIT_CONFIG


def test_attack_suite_empty_dir(tmp_path, capsys):
    assert cli.main(["attack-suite", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "no *.json configs" in capsys.readouterr().err


def test_attack_suite_counts_failures(tmp_path, capsys):
    """A config whose expectation cannot hold (a benign run expected to
    fall back) fails the suite with exit 1 and is counted."""
    write_config(tmp_path, device_count=1,
                 expectation={"default": "fallback"})
    assert cli.main(["attack-suite", str(tmp_path)]) == cli.EXIT_EXPECTATION
    out = capsys.readouterr().out
    assert "FAIL config.json: 0/1 devices as expected" in out
    assert "attack suite: 0/1 passed" in out


def test_main_reports_a_protocol_error(tmp_path, capsys, monkeypatch):
    """A protocol error that escapes a command is printed and exits 2."""
    def broken(config):
        raise InvariantViolation("broken run")

    monkeypatch.setattr(scenario, "run_scenario", broken)
    assert cli.main(["run", write_config(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: broken run\n"


def test_shipped_baseline_configs(capsys):
    for name in ("baseline_d.json", "full_options_a.json", "ra_tamper.json",
                 "no_ca2_root_a.json"):
        assert cli.main(["run", str(REPO / "configs" / name)]) == cli.EXIT_OK, name
        capsys.readouterr()


def test_inline_adversary_rules(tmp_path, capsys):
    path = write_config(
        tmp_path, device_count=1,
        adversary=[{"action": "replay", "match_src": "sp1",
                    "match_dst": "device-*", "delay": 4}])
    assert cli.main(["run", path]) == cli.EXIT_OK
