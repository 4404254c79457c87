"""Command-line scenario runner, size-table emitter and attack-suite driver.

Exit codes: 0 all expectations met, 1 expectation or check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import crypto, pki, scenario
from .errors import ConfigParseError, Error, ScenarioInvalid
from .messages import (
    EnvelopeProfile,
    TransferMessage,
    Uri,
    encode,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_CONFIG = 2


def _load_config(path: str, seed_override: int | None) -> scenario.ScenarioConfig:
    config = scenario.ScenarioConfig.from_file(path)
    if seed_override is not None:  # replace() runs the config checks again
        config = dataclasses.replace(config, seed=seed_override)
    return config


def cmd_run(args) -> int:
    try:
        config = _load_config(args.config, args.seed)
        result = scenario.run_scenario(config)
    except (ConfigParseError, ScenarioInvalid) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(result.report())
    if args.trace:
        Path(args.trace).write_text(result.trace.render())
        print(f"trace written to {args.trace}")
    if args.dump_devices:
        for actor_id in sorted(result.device_states):
            print(result.device_states[actor_id].report())
    return EXIT_OK if result.ok else EXIT_EXPECTATION


def _static_transfer_sizes(config: scenario.ScenarioConfig) -> tuple[int, int]:
    """Recompute the relayed transfer message sizes from config values alone."""
    message = TransferMessage(
        reset_time_not_before=scenario.RESET_WINDOW[0],
        reset_time_not_after=scenario.RESET_WINDOW[1],
        ra_uri=Uri(scenario.RA_URI) if config.options.use_ra else None,
        update_uri=Uri(scenario.SP2_URI),
        contact_before_enroll=config.options.contact_update_before_enroll,
        enroll_uri=pki.ENROLL_URIS[pki.CA2_NAME],
        fallback_uri=Uri(scenario.SP1_URI),
    )
    payload = encode(message)
    key = crypto.generate_key_pair(b"\x11" * 32)  # sizes are key-independent
    envelope = crypto.sign_envelope(key, EnvelopeProfile.CWT, payload)
    return len(payload), len(encode(envelope))


def cmd_sizes(args) -> int:
    try:
        config = _load_config(args.config, args.seed)
        result = scenario.run_scenario(config)
    except (ConfigParseError, ScenarioInvalid) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    # The last row per class wins: SP1 records its relayed payload after SP2.
    recorded = {size_class: size for _, _t, _actor, size_class, size
                in result.trace.index().get("size", ())}

    static_payload, static_envelope = _static_transfer_sizes(config)
    rows = [
        ("TransferMessage payload", recorded.get("transfer_message_payload")),
        ("TransferMessage signed CWT", recorded.get("transfer_message_envelope")),
        ("relayed TransferMessage CWT", recorded.get("relayed_transfer_envelope")),
        ("DeviceUpdateInfo", recorded.get("device_update_info")),
        (f"UpdateInfoList({config.device_count}) payload",
         recorded.get("update_info_list_payload")),
        (f"UpdateInfoList({config.device_count}) signed",
         recorded.get("update_info_list_envelope")),
    ]
    print(f"message sizes (bytes), variant={config.variant} "
          f"devices={config.device_count}")
    for name, value in rows:
        print(f"  {name:34s} {value if value is not None else 'n/a'}")

    problems = []
    if recorded.get("transfer_message_payload") != static_payload:
        problems.append(
            f"trace payload size {recorded.get('transfer_message_payload')} "
            f"!= static {static_payload}")
    if recorded.get("relayed_transfer_envelope") != static_envelope:
        problems.append(
            f"trace envelope size {recorded.get('relayed_transfer_envelope')} "
            f"!= static {static_envelope}")
    if recorded.get("transfer_message_payload", 10**9) > 200:
        problems.append("unsigned payload exceeds 200 bytes")
    if recorded.get("relayed_transfer_envelope", 10**9) > 512:
        problems.append("signed CWT exceeds 512 bytes")
    for problem in problems:
        print(f"  SIZE CHECK FAIL: {problem}")
    return EXIT_OK if not problems else EXIT_EXPECTATION


def cmd_attack_suite(args) -> int:
    directory = Path(args.config_dir)
    if not directory.is_dir():
        print(f"config error: {directory} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    configs = sorted(directory.glob("*.json"))
    if not configs:
        print(f"config error: no *.json configs in {directory}", file=sys.stderr)
        return EXIT_CONFIG
    failures = 0
    for path in configs:
        try:
            config = _load_config(str(path), args.seed)
            result = scenario.run_scenario(config)
        except (ConfigParseError, ScenarioInvalid) as err:
            print(f"config error in {path.name}: {err}", file=sys.stderr)
            return EXIT_CONFIG
        status = "PASS" if result.ok else "FAIL"
        if not result.ok:
            failures += 1
        print(f"{status} {path.name}: {result.matched}/{len(result.devices)} "
              f"devices as expected, digest={result.trace.digest()[:16]}")
    print(f"attack suite: {len(configs) - failures}/{len(configs)} passed")
    return EXIT_OK if failures == 0 else EXIT_EXPECTATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trustshift",
        description="IoT PKI trust-transfer scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="write trace text here")
    p_run.add_argument("--dump-devices", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sizes = sub.add_parser("sizes", help="emit the message-size table")
    p_sizes.add_argument("config")
    p_sizes.add_argument("--seed", type=int, default=None)
    p_sizes.set_defaults(func=cmd_sizes)

    p_suite = sub.add_parser("attack-suite",
                             help="run every config in a directory")
    p_suite.add_argument("config_dir")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.set_defaults(func=cmd_attack_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Error as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
