"""Run-level checks (FR3 forward secrecy, FR4 backward secrecy, lifecycle
order) driven on hand-built traces, so that every failing path is reached."""

import pytest

from trustshift import crypto, simnet
from trustshift.scenario import CheckResult, run_checks


def root(name, encoding=None):
    """A traced root: its name and the digest of its encoding (by default,
    that of the agreed root of this name)."""
    return (name.encode(), crypto.digest(encoding or name.encode()))


DEVICES = ["device-000", "device-001"]
AGREED = {root("ca2")[1], root("permanent-ca")[1]}
NAMES = ["fr3_forward_secrecy", "fr4_backward_secrecy", "lifecycle_prefix"]

MAIN_PATH = ["blank", "provisioned", "enrolled", "transferPending",
             "resetDone", "attested", "updated", "reenrolled"]


def phases(actor, path):
    """Phase entries walking `path`, one time unit apart from t=0."""
    return [("phase", i, (actor, frm, to))
            for i, (frm, to) in enumerate(zip(path, path[1:]))]


def session(t, a, b, fp):
    return ("session", t, (t.to_bytes(2, "big"), bytes.fromhex(fp), a, b))


def snapshot(t, actor, roots=(root("ca2"), root("permanent-ca")),
             op_cert="none", sp1_key="none"):
    return ("reset_snapshot", t, (actor, op_cert, sp1_key, roots, None, None,
                                  None, None))


def device_run(actor, sp1_fp, new_fp):
    """One device's clean transfer: an SP1 session before the reset, a
    snapshot at the reset (t=3) and a fresh CA2 session at the time of
    re-enrollment (t=6)."""
    return (phases(actor, MAIN_PATH)
            + [session(2, actor, "sp1", sp1_fp), snapshot(3, actor),
               session(6, actor, "ca2", new_fp)])


def trace_of(*entries):
    trace = simnet.Trace()
    for kind, t, values in sorted(entries, key=lambda e: e[1]):
        trace.add(kind, t, *values)
    return trace


def clean_entries():
    return (device_run("device-000", "aa00", "bb00")
            + device_run("device-001", "aa01", "bb01")
            + [session(3, "sp1-orchestrator", "sp2", "cc00")])


def results(trace, device_ids=DEVICES):
    return {c.name: c for c in run_checks(trace, device_ids, AGREED)}


def test_clean_run_passes_every_check():
    checks = run_checks(trace_of(*clean_entries()), DEVICES, AGREED)
    assert checks == [CheckResult(name, True) for name in NAMES]


# ---------------------------------------------------------------------------
# FR3 forward secrecy
# ---------------------------------------------------------------------------

def test_fr3_post_reenrollment_session_sharing_sp1_fingerprint_fails():
    # device-001's session at its re-enrollment time reuses the key of a
    # session the SP1 orchestrator saw, and a later one that of device-000's
    # SP1 session.
    trace = trace_of(*clean_entries(),
                     session(7, "device-001", "sp2", "cc00"),
                     session(9, "device-001", "sp2", "aa00"))
    assert results(trace)["fr3_forward_secrecy"] == CheckResult(
        "fr3_forward_secrecy", False, "device-001 shares 2 fingerprints")


def test_fr3_ignores_sessions_before_reenrollment_and_unenrolled_devices():
    # device-000 reuses an SP1 key at t=5, before its re-enrollment at t=6;
    # a device that never re-enrolled is not judged at all.
    trace = trace_of(*clean_entries(),
                     session(5, "device-000", "ra", "aa01"),
                     *phases("device-002", ["blank", "provisioned"]),
                     session(9, "device-002", "sp1", "aa02"),
                     session(10, "device-002", "ca2", "aa02"))
    assert results(trace, DEVICES + ["device-002"])["fr3_forward_secrecy"].ok


# ---------------------------------------------------------------------------
# FR4 backward secrecy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields,detail", [
    ({"op_cert": "present"}, "device-000 kept SP1 material across reset"),
    ({"sp1_key": "present"}, "device-000 kept SP1 material across reset"),
    ({"roots": (root("ca2"), root("evil"))}, "device-000 kept roots ['evil']"),
    ({"roots": (root("ca2", b"planted"), root("permanent-ca"))},
     "device-000 kept roots ['ca2']"),
], ids=["operational_cert", "sp1_signer_key", "extra_root",
        "agreed_name_other_certificate"])
def test_fr4_kept_material_fails(fields, detail):
    trace = trace_of(*clean_entries(), snapshot(6, "device-000", **fields))
    assert results(trace)["fr4_backward_secrecy"] == CheckResult(
        "fr4_backward_secrecy", False, detail)


def test_fr4_empty_truststore_passes():
    trace = trace_of(*clean_entries(), snapshot(6, "device-001", roots=()))
    assert results(trace)["fr4_backward_secrecy"].ok


@pytest.mark.parametrize("device_ids,detail", [
    (DEVICES, "device-000 kept roots ['evil']"),
    (DEVICES[::-1], "device-001 kept SP1 material across reset"),
], ids=["000_first", "001_first"])
def test_failing_device_named_is_first_in_device_order(device_ids, detail):
    """device-001's bad snapshot comes first in the trace; the check still
    names the first failing device of the device order."""
    trace = trace_of(*clean_entries(),
                     snapshot(6, "device-001", op_cert="present"),
                     snapshot(7, "device-000", roots=(root("ca2"),
                                                      root("evil"))),
                     session(9, "device-000", "ca2", "aa01"),
                     session(9, "device-001", "ca2", "aa00"))
    checks = results(trace, device_ids)
    assert checks["fr4_backward_secrecy"].detail == detail
    assert checks["fr3_forward_secrecy"].detail == \
        f"{device_ids[0]} shares 1 fingerprints"


# ---------------------------------------------------------------------------
# lifecycle order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("frm,to", [
    ("fallback", "fallback"),
    ("enrolled", "enrolled"),
    ("enrolled", "bogus"),
    ("bogus", "enrolled"),
    ("reenrolled", "fallback"),
    ("provisioned", "attested"),
    ("blank", "blank"),
])
def test_lifecycle_step_off_the_device_graph_fails(frm, to):
    trace = trace_of(*clean_entries(),
                     ("phase", 20, ("device-001", frm, to)))
    assert results(trace)["lifecycle_prefix"] == CheckResult(
        "lifecycle_prefix", False,
        f"device-001: {frm} -> {to} is not a lifecycle edge")


@pytest.mark.parametrize("path", [
    ["blank", "provisioned", "enrolled", "transferPending", "resetDone",
     "reenrolled"],
    ["blank", "provisioned", "enrolled", "transferPending", "resetDone",
     "attested", "fallback"],
    ["blank", "provisioned", "enrolled", "transferPending", "resetDone",
     "updated", "fallback"],
], ids=["reset_to_reenrolled", "attested_to_fallback", "updated_to_fallback"])
def test_lifecycle_paths_of_the_device_graph_pass(path):
    trace = trace_of(*phases("device-000", path))
    assert results(trace, ["device-000"])["lifecycle_prefix"].ok
