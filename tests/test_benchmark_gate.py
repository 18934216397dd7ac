"""The benchmark's reference gate (``perfbench/workloads.py``) run as a unit
test: one ``run_all(42)`` pass must match the committed reference report by
report, so a change that moves a residual beyond roundoff fails here too.
At two other seeds every report must keep the verdict that the reference
records, read from ``perfbench/reference.json`` only."""

import importlib.util
import json
from pathlib import Path

import pytest

from bsdkit.verify import run_all

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_pass_matches_the_reference():
    workloads = load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    workload = workloads.VerifyAll(workloads.REFERENCE_SEED, reference=reference)
    workload.setup()
    _, output = workload.run_pass()
    statuses, _ = workload.gate(output)
    failed = [(item, msg) for item, status, msg in statuses if status == workloads.FAILED]
    assert not failed


@pytest.mark.parametrize("seed", [7, 1234])
def test_run_all_keeps_the_reference_verdicts_at_other_seeds(seed):
    verdicts = json.loads((PERFBENCH / "reference.json").read_text())["verify-all"]["verdicts"]
    reports = run_all(seed)
    assert [r.check_id for r in reports] == list(verdicts)
    assert {r.check_id: r.passed for r in reports} == verdicts
