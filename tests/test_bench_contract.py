"""The benchmark's output contract, checked end to end on short runs.

For every workload in BENCHMARK.json, ``bench/run.py`` must exit 0 and
end its standard output with one JSON result line: correct, no failed
call, and every declared metric present, finite and in its declared
unit.  The end-to-end metrics come from a timed run, the per-layer
metrics from a traced one; a traced function that the library no longer
defines drops its metrics from the traced result line.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _result_line(workload, *options):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, *options],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    return result


def _assert_declared(result, declared):
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing, missing
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert math.isfinite(got["value"]), (metric["name"], got)
        assert got["unit"] == metric["unit"], (metric["name"], got)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_run_ends_with_a_complete_result_line(workload):
    _assert_declared(_result_line(workload, "--seconds", "1"), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_bench_run_carries_every_per_layer_metric(workload):
    _assert_declared(_result_line(workload, "--trace", "1"), SPEC["per_layer"])
