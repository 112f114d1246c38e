"""The benchmark's output contract, checked end to end on short runs.

For every workload in BENCHMARK.json, ``bench/run.py`` must exit 0 and
end its standard output with one JSON result line: correct, no failed
call, and every declared metric present, finite and in its declared
unit.  The end-to-end metrics come from a timed run, the per-layer
metrics from a traced one; a traced function that the library no longer
defines drops its metrics from the traced result line.  The six runs
start together, and the fixture reaps all six before the first test, so
no test leaves a child process behind.  They run from a
temporary copy of ``bench/*.py`` and ``src/toda_darboux/``, so they
leave the checkout's ``bench/out/`` as it was.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPTIONS = {"timed": ("--seconds", "1"), "traced": ("--trace", "1")}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload's finished timed and traced run, all started at once."""
    copy = tmp_path_factory.mktemp("checkout")
    (copy / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, copy / "bench")
    shutil.copytree(ROOT / "src" / "toda_darboux", copy / "src" / "toda_darboux",
                    ignore=shutil.ignore_patterns("__pycache__"))
    procs = {
        (workload, kind): subprocess.Popen(
            [sys.executable, str(copy / "bench" / "run.py"), "--workload", workload, *options],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in WORKLOADS
        for kind, options in OPTIONS.items()
    }
    done = {}
    try:
        for key, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            done[key] = subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return done


def _result_line(run):
    stdout, stderr = run.stdout, run.stderr
    assert run.returncode == 0, stderr[-2000:]
    lines = stdout.strip().splitlines()
    assert lines, stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, stderr[-2000:]
    return result


def _assert_declared(result, declared):
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing, missing
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert math.isfinite(got["value"]), (metric["name"], got)
        assert got["unit"] == metric["unit"], (metric["name"], got)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_ends_with_a_complete_result_line(workload, runs):
    _assert_declared(_result_line(runs[workload, "timed"]), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bench_run_carries_every_per_layer_metric(workload, runs):
    _assert_declared(_result_line(runs[workload, "traced"]), SPEC["per_layer"])
