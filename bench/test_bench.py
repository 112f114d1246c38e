"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from toda_darboux import cli, darboux_factorization  # noqa: E402


def test_self_time_of_synthetic_nested_call():
    # outer [0, 100] calls inner [10, 30] and inner [40, 70]; inner [40, 70]
    # calls leaf [50, 55].  Times in nanoseconds.
    spans = [
        (1, 0, "m.inner", 10, 30, None),
        (3, 2, "m.leaf", 50, 55, None),
        (2, 0, "m.inner", 40, 70, "BlowUp"),
        (0, -1, "m.outer", 0, 100, None),
    ]
    per = tracer.self_times(spans)
    assert per["m.outer"]["calls"] == 1
    assert per["m.outer"]["self_s"] == pytest.approx(50e-9)
    assert per["m.inner"]["calls"] == 2
    assert per["m.inner"]["self_s"] == pytest.approx((20 + 25) * 1e-9)
    assert per["m.leaf"]["self_s"] == pytest.approx(5e-9)
    assert dict(per["m.inner"]["errors"]) == {"BlowUp": 1}


def test_tracer_wraps_every_binding_and_reports_absent_functions():
    lib = types.ModuleType("fake.layer")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) + inner(x)\n",
        lib.__dict__,
    )
    user = types.ModuleType("fake.user")
    user.outer = lib.outer
    original = lib.outer

    tr = tracer.Tracer([(lib, "outer"), (lib, "inner"), (lib, "removed")])
    with tr.install([lib, user]):
        assert user.outer(1) == 4
    assert lib.outer is original and user.outer is original
    assert tr.absent == ["layer.removed"]

    by_id = {s[0]: s for s in tr.spans}
    outer = [s for s in tr.spans if s[2] == "layer.outer"]
    inner = [s for s in tr.spans if s[2] == "layer.inner"]
    assert len(outer) == 1 and len(inner) == 2
    assert all(by_id[s[1]][2] == "layer.outer" for s in inner)
    per = tracer.self_times(tr.spans)
    assert "layer.removed" not in per
    outer_ns = outer[0][4] - outer[0][3]
    inner_ns = sum(s[4] - s[3] for s in inner)
    assert per["layer.outer"]["self_s"] == pytest.approx((outer_ns - inner_ns) * 1e-9)


def _factorize_payload(tmp_path, p, n, seed, scale):
    out = tmp_path / "f.json"
    argv = ["factorize", "--p", str(p), "--n", str(n), "--seed", str(seed),
            "--scale", repr(scale), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return json.loads(out.read_text())


def test_factorize_oracle_rejects_a_corrupted_factor(tmp_path):
    payload = _factorize_payload(tmp_path, 3, 12, 5, 0.5)
    workloads.check_factorize(payload, 3, 12, 5, 0.5)

    entry = payload["factors"]["factors"][1]["bands"]["1"][4]
    entry[0] += 1e-6
    with pytest.raises(workloads.OracleFailure):
        workloads.check_factorize(payload, 3, 12, 5, 0.5)


def test_verify_oracle_rejects_a_failed_path():
    reports = {"path": {"max_residual": 2e-4, "passed": False},
               "kdv": {"max_residual": 1e-7, "passed": True}}
    with pytest.raises(workloads.OracleFailure):
        workloads.check_reports(reports)
    reports["path"] = {"max_residual": 1e-9, "passed": True}
    assert workloads.check_reports(reports) == (2, 2)
    reports["kdv"]["max_residual"] = float("nan")
    with pytest.raises(workloads.OracleFailure):
        workloads.check_reports(reports)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_positive_instance_is_the_product_of_its_table(p):
    n, C = 16, 0.015
    J, table, params = workloads.positive_instance(p, n, np.random.default_rng(p), 0.5, 1.5, C)
    # The last pivot has no table column; it only reaches column n - 1.
    g = np.vstack([table.values.reshape(n - 1, p + 1), np.zeros(p + 1)])
    product = np.diag(g[:, 0]) + np.eye(n, k=1)
    for r in range(p, 0, -1):
        product = (np.eye(n) + np.diag(g[: n - 1, r], k=-1)) @ product
    product += C * np.eye(n)
    assert np.max(np.abs(product - J.to_dense())[:, : n - 1]) <= 1e-13

    # The split recovers the table; its forward error grows with the index.
    _factors, recovered = darboux_factorization(J, C, params=params)
    assert np.max(np.abs(recovered.values - table.values)) <= 1e-9


@pytest.mark.parametrize("lattice_name,p,n", [("toda", 2, 8), ("kdv", 1, 8)])
def test_trajectory_oracle_rejects_a_drifted_invariant(tmp_path, lattice_name, p, n):
    out = tmp_path / "e.csv"
    argv = ["evolve", "--lattice", lattice_name, "--p", str(p), "--n", str(n), "--seed", "3",
            "--dt", "1e-3", "--steps", "20", "--out", str(out)]
    assert cli.main(argv) == 0
    workloads.check_trajectory_csv(str(out), lattice_name, 20, 1e-3)

    lines = out.read_text().splitlines(keepends=True)
    # The last row of the file is the last state's last entry; for Toda,
    # shift the last state's first diagonal entry a[0,0] instead.
    k = -1 if lattice_name == "kdv" else len(lines) - (len(lines) - 1) // 21
    fields = lines[k].rstrip("\n").split(",")
    if lattice_name == "toda":
        assert fields[1:3] == ["a[0", "0]"]
    fields[-2] = repr(float(fields[-2]) + 1e-6)
    lines[k] = ",".join(fields) + "\n"
    out.write_text("".join(lines))
    with pytest.raises(workloads.OracleFailure):
        workloads.check_trajectory_csv(str(out), lattice_name, 20, 1e-3)
    with pytest.raises(workloads.OracleFailure):
        workloads.check_trajectory_csv(str(out), lattice_name, 21, 1e-3)
