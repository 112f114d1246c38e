"""Command line entry points, exit codes, and artifact formats."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from toda_darboux.banded import graded_scale, random_hessenberg
from toda_darboux.cli import main
from toda_darboux.darboux import (
    DarbouxFactors,
    GammaTable,
    assemble_transform,
    backlund_entry,
    darboux_factorization,
    factors_to_table,
)
from toda_darboux.lattice import evolve_kdv, evolve_toda


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_timestamp(payload):
    clean = dict(payload)
    clean.pop("timestamp", None)
    return clean


def test_factorize_defaults_pass(capsys):
    code, payload = run_json(["factorize"], capsys)
    assert code == 0
    assert payload["config"]["p"] == 1 and payload["config"]["n"] == 8
    assert all(r["passed"] for r in payload["reports"])


def test_factorize_gamma_row_count(capsys):
    code, payload = run_json(["factorize", "--p", "2", "--n", "8", "--seed", "7"], capsys)
    assert code == 0
    assert len(payload["gamma_rows"]) == 3  # p + 1 interlaced sequences
    assert len(payload["gamma_rows"][0]) == payload["table"]["columns"]
    labels = {r["label"] for r in payload["reports"]}
    assert "factorization round trip" in labels
    assert "table cross-construction" in labels


def test_factorize_writes_file(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["factorize", "--p", "2", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert "factors" in payload and "table" in payload


def test_transform_from_fresh_factorization(capsys):
    code, payload = run_json(
        ["transform", "--p", "2", "--n", "8", "--seed", "7", "--i", "1"], capsys
    )
    assert code == 0
    assert payload["i"] == 1
    assert payload["reports"][0]["passed"]
    assert payload["matrix"]["p"] == 2


def test_transform_round_trip_via_saved_factors(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    assert main(["factorize", "--p", "2", "--seed", "5", "--out", str(fpath)]) == 0
    capsys.readouterr()
    code, payload = run_json(["transform", "--factors", str(fpath), "--i", "2"], capsys)
    assert code == 0
    assert payload["reports"][0]["passed"]


def test_transform_residual_is_the_entrywise_scalar_maximum(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    # at this seed np.abs and Python's abs round one of the residuals differently
    argv = ["--p", "3", "--n", "12", "--seed", "5", "--mode", "complex",
            "--C-re", "0.3", "--C-im", "-0.2"]
    assert main(["factorize", *argv, "--out", str(fpath)]) == 0
    capsys.readouterr()
    factors = DarbouxFactors.from_json_dict(json.loads(fpath.read_text())["factors"])
    table = factors_to_table(factors)
    for i in range(4):
        code, payload = run_json(["transform", "--factors", str(fpath), "--i", str(i)], capsys)
        Ji, window = assemble_transform(factors, i)
        worst = 0.0
        for row in range(min(window.rows, table.columns)):
            for col in range(max(0, row - 3), row + 1):
                closed = backlund_entry(table, i, col, row - col, factors.C)
                worst = max(worst, abs(Ji.entry(row, col) - closed))
        assert code == 0
        assert payload["reports"][0]["max_residual"] == worst


def test_transform_nan_factor_entry_fails(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    assert main(["factorize", "--p", "2", "--n", "8", "--seed", "5", "--out", str(fpath)]) == 0
    capsys.readouterr()
    payload = json.loads(fpath.read_text())
    payload["factors"]["factors"][0]["bands"]["1"][3][0] = float("nan")
    fpath.write_text(json.dumps(payload))
    code, out = run_json(["transform", "--factors", str(fpath), "--i", "1"], capsys)
    assert code == 1
    report = out["reports"][0]
    assert math.isnan(report["max_residual"]) and not report["passed"]


def test_transform_index_out_of_range(capsys):
    code, payload = run_json(["transform", "--p", "2", "--i", "5"], capsys)
    assert code == 1
    assert payload["error"] == "ValueError"
    assert "5" in payload["message"]


def test_transform_requires_index():
    with pytest.raises(SystemExit) as err:
        main(["transform", "--p", "2"])
    assert err.value.code == 2


def test_bad_dimensions_produce_error_json(capsys):
    code, payload = run_json(["factorize", "--p", "2", "--n", "1"], capsys)
    assert code == 1
    assert set(payload) == {"error", "message"}


def test_corrupt_factors_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, payload = run_json(["transform", "--factors", str(bad), "--i", "0"], capsys)
    assert code == 1
    assert payload["error"] == "JSONDecodeError"


@pytest.mark.parametrize("corrupt,error", [
    (lambda f: f.update(factors=5), "ValueError"),
    (lambda f: f["factors"][0].update(bands=list(f["factors"][0]["bands"].values())), "ShapeError"),
    (lambda f: f.update(U=None), "ValueError"),
], ids=["factors-not-a-list", "bands-a-list", "U-null"])
def test_malformed_factor_payloads_produce_error_json(corrupt, error, tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    assert main(["factorize", "--p", "2", "--n", "6", "--out", str(fpath)]) == 0
    capsys.readouterr()
    payload = json.loads(fpath.read_text())
    corrupt(payload["factors"])
    fpath.write_text(json.dumps(payload))
    code, out = run_json(["transform", "--factors", str(fpath), "--i", "1"], capsys)
    assert code == 1
    assert set(out) == {"error", "message"} and out["error"] == error


@pytest.mark.parametrize("argv,option", [
    (["verify", "--dt", "nan"], "dt"),
    (["verify", "--dt", "inf"], "dt"),
    (["factorize", "--scale", "nan"], "scale"),
    (["factorize", "--scale", "inf"], "scale"),
    (["factorize", "--C-re", "nan"], "C"),
    (["factorize", "--C-im", "inf"], "C"),
    (["factorize", "--tol-pivot", "inf"], "tol_pivot"),
    (["factorize", "--tol-margin", "inf"], "tol_margin"),
    (["verify", "--p", "2", "--n", "8", "--tol-verify", "inf"], "tol_verify"),
    (["verify", "--tol-path", "inf"], "tol_path"),
], ids=["dt-nan", "dt-inf", "scale-nan", "scale-inf", "C-re-nan", "C-im-inf",
        "tol-pivot-inf", "tol-margin-inf", "tol-verify-inf", "tol-path-inf"])
def test_non_finite_options_are_rejected(argv, option, capsys):
    code, payload = run_json(argv, capsys)
    assert code == 1
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(f"{option} must be finite")


def test_evolve_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main([
        "evolve", "--p", "1", "--n", "6", "--seed", "2", "--dt", "1e-3",
        "--steps", "5", "--lattice", "toda", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "entry_id", "re", "im"]
    body = rows[1:]
    assert len(body) % 6 == 0  # 6 samples share one fixed entry layout
    per = len(body) // 6
    assert body[0][0] == "0.0"
    # every sample block carries the same entry ids in the same order
    ids0 = [r[1] for r in body[:per]]
    ids1 = [r[1] for r in body[per: 2 * per]]
    assert ids0 == ids1
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert set(manifest) == {"dt", "steps", "p", "n", "C", "seed"}
    assert manifest["steps"] == 5 and manifest["p"] == 1


def test_evolve_kdv_lattice(tmp_path, capsys):
    out = tmp_path / "gam.csv"
    code = main([
        "evolve", "--p", "2", "--n", "8", "--seed", "4", "--steps", "3",
        "--lattice", "kdv", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1].startswith("gamma[")


def per_state_csv(traj):
    """The trajectory CSV as the per-state row generator formatted it."""
    lines = ["t,entry_id,re,im"]
    for t, state in zip(traj.times, traj.states):
        if isinstance(state, GammaTable):
            rows = [(f"gamma[{k}]", v) for k, v in enumerate(state.values, start=1)]
        else:
            rows = [(f"a[{i},{i - d}]", state.bands[d][i])
                    for d in range(state.p + 1) for i in range(d, state.n)]
        for eid, v in rows:
            v = complex(v)
            lines.append(f"{float(t)!r},{eid},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lattice", ["toda", "kdv"])
def test_evolve_csv_bytes_equal_per_state_formatting(lattice, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    p, n, seed, steps, dt, scale = 2, 8, 4, 12, 1e-3, 0.15
    code = main([
        "evolve", "--lattice", lattice, "--p", str(p), "--n", str(n), "--seed", str(seed),
        "--steps", str(steps), "--mode", "complex", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    J = graded_scale(random_hessenberg(p, n, seed=seed, mode="complex"), scale)
    if lattice == "toda":
        traj = evolve_toda(J, 0j, dt, steps)
    else:
        _, table = darboux_factorization(J, 0j, rng=np.random.default_rng(seed), mode="complex")
        traj = evolve_kdv(table, dt, steps)
    assert out.read_bytes() == per_state_csv(traj).encode()


def test_evolve_requires_out():
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--p", "1"])
    assert err.value.code == 2


def test_verify_default_configuration_passes(capsys):
    code, payload = run_json(["verify"], capsys)
    assert code == 0
    reports = payload["reports"]
    assert {"path", "kdv", "toda[0]", "toda[1]"} <= set(reports)
    assert all(r["passed"] for r in reports.values())


@pytest.mark.parametrize("n", [16, 64])
def test_verify_samples_parameters_for_longer_matrices(n, capsys):
    # the sampled split holds; the central-difference verdicts of p = 2
    # at dt = 1e-3 may still fail, so only the path report must pass
    code, payload = run_json(["verify", "--p", "2", "--n", str(n)], capsys)
    assert "error" not in payload
    assert payload["reports"]["path"]["passed"]


def test_verify_complex_shift(capsys):
    code, payload = run_json(
        ["verify", "--C-re", "0.02", "--C-im", "0.01", "--steps", "60"], capsys
    )
    assert code == 0
    assert payload["config"]["C"] == [0.02, 0.01]


def test_output_deterministic_modulo_timestamp(capsys):
    _, a = run_json(["factorize", "--p", "2", "--seed", "9"], capsys)
    _, b = run_json(["factorize", "--p", "2", "--seed", "9"], capsys)
    assert strip_timestamp(a) == strip_timestamp(b)


def test_logging_env_routes_to_stderr():
    env = dict(os.environ, TODA_DARBOUX_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "toda_darboux.cli", "factorize", "--p", "1", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    assert "INFO" in proc.stderr


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["melt"])
    assert err.value.code == 2
