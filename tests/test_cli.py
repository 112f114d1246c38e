"""Command line entry points, exit codes, and artifact formats."""

import collections
import csv
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import toda_darboux
from toda_darboux import banded, cli, darboux, lattice, lu
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
from toda_darboux.lu import lu_factorize

from oracles import gamma_table_from_json

ROOT = Path(__file__).resolve().parents[1]


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


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
    table = payload["table"]
    assert table["p"] == 2  # p + 1 interlaced sequences
    assert len(table["gamma"]) == 3 * table["columns"]
    labels = {r["label"] for r in payload["reports"]}
    assert "factorization round trip" in labels
    assert "table cross-construction" in labels


def test_factorize_cross_construction_is_the_closed_form_gap(capsys):
    # the n-column table, whose last column is the last pivot and p zeros,
    # gives all n rows of J^(0) = J by the closed form; the report is the
    # largest entry gap, relative to max|J|
    p, n = 3, 1024
    code, payload = run_json(["factorize", "--p", str(p), "--n", str(n), "--seed", "1"], capsys)
    assert code == 0
    factors = DarbouxFactors.from_json_dict(payload["factors"])
    table = gamma_table_from_json(payload["table"])
    assert np.array_equal(table.values, factors_to_table(factors).values)
    assert table.columns == n
    assert table.values[-(p + 1) :].tolist() == [factors.U.entry(n - 1, n - 1)] + [0j] * p
    J = random_hessenberg(p, n, seed=1)
    diffs = np.array([backlund_entry(table, 0, i, k) - J.entry(i + k, i)
                      for k in range(p + 1) for i in range(n - k)])
    gap = np.abs(diffs).max()
    (report,) = [r for r in payload["reports"] if r["label"] == "table cross-construction"]
    assert report["max_residual"] == gap / np.abs(J.data).max() <= 1e-10
    assert report["argmax"] == ["gamma table", 0]
    assert report["passed"]


def cross_construction(argv, capsys):
    code, payload = run_json(argv, capsys)
    assert code == 0
    (report,) = [r for r in payload["reports"] if r["label"] == "table cross-construction"]
    return report["max_residual"]


@pytest.mark.parametrize("scale", ["1", "0.15"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_cross_construction_detects_every_perturbed_gamma(p, scale, monkeypatch, capsys):
    # the lower factors' entries (n - 1, n - 2) in column n - 2 and the last
    # pivot u_{n-1} reach row n - 1 of J only: a check on n - 1 rows cannot see them
    n = 32
    argv = ["factorize", "--p", str(p), "--n", str(n), "--scale", scale]
    honest = cross_construction(argv, capsys)
    original = cli.factors_to_table
    size = (p + 1) * (n - 1)
    for idx in (size // 2, size // 2 + 1, *range(size - p + 1, size + 2)):

        def perturbed(factors):
            table = original(factors)
            values = table.values.copy()
            values[idx - 1] *= 1 + 1e-8
            return GammaTable(table.p, table.columns, values)

        monkeypatch.setattr(cli, "factors_to_table", perturbed)
        mutant = cross_construction(argv, capsys)
        assert mutant > 0 and mutant >= 100 * honest, (idx, honest, mutant)


@pytest.mark.parametrize("argv", [
    # an absolute 1e-12 guard on the fill's running products raised
    # TableBreakdown (anti-diagonal 3, step 2, product 9.8e-13)
    ["factorize", "--p", "4", "--n", "32", "--scale", "0.001"],
    ["verify", "--p", "4", "--n", "32", "--scale", "0.001"],
    # a pivot guard of 1e-12 times the largest band modulus (the deepest,
    # about 1e15) raised SingularLeadingMinor at minor 0 (pivot 1.5e3)
    ["factorize", "--p", "4", "--n", "16", "--scale", "1000"],
    # an absolute round trip read 7.3e-4 on bands reaching 2e12
    ["factorize", "--p", "3", "--n", "16", "--scale", "1000"],
    # absolute product-vs-closed-form residuals read 2e-3 to 8e-3
    *(["transform", "--p", "4", "--n", "16", "--scale", "1000", "--i", str(i)] for i in range(5)),
], ids=["factorize", "verify", "factorize-p4-1000", "factorize-p3-1000",
        *(f"transform-{i}-1000" for i in range(5))])
def test_tiny_graded_scale_passes_every_report(argv, capsys):
    code, payload = run_json([*argv, "--seed", "1"], capsys)
    assert code == 0
    reports = payload["reports"]
    assert all(r["passed"] for r in (reports.values() if argv[0] == "verify" else reports))


def test_no_command_runs_the_table_fill(tmp_path, monkeypatch, capsys):
    calls = []
    original = darboux.table_fill

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that binds the fill
    modules = [m for m in (toda_darboux, banded, cli, darboux, lattice, lu)
               if hasattr(m, "table_fill")]
    assert cli not in modules
    for m in modules:
        monkeypatch.setattr(m, "table_fill", counted)
    saved, csv_out = str(tmp_path / "factors.json"), str(tmp_path / "traj.csv")
    runs = [
        ["factorize", "--p", "3", "--n", "12", "--out", saved],
        ["transform", "--p", "3", "--n", "12", "--i", "1"],
        ["transform", "--factors", saved, "--i", "1"],
        ["verify"],
        ["evolve", "--lattice", "toda", "--p", "3", "--n", "12", "--out", csv_out],
        ["evolve", "--lattice", "kdv", "--p", "3", "--n", "12", "--out", csv_out],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        assert calls == [], argv
    capsys.readouterr()


def test_factorize_writes_file(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["factorize", "--p", "2", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert "factors" in payload and "table" in payload


INSTANCE_KEYS = {"p", "n", "C", "seed", "mode", "scale"}
CONFIG_KEYS = {
    "factorize": INSTANCE_KEYS | {"tol_verify"},
    "transform": INSTANCE_KEYS | {"tol_verify"},
    "verify": INSTANCE_KEYS | {"dt", "steps", "tol_verify"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_written_config_holds_the_run_fields_but_the_output_path(command, tmp_path, capsys):
    out = tmp_path / "run.json"
    extra = ["--i", "1"] if command == "transform" else []
    code = main([command, *extra, "--C-re", "0.02", "--C-im", "-0.01", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == CONFIG_KEYS[command]
    assert config["C"] == [0.02, -0.01]


@pytest.mark.parametrize("argv", [
    ["factorize", "--dt", "1e-3"],
    ["factorize", "--steps", "5"],
    ["transform", "--i", "0", "--dt", "1e-3"],
    ["transform", "--i", "0", "--steps", "5"],
    ["evolve", "--tol-verify", "1e-5"],
], ids=["factorize-dt", "factorize-steps", "transform-dt", "transform-steps",
        "evolve-tol-verify"])
def test_a_subcommand_takes_no_flag_it_does_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_transform_from_factors_records_and_checks_the_loaded_instance(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    argv = ["factorize", "--p", "2", "--n", "8", "--seed", "5", "--C-re", "0.02", "--C-im", "-0.01"]
    assert main([*argv, "--out", str(fpath)]) == 0
    capsys.readouterr()
    want = {"p": 2, "n": 8, "tol_verify": 1e-5, "C": [0.02, -0.01]}
    code, payload = run_json(["transform", "--factors", str(fpath), "--i", "2"], capsys)
    assert code == 0 and payload["config"] == want
    # the instance flags build no instance here: none is recorded, and --p and
    # --n are not checked
    loaded = ["transform", "--factors", str(fpath), "--i", "1", "--p", "1", "--n", "1",
              "--C-re", "3", "--seed", "9", "--mode", "complex", "--scale", "0.5"]
    code, payload = run_json(loaded, capsys)
    assert code == 0 and payload["config"] == want
    code, payload = run_json(["transform", "--i", "1", "--p", "1", "--n", "1"], capsys)
    assert code == 1 and payload["message"] == "need n > p >= 1, got p=1 n=1"


def test_factors_written_with_negative_zero_imaginary_parts_load_as_float64(tmp_path, capsys):
    # earlier versions wrote the sampler's -0.0 imaginary parts as [x, -0.0] pairs
    path = tmp_path / "factors.json"
    assert main(["factorize", "--p", "3", "--n", "16", "--out", str(path)]) == 0
    text = path.read_text()
    assert "-0.0]" not in text  # a real run writes every imaginary part as 0.0
    payload = json.loads(text)
    factors = payload["factors"]
    pairs = [pair for m in (factors["U"], *factors["factors"]) for band in m["bands"].values()
             for pair in band]
    for pair in pairs[::2]:
        pair[1] = -0.0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    assert old.read_text().count("-0.0]") == len(pairs[::2])
    want = DarbouxFactors.from_json_dict(json.loads(text)["factors"])
    got = DarbouxFactors.from_json_dict(factors)
    for a, b in zip((got.U, *got.factors), (want.U, *want.factors)):
        assert a.data.dtype == np.float64 and a.data.tobytes() == b.data.tobytes()
    assert np.asarray(got.C).dtype == np.float64
    capsys.readouterr()
    for i in range(4):
        argv = ["transform", "--p", "3", "--n", "16", "--i", str(i), "--factors"]
        code, new = run_json(argv + [str(path)], capsys)
        old_code, old_out = run_json(argv + [str(old)], capsys)
        assert (code, strip_timestamp(new)) == (old_code, strip_timestamp(old_out))


def spy(monkeypatch, module, name, record):
    """Wrap module.name so that record(result) runs on every result."""
    wrapped = getattr(module, name)

    def call(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        record(result)
        return result

    monkeypatch.setattr(module, name, call)


@pytest.mark.parametrize("extra,field", [
    ([], np.float64),
    (["--mode", "complex"], np.complex128),
    (["--C-im", "0.3"], np.complex128),
], ids=["real", "complex", "complex-shift"])
@pytest.mark.parametrize("argv,calls", [
    (["verify", "--p", "2", "--n", "16"], {"table": 1, "kdv": 1, "toda": 1, "transform": 1}),
    (["evolve", "--lattice", "kdv", "--p", "1", "--n", "8"], {"table": 1, "kdv": 1}),
    (["factorize", "--p", "2", "--n", "16"], {"table": 1, "transform": 1}),
    (["transform", "--p", "2", "--n", "16", "--i", "1"], {"table": 2, "transform": 1}),
], ids=["verify", "evolve-kdv", "factorize", "transform"])
def test_commands_run_in_the_instances_field_end_to_end(argv, calls, extra, field, tmp_path,
                                                        monkeypatch, capsys):
    # every factor, table, trajectory and closed-form reconstruction is in the field of
    # J and C; each closed form reads the stored shift factors.C
    seen = []

    def factor_dtypes(f):
        seen.extend(("factors", a.dtype) for a in (f.U.data, *(g.data for g in f.factors)))
        seen.append(("shift", np.asarray(f.C).dtype))

    for module in (cli, lattice):
        spy(monkeypatch, module, "_factor", factor_dtypes)
        spy(monkeypatch, module, "factors_to_table", lambda t: seen.append(("table", t.values.dtype)))
    for module, name in ((lattice, "evolve_toda"), (lattice, "evolve_kdv"), (cli, "evolve_kdv")):
        spy(monkeypatch, module, name, lambda traj: seen.append((traj.kind, traj.data.dtype)))
    spy(monkeypatch, lattice, "_transform_bands", lambda b: seen.append(("transform", b.dtype)))
    main(argv + extra + ["--seed", "1", "--out", str(tmp_path / "out")])
    p = int(argv[argv.index("--p") + 1])
    names = [name for name, _ in seen]
    assert collections.Counter(names) == {"factors": p + 1, "shift": 1, **calls}
    # the Toda flow never reads C, so a real J under a complex shift stays float64,
    # and a zero shift is real in either mode
    toda_field = np.complex128 if "complex" in extra else np.float64
    shift_field = np.complex128 if "--C-im" in extra else np.float64
    fields = {"toda": toda_field, "shift": shift_field}
    assert seen == [(name, fields.get(name, field)) for name in names]


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
        Ji = assemble_transform(factors, i)
        worst = 0.0
        for row in range(table.columns):
            for col in range(max(0, row - 3), row + 1):
                closed = backlund_entry(table, i, col, row - col, factors.C)
                worst = max(worst, abs(Ji.entry(row, col) - closed))
        # the report is relative to the largest entry modulus of J^(i)
        scale = max(abs(Ji.entry(row, col)) for row in range(Ji.n)
                    for col in range(max(0, row - 3), min(Ji.n, row + 2)))
        assert scale >= 1.0  # the unit superdiagonal
        assert code == 0
        assert payload["reports"][0]["max_residual"] == worst / scale


def test_transform_nan_factor_entry_fails(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    assert main(["factorize", "--p", "2", "--n", "8", "--seed", "5", "--out", str(fpath)]) == 0
    capsys.readouterr()
    payload = json.loads(fpath.read_text())
    payload["factors"]["factors"][0]["bands"]["1"][3][0] = float("nan")
    fpath.write_text(json.dumps(payload))
    code = main(["transform", "--factors", str(fpath), "--i", "1"])
    assert code == 1
    # the decoder refuses the NaN before any arithmetic, naming where it sits
    out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert out["error"] == "ShapeError"
    assert out["message"].startswith("band 1 entry 3: ")


def test_transform_index_out_of_range(capsys):
    code, payload = run_json(["transform", "--p", "2", "--i", "5"], capsys)
    assert code == 1
    assert payload == {"error": "ValueError", "message": "transform index 5 outside 0..2"}


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
    (lambda f: f["U"]["bands"]["0"].__setitem__(2, ["1.5", True]), "ShapeError"),
    (lambda f: f.update(C=[10 ** 400, 0]), "ValueError"),
    (lambda f: f["U"]["bands"]["0"].__setitem__(2, [0, -10 ** 400]), "ShapeError"),
    (lambda f: f.update(C=[1e400, 0]), "ValueError"),
    (lambda f: f["U"]["bands"]["0"].__setitem__(2, [0, -1e400]), "ShapeError"),
], ids=["factors-not-a-list", "bands-a-list", "U-null", "U-entry-string-and-bool",
        "C-beyond-double-range", "U-entry-beyond-double-range",
        "C-float-beyond-double-range", "U-entry-float-beyond-double-range"])
def test_malformed_factor_payloads_produce_error_json(corrupt, error, tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    assert main(["factorize", "--p", "2", "--n", "6", "--out", str(fpath)]) == 0
    capsys.readouterr()
    payload = json.loads(fpath.read_text())
    corrupt(payload["factors"])
    # json writes an infinite float as Infinity; a file may spell it as the
    # number 1e400, which json reads back as inf
    fpath.write_text(json.dumps(payload).replace("Infinity", "1e400"))
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
    (["verify", "--p", "2", "--n", "8", "--tol-verify", "inf"], "tol_verify"),
    (["verify", "--tol-path", "inf"], "tol_path"),
], ids=["dt-nan", "dt-inf", "scale-nan", "scale-inf", "C-re-nan", "C-im-inf",
        "tol-verify-inf", "tol-path-inf"])
def test_non_finite_options_are_rejected(argv, option, capsys):
    code, payload = run_json(argv, capsys)
    assert code == 1
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(f"{option} must be finite")


@pytest.mark.parametrize("flow", [["--dt", "0"], ["--dt", "-0.001"], ["--steps", "-1"]],
                         ids=["dt-zero", "dt-negative", "steps-negative"])
@pytest.mark.parametrize("command", [["verify"], ["evolve", "--lattice", "toda"], ["evolve", "--lattice", "kdv"]],
                         ids=["verify", "evolve-toda", "evolve-kdv"])
def test_nonpositive_dt_and_negative_steps_are_rejected(command, flow, tmp_path, capsys):
    out = tmp_path / "out"
    code, payload = run_json(command + ["--p", "2", "--n", "8", "--out", str(out)] + flow, capsys)
    assert code == 1
    assert payload == {"error": "ValueError", "message": "dt must be positive and steps nonnegative"}
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tol-pivot", "--tol-margin"])
def test_factorization_thresholds_are_not_options(flag, capsys):
    # the pivot and margin thresholds are worked out by the library
    with pytest.raises(SystemExit) as err:
        main(["factorize", flag, "1e-9"])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_factorization_thresholds_are_not_parameters():
    # every breakdown guard is one scale-free ratio, so there is nothing to set
    signatures = {fn: list(inspect.signature(fn).parameters)
                  for fn in (lu_factorize, darboux.peel, darboux.sample_parameters)}
    assert signatures == {
        lu_factorize: ["J", "C"],
        darboux.peel: ["T", "alphas"],
        darboux.sample_parameters: ["T", "rng"],
    }


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


def test_evolve_writes_a_manifest_beside_a_regular_file_only(tmp_path, capsys):
    # decided by the path as given: /dev/stdout is a link to whatever stdout is,
    # a regular file when redirected, and gets no manifest either
    argv = ["evolve", "--p", "1", "--n", "6", "--seed", "2", "--steps", "5", "--out"]
    device = tmp_path / "null.csv"
    device.symlink_to(os.devnull)
    linked = tmp_path / "link.csv"
    linked.symlink_to(tmp_path / "target.csv")
    (tmp_path / "target.csv").write_text("")
    assert main([*argv, str(device)]) == 0
    assert main([*argv, str(linked)]) == 0
    assert main([*argv, str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "link.csv", "null.csv", "target.csv", "traj.csv", "traj.csv.manifest.json"]
    assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "traj.csv").read_bytes()
    assert (tmp_path / "traj.csv.manifest.json").read_bytes() == (
        b'{"C": [0.0, 0.0], "dt": 0.001, "n": 6, "p": 1, "seed": 2, "steps": 5}\n')


def test_writing_a_toda_csv_does_not_copy_the_trajectory(monkeypatch):
    J = graded_scale(random_hessenberg(3, 64, seed=2), 0.15)
    traj = evolve_toda(J, 0.0, 1e-3, 2000)
    monkeypatch.setattr(cli.threading, "active_count", lambda: 2)  # serial
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            cli._write_csv(fh, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a sample's rows at a time: well below the 4.1 MB of stored states
    assert peak < traj.data.nbytes / 8


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


def evolve_case(lattice, mode, steps, out):
    """An evolve run at p=2, n=8, seed 4, and its trajectory computed directly."""
    p, n, seed, dt, scale = 2, 8, 4, 1e-3, 0.15
    argv = ["evolve", "--lattice", lattice, "--p", str(p), "--n", str(n), "--seed", str(seed),
            "--steps", str(steps), "--mode", mode, "--out", str(out)]
    J = graded_scale(random_hessenberg(p, n, seed=seed, mode=mode), scale)
    if lattice == "toda":
        return argv, evolve_toda(J, 0j, dt, steps)
    factors, _ = darboux_factorization(J, 0j, rng=np.random.default_rng(seed))
    return argv, evolve_kdv(factors_to_table(factors), dt, steps)


@pytest.mark.parametrize("lattice", ["toda", "kdv"])
def test_evolve_csv_bytes_equal_per_state_formatting(lattice, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    # real instances integrate in float64 and must still export as complex rows
    for mode in ("real", "complex"):
        argv, traj = evolve_case(lattice, mode, 12, out)
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        if lattice == "toda":
            # float64 data writes a constant imaginary part, complex data its repr
            assert traj.data.dtype == (np.float64 if mode == "real" else np.complex128)
        assert out.read_bytes() == per_state_csv(traj).encode()


def force_cpus(monkeypatch, cpus):
    """Give the CSV writer cpus CPUs and a worker for every entry; return the forks it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "_ENTRIES_PER_WORKER", 1)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("steps", [12, 1], ids=["13-samples", "2-samples"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("lattice", ["toda", "kdv"])
def test_evolve_csv_is_the_same_bytes_on_any_cpu_count(lattice, mode, cpus, steps, tmp_path,
                                                       monkeypatch, capsys):
    # 13 samples split unevenly over 2 or 3 workers; 2 samples allow 2 workers at most
    forks = force_cpus(monkeypatch, cpus)
    argv, traj = evolve_case(lattice, mode, steps, tmp_path / "traj.csv")
    assert main(argv) == 0
    capsys.readouterr()
    assert len(forks) == min(cpus, len(traj)) - 1
    assert (tmp_path / "traj.csv").read_bytes() == per_state_csv(traj).encode()


def test_evolve_csv_stays_serial_while_another_thread_runs(tmp_path, monkeypatch, capsys):
    forks = force_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli.threading, "active_count", lambda: 2)
    argv, traj = evolve_case("toda", "real", 12, tmp_path / "traj.csv")
    assert main(argv) == 0
    capsys.readouterr()
    assert forks == []
    assert (tmp_path / "traj.csv").read_bytes() == per_state_csv(traj).encode()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_csv_chunk_fails_evolve_and_leaves_no_process_or_descriptor(
        where, tmp_path, monkeypatch, capsys):
    force_cpus(monkeypatch, 3)
    parent, write_rows = os.getpid(), cli._write_rows

    def write_or_fail(fh, times, samples, heads):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError(f"chunk at t={times[0]} failed")
        write_rows(fh, times, samples, heads)

    monkeypatch.setattr(cli, "_write_rows", write_or_fail)
    argv, _ = evolve_case("toda", "real", 12, tmp_path / "traj.csv")
    fds = sorted(os.listdir("/proc/self/fd"))
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().out.splitlines()[-1])
    # a child's exception stays in the child: the parent sees its exit status
    assert error["error"] == ("ChildProcessError" if where == "child" else "ValueError")
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def verify_path(argv, capsys):
    _, payload = run_json(["verify", *argv, "--seed", "1"], capsys)
    return payload["reports"]["path"]


@pytest.mark.parametrize("p,n", [(2, 8), (2, 16), (2, 64), (3, 16)])
def test_verify_path_agrees_on_all_rows_to_round_off(p, n, capsys):
    # both routes run the same finite system, so they differ by the two
    # integrators' errors only, on every one of the n rows
    path = verify_path(["--p", str(p), "--n", str(n)], capsys)
    assert path["passed"] and path["max_residual"] <= 2e-12


@pytest.mark.parametrize("p", [3, 4])
def test_verify_path_converges_with_dt_on_all_rows(p, capsys):
    # at n = 32 the integrators' errors dominate the path gap: halving dt at
    # fixed t = 0.1 cuts it tenfold or more (RK4 gives about 16)
    argv = ["--p", str(p), "--n", "32"]
    coarse = verify_path(argv, capsys)
    fine = verify_path([*argv, "--dt", "5e-4", "--steps", "200"], capsys)
    assert coarse["passed"] and fine["passed"]
    assert 0 < 10 * fine["max_residual"] <= coarse["max_residual"]


@pytest.mark.parametrize("argv, empty", [
    # path compares both rows, and toda[j] checks row 1, the last, by its finite equation
    (["--p", "1", "--n", "2"], set()),
    # path compares all six rows
    (["--p", "2", "--n", "6"], set()),
    # J = C I plus the unit superdiagonal is a fixed point of both flows
    (["--p", "1", "--n", "2", "--scale", "0", "--C-re", "1"], {"path", "kdv", "toda[0]", "toda[1]"}),
])
def test_verify_names_no_location_where_nothing_exceeds_zero(argv, empty, tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = json.loads(out.read_text())["reports"]
    assert reports["path"]["max_residual"] <= 1e-15
    assert {k for k, r in reports.items() if r["max_residual"] == 0} == empty
    for key, r in reports.items():
        line = next(s for s in lines if f"] {r['label']}:" in s)
        assert (r["argmax"] == []) == (" at " not in line) == (key in empty)


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


def test_every_json_output_is_one_sorted_line_from_the_c_encoder(tmp_path, monkeypatch, capsys):
    # json builds its pure-Python encoder only when it cannot use the C one,
    # as with an indent; make that route fail loudly
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json took the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    out = {name: tmp_path / f"{name}.json" for name in ("factorize", "transform", "verify")}
    trajectory = tmp_path / "traj.csv"
    for argv in (
        ["factorize", "--p", "2", "--out", str(out["factorize"])],
        ["transform", "--p", "2", "--i", "1", "--out", str(out["transform"])],
        ["verify", "--out", str(out["verify"])],
        ["evolve", "--p", "2", "--steps", "5", "--out", str(trajectory)],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["transform", "--p", "2", "--i", "5"]) == 1
    error_line = capsys.readouterr().out
    manifest = Path(f"{trajectory}.manifest.json").read_text()
    texts = [path.read_text() for path in out.values()] + [manifest, error_line]
    for text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n"
    assert json.loads(error_line)["error"] == "ValueError"


def test_a_non_finite_value_fails_the_run_and_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "residual", lambda a, b: float("nan"))
    out = tmp_path / "f.json"
    assert main(["factorize", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "ValueError"
    assert error["message"].startswith("Out of range float values are not JSON compliant")
    assert not out.exists()


def test_logging_env_routes_to_stderr():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TODA_DARBOUX_LOG="INFO", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "toda_darboux.cli", "factorize", "--p", "1", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    assert "INFO" in proc.stderr


def test_parser_is_built_once_and_bad_argv_still_exits_2(capsys):
    assert cli._build_parser() is cli._build_parser()
    _, before = run_json(["factorize", "--p", "2", "--seed", "9"], capsys)
    with pytest.raises(SystemExit) as err:
        main(["factorize", "--p", "two"])
    assert err.value.code == 2
    capsys.readouterr()
    _, after = run_json(["factorize", "--p", "2", "--seed", "9"], capsys)
    assert strip_timestamp(after) == strip_timestamp(before)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["melt"])
    assert err.value.code == 2
