"""Workloads of the toda-darboux benchmark: inputs, call lists and output oracles.

Each workload is a fixed list of top-level operations built from the
workload seed.  An operation has a timed part, which calls the library
and nothing else, and an untimed check, which classifies the outcome:

* ``ok``: the call returned and its output passed the oracle;
* the class name of a documented module error (``SamplingFailed``,
  ``BlowUp``, ...): a failed outcome, recorded and never retried;
* ``oracle``: the call returned an output the oracle rejects;
* ``crash``: the call raised an exception the library does not define.

The last two mean the program is wrong, so they make the run incorrect.
The oracles use numpy only and never call back into the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from toda_darboux import BandedHessenberg, GammaTable, ParameterSet, cli, lattice

C_SHIFT = 0.015
DT = 1e-3
TOL_VERIFY = 1e-5

# Oracle tolerances.  The factor product is rebuilt in double precision
# from JSON floats written with full repr, so agreement with J is at
# round-off times the growth of the split; 1e-8 of the band scale leaves
# room for that and still rejects any perturbed factor entry.
TOL_FACTOR = 1e-8
# The traces of J and of the gamma table are linear invariants that RK4
# keeps exactly; only summation round-off over the steps remains.
TOL_INVARIANT = 1e-10


@dataclass
class Outcome:
    """Classified result of one operation."""

    status: str
    detail: str = ""
    reports_passed: int = 0
    reports_total: int = 0
    out_bytes: int = 0


class Op:
    """One top-level operation: ``call`` is timed, ``check`` is not."""

    label = ""

    def call(self):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def cleanup(self):
        pass


def classify_exception(exc: BaseException) -> Outcome:
    """A module error is a recorded outcome; anything else is a crash."""
    name = type(exc).__name__
    if type(exc).__module__.startswith("toda_darboux"):
        return Outcome(name, str(exc))
    return Outcome("crash", f"{name}: {exc}")


# ---------------------------------------------------------------------------
# instances built in numpy


def random_bands(p: int, n: int, seed: int, scale: float) -> list:
    """The bands of ``random_hessenberg(p, n, seed)`` graded by ``scale``.

    An independent numpy copy of the library's instance generator, so the
    factorize oracle can rebuild J from the CLI arguments alone.  Band d
    holds the entries (i, i - d), i = d .. n - 1.
    """
    rng = np.random.default_rng(seed)
    bands = []
    for d in range(p + 1):
        k = max(n - d, 0)
        mod = rng.uniform(1.0, 2.0, k)
        sign = rng.integers(0, 2, k) * 2.0 - 1.0
        bands.append(mod * sign * scale ** (d + 1))
    return bands


def dense_hessenberg(bands: list, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = 1.0
    for d, b in enumerate(bands):
        rows = np.arange(d, n)
        out[rows, rows - d] = b
    return out


def positive_instance(p: int, n: int, rng, lo: float, hi: float, C: float):
    """(J, table, params) with J - C I = L^(1) .. L^(p) U built from a
    positive gamma table drawn uniformly from [lo, hi].

    Column m of the table holds the pivot u_m and the subdiagonal entries
    (m + 1, m) of L^(1) .. L^(p), as ``factors_to_table`` reads them; the
    last pivot u_{n-1} has no column and is drawn alongside.  The free
    parameters are the table's own leading L entries, so the library's
    factorization with them recovers this table.
    """
    g = rng.uniform(lo, hi, (n, p + 1))
    # Row-indexed bands, offset -1 the superdiagonal: (L M)[i, i-d]
    # = M[i, i-d] + l_i M[i-1, i-1-(d-1)].
    bands = {-1: np.ones(n), 0: g[:, 0].copy()}
    for r in range(p, 0, -1):
        sub = np.zeros(n)
        sub[1:] = g[: n - 1, r]
        nxt = {}
        for d in range(-1, max(bands) + 2):
            v = bands.get(d, np.zeros(n)).copy()
            if d - 1 in bands:
                v[1:] += sub[1:] * bands[d - 1][:-1]
            nxt[d] = v
        bands = nxt
    bands[0] = bands[0] + C
    J = BandedHessenberg(p, n, tuple(bands[d][d:].astype(np.complex128) for d in range(p + 1)))
    table = GammaTable(p, n - 1, g[: n - 1].reshape(-1).astype(np.complex128))
    params = ParameterSet(
        tuple(g[: p - s - 1, s + 1].astype(np.complex128) for s in range(p - 1))
    )
    return J, table, params


# ---------------------------------------------------------------------------
# oracles


class OracleFailure(Exception):
    pass


def _decode_band(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values], dtype=np.complex128)


def _dense_from_json(payload: dict) -> np.ndarray:
    """Dense matrix from the CLI's {"n", "bands": {offset: [[re, im], ...]}}."""
    n = int(payload["n"])
    out = np.zeros((n, n), dtype=np.complex128)
    for key, values in payload["bands"].items():
        d = int(key)
        vals = _decode_band(values)
        rows = np.arange(max(d, 0), n if d >= 0 else n - 1)
        if len(vals) != len(rows):
            raise OracleFailure(f"band {d} has {len(vals)} entries, expected {len(rows)}")
        out[rows, rows - d] = vals
    return out


def check_factorize(payload: dict, p: int, n: int, seed: int, scale: float) -> None:
    """L^(1) .. L^(p) U + C I, rebuilt densely, must reproduce J.

    i = 0 puts U rightmost, where truncation commutes with the product,
    so the certified window is all n rows.
    """
    fac = payload["factors"]
    lowers = fac["factors"]
    if len(lowers) != p:
        raise OracleFailure(f"{len(lowers)} lower factors for p={p}")
    C = complex(*fac["C"])
    prod = _dense_from_json(fac["U"])
    for f in reversed(lowers):
        prod = _dense_from_json(f) @ prod
    if prod.shape != (n, n):
        raise OracleFailure(f"factor size {prod.shape[0]}, expected {n}")
    prod = prod + C * np.eye(n)
    J = dense_hessenberg(random_bands(p, n, seed, scale), n)
    band_scale = max(1.0, float(np.max(np.abs(J))))
    err = float(np.max(np.abs(prod - J))) / band_scale
    if not err <= TOL_FACTOR:
        raise OracleFailure(f"factor product misses J by {err:.3e} of the band scale")


def check_reports(reports: dict) -> tuple:
    """The path report must pass and every residual must be finite."""
    if "path" not in reports:
        raise OracleFailure("no path report")
    for key, rep in reports.items():
        if not np.isfinite(rep["max_residual"]):
            raise OracleFailure(f"{key} residual is not finite")
    if not reports["path"]["passed"]:
        raise OracleFailure(f"path report failed at {reports['path']['max_residual']:.3e}")
    return sum(bool(r["passed"]) for r in reports.values()), len(reports)


def _invariant_gap(first: float, last: float, magnitude: float) -> float:
    return abs(last - first) / magnitude


def _report_dict(rep) -> dict:
    return {"max_residual": rep.max_residual, "passed": rep.passed}


# ---------------------------------------------------------------------------
# cli: in-process calls to toda_darboux.cli.main


# No operation of a workload may fail.  Graded factorize calls and
# verify calls are left out: each fails at some seeds with SamplingFailed
# or BlowUp (NOTES.md gives the rates).  The evolve calls keep the time
# span of verify's flows, t = 0.1, in 1000 steps.
CLI_FACTORIZE = [(p, n) for p in (2, 3, 4) for n in (32, 64)]
CLI_EVOLVE = [("toda", 2, 32, 0.15), ("kdv", 1, 8, 0.05)]
CLI_DT, CLI_STEPS = 1e-4, 1000


class CliOp(Op):
    """One in-process ``cli.main(argv)`` call writing to its own ``--out``."""

    def __init__(self, argv: list, out: str, seed: int):
        self.argv = argv + ["--seed", str(seed), "--out", out]
        self.out = out
        self.seed = seed
        self.label = " ".join(argv)

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        return rc, buf.getvalue()

    def check(self, result) -> Outcome:
        rc, stdout = result
        lines = stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            err = json.loads(lines[-1])
            if "error" in err:
                return Outcome(str(err["error"]), str(err.get("message", "")))
        try:
            size = os.path.getsize(self.out)
            passed, total = self.check_output()
        except (OracleFailure, OSError, KeyError, TypeError, ValueError) as exc:
            return Outcome("oracle", f"{type(exc).__name__}: {exc}")
        if rc != (0 if passed == total else 1):
            return Outcome("oracle", f"exit code {rc} with {passed}/{total} reports passing")
        return Outcome("ok", "", passed, total, size)

    def check_output(self) -> tuple:
        """Raise OracleFailure on a wrong output; return (passed, total) reports."""
        raise NotImplementedError

    def cleanup(self):
        for path in (self.out, self.out + ".manifest.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class FactorizeCall(CliOp):
    def __init__(self, p: int, n: int, out: str, seed: int):
        super().__init__(["factorize", "--p", str(p), "--n", str(n)], out, seed)
        self.p, self.n = p, n

    def check_output(self) -> tuple:
        with open(self.out) as fh:
            payload = json.load(fh)
        check_factorize(payload, self.p, self.n, self.seed, 1.0)
        reps = payload["reports"]
        return sum(bool(r["passed"]) for r in reps), len(reps)


def check_trajectory_csv(path: str, lattice_name: str, steps: int, dt: float) -> None:
    """The evolve CSV holds steps + 1 finite states at t = k dt, and the
    linear invariant of the flow (trace(J) for Toda, the sum of the gammas
    for KdV) is conserved.  Rows are ``t,entry_id,re,im`` in time order; a
    Toda entry id ``a[i,j]`` holds a comma itself.  Read line by line, so
    the check adds little to the worker's peak memory."""
    times, sums = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,entry_id,re,im":
            raise OracleFailure(f"unexpected header {header!r}")
        for line in fh:
            fields = line.rstrip("\n").split(",")
            t, value = float(fields[0]), complex(float(fields[-2]), float(fields[-1]))
            if not np.isfinite(value):
                raise OracleFailure(f"entry {','.join(fields[1:-2])} at t={t} is not finite")
            if not times or t != times[-1]:
                times.append(t)
                sums.append([0j, 0.0])
            if lattice_name == "kdv" or fields[1][2:] == fields[2][:-1]:
                sums[-1][0] += value
                sums[-1][1] += abs(value)
    if len(times) != steps + 1 or not np.allclose(times, dt * np.arange(steps + 1), rtol=0, atol=dt * 1e-6):
        raise OracleFailure(f"{len(times)} sample times, expected {steps + 1} at spacing {dt}")
    gap = _invariant_gap(sums[0][0].real, sums[-1][0].real, sums[0][1])
    if not gap <= TOL_INVARIANT:
        raise OracleFailure(f"{lattice_name} invariant drifted by {gap:.3e} relative")


class EvolveCall(CliOp):
    def __init__(self, lattice_name: str, p: int, n: int, scale: float, out: str, seed: int):
        argv = ["evolve", "--lattice", lattice_name, "--p", str(p), "--n", str(n),
                "--scale", repr(scale), "--dt", repr(CLI_DT), "--steps", str(CLI_STEPS)]
        super().__init__(argv, out, seed)
        self.lattice_name = lattice_name

    def check_output(self) -> tuple:
        check_trajectory_csv(self.out, self.lattice_name, CLI_STEPS, CLI_DT)
        return 0, 0


def build_cli(seed: int, out_dir: str) -> list:
    ops = []
    for p, n in CLI_FACTORIZE:
        ops.append(FactorizeCall(p, n, os.path.join(out_dir, f"call{len(ops)}.json"), seed))
    for lattice_name, p, n, scale in CLI_EVOLVE:
        ops.append(EvolveCall(lattice_name, p, n, scale, os.path.join(out_dir, f"call{len(ops)}.csv"), seed))
    return ops


# ---------------------------------------------------------------------------
# diagram: theorem1_diagram with explicit parameters


DIAGRAM_N = 32
DIAGRAM_STEPS = 100
# Order-one gammas, the scale of random_hessenberg's band moduli; at
# dt = 1e-3 the central-difference verdicts of p >= 2 sit near their
# 1e-5 tolerance, so their known truncation failures stay visible.
DIAGRAM_GAMMA = (0.5, 1.5)


class DiagramOp(Op):
    def __init__(self, p: int, k: int, J, params):
        self.J, self.params = J, params
        self.label = f"theorem1_diagram p={p} instance={k}"

    def call(self):
        return lattice.theorem1_diagram(
            self.J, C=C_SHIFT, params=self.params, dt=DT, steps=DIAGRAM_STEPS,
            tol_path=1e-4, tol_verify=TOL_VERIFY,
        )

    def check(self, result) -> Outcome:
        try:
            passed, total = check_reports({k: _report_dict(r) for k, r in result.items()})
        except OracleFailure as exc:
            return Outcome("oracle", str(exc))
        return Outcome("ok", "", passed, total)


def build_diagram(seed: int) -> list:
    ops = []
    for p in (1, 2, 3):
        for k in range(4):
            rng = np.random.default_rng([seed, p, k])
            J, _table, params = positive_instance(p, DIAGRAM_N, rng, *DIAGRAM_GAMMA, C_SHIFT)
            ops.append(DiagramOp(p, k, J, params))
    return ops


# ---------------------------------------------------------------------------
# flow-large: both flows at n = 1024, then their central-difference checks


FLOW_P = 3
FLOW_N = 1024
FLOW_STEPS = 2000
FLOW_GAMMA = (0.05, 0.15)


class TodaOp(Op):
    label = "evolve_toda + verify_toda"

    def __init__(self, J):
        self.J = J

    def call(self):
        traj = lattice.evolve_toda(self.J, C_SHIFT, DT, FLOW_STEPS)
        return traj, lattice.verify_toda(traj, TOL_VERIFY)

    def check(self, result) -> Outcome:
        traj, rep = result
        first, last = traj.states[0], traj.states[-1]
        if len(traj.states) != FLOW_STEPS + 1:
            return Outcome("oracle", f"{len(traj.states)} states, expected {FLOW_STEPS + 1}")
        if not all(np.all(np.isfinite(b)) for b in last.bands) or not np.isfinite(rep.max_residual):
            return Outcome("oracle", "final state or residual is not finite")
        d0, d1 = np.asarray(first.bands[0]), np.asarray(last.bands[0])
        gap = _invariant_gap(d0.sum().real, d1.sum().real, np.abs(d0).sum())
        if not gap <= TOL_INVARIANT:
            return Outcome("oracle", f"trace(J) drifted by {gap:.3e} relative")
        return Outcome("ok", "", int(rep.passed), 1)


class KdvOp(Op):
    label = "evolve_kdv + verify_kdv"

    def __init__(self, table):
        self.table = table

    def call(self):
        traj = lattice.evolve_kdv(self.table, DT, FLOW_STEPS)
        return traj, lattice.verify_kdv(traj, TOL_VERIFY)

    def check(self, result) -> Outcome:
        traj, rep = result
        first, last = traj.states[0], traj.states[-1]
        if len(traj.states) != FLOW_STEPS + 1:
            return Outcome("oracle", f"{len(traj.states)} states, expected {FLOW_STEPS + 1}")
        g0, g1 = np.asarray(first.values), np.asarray(last.values)
        if not np.all(np.isfinite(g1)) or not np.isfinite(rep.max_residual):
            return Outcome("oracle", "final state or residual is not finite")
        gap = _invariant_gap(g0.sum().real, g1.sum().real, np.abs(g0).sum())
        if not gap <= TOL_INVARIANT:
            return Outcome("oracle", f"sum of gammas drifted by {gap:.3e} relative")
        return Outcome("ok", "", int(rep.passed), 1)


def build_flow_large(seed: int) -> list:
    J, table, _params = positive_instance(
        FLOW_P, FLOW_N, np.random.default_rng(seed), *FLOW_GAMMA, C_SHIFT
    )
    return [TodaOp(J), KdvOp(table)]


def build(name: str, seed: int, out_dir: str) -> list:
    """The operations of one workload, inputs built; touches no file."""
    if name == "cli":
        return build_cli(seed, out_dir)
    if name == "diagram":
        return build_diagram(seed)
    if name == "flow-large":
        return build_flow_large(seed)
    raise ValueError(f"unknown workload {name!r}")
