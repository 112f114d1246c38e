"""The two lattice flows and the numerical verification of their link.

A banded Hessenberg matrix J(t) runs the full Kostant Toda hierarchy's
first flow

    da_{i,j}/dt = (a_{i,i} - a_{j,j}) a_{i,j} + a_{i+1,j} - a_{i,j-1},

with entries outside the band pattern read as zero; the unit
superdiagonal is preserved.  The gamma table of its bidiagonal
factorization runs the discrete KdV lattice

    dgamma_n/dt = gamma_n (sum_{i=1}^p gamma_{n+i} - sum_{i=1}^p gamma_{n-i}),

with gamma_{n<=0} = 0.  The content of the commuting diagram checked by
``theorem1_diagram`` is that these two flows are conjugate: evolving the
table and reassembling the transformed matrices through the closed-form
entries gives trajectories of the Toda flow, for every member J^(0),
..., J^(p) of the Darboux chain at once.

Everything is integrated with fixed-step classical RK4 and verified by
comparing central finite differences of a trajectory against the exact
right hand side, so residuals of honest solutions shrink like dt^2.
Truncation is handled by windows: the bottom rows of a finite Toda
truncation and the top indices of a finite gamma table feel the missing
neighbors immediately, so equations are only checked where the full
stencil is available, and cross-route comparisons only inside the
certified rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .banded import BandedHessenberg, ValidWindow
from .darboux import (
    DarbouxFactors,
    GammaTable,
    darboux_factorization,
    enumerate_indices,
)
from .lu import char_poly

__all__ = [
    "BlowUp",
    "InsufficientSamples",
    "ResidualReport",
    "Trajectory",
    "check_delta_derivative",
    "check_poly_derivative",
    "evolve_kdv",
    "evolve_toda",
    "kdv_rhs",
    "reconstruct_transform",
    "theorem1_diagram",
    "toda_rhs",
    "trajectory_rows",
    "verify_kdv",
    "verify_toda",
]


class BlowUp(RuntimeError):
    """A state entry left the representable range during integration."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"trajectory blew up; last finite time {t:.6g}")


class InsufficientSamples(ValueError):
    """Central differences need at least three samples."""


@dataclass(frozen=True, eq=False, repr=False)
class Trajectory:
    """Fixed-step trajectory of matrix or gamma-table states."""

    times: np.ndarray
    states: tuple
    dt: float
    method: str = "rk4"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def kind(self) -> str:
        return "kdv" if isinstance(self.states[0], GammaTable) else "toda"

    def __len__(self):
        return len(self.states)

    def __repr__(self):
        return f"Trajectory(kind={self.kind!r}, samples={len(self)}, dt={self.dt})"


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one verification: worst residual and where it happened."""

    label: str
    max_residual: float
    argmax: tuple
    tolerance: float
    passed: bool

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        where = f" at {self.argmax[0]}, sample {self.argmax[1]}" if self.argmax else ""
        return (
            f"[{state}] {self.label}: max residual {self.max_residual:.3e}"
            f" (tol {self.tolerance:.1e}){where}"
        )


def _report(label, residual, argmax, tol) -> ResidualReport:
    return ResidualReport(label, float(residual), argmax, float(tol), bool(residual <= tol))


# ---------------------------------------------------------------------------
# right hand sides


def toda_rhs(J: BandedHessenberg) -> tuple:
    """Band derivatives of the Toda flow, one array per offset 0..p.

    Entries that the truncation cannot see (row n, column -1, offsets
    beyond p) are read as zero.  Only rows whose downward neighbor exists
    carry the exact semi-infinite derivative, so row n - 1 is trustworthy
    for the truncated system only; windows account for that downstream.
    """
    p, n = J.p, J.n
    diag = J.band(0)
    out = []
    for d in range(p + 1):
        b = J.band(d)
        nxt = J.band(d + 1)
        shifted = np.zeros(n, dtype=np.complex128)
        shifted[d:] = diag[: n - d]
        der = (diag - shifted) * b
        der += np.concatenate([nxt[1:], [0j]])
        der -= nxt
        der[:d] = 0
        out.append(der)
    return tuple(out)


def kdv_rhs(table: GammaTable) -> np.ndarray:
    """Flat derivative array of the discrete KdV lattice.

    Indices below the table read zero, which is the true boundary of the
    lattice; indices above the table also read zero, which is the
    truncation, so only entries with the full upper stencil inside the
    table carry the semi-infinite derivative.
    """
    g = table.values
    p = table.p
    size = len(g)
    cs = np.concatenate([[0j], np.cumsum(g)])
    idx = np.arange(size)
    upper = cs[np.minimum(idx + 1 + p, size)] - cs[np.minimum(idx + 1, size)]
    lower = cs[idx] - cs[np.maximum(idx - p, 0)]
    return g * (upper - lower)


# ---------------------------------------------------------------------------
# integration


def _axpy_toda(J: BandedHessenberg, h: float, k: tuple) -> BandedHessenberg:
    return BandedHessenberg(J.p, J.n, tuple(b + h * kb for b, kb in zip(J.bands, k)))


def _axpy_kdv(t: GammaTable, h: float, k: np.ndarray) -> GammaTable:
    return GammaTable(t.p, t.columns, t.values + h * k)


def _rk4(state, dt, rhs, axpy):
    k1 = rhs(state)
    k2 = rhs(axpy(state, dt / 2, k1))
    k3 = rhs(axpy(state, dt / 2, k2))
    k4 = rhs(axpy(state, dt, k3))
    incr = tuple((a + 2 * b + 2 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)) \
        if isinstance(k1, tuple) else (k1 + 2 * k2 + 2 * k3 + k4)
    return axpy(state, dt / 6, incr)


def _finite_toda(J: BandedHessenberg) -> bool:
    return all(np.all(np.isfinite(b.view(float))) for b in J.bands)


def evolve_toda(J0: BandedHessenberg, C=0.0, dt: float = 1e-3, steps: int = 100) -> Trajectory:
    """Integrate the Toda flow from J0 with fixed-step RK4.

    The flow is invariant under diagonal shifts, so the shift C does not
    enter the dynamics; it is accepted so one configuration travels
    through the whole pipeline and into trajectory manifests unchanged.
    Raises BlowUp with the last finite time if an entry leaves the
    representable range.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    states = [J0]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            nxt = _rk4(states[-1], dt, toda_rhs, _axpy_toda)
            if not _finite_toda(nxt):
                raise BlowUp(m * dt)
            states.append(nxt)
    times = np.arange(steps + 1) * dt
    return Trajectory(times, tuple(states), dt)


def evolve_kdv(table0: GammaTable, dt: float = 1e-3, steps: int = 100) -> Trajectory:
    """Integrate the discrete KdV lattice from a gamma table, RK4."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    states = [table0]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            nxt = _rk4(states[-1], dt, kdv_rhs, _axpy_kdv)
            if not np.all(np.isfinite(nxt.values.view(float))):
                raise BlowUp(m * dt)
            states.append(nxt)
    times = np.arange(steps + 1) * dt
    return Trajectory(times, tuple(states), dt)


# ---------------------------------------------------------------------------
# verification


def verify_toda(traj: Trajectory, tol: float, window: ValidWindow = None) -> ResidualReport:
    """Central-difference check of the Toda equations along a trajectory.

    Residuals are taken at interior sample times over every entry whose
    full stencil (the neighbor one row down) lies inside the certified
    window; with an exact flow they scale like dt^2.
    """
    if len(traj) < 3:
        raise InsufficientSamples(f"need at least 3 samples, have {len(traj)}")
    states = traj.states
    n, p = states[0].n, states[0].p
    wlim = n if window is None else min(window.rows, n)
    cap = wlim - 1
    worst, arg = 0.0, ("", 0)
    for m in range(1, len(states) - 1):
        rhs = toda_rhs(states[m])
        for d in range(p + 1):
            diff = (states[m + 1].bands[d] - states[m - 1].bands[d]) / (2 * traj.dt)
            res = np.abs(diff - rhs[d])[d:cap]
            if res.size and res.max() > worst:
                i = d + int(np.argmax(res))
                worst, arg = float(res.max()), (f"a[{i},{i - d}]", m)
    return _report("toda residual", worst, arg, tol)


def verify_kdv(traj: Trajectory, tol: float) -> ResidualReport:
    """Central-difference check of the KdV equations along a trajectory.

    Only indices with the full upper stencil inside the table are
    checked; the lower boundary is exact by the gamma_{n<=0} = 0
    convention.
    """
    if len(traj) < 3:
        raise InsufficientSamples(f"need at least 3 samples, have {len(traj)}")
    states = traj.states
    p = states[0].p
    size = states[0].size
    cap = size - p
    worst, arg = 0.0, ("", 0)
    for m in range(1, len(states) - 1):
        rhs = kdv_rhs(states[m])
        diff = (states[m + 1].values - states[m - 1].values) / (2 * traj.dt)
        res = np.abs(diff - rhs)[:cap]
        if res.size and res.max() > worst:
            worst, arg = float(res.max()), (f"gamma[{int(np.argmax(res)) + 1}]", m)
    return _report("kdv residual", worst, arg, tol)


def check_poly_derivative(J: BandedHessenberg, Jdot, z, m: int) -> float:
    """Deviation between three routes to the derivative of P_n(z).

    Route one differentiates the characteristic recurrence entry by entry
    using the given band derivatives.  Routes two and three are the
    closed forms: the band sum -sum a_{n,i} P_i and the two-term form
    (a_{n,n} - z) P_n + P_{n+1}.  When Jdot is the Toda right hand side
    of J, all three agree identically; the returned value is the largest
    deviation over degrees up to m, and it reacts to any inconsistency
    between J and Jdot.
    """
    if isinstance(Jdot, BandedHessenberg):
        Jdot = Jdot.bands
    if m < 0 or m > J.n - 1:
        raise ValueError(f"degree {m} outside 0..{J.n - 1}")
    p = J.p
    seq = char_poly(J, z, m + 1)
    P = seq.values
    Pdot = np.zeros(m + 1, dtype=np.complex128)
    for k in range(m):
        acc = Jdot[0][k] * P[k] + (J.band(0)[k] - z) * Pdot[k]
        for i in range(max(0, k - p), k):
            acc += Jdot[k - i][k] * P[i] + J.band(k - i)[k] * Pdot[i]
        Pdot[k + 1] = -acc
    dev = 0.0
    for nn in range(m + 1):
        band_sum = 0j
        for i in range(max(0, nn - p), nn):
            band_sum -= J.band(nn - i)[nn] * P[i]
        two_term = (J.band(0)[nn] - z) * P[nn] + P[nn + 1]
        dev = max(dev, abs(Pdot[nn] - band_sum), abs(Pdot[nn] - two_term))
    return float(dev)


def check_delta_derivative(table: GammaTable, table_dot) -> float:
    """Deviation of the product-rule derivative of the delta products.

    delta^(i)_k is the product of the k + 2 gammas with indices
    (r + i) p + i, r = -1..k.  Its derivative by the product rule, with
    the given table derivative, must equal delta times the difference of
    the two sliding gamma sums; that closed form holds identically when
    the table derivative is the KdV right hand side.  Only pairs (i, k)
    whose stencils lie fully inside the table are measured.
    """
    g = table.values
    gd = np.asarray(table_dot, dtype=np.complex128)
    p = table.p
    size = len(g)

    def at(idx):
        return g[idx - 1] if idx >= 1 else 0j

    def dot_at(idx):
        return gd[idx - 1] if idx >= 1 else 0j

    dev = 0.0
    for i in range(1, size // (p + 1) + 2):
        for k in range(-1, p - 1):
            top = (k + i) * p + i
            if top + p > size:
                break
            idxs = [(r + i) * p + i for r in range(-1, k + 1)]
            vals = [at(ix) for ix in idxs]
            delta = np.prod(vals)
            ddelta = 0j
            for r in range(len(idxs)):
                term = dot_at(idxs[r])
                for rr in range(len(idxs)):
                    if rr != r:
                        term *= vals[rr]
                ddelta += term
            upper = sum(at(top + j) for j in range(p + 1))
            lower = sum(at((i - 2) * p + i + j) for j in range(p + 1))
            closed = delta * (upper - lower)
            dev = max(dev, abs(ddelta - closed))
    return float(dev)


# ---------------------------------------------------------------------------
# the commuting diagram


def _transform_bands(values: np.ndarray, p: int, j: int, rows: int, C=0.0) -> list:
    """Bands 0..p of J^(j) on rows 0..rows-1, for a stack of gamma tables.

    ``values`` has shape (..., size), one flat gamma array per leading
    index, and every returned band has shape (..., rows), indexed by row
    like a BandedHessenberg band.  The caller guarantees rows <= columns,
    so every gamma read lies inside the table.

    This is backlund_entry's closed form with the same index tuples, the
    same products and the same accumulation order, so it agrees with the
    scalar route bit for bit.  Column i of band k reads gamma_{i (p+1) + o}
    for an offset o fixed by the tuple coordinate, so each factor is one
    strided slice of the zero-padded table, for all columns and all
    stacked tables at once.  Complex products are spelled out in real
    arithmetic: numpy's complex multiply may fuse a multiply and an add,
    Python's does not.
    """
    if not 0 <= j <= p:
        raise ValueError(f"transform index {j} outside 0..{p}")
    lead, size = values.shape[:-1], values.shape[-1]
    # gamma_n sits at index n + p, so gamma_{n <= 0} reads the zero padding
    parts = []
    for part in (values.real, values.imag):
        padded = np.zeros(lead + (p + 1 + size,))
        padded[..., p + 1 :] = part
        parts.append(padded)
    C = complex(C)

    def factor(o, cols):
        # gamma_{i (p+1) + o} for columns i = 0..cols-1, as (real, imag)
        return [a[..., o + p :: p + 1][..., :cols] for a in parts]

    bands = []
    for k in range(p + 1):
        band = np.zeros(lead + (rows,), dtype=np.complex128)
        cols = rows - k
        if cols > 0:
            shape = lead + (cols,)
            if k == 0:
                acc_re, acc_im = np.full(shape, C.real), np.full(shape, C.imag)
                for s in range(j + 1, j + p + 2):
                    g_re, g_im = factor(s - p, cols)
                    acc_re += g_re
                    acc_im += g_im
            else:
                acc_re, acc_im = np.zeros(shape), np.zeros(shape)
                for t in enumerate_indices(j, k, p):
                    pr, pi = np.ones(shape), np.zeros(shape)
                    for r, idx in enumerate(t, start=1):
                        g_re, g_im = factor((r - 2) * p + idx, cols)
                        pr, pi = pr * g_re - pi * g_im, pr * g_im + pi * g_re
                    acc_re += pr
                    acc_im += pi
            band.real[..., k:] = acc_re
            band.imag[..., k:] = acc_im
        bands.append(band)
    return bands


def reconstruct_transform(table: GammaTable, j: int, C=0.0, rows: int = None) -> BandedHessenberg:
    """Assemble J^(j) of a given size from a gamma table.

    Every entry is the closed form of backlund_entry, evaluated for all
    entries at once and equal to it bit for bit.
    """
    if rows is None:
        rows = table.columns
    if rows > table.columns:
        raise ValueError(f"{rows} rows need {rows} columns, table has {table.columns}")
    bands = _transform_bands(table.values, table.p, j, rows, C)
    return BandedHessenberg(table.p, rows, tuple(bands))


def theorem1_diagram(
    J0: BandedHessenberg,
    C=0.0,
    params=None,
    rng=None,
    dt: float = 1e-3,
    steps: int = 100,
    tol_path: float = 1e-4,
    tol_verify: float = 1e-5,
    path_margin: int = None,
) -> dict:
    """Run both routes around the factorization square and compare.

    Route one evolves J0 under the Toda flow directly.  Route two
    factors J0 - C I at time zero, evolves the gamma table under the KdV
    lattice, and reassembles every transformed matrix J^(0) .. J^(p)
    from the evolved table through the closed-form entries, evaluated
    for the whole trajectory in one vectorised pass per transform.

    Reports, keyed by name: "path" compares the reassembled J^(0)
    against the directly evolved J0 inside a window shrunk by
    path_margin rows (both routes are truncations, and their boundary
    pollution creeps inward over time; the default margin p + 2 keeps it
    below tol_path for short horizons at desk scale).  "toda[j]" runs
    the central-difference Toda check on each reassembled trajectory,
    which is pollution-free on its certified rows because the identity
    between the two flows is pointwise algebra.  "kdv" checks the
    evolved table itself.  With fewer than three samples only "path" is
    produced.
    """
    factors, table0 = darboux_factorization(J0, C, params=params, rng=rng)
    p, n = J0.p, J0.n
    rows = table0.columns
    if path_margin is None:
        path_margin = p + 2
    w_path = max(1, rows - path_margin)

    traj_direct = evolve_toda(J0, C, dt, steps)
    traj_table = evolve_kdv(table0, dt, steps)

    stack = np.stack([tb.values for tb in traj_table.states])
    recon = {}
    for j in range(p + 1):
        bands = _transform_bands(stack, p, j, rows, C)
        states = tuple(
            BandedHessenberg(p, rows, tuple(b[m] for b in bands)) for m in range(len(stack))
        )
        recon[j] = Trajectory(traj_table.times, states, dt)

    worst, arg = 0.0, ("", 0)
    for m, (direct, re_j0) in enumerate(zip(traj_direct.states, recon[0].states)):
        for d in range(p + 1):
            res = np.abs(direct.bands[d][:w_path] - re_j0.bands[d][:w_path])[d:]
            if res.size and res.max() > worst:
                i = d + int(np.argmax(res))
                worst, arg = float(res.max()), (f"a[{i},{i - d}]", m)
    reports = {"path": _report("path agreement", worst, arg, tol_path)}

    if len(traj_table) >= 3:
        for j in range(p + 1):
            rep = verify_toda(recon[j], tol_verify)
            reports[f"toda[{j}]"] = ResidualReport(
                f"toda residual of transform {j}",
                rep.max_residual,
                rep.argmax,
                rep.tolerance,
                rep.passed,
            )
        reports["kdv"] = verify_kdv(traj_table, tol_verify)
    return reports


# ---------------------------------------------------------------------------
# export


def trajectory_rows(traj: Trajectory):
    """Yield (t, entry_id, value) rows in a fixed deterministic order."""
    for t, state in zip(traj.times, traj.states):
        if isinstance(state, GammaTable):
            for idx, v in enumerate(state.values, start=1):
                yield float(t), f"gamma[{idx}]", complex(v)
        else:
            for d in range(state.p + 1):
                b = state.bands[d]
                for i in range(d, state.n):
                    yield float(t), f"a[{i},{i - d}]", complex(b[i])
