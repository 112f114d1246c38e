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
A ``Trajectory`` is one array over the time axis in the field of its initial
state, filled in place by RK4, swept by the verifiers in blocks of samples
(a NaN residual fails), and read as a sequence of states.  A right-hand side
is a kernel built per array shape (per RK4 trajectory, per verifier sweep)
that owns a zero-padded input, where RK4 writes each stage's argument and a
sweep copies each block.  A small step costs what its numpy calls cost (4 per
Toda rhs, p + 1 per KdV rhs, 29 per Toda step), so every copy is an array
assignment, not np.copyto with its Python-level dispatch, the ufuncs are bound
once per kernel and per trajectory, and RK4 casts dt/2, dt, 2 and dt/6 once
per trajectory to 0-d arrays of the state's dtype (as numpy casts a Python
number), so no pass converts a Python number, and passes ``out`` positionally.
Every array lattice allocates starts on a 64-byte boundary, as one inside a
cache line splits vector loads across two lines.
A sweep of at least 2 * _RUN_BLOCKS blocks, in a process that may run on
more than one CPU, splits its blocks into contiguous runs of _RUN_BLOCKS or
more, at most one per CPU, each swept in its own thread with its own kernel
and buffers (numpy releases the GIL inside its loops); the runs are merged in
sample order, so its report is the serial one.  A shorter sweep, or a
one-CPU process, starts no thread.
Both flows are finite systems: entries past the matrix or the table read
as zero.  The n x n Toda lattice and the KdV lattice of the n-column
table (``factors_to_table``, last column (u_{n-1}, 0, ..., 0)) are then
conjugate exactly, on all n rows (the factorization solution of Kostant
and Symes), so every check covers every entry.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .banded import Banded, BandedHessenberg
from .darboux import GammaTable, _factor, enumerate_indices, factors_to_table

__all__ = [
    "BlowUp",
    "InsufficientSamples",
    "ResidualReport",
    "Trajectory",
    "evolve_kdv",
    "evolve_toda",
    "kdv_rhs",
    "reconstruct_transform",
    "theorem1_diagram",
    "toda_rhs",
    "verify_kdv",
    "verify_toda",
]

# Verifiers sweep samples in blocks of about this many bytes of state, sized for L2.
_BLOCK_BYTES = 1 << 18


def _empty(shape: tuple, dtype, zero: bool = False) -> np.ndarray:
    """Uninitialised (zeroed if zero) C-contiguous array starting on a 64-byte boundary."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = (np.zeros if zero else np.empty)(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64  # the first cache-line boundary in raw
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class BlowUp(RuntimeError):
    """A state entry left the representable range during integration."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"trajectory blew up; last finite time {t:.6g}")


class InsufficientSamples(ValueError):
    """Central differences need at least three samples."""


@dataclass(frozen=True, eq=False, repr=False)
class Trajectory(Sequence):
    """Fixed-step trajectory of a lattice, one read-only array over time.

    ``data[m]`` is sample m, at time m dt: the row-indexed bands (p + 1, n)
    of J for the Toda flow, or the flat gamma table ((p + 1) columns,) for
    KdV, in the initial state's dtype; a float64 or complex128 array is
    taken over without a copy and made read-only.  The trajectory is the
    sequence of its states: ``traj[m]`` builds sample m as a banded Hessenberg
    matrix or GammaTable per access, and a slice, no integer, raises TypeError.
    """

    data: np.ndarray
    dt: float
    p: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float if np.isrealobj(self.data) else np.complex128)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.data)) * self.dt

    @property
    def kind(self) -> str:
        return "toda" if self.data.ndim == 3 else "kdv"

    @property
    def states(self) -> "Trajectory":
        """The trajectory itself, its own sequence of states."""
        return self

    def __len__(self):
        return len(self.data)

    def __getitem__(self, m):
        data, p, m = self.data, self.p, operator.index(m)
        if data.ndim == 3:
            return BandedHessenberg(p, data.shape[2], tuple(data[m]))
        return GammaTable(p, data.shape[1] // (p + 1), data[m])

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


def _toda_kernel(shape: tuple, dtype, p: int):
    """(arg, rhs): rhs(out) writes the Toda derivative of the bands in arg to out.

    arg, (..., p + 1, n), views a zeroed buffer of each state's bands flattened, then
    n + 1 zeros: a_{i+1,i-d} and a_{i,i-d-1} sit n + 1 and n slots after a_{i,i-d}, so
    row n and band p + 1 read zeros, whose +0 turns -0 into +0, and slots outside the
    band come out +0.  Built for one state, it allocates nothing per call.
    """
    lead, n, size = shape[:-2], shape[-1], (p + 1) * shape[-1]
    padded = _empty((*lead, size + n + 1), dtype, zero=True)
    arg, below, left = (padded[..., o : o + size].reshape(shape) for o in (0, n + 1, n))
    diag = arg[..., :1, :]
    # the diagonal goes to every row of wide at stride n + 1; read at stride n, row d
    # is shifted right by d, so shifted[..., d, i] is a_{i-d,i-d} for i >= d
    wide = _empty((*lead, (p + 1) * (n + 1)), dtype, zero=True)
    rows, shifted = wide.reshape(*lead, p + 1, n + 1)[..., :n], wide[..., :size].reshape(shape)

    def rhs(out, add=np.add, subtract=np.subtract, multiply=np.multiply):
        rows[...] = diag
        out[...] = diag
        multiply(subtract(out, shifted, out), arg, out)
        add(out, below, out)
        return subtract(out, left, out)

    return arg, rhs


def _kdv_kernel(shape: tuple, dtype, p: int):
    """(arg, rhs): rhs(out) writes the KdV derivative of the flat gamma arrays in arg to out."""
    size, L = shape[-1], shape[-1] + p + 1
    # buf is p zeros, the table, p zeros: gamma_{n<=0} reads the boundary, gamma_{n>size}
    # the truncation.  win[k] = buf[k] + .. + buf[k+p-1], summed left to right, so its
    # round-off does not grow with the table's length; for p = 1 it is buf itself.
    buf = _empty((*shape[:-1], size + 2 * p), dtype, zero=True)
    win = buf if p == 1 else _empty((*shape[:-1], L), dtype)
    terms = [buf[..., i : i + L] for i in range(p)]
    adds = list(zip([terms[0]] + [win] * (p - 2), terms[1:]))  # terms 0 + 1, then win + i
    arg, upper, lower = buf[..., p : p + size], win[..., p + 1 :], win[..., :size]

    def rhs(out, add=np.add, subtract=np.subtract, multiply=np.multiply):
        for a, b in adds:
            add(a, b, win)
        # upper minus lower window, then g * out: complex multiply is not bitwise commutative
        subtract(upper, lower, out)
        return multiply(arg, out, out)

    return arg, rhs


def toda_rhs(J: Banded) -> tuple:
    """Band derivatives of the Toda flow, one array per offset 0..p.

    Entries outside the n x n band pattern (row n, column -1, offsets
    beyond p) are read as zero, which is the finite system's equation.
    """
    arg, rhs = _toda_kernel((J.p + 1, J.n), J.data.dtype, J.p)
    arg[...] = J.bands
    return tuple(rhs(np.empty_like(arg)))


def kdv_rhs(table: GammaTable) -> np.ndarray:
    """Flat derivative array of the discrete KdV lattice.

    Indices below the table read zero, which is the true boundary of the
    lattice, and so do indices above it, which is the finite system's
    equation.
    """
    arg, rhs = _kdv_kernel(table.values.shape, table.values.dtype, table.p)
    arg[...] = table.values
    return rhs(np.empty_like(arg))


# ---------------------------------------------------------------------------
# integration


def _rk4(y0: np.ndarray, kernel, dt: float, steps: int, p: int) -> Trajectory:
    """Fixed-step RK4 in y0's dtype, every sample stored in one preallocated array.

    Finiteness is checked once per block of samples; BlowUp names the time
    of the last finite one.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = _empty((steps + 1,) + y0.shape, y0.dtype)
    out[0] = y0
    arg, rhs = kernel(y0.shape, y0.dtype, p)
    # arg is a stage's argument, k its slope, acc sums k1 + 2 k2 + 2 k3 + k4; operands keep
    # the order of y + h * k and 2 * k, as complex multiply is not bitwise commutative
    acc, k = _empty(y0.shape, y0.dtype), _empty(y0.shape, y0.dtype)
    half, full, two, sixth = (np.array(c, y0.dtype) for c in (dt / 2, dt, 2, dt / 6))
    block = max(1, _BLOCK_BYTES // out[0].nbytes)
    add, multiply = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for m0 in range(0, steps, block):
            m1 = min(m0 + block, steps)
            for y, y1 in zip(out[m0:m1], out[m0 + 1 : m1 + 1]):
                arg[...] = y
                rhs(acc)
                add(y, multiply(half, acc, arg), arg)
                rhs(k)
                add(y, multiply(half, k, arg), arg)
                add(acc, multiply(two, k, k), acc)
                rhs(k)
                add(y, multiply(full, k, arg), arg)
                add(acc, multiply(two, k, k), acc)
                rhs(k)
                multiply(sixth, add(acc, k, acc), acc)
                add(y, acc, y1)
            finite = np.isfinite(out[m0 + 1 : m1 + 1].view(float).reshape(m1 - m0, -1)).all(1)
            if not finite.all():
                raise BlowUp((m0 + int(np.argmin(finite))) * dt)
    return Trajectory(out, dt, p)


def evolve_toda(J0: Banded, C=0.0, dt: float = 1e-3, steps: int = 100) -> Trajectory:
    """Integrate the Toda flow from J0 with fixed-step RK4.

    The flow is invariant under diagonal shifts, so the shift C is never
    read; it is kept only because the benchmark passes it by position.
    Raises BlowUp with the last finite time if an entry leaves the
    representable range.
    """
    return _rk4(np.stack(J0.bands), _toda_kernel, dt, steps, J0.p)


def evolve_kdv(table0: GammaTable, dt: float = 1e-3, steps: int = 100) -> Trajectory:
    """Integrate the discrete KdV lattice from a gamma table, RK4."""
    return _rk4(table0.values, _kdv_kernel, dt, steps, table0.p)


# ---------------------------------------------------------------------------
# verification


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform lacks CPU affinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worse(v: float, worst: float) -> bool:
    """Whether v replaces worst: only a strictly larger number, or a first NaN."""
    return v > worst or (v != v and worst == worst)


def _sweep(residual, starts: range, hi: int, block: int):
    """Worst residual over the blocks that start at starts, and its (entry, sample)."""
    worst, arg = 0.0, ()
    for m0 in starts:
        m0 = min(m0, hi - block)
        res = residual(m0)
        for d in range(1, res.shape[1] if res.ndim == 3 else 0):
            res[:, d, :d] = 0
        if res.size:
            k = int(np.argmax(res))  # argmax stops at the first NaN
            v = float(res.flat[k])
            if _worse(v, worst):
                m, *at = map(int, np.unravel_index(k, res.shape))
                entry = f"a[{at[1]},{at[1] - at[0]}]" if res.ndim == 3 else f"gamma[{at[0] + 1}]"
                worst, arg = v, (entry, m0 + m)
    return worst, arg


# A worker thread repays its start, its kernel and its fresh block buffers only
# over a run of at least this many blocks: split in two on two CPUs (x86-64,
# numpy 2.4, p = 1-3, real and complex), verify_toda and verify_kdv sweeps of
# 2 blocks took 1.1-1.8x as long as serial ones, of 8 blocks 0.8-1.2x, and of
# 16-24 blocks 0.6-0.9x.
_RUN_BLOCKS = 8


def _worst(residuals, lo: int, hi: int, block: int):
    """Worst residual over samples lo..hi-1, swept in blocks of samples, and its (entry, sample).

    ``residuals()`` builds a function with its own buffers: ``residual(m0)``
    gives samples m0..m0+block-1 of Toda band residuals (block, p + 1, rows),
    whose d slots before band d's first row are zeroed here, or of gamma
    residuals (block, size).  Every block has block <= hi - lo samples, so
    the last starts at hi - block and may sweep samples again.  Only a
    strictly larger entry in C order replaces the worst, so on ties the
    first sample, then band and row, wins, and a sample swept again changes
    nothing; a NaN is worse than any number.  The location is () while
    nothing exceeds zero.

    The blocks are split into contiguous runs, at most one per CPU and, if
    more than one, each of _RUN_BLOCKS blocks or more; every run is swept
    through its own residual function: the first here, the others in
    threads that run in a copy of this context, as numpy's error state is a
    context variable.  Every thread is joined before this raises the first
    run's exception or merges the runs' results in sample order by the same
    rule, so the report is the serial one.  A single run starts no thread.
    """
    starts = range(lo, hi, block)
    workers = max(1, min(_cpus(), len(starts) // _RUN_BLOCKS))
    bounds = [len(starts) * k // workers for k in range(workers + 1)]
    runs = [starts[a:b] for a, b in zip(bounds, bounds[1:])]
    results = [None] * workers

    def sweep(k, residual):
        try:
            results[k] = _sweep(residual, runs[k], hi, block)
        except BaseException as exc:
            results[k] = exc

    threads = []
    try:
        for k in range(1, workers):
            run = contextvars.copy_context().run
            thread = threading.Thread(target=run, args=(sweep, k, residuals()))
            thread.start()
            threads.append(thread)
        sweep(0, residuals())
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return functools.reduce(lambda a, b: b if _worse(b[0], a[0]) else a, results)


def _central(data: np.ndarray, dt: float, kernel, p: int):
    """_worst of central differences against kernel's rhs, over every entry.

    Each residual function builds one kernel and its block buffers; each
    block computes (a - b) / (2 dt) - rhs, then abs, in that order.
    """
    if len(data) < 3:
        raise InsufficientSamples(f"need at least 3 samples, have {len(data)}")
    shape = (min(max(1, _BLOCK_BYTES // data[0].nbytes), len(data) - 2), *data.shape[1:])

    def residuals():
        diff, slope, res = (_empty(shape, t) for t in (data.dtype, data.dtype, float))
        arg, rhs = kernel(shape, data.dtype, p)

        def residual(m0):
            m1 = m0 + shape[0]
            np.subtract(data[m0 + 1 : m1 + 1], data[m0 - 1 : m1 - 1], out=diff)
            np.divide(diff, 2 * dt, out=diff)
            arg[...] = data[m0:m1]
            rhs(slope)
            return np.abs(np.subtract(diff, slope, out=diff), out=res)

        return residual

    return _worst(residuals, 1, len(data) - 1, shape[0])


def verify_toda(traj: Trajectory, tol: float) -> ResidualReport:
    """Central-difference check of the Toda equations along a trajectory.

    Residuals are taken at interior sample times over every entry of the
    n x n system; with an exact flow they scale like dt^2.
    """
    worst, arg = _central(traj.data, traj.dt, _toda_kernel, traj.p)
    return _report("toda residual", worst, arg, tol)


def verify_kdv(traj: Trajectory, tol: float) -> ResidualReport:
    """Central-difference check of the KdV equations along a trajectory.

    Every entry of the table is checked, the finite system's equation
    with zeros read past both ends.
    """
    worst, arg = _central(traj.data, traj.dt, _kdv_kernel, traj.p)
    return _report("kdv residual", worst, arg, tol)


# ---------------------------------------------------------------------------
# the commuting diagram


def _transform_bands(values: np.ndarray, p: int, C=0.0) -> np.ndarray:
    """Bands 0..p of every J^(j), one row per table column, for a stack of gamma tables.

    ``values`` has shape (..., size), one flat gamma array of
    rows = size // (p + 1) columns per leading index; result[j], of shape
    (..., p + 1, rows), holds the bands of J^(j) indexed by row like those
    of a Banded, and every gamma read lies inside the table.

    This is backlund_entry's closed form with the same index tuples, the
    same products and the same accumulation order, so it agrees with the
    scalar route bit for bit: band k starts at C for k = 0 (the diagonal,
    summed over 1-tuples) and at 0 otherwise, and each product starts from
    its first factor.  Column i of band k reads gamma_{i (p+1) + o} for an
    offset o fixed by the tuple coordinate, so each factor is one strided
    slice of the zero-padded table, for all columns and all stacked tables
    at once.  J^(j) reads J^(0)'s gammas shifted by j, as
    enumerate_indices(j, k, p) is enumerate_indices(0, k, p) + j, so the
    slices are taken of a view with a leading j axis of stride one element.
    A float64 table and a real C give float64 bands, the complex route's
    real parts, as a +0 accumulator absorbs the sign of a zero product;
    others give complex128, products spelled out in real arithmetic:
    numpy's complex multiply may fuse a multiply and an add, Python's does
    not.
    """
    lead, size = values.shape[:-1], values.shape[-1]
    rows = size // (p + 1)
    real = np.isrealobj(values) and np.isrealobj(C)
    bands = np.zeros((p + 1, *lead, p + 1, rows), dtype=float if real else complex)
    bands[..., 0, :] = np.real(C) if real else C
    # a number is the tuple of its real parts: on padded's leading axis, and in sums
    if real:
        sums, parts = (bands,), (values.real,)

        def times(a, b):
            return (a[0] * b[0],)
    else:
        sums, parts = (bands.real, bands.imag), (values.real, values.imag)

        def times(a, b):
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    # gamma_n sits at index n + p, so gamma_{n <= 0} reads the zero padding
    padded = np.zeros((len(parts),) + lead + (p + 1 + size,))
    padded[..., p + 1 :] = parts
    # view[:, j, ..., x] is padded[:, ..., x + j]; J^(p) reads at most index p + size
    shape = (len(parts), p + 1, *lead, size + 1)
    strides = (padded.strides[0], padded.itemsize, *padded.strides[1:])
    padded = as_strided(padded, shape, strides, writeable=False)
    for k in range(min(p + 1, rows)):
        accs = [s[..., k, k:] for s in sums]
        for t in enumerate_indices(0, k, p):
            # factor r of tuple t is gamma_{i (p+1) + r p + t_r}, i = 0..rows-k-1, per part
            factors = (tuple(padded[..., (r + 1) * p + idx :: p + 1][..., : rows - k])
                       for r, idx in enumerate(t, -1))
            for acc, x in zip(accs, functools.reduce(times, factors)):
                acc += x
    return bands


def reconstruct_transform(table: GammaTable, j: int, C=0.0) -> Banded:
    """Assemble J^(j) from a gamma table, one row per table column.

    Every entry is the closed form of backlund_entry, evaluated for the
    whole chain J^(0..p) at once and equal to it bit for bit.  A column
    sums 2^(p+1) - 1 index tuples, each band's built and sorted in full by
    enumerate_indices, so time and memory grow like 2^p.
    """
    if not 0 <= j <= table.p:
        raise ValueError(f"transform index {j} outside 0..{table.p}")
    bands = _transform_bands(table.values, table.p, C)[j]
    return BandedHessenberg(table.p, table.columns, tuple(bands))


def theorem1_diagram(
    J0: Banded,
    C=0.0,
    params=None,
    rng=None,
    dt: float = 1e-3,
    steps: int = 100,
    tol_path: float = 1e-4,
    tol_verify: float = 1e-5,
) -> dict:
    """Run both routes around the factorization square and compare.

    Route one evolves J0 under the Toda flow directly.  Route two
    factors J0 - C I at time zero, evolves the n-column gamma table
    (``factors_to_table``) under the KdV lattice, and reassembles every
    transformed matrix J^(0) .. J^(p) from the evolved table through the
    closed-form entries, evaluated for the whole trajectory and the whole
    chain in one vectorised pass with the stored shift, so a real J and C
    run every step and comparison in float64.

    Reports, keyed by name, each over all n rows or the whole table:
    "path" compares the reassembled J^(0) against the directly evolved
    J0, which differ by the integrators' errors only.  "toda[j]" runs the
    central-difference Toda check on each reassembled trajectory.  "kdv"
    checks the evolved table itself.  With fewer than three samples only
    "path" is produced.
    """
    factors = _factor(J0, C, params, rng)
    p = J0.p

    direct = evolve_toda(J0, C, dt, steps).data
    traj_table = evolve_kdv(factors_to_table(factors), dt, steps)
    recon = _transform_bands(traj_table.data, p, factors.C)
    block = min(max(1, _BLOCK_BYTES // direct[0].nbytes), len(direct))
    dtype = np.result_type(direct, recon[0])

    def path_residuals():
        diff, res = (_empty(direct[:block].shape, t) for t in (dtype, float))

        def path_residual(m0):
            m1 = m0 + block
            np.subtract(direct[m0:m1], recon[0][m0:m1], out=diff)
            return np.abs(diff, out=res)

        return path_residual

    worst, arg = _worst(path_residuals, 0, len(direct), block)
    reports = {"path": _report("path agreement", worst, arg, tol_path)}

    if len(traj_table) >= 3:
        for j in range(p + 1):
            worst, arg = _central(recon[j], dt, _toda_kernel, p)
            label = f"toda residual of transform {j}"
            reports[f"toda[{j}]"] = _report(label, worst, arg, tol_verify)
        reports["kdv"] = verify_kdv(traj_table, tol_verify)
    return reports
