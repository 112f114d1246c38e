"""Complete bidiagonal factorizations of banded Hessenberg matrices.

A shifted banded Hessenberg matrix with p subdiagonals factors as

    J - C I = L^(1) L^(2) ... L^(p) U,

where U is upper bidiagonal with a unit superdiagonal and each L^(i) is
lower bidiagonal with a unit diagonal.  The factor entries are arranged
in a table with p + 1 rows indexed by a single flat sequence gamma_n,
n >= 1: column m holds gamma_{m(p+1)+1} on the U row and
gamma_{m(p+1)+i+1} on the L^(i) row, and gamma_n is taken to be zero for
n <= 0 throughout.

The factorization is far from unique: splitting the unit lower
triangular LU factor L into p bidiagonal factors leaves p(p-1)/2 free
parameters, the leading p-s-1 subdiagonal entries of each L^(s+1).  The
machinery here makes that parameter count concrete:

* ``peel`` splits one bidiagonal factor off a unit lower banded matrix,
  narrowing its bandwidth by one; the free entries of the split factor
  are exactly the parameters of that stage.
* ``sample_parameters`` draws stage parameters scaled to the stage, in
  its field, and peels each draw; its margin, the smallest row
  cancellation ratio of the peel, vanishes exactly where a later peel
  would divide by zero.
  The best of four draws is kept once it clears the margin.  The dense
  minors of ``hyperplane_determinant`` bound the same set, as an oracle.
* ``factors_to_table`` reads the gamma table off the n x n factors: n
  columns, the last holding the last pivot u_{n-1} and p zeros, as no
  factor has a row n.  This table is the whole finite system, and its
  closed form gives every transformed matrix on all n rows.
  ``table_fill`` recovers the same table from the pivots, the free
  parameters and the matrix entries alone, one anti-diagonal at a time,
  without forming any factor; it stays only as the reference of the
  uniqueness check, and the command line checks a table by its closed
  form instead.
* ``assemble_transform`` builds the transformed matrices

      J^(i) = C I + L^(i+1) ... L^(p) U L^(1) ... L^(i),

  the discrete Darboux chain connecting J^(0) = J to J^(p), as products
  of the n x n factors.
* ``backlund_entry`` evaluates any entry of any J^(i) directly from the
  gamma table as an explicit sum over weakly decreasing index tuples,
  never touching a matrix product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .banded import Banded, ShapeError, _field, _from_pair, _pair, _pairs, multiply_chain
from .banded import from_json_dict as matrix_from_json, to_json_dict as matrix_json
from .lu import BREAKDOWN_RATIO, lu_factorize

__all__ = [
    "DarbouxFactors",
    "GammaTable",
    "ParameterSet",
    "PeelBreakdown",
    "SamplingFailed",
    "TableBreakdown",
    "assemble_transform",
    "backlund_entry",
    "darboux_factorization",
    "darboux_factorize",
    "enumerate_indices",
    "enumerate_indices_tilde",
    "factors_to_table",
    "hyperplane_determinant",
    "peel",
    "sample_parameters",
    "table_fill",
]


class SamplingFailed(RuntimeError):
    """No draw cleared the margin in the retry budget; ``margin`` is the best draw's."""

    def __init__(self, retries: int, margin: float):
        self.retries = retries
        self.margin = margin
        super().__init__(
            f"no admissible parameters within {retries} retries "
            f"(best margin {margin:.3e})"
        )


class PeelBreakdown(ArithmeticError):
    """The peel denominator of ``row`` cancelled; ``ratio`` is its cancellation ratio."""

    def __init__(self, row: int, ratio: float = 0.0):
        self.row = row
        self.ratio = ratio
        super().__init__(
            f"peel breaks down at row {row} (denominator cancellation ratio {ratio:.3e})"
        )


class TableBreakdown(ArithmeticError):
    """Table fill divided by a vanishing product of gamma entries."""

    def __init__(self, i: int, k: int, magnitude: float = 0.0):
        self.i = i
        self.k = k
        super().__init__(
            f"table fill breaks down at anti-diagonal {i}, step {k} "
            f"(product magnitude {magnitude:.3e})"
        )


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True, eq=False, repr=False)
class GammaTable:
    """Factor entries gamma_1 .. gamma_{(p+1) columns} as one flat array.

    Row r of the table (r = 0 for U, r = 1..p for L^(r)) at column m is
    the flat entry with index m (p + 1) + r + 1.
    """

    p: int
    columns: int
    values: np.ndarray

    def __post_init__(self):
        if self.p < 1 or self.columns < 1:
            raise ValueError(f"invalid table shape p={self.p}, columns={self.columns}")
        vals = _field(self.values)
        if vals.shape != ((self.p + 1) * self.columns,):
            raise ValueError(
                f"table needs {(self.p + 1) * self.columns} entries, got {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return (self.p + 1) * self.columns

    def gamma(self, n: int) -> complex:
        """Flat entry gamma_n, with gamma_n = 0 for all n <= 0."""
        if n <= 0:
            return 0j
        if n > self.size:
            raise IndexError(f"gamma index {n} beyond table of size {self.size}")
        return complex(self.values[n - 1])

    def row(self, row: int) -> np.ndarray:
        if not 0 <= row <= self.p:
            raise IndexError(f"table row {row} out of range")
        return self.values[row :: self.p + 1]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "columns": self.columns,
            "gamma": _pairs(self.values),
        }

    def __repr__(self):
        return f"GammaTable(p={self.p}, columns={self.columns})"


@dataclass(frozen=True, eq=False, repr=False)
class ParameterSet:
    """Free parameters of the bidiagonal splitting, stage by stage.

    Row s (s = 0..p-2) holds the p-s-1 leading subdiagonal entries of
    L^(s+1), which in table coordinates are gamma_{(i-1)(p+1)+s+2} for
    i = 1..p-s-1.  All parameters must be nonzero; a zero parameter is a
    zero subdiagonal entry, which the factorization excludes.
    """

    alphas: tuple

    def __post_init__(self):
        rows = []
        p = len(self.alphas) + 1
        for s, row in enumerate(self.alphas):
            arr = _field(row)
            if arr.shape != (p - s - 1,):
                raise ValueError(
                    f"stage {s} needs {p - s - 1} parameters, got shape {arr.shape}"
                )
            if np.any(arr == 0):
                raise ValueError(f"stage {s} contains a zero parameter")
            arr.flags.writeable = False
            rows.append(arr)
        object.__setattr__(self, "alphas", tuple(rows))

    @property
    def p(self) -> int:
        return len(self.alphas) + 1

    def __repr__(self):
        return f"ParameterSet(p={self.p})"


@dataclass(frozen=True, eq=False, repr=False)
class DarbouxFactors:
    """Bidiagonal factors of J - C I: one upper factor and p lower factors.

    U has a free diagonal under a unit superdiagonal (p = 0, hi = 1), and
    ``factors[s]`` is L^(s+1), a free subdiagonal under a unit diagonal
    (p = 1, hi = 0).
    """

    U: Banded
    factors: tuple
    C: complex = 0j

    def __post_init__(self):
        U = self.U
        if not isinstance(U, Banded) or (U.p, U.hi) != (0, 1) or not np.all(U.band(-1)[:-1] == 1):
            raise ShapeError("U factor must be upper bidiagonal with a unit superdiagonal")
        if not self.factors:
            raise ShapeError("at least one lower factor is required")
        for f in self.factors:
            if not isinstance(f, Banded) or (f.p, f.hi) != (1, 0) or not np.all(f.band(0) == 1):
                raise ShapeError("lower factors must be lower bidiagonal with a unit diagonal")
        ns = {f.n for f in (U, *self.factors)}
        if len(ns) != 1:
            raise ShapeError(f"factor sizes disagree: {sorted(ns)}")
        object.__setattr__(self, "C", _field(self.C)[()])

    @property
    def p(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return self.factors[0].n

    def parameters(self) -> ParameterSet:
        """The free parameters this factorization realizes."""
        rows = []
        for s in range(self.p - 1):
            sub = self.factors[s].band(1)
            rows.append(sub[1 : self.p - s])
        return ParameterSet(tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "C": _pair(self.C),
            "U": matrix_json(self.U),
            "factors": [matrix_json(f) for f in self.factors],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "DarbouxFactors":
        try:
            c = _from_pair(payload["C"])
            u = payload["U"]
            fs = payload["factors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed factor payload: {exc}") from None
        if u is None:
            raise ValueError("factor payload has no U")
        if not isinstance(fs, list):
            raise ValueError("factor payload needs a list of lower factors")
        return cls(matrix_from_json(u), tuple(matrix_from_json(f) for f in fs), c)

    def __repr__(self):
        return f"DarbouxFactors(p={self.p}, n={self.n}, C={self.C})"


# ---------------------------------------------------------------------------
# index sets


def enumerate_indices(j: int, k: int, p: int) -> list:
    """Weakly decreasing (k+1)-tuples between j + k + 1 and j + p + 1.

    These index the gamma products in the entries of the transformed
    matrix J^(j) at band offset k; k = 0 gives the 1-tuples (j + 1,) ..
    (j + p + 1,) of the diagonal.  Sorted lexicographically.
    """
    if not 0 <= k <= p:
        raise ValueError(f"band offset k={k} outside 0..{p}")
    lo, hi = j + k + 1, j + p + 1
    tuples = [t[::-1] for t in itertools.combinations_with_replacement(range(lo, hi + 1), k + 1)]
    tuples.sort()
    return tuples


def enumerate_indices_tilde(k: int, p: int) -> list:
    """The j = 0 index set of length k + 3 with its largest tuple removed.

    Equals enumerate_indices(0, k + 2, p) minus the constant tuple
    (p+1, ..., p+1): the last coordinate must stay below p + 1.  This is
    the index set of the known side of the table fill recurrence.
    """
    return [t for t in enumerate_indices(0, k + 2, p) if t[-1] != p + 1]


# ---------------------------------------------------------------------------
# parameter sampling

SAMPLE_MARGIN = 1e-9
SAMPLE_RETRIES = 64


def hyperplane_determinant(T: Banded, r: int, k: int) -> complex:
    """Minor R_k^(r) of a stage matrix T, by dense elimination.

    Rows are the single row q - r - 1 followed by rows q .. q + k - 2
    (q is the subdiagonal count of T), columns 0 .. k - 1.  These minors
    are the coefficients of the hyperplanes that the stage's parameters
    must avoid so that every later peel denominator stays nonzero (an
    oracle; the sampler checks its peels instead).
    """
    q = T.p
    if k < 1:
        raise ValueError(f"order k={k} must be at least 1")
    if not 0 <= r <= q - 1:
        raise ValueError(f"row selector r={r} outside 0..{q - 1}")
    rows = [q - r - 1] + [q + t for t in range(k - 1)]
    if max(rows) > T.n - 1:
        raise ValueError(f"order k={k} needs rows up to {max(rows)}, size is {T.n}")
    m = T.to_dense()[np.ix_(rows, range(k))]
    return complex(np.linalg.det(m))


def _peel_ratios(T: Banded, D: Banded, A: Banded) -> np.ndarray:
    """Cancellation ratios of A's deepest band on rows q-1 .. n-1.

    Row i computes A_{q-1}[i] = T_{q-1}[i] - d_i A_{q-2}[i-1] (A_0 is the
    unit diagonal), and the ratio |A_{q-1}[i]| / (|T_{q-1}[i]| +
    |d_i A_{q-2}[i-1]|) lies in [0, 1]; it is 0 when the entry cancels
    exactly, and such an entry is the peel denominator of row i + 1 (row n
    lies past the truncation).  The ratios are invariant under graded scaling.
    """
    q = T.p
    num = np.abs(A.band(q - 1)[q - 1 :])
    den = np.abs(T.band(q - 1)[q - 1 :]) + np.abs(D.band(1)[q - 1 :] * A.band(q - 2)[q - 2 : -1])
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _median_modulus(values) -> float:
    # by sorting, as np.median loads numpy.ma (about 1 MB) on first use; 1.0 for zeros
    mod = np.sort(np.abs(values))
    return float(mod[(len(mod) - 1) // 2] + mod[len(mod) // 2]) / 2 or 1.0


def sample_parameters(T: Banded, rng) -> tuple:
    """Draw stage parameters, peel each draw, and return the best split (D, A).

    Each of the q - 1 parameters (q = subdiagonal count of T) gets
    modulus uniform in [1, 2] times the median modulus of T's first
    subdiagonal, and lies in the field of T: a random sign when T is
    stored in float64, a random phase otherwise.
    A draw's margin is the smallest row cancellation ratio of its peel
    (``_peel_ratios``); a draw whose peel divides by an exact zero has
    margin 0.  Of the first four draws the one with the largest margin is
    kept, and it is accepted when that margin exceeds SAMPLE_MARGIN;
    further draws, up to SAMPLE_RETRIES in all, are made only while no
    draw has cleared it.
    """
    d, real = T.p - 1, np.isrealobj(T.data)
    rng = np.random.default_rng(rng)
    scale = _median_modulus(T.band(1)[1:])
    best, split = 0.0, None
    for k in range(SAMPLE_RETRIES):
        if k >= 4 and best > SAMPLE_MARGIN:
            break
        mod = scale * rng.uniform(1.0, 2.0, d)
        if real:
            alphas = mod * (rng.integers(0, 2, d) * 2.0 - 1.0)
        else:
            alphas = mod * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))
        try:
            D, A = peel(T, alphas)
        except PeelBreakdown:
            continue
        # a NaN margin never beats best, which starts at 0
        margin = float(_peel_ratios(T, D, A).min(initial=1.0))
        if margin > best:
            best, split = margin, (D, A)
    if best > SAMPLE_MARGIN:
        return split
    raise SamplingFailed(SAMPLE_RETRIES, best)


# ---------------------------------------------------------------------------
# peeling


def peel(T: Banded, alphas):
    """Split T into D A with D lower bidiagonal and A one band narrower.

    The first q - 1 subdiagonal entries of D are the given parameters
    (q = subdiagonal count of T); from row q on, each entry of D is the
    ratio of T's deepest band to A's deepest band one row up, which
    forces the deepest band of A to vanish.  Rows of A follow by direct
    subtraction, so D A = T holds exactly at every truncation size.  Only
    an exact zero denominator raises PeelBreakdown.
    """
    q = T.p
    if q < 2:
        raise ValueError("peeling needs at least two subdiagonals")
    alphas = np.asarray(alphas, dtype=np.complex128)
    if alphas.shape != (q - 1,):
        raise ValueError(f"stage needs {q - 1} parameters, got shape {alphas.shape}")
    n = T.n
    # lists of complex numpy scalars: the same scalar arithmetic as on arrays,
    # without the cost of array item access, and the complex division of lu
    tbands = [list(b) for b in T.data[T.hi :].astype(np.complex128)]
    zero, one = np.complex128(0), 1.0 + 0j
    d = [zero] * n
    abands = [[zero] * n for _ in range(q - 1)]
    for i in range(1, n):
        if i <= q - 1:
            di = alphas[i - 1]
        else:
            denom = abands[q - 2][i - 1]
            if denom == 0:
                raise PeelBreakdown(i)
            di = tbands[q][i] / denom
        d[i] = di
        # A[i, i - dd] = T[i, i - dd] - d_i A[i - 1, i - dd], with A's unit diagonal
        abands[0][i] = tbands[1][i] - di * one
        for dd in range(2, q if i >= q else i + 1):
            abands[dd - 1][i] = tbands[dd][i] - di * abands[dd - 2][i - 1]
    return Banded(1, 0, np.vstack([np.ones(n), d])), Banded(q - 1, 0, np.vstack([np.ones(n), *abands]))


def darboux_factorize(L: Banded, params=None, rng=None) -> tuple:
    """Split a unit lower banded matrix into p lower bidiagonal factors.

    Parameters come from an explicit ParameterSet, whose stages raise
    PeelBreakdown at a ``_peel_ratios`` ratio of BREAKDOWN_RATIO or less,
    or, given a seed or generator instead, from ``sample_parameters``.
    Stage s peels L^(s+1) off the current matrix; what remains after
    p - 1 stages is L^(p) itself.  Returns the factors L^(1) .. L^(p);
    DarbouxFactors joins them with the U of the LU factorization.
    """
    p = L.p
    if params is not None and rng is not None:
        raise ValueError("pass either explicit parameters or a sampling seed, not both")
    if params is not None and params.p != p:
        raise ValueError(f"parameter set is for p={params.p}, matrix has p={p}")
    if params is None:
        rng = np.random.default_rng(rng)

    factors = []
    current = L
    for s in range(p - 1):
        if params is not None:
            d, A = peel(current, params.alphas[s])
            ratio = _peel_ratios(current, d, A)
            if not np.all(ratio > BREAKDOWN_RATIO):
                k = int(ratio.argmin())  # a NaN ratio is the first argmin
                raise PeelBreakdown(current.p + k, float(ratio[k]))
            current = A
        else:
            d, current = sample_parameters(current, rng)
        factors.append(d)
    factors.append(current)
    return tuple(factors)


def darboux_factorization(J: Banded, C=0.0, params=None, rng=None):
    """Full pipeline: J, C -> (DarbouxFactors with U, GammaTable).

    LU first, then the bidiagonal splitting of the L factor, with
    parameters drawn by ``sample_parameters`` in the field of each stage
    matrix unless ``params`` are given.  The table returned is the
    leading n - 1 columns of ``factors_to_table(factors)``, which drops
    the last column (u_{n-1} and p zeros), so it needs n >= 2 rows; the
    benchmark's generated tables have those n - 1 columns.
    """
    if J.n < 2:
        raise ValueError(f"a gamma table needs n >= 2, got n={J.n}")
    L, U = lu_factorize(J, C)
    factors = DarbouxFactors(U, darboux_factorize(L, params, rng), C)
    table = factors_to_table(factors)
    return factors, GammaTable(table.p, table.columns - 1, table.values[: -(table.p + 1)])


def factors_to_table(factors: DarbouxFactors) -> GammaTable:
    """Read the n-column gamma table directly off the factor bands.

    Column m takes the U pivot u_m and the subdiagonal entries (m+1, m)
    of each lower factor.  The n x n factors have no entries (n, n-1), so
    the last column is (u_{n-1}, 0, ..., 0).
    """
    p, n = factors.p, factors.n
    cols = np.zeros((n, p + 1), dtype=np.complex128)
    cols[:, 0] = factors.U.band(0)
    for r, f in enumerate(factors.factors, start=1):
        cols[:-1, r] = f.band(1)[1:]
    return GammaTable(p, n, cols.reshape(-1))


# ---------------------------------------------------------------------------
# the table fill recurrence


def table_fill(u_diag, params: ParameterSet, J: Banded, C=0.0) -> GammaTable:
    """Recover the whole gamma table from pivots, parameters and J.

    Works down the anti-diagonals i = 1, 2, ...: at step k the unknown
    gamma_{(k+i+1)p+i} is obtained by dividing the matrix entry at band
    offset k + 2 by the running product of previously determined entries
    of the same anti-diagonal, after subtracting the gamma products over
    the truncated index set.  Everything the recurrence reads has been
    determined by earlier steps; reading an unset entry is an internal
    error, not a breakdown.  A product of k + 2 gammas below 1e-12 m^(k+2),
    m the median modulus of pivots and parameters, raises TableBreakdown.

    The shift enters only through a consistency guard: the first pivot
    must be a_{0,0} - C, which is the corner case of the pivot identity.
    """
    p, n = J.p, J.n
    if params.p != p:
        raise ValueError(f"parameter set is for p={params.p}, matrix has p={p}")
    u = np.asarray(u_diag, dtype=np.complex128)
    columns = min(len(u), n - 1)
    if columns < max(p - 1, 1):
        raise ValueError(f"need at least {max(p - 1, 1)} columns, have {columns}")
    guard = 1e-6 * (abs(complex(J.band(0)[0])) + abs(complex(C)))
    if abs(u[0] - (J.band(0)[0] - C)) > guard:
        raise ValueError("first pivot does not match a_00 - C; wrong shift or pivots")

    size = (p + 1) * columns
    vals = np.zeros(size, dtype=np.complex128)
    filled = np.zeros(size, dtype=bool)

    def put(idx, v):
        vals[idx - 1] = v
        filled[idx - 1] = True

    def get(idx):
        if idx <= 0:
            return 0j
        if idx > size:
            raise IndexError(f"gamma index {idx} beyond table of size {size}")
        if not filled[idx - 1]:
            raise RuntimeError(f"internal: gamma {idx} read before being determined")
        return vals[idx - 1]

    for m in range(columns):
        put(m * (p + 1) + 1, u[m])
    for s in range(p - 1):
        for i in range(1, p - s):
            put((i - 1) * (p + 1) + s + 2, params.alphas[s][i - 1])

    scale = _median_modulus(np.concatenate((u, *params.alphas)))
    tilde = {k: enumerate_indices_tilde(k, p) for k in range(-1, p - 1)}
    bands = J.bands
    for i in range(1, columns + 1):
        delta = get((i - 1) * p + i)
        for k in range(-1, p - 1):
            m = k + i
            if m >= columns:
                break
            if k > -1:
                delta = delta * get((k + i) * p + i)
            if abs(delta) < 1e-12 * scale ** (k + 2):
                raise TableBreakdown(i, k, abs(delta))
            total = 0j
            for t in tilde[k]:
                prod = 1 + 0j
                for r, idx in enumerate(t, start=1):
                    prod *= get((i + r - 3) * p + i + idx - 1)
                total += prod
            target = (k + i + 1) * p + i
            put(target, (bands[k + 2][k + i + 1] - total) / delta)

    return GammaTable(p, columns, vals)


# ---------------------------------------------------------------------------
# transformed matrices


def assemble_transform(factors: DarbouxFactors, i: int) -> Banded:
    """J^(i) = C I + L^(i+1) .. L^(p) U L^(1) .. L^(i), a product of n x n factors.

    It equals the closed form of the n-column table (``factors_to_table``)
    on all n rows, for every i.
    """
    p = factors.p
    if not 0 <= i <= p:
        raise ValueError(f"transform index {i} outside 0..{p}")
    chain = list(factors.factors[i:]) + [factors.U] + list(factors.factors[:i])
    prod = multiply_chain(chain)
    data = prod.data.astype(np.result_type(prod.data, factors.C))
    data[prod.hi] += factors.C
    return Banded(prod.p, prod.hi, data)


def backlund_entry(table: GammaTable, j: int, i: int, k: int, C=0.0) -> complex:
    """Entry (i + k, i) of J^(j), straight from the gamma table.

    The sum over the weakly decreasing index tuples of enumerate_indices
    of products of k + 1 gammas, plus C on the diagonal (k = 0, where the
    1-tuples give a window of p + 1 consecutive gammas).  Each product
    starts from its first factor.  Indices that fall off the bottom of
    the table contribute zero, indices beyond the filled table raise
    IndexError.
    """
    p = table.p
    if not 0 <= j <= p:
        raise ValueError(f"transform index {j} outside 0..{p}")
    if not 0 <= k <= p:
        raise ValueError(f"band offset {k} outside 0..{p}")
    if i < 0:
        raise ValueError(f"column index {i} must be nonnegative")
    acc = complex(C) if k == 0 else 0j
    for t in enumerate_indices(j, k, p):
        prod, *rest = (table.gamma(r * p + idx + i) for r, idx in enumerate(t, i - 1))
        for g in rest:
            prod *= g
        acc += prod
    return acc
