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
* ``sample_parameters`` draws stage parameters at random while avoiding
  the finitely many hyperplanes on which a later peel would divide by
  zero.  The hyperplane coefficients are minors of the matrix being
  peeled, and the draw is rejected until every one of the requested
  margin conditions holds.
* ``table_fill`` recovers the whole gamma table from the pivots, the
  free parameters and the matrix entries alone, one anti-diagonal at a
  time, without forming any factor.  Together with the peeling route
  this pins down the factorization uniquely for fixed parameters.
* ``assemble_transform`` builds the transformed matrices

      J^(i) = C I + L^(i+1) ... L^(p) U L^(1) ... L^(i),

  the discrete Darboux chain connecting J^(0) = J to J^(p).
* ``backlund_entry`` evaluates any entry of any J^(i) directly from the
  gamma table as an explicit sum over weakly decreasing index tuples,
  never touching a matrix product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .banded import (
    BandedHessenberg,
    Bidiagonal,
    ShapeError,
    UnitLowerBanded,
    ValidWindow,
    multiply_chain,
)
from .lu import lu_factorize

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
    """No parameter draw cleared the margin within the retry budget."""

    def __init__(self, retries: int, margin: float):
        self.retries = retries
        self.margin = margin
        super().__init__(
            f"no admissible parameters within {retries} retries "
            f"(tightest margin {margin:.3e})"
        )


class PeelBreakdown(ArithmeticError):
    """Peeling divided by a vanishing deepest-band entry."""

    def __init__(self, row: int, magnitude: float = 0.0):
        self.row = row
        self.magnitude = magnitude
        super().__init__(
            f"peel breaks down at row {row} (denominator magnitude {magnitude:.3e})"
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


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _from_pair(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{pair!r} is not an [re, im] pair")
    return complex(float(pair[0]), float(pair[1]))


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
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != ((self.p + 1) * self.columns,):
            raise ValueError(
                f"table needs {(self.p + 1) * self.columns} entries, got {vals.shape}"
            )
        vals = vals.copy()
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

    def at(self, row: int, col: int) -> complex:
        if not (0 <= row <= self.p and 0 <= col < self.columns):
            raise IndexError(f"table position ({row}, {col}) out of range")
        return self.gamma(col * (self.p + 1) + row + 1)

    def row(self, row: int) -> np.ndarray:
        if not 0 <= row <= self.p:
            raise IndexError(f"table row {row} out of range")
        return self.values[row :: self.p + 1]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "columns": self.columns,
            "gamma": [_pair(z) for z in self.values],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GammaTable":
        try:
            p = int(payload["p"])
            columns = int(payload["columns"])
            raw = payload["gamma"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed gamma table payload: {exc}") from None
        return cls(p, columns, np.array([_from_pair(x) for x in raw]))

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
            arr = np.asarray(row, dtype=np.complex128)
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

    def to_json_dict(self) -> list:
        return [[_pair(z) for z in row] for row in self.alphas]

    @classmethod
    def from_json_dict(cls, payload) -> "ParameterSet":
        if not isinstance(payload, list):
            raise ValueError("parameter payload must be a list of stages")
        return cls(tuple(tuple(_from_pair(x) for x in row) for row in payload))

    def __repr__(self):
        return f"ParameterSet(p={self.p})"


def identity_parameters(p: int) -> ParameterSet:
    """Placeholder-free constructor for p = 1, where no parameters exist."""
    if p != 1:
        raise ValueError("only p = 1 has an empty parameter set")
    return ParameterSet(())


@dataclass(frozen=True, eq=False, repr=False)
class DarbouxFactors:
    """Bidiagonal factors of J - C I: one upper factor and p lower factors.

    ``factors[s]`` is L^(s+1).  U is None for the intermediate result of
    splitting the unit lower triangular factor alone.
    """

    U: Bidiagonal
    factors: tuple
    C: complex = 0j

    def __post_init__(self):
        if self.U is not None and self.U.kind != "upper":
            raise ShapeError("U factor must be upper bidiagonal")
        if not self.factors:
            raise ShapeError("at least one lower factor is required")
        for f in self.factors:
            if not isinstance(f, Bidiagonal) or f.kind != "lower":
                raise ShapeError("lower factors must be lower bidiagonal")
        ns = {f.n for f in self.factors} | ({self.U.n} if self.U is not None else set())
        if len(ns) != 1:
            raise ShapeError(f"factor sizes disagree: {sorted(ns)}")
        object.__setattr__(self, "C", complex(self.C))

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
        from .banded import to_json_dict as matrix_json

        return {
            "C": _pair(self.C),
            "U": None if self.U is None else matrix_json(self.U),
            "factors": [matrix_json(f) for f in self.factors],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "DarbouxFactors":
        from .banded import from_json_dict as matrix_from

        try:
            c = _from_pair(payload["C"])
            u = payload["U"]
            fs = payload["factors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed factor payload: {exc}") from None
        return cls(
            None if u is None else matrix_from(u),
            tuple(matrix_from(f) for f in fs),
            c,
        )

    def __repr__(self):
        return f"DarbouxFactors(p={self.p}, n={self.n}, C={self.C})"


# ---------------------------------------------------------------------------
# index sets


def enumerate_indices(j: int, k: int, p: int) -> list:
    """Weakly decreasing (k+1)-tuples between j + k + 1 and j + p + 1.

    These index the gamma products in the entries of the transformed
    matrix J^(j) at band offset k.  Sorted lexicographically.
    """
    if not 1 <= k <= p:
        raise ValueError(f"band offset k={k} outside 1..{p}")
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
    if not -1 <= k <= p - 2:
        raise ValueError(f"fill step k={k} outside -1..{p - 2}")
    return [t for t in enumerate_indices(0, k + 2, p) if t[-1] != p + 1]


# ---------------------------------------------------------------------------
# parameter sampling


def hyperplane_determinant(T: UnitLowerBanded, s: int, r: int, k: int) -> complex:
    """Minor R_k^(s,r) of the stage-s matrix, by dense elimination.

    Rows are the single row q - r - 1 followed by rows q .. q + k - 2
    (q is the subdiagonal count of T), columns 0 .. k - 1.  These minors
    are the coefficients of the hyperplanes that stage-s parameters must
    avoid so that every later peel denominator stays nonzero.
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


def sample_parameters(
    T: UnitLowerBanded,
    s: int,
    depth: int,
    rng,
    tol: float = 1e-9,
    mode: str = "real",
    max_retries: int = 64,
) -> np.ndarray:
    """Draw admissible stage-s parameters by rejection.

    The draw happens in the hyperplane coordinates x_1 .. x_{q-1}
    (q = subdiagonal count of T): components get modulus uniform in
    [1, 2] with a random sign (real mode) or phase (complex mode), the
    margin |R_k^(s,0) - sum_j x_j R_k^(s,j)| > tol is required for every
    feasible k up to the requested depth, and the accepted point is then
    mapped back to the parameters alpha_1 .. alpha_{q-1}.

    The depth is capped at n - q + 1, the largest order whose minor fits
    in the truncation; that order already certifies every peel
    denominator of the truncated stage.
    """
    q = T.p
    d = q - 1
    if d == 0:
        return np.zeros(0, dtype=np.complex128)
    rng = np.random.default_rng(rng)
    kmax = max(1, min(depth, T.n - q + 1))
    coeff = np.array(
        [[hyperplane_determinant(T, s, r, k) for r in range(d + 1)] for k in range(1, kmax + 1)]
    )

    tightest = np.inf
    for _ in range(max_retries):
        mod = rng.uniform(1.0, 2.0, d)
        if mode == "real":
            x = mod * (rng.integers(0, 2, d) * 2.0 - 1.0)
        elif mode == "complex":
            x = mod * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))
        else:
            raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
        margins = np.abs(coeff[:, 0] - coeff[:, 1:] @ x)
        worst = float(np.min(margins))
        if worst > tol:
            return _alphas_from_hyperplane_point(x)
        tightest = min(tightest, worst)
    raise SamplingFailed(max_retries, tightest)


def _alphas_from_hyperplane_point(x: np.ndarray) -> np.ndarray:
    """Invert the coordinate map: x_j = (-1)^(j+1) alpha_{d-j+1} .. alpha_d."""
    d = len(x)
    alphas = np.zeros(d, dtype=np.complex128)
    alphas[d - 1] = x[0]
    for j in range(2, d + 1):
        alphas[d - j] = (-1) ** (j + 1) * x[j - 1] / np.prod(alphas[d - j + 1 :])
    return alphas


def hyperplane_point_from_alphas(alphas: np.ndarray) -> np.ndarray:
    """Forward coordinate map, the inverse of the sampling map."""
    alphas = np.asarray(alphas, dtype=np.complex128)
    d = len(alphas)
    x = np.zeros(d, dtype=np.complex128)
    for j in range(1, d + 1):
        x[j - 1] = (-1) ** (j + 1) * np.prod(alphas[d - j :])
    return x


# ---------------------------------------------------------------------------
# peeling


def _band_scale(T) -> float:
    return max(1.0, max(float(np.max(np.abs(b))) if b.size else 0.0 for b in T.bands))


def peel(T: UnitLowerBanded, alphas, tol: float = None):
    """Split T into D A with D lower bidiagonal and A one band narrower.

    The first q - 1 subdiagonal entries of D are the given parameters
    (q = subdiagonal count of T); from row q on, each entry of D is the
    ratio of T's deepest band to A's deepest band one row up, which
    forces the deepest band of A to vanish.  Rows of A follow by direct
    subtraction, so D A = T holds exactly, at every truncation size, and
    the whole split is deterministic in the parameters.
    """
    q = T.p
    if q < 2:
        raise ValueError("peeling needs at least two subdiagonals")
    alphas = np.asarray(alphas, dtype=np.complex128)
    if alphas.shape != (q - 1,):
        raise ValueError(f"stage needs {q - 1} parameters, got shape {alphas.shape}")
    if tol is None:
        tol = 1e-12 * _band_scale(T)
    n = T.n
    d = np.zeros(n, dtype=np.complex128)
    abands = [np.zeros(n, dtype=np.complex128) for _ in range(q - 1)]

    def aentry(i, j):
        dd = i - j
        if dd == 0:
            return 1.0 + 0j
        if 1 <= dd <= q - 1 and j >= 0:
            return abands[dd - 1][i]
        return 0j

    deep = T.band(q)
    for i in range(1, n):
        if i <= q - 1:
            d[i] = alphas[i - 1]
        else:
            denom = aentry(i - 1, i - q)
            if abs(denom) < tol:
                raise PeelBreakdown(i, abs(denom))
            d[i] = deep[i] / denom
        for dd in range(1, q):
            j = i - dd
            if j < 0:
                continue
            abands[dd - 1][i] = T.band(dd)[i] - d[i] * aentry(i - 1, j)
    return Bidiagonal("lower", n, d), UnitLowerBanded(q - 1, n, tuple(abands))


def darboux_factorize(
    L: UnitLowerBanded,
    params=None,
    rng=None,
    depth: int = None,
    tol_margin: float = 1e-9,
    tol_peel: float = None,
    mode: str = "real",
    max_retries: int = 64,
) -> DarbouxFactors:
    """Split a unit lower banded matrix into p lower bidiagonal factors.

    Parameters come either from an explicit ParameterSet or, when a seed
    or generator is passed instead, from rejection sampling stage by
    stage.  Stage s peels L^(s+1) off the current matrix; what remains
    after p - 1 stages is L^(p) itself.  The returned factors carry no U;
    combine with the LU pivots for the full factorization.
    """
    p, n = L.p, L.n
    if params is not None and rng is not None:
        raise ValueError("pass either explicit parameters or a sampling seed, not both")
    if params is not None and params.p != p:
        raise ValueError(f"parameter set is for p={params.p}, matrix has p={p}")
    if params is None:
        rng = np.random.default_rng(rng)
    if depth is None:
        depth = n

    factors = []
    current = L
    for s in range(p - 1):
        if params is not None:
            alphas = params.alphas[s]
        else:
            alphas = sample_parameters(
                current, s, depth, rng, tol_margin, mode=mode, max_retries=max_retries
            )
        d, current = peel(current, alphas, tol_peel)
        factors.append(d)
    factors.append(Bidiagonal("lower", n, current.band(1)))
    return DarbouxFactors(None, tuple(factors), 0j)


def darboux_factorization(
    J: BandedHessenberg,
    C=0.0,
    params=None,
    rng=None,
    tol_pivot: float = None,
    **kwargs,
):
    """Full pipeline: J, C -> (DarbouxFactors with U, GammaTable).

    LU first, then the bidiagonal splitting of the L factor; the gamma
    table is rebuilt from pivots, parameters and matrix entries through
    the fill recurrence, which is the reference route for gamma values.
    """
    L, U = lu_factorize(J, C, tol_pivot)
    split = darboux_factorize(L, params=params, rng=rng, **kwargs)
    factors = DarbouxFactors(U, split.factors, complex(C))
    table = table_fill(np.asarray(U.band(0)), factors.parameters(), J, C)
    return factors, table


def factors_to_table(factors: DarbouxFactors) -> GammaTable:
    """Read the gamma table directly off the factor bands.

    Column m takes the U pivot u_m and the subdiagonal entries (m+1, m)
    of each lower factor; the last pivot has no matching subdiagonal
    entries and is dropped, giving n - 1 full columns.
    """
    if factors.U is None:
        raise ValueError("factors carry no U; build one via the LU route first")
    p, n = factors.p, factors.n
    columns = n - 1
    vals = np.zeros((p + 1) * columns, dtype=np.complex128)
    vals[0 :: p + 1] = factors.U.band(0)[: n - 1]
    for r in range(1, p + 1):
        vals[r :: p + 1] = factors.factors[r - 1].band(1)[1:]
    return GammaTable(p, columns, vals)


# ---------------------------------------------------------------------------
# the table fill recurrence


def table_fill(
    u_diag,
    params: ParameterSet,
    J: BandedHessenberg,
    C=0.0,
    tol: float = 1e-12,
) -> GammaTable:
    """Recover the whole gamma table from pivots, parameters and J.

    Works down the anti-diagonals i = 1, 2, ...: at step k the unknown
    gamma_{(k+i+1)p+i} is obtained by dividing the matrix entry at band
    offset k + 2 by the running product of previously determined entries
    of the same anti-diagonal, after subtracting the gamma products over
    the truncated index set.  Everything the recurrence reads has been
    determined by earlier steps; reading an unset entry is an internal
    error, not a breakdown.

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
    guard = 1e-6 * max(1.0, abs(complex(J.band(0)[0])), abs(complex(C)))
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

    tilde = {k: enumerate_indices_tilde(k, p) for k in range(-1, p - 1)}
    for i in range(1, columns + 1):
        delta = get((i - 1) * p + i)
        for k in range(-1, p - 1):
            m = k + i
            if m >= columns:
                break
            if k > -1:
                delta = delta * get((k + i) * p + i)
            if abs(delta) < tol:
                raise TableBreakdown(i, k, abs(delta))
            total = 0j
            for t in tilde[k]:
                prod = 1 + 0j
                for r, idx in enumerate(t, start=1):
                    prod *= get((i + r - 3) * p + i + idx - 1)
                total += prod
            target = (k + i + 1) * p + i
            put(target, (J.band(k + 2)[k + i + 1] - total) / delta)

    return GammaTable(p, columns, vals)


# ---------------------------------------------------------------------------
# transformed matrices


def assemble_transform(factors: DarbouxFactors, i: int):
    """J^(i) = C I + L^(i+1) .. L^(p) U L^(1) .. L^(i), with its window.

    The chain is multiplied right to left, so the single upper factor
    costs one certified row once and the result is certified on n - 1
    rows for every i (all n rows for i = 0, where U is the rightmost
    factor and truncation commutes with the product exactly).
    """
    if factors.U is None:
        raise ValueError("factors carry no U; build one via the LU route first")
    p = factors.p
    if not 0 <= i <= p:
        raise ValueError(f"transform index {i} outside 0..{p}")
    chain = list(factors.factors[i:]) + [factors.U] + list(factors.factors[:i])
    prod, window = multiply_chain(chain)
    if not isinstance(prod, BandedHessenberg):
        raise ShapeError("transform chain did not produce a banded Hessenberg matrix")
    bands = (prod.bands[0] + factors.C,) + prod.bands[1:]
    return BandedHessenberg(prod.p, prod.n, bands), window


def backlund_entry(table: GammaTable, j: int, i: int, k: int, C=0.0) -> complex:
    """Entry (i + k, i) of J^(j), straight from the gamma table.

    k = 0 gives the diagonal entry C plus a window of p + 1 consecutive
    gammas; k = 1..p gives the sum over weakly decreasing index tuples of
    products of k + 1 gammas.  Indices that fall off the bottom of the
    table contribute zero, indices beyond the filled table raise
    IndexError.
    """
    p = table.p
    if not 0 <= j <= p:
        raise ValueError(f"transform index {j} outside 0..{p}")
    if not 0 <= k <= p:
        raise ValueError(f"band offset {k} outside 0..{p}")
    if i < 0:
        raise ValueError(f"column index {i} must be nonnegative")
    if k == 0:
        acc = complex(C)
        for s in range(j + 1, j + p + 2):
            acc += table.gamma((i - 1) * p + i + s)
        return acc
    acc = 0j
    for t in enumerate_indices(j, k, p):
        prod = 1 + 0j
        for r, idx in enumerate(t, start=1):
            prod *= table.gamma((i + r - 2) * p + idx + i)
        acc += prod
    return complex(acc)
