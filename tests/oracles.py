"""Second routes to quantities the library computes one way, kept as test oracles.

``char_poly`` and ``pivot_gammas`` give the LU pivots as ratios of
characteristic polynomial values; ``check_poly_derivative`` and
``check_delta_derivative`` measure the derivative identities that tie the
Toda flow to those polynomials and the KdV flow to the table's delta
products.  ``dense_residual`` compares two band matrices as dense
arrays, the reference for ``residual``'s band-by-band comparison.
``truncate`` cuts a leading principal submatrix and
``gamma_table_from_json`` reads back a written gamma table, routes that
only the tests need.
"""

from collections.abc import Mapping

import numpy as np

from toda_darboux.banded import Banded, ShapeError, _from_pair
from toda_darboux.darboux import GammaTable
from toda_darboux.lu import SingularLeadingMinor


def truncate(m: Banded, size: int) -> Banded:
    """Leading principal submatrix of the given size, same band counts.

    Truncation commutes with reading entries: band arrays are simply cut.
    """
    if size < 1 or size > m.n:
        raise ShapeError(f"truncation size {size} outside 1..{m.n}")
    return Banded(m.p, m.hi, m.data[:, :size])


def dense_residual(a: Banded, b: Banded) -> float:
    """Largest entry modulus of a - b, on dense copies."""
    if a.n != b.n:
        raise ShapeError(f"size mismatch: {a.n} vs {b.n}")
    return float(np.max(np.abs(a.to_dense() - b.to_dense())))


def gamma_table_from_json(payload: Mapping) -> GammaTable:
    """Decode GammaTable.to_json_dict's payload."""
    try:
        p = int(payload["p"])
        columns = int(payload["columns"])
        raw = payload["gamma"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed gamma table payload: {exc}") from None
    return GammaTable(p, columns, np.array([_from_pair(x) for x in raw]))


def char_poly(J: Banded, z, m: int) -> np.ndarray:
    """Values P_0(z) .. P_m(z) of the characteristic recurrence.

    P_{k+1} consumes row k of J, so m may not exceed the truncation size.
    """
    if m < 0 or m > J.n:
        raise ValueError(f"degree {m} outside 0..{J.n}")
    vals = np.zeros(m + 1, dtype=np.complex128)
    vals[0] = 1.0
    for k in range(m):
        acc = (J.band(0)[k] - z) * vals[k]
        for i in range(max(0, k - J.p), k):
            acc += J.band(k - i)[k] * vals[i]
        vals[k + 1] = -acc
    return vals


def pivot_gammas(J: Banded, C, m: int, tol: float = 1e-12) -> np.ndarray:
    """First m pivots at shift C as ratios of characteristic values.

    Entry k is -P_{k+1}(C) / P_k(C), the gamma value with index
    k (p + 1) + 1.  A value P_k(C) that is negligible against its
    neighbors means the leading principal minor k is singular and the
    ratio route breaks down there.
    """
    if m < 0 or m > J.n:
        raise ValueError(f"count {m} outside 0..{J.n}")
    vals = char_poly(J, C, m)
    out = np.zeros(m, dtype=np.complex128)
    for k in range(m):
        scale = max(1.0, abs(vals[k - 1]) if k > 0 else 0.0, abs(vals[k + 1]))
        if abs(vals[k]) <= tol * scale:
            raise SingularLeadingMinor(k, abs(vals[k]))
        out[k] = -vals[k + 1] / vals[k]
    return out


def check_poly_derivative(J: Banded, Jdot, z, m: int) -> float:
    """Deviation between three routes to the derivative of P_n(z).

    Route one differentiates the characteristic recurrence entry by entry
    using the given band derivatives.  Routes two and three are the
    closed forms: the band sum -sum a_{n,i} P_i and the two-term form
    (a_{n,n} - z) P_n + P_{n+1}.  When Jdot is the Toda right hand side
    of J, all three agree identically; the returned value is the largest
    deviation over degrees up to m, and it reacts to any inconsistency
    between J and Jdot.
    """
    if m < 0 or m > J.n - 1:
        raise ValueError(f"degree {m} outside 0..{J.n - 1}")
    p = J.p
    P = char_poly(J, z, m + 1)
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
