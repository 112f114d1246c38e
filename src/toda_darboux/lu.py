"""Pivot-free LU factorization of shifted banded Hessenberg matrices.

For a banded Hessenberg matrix J and a shift C, the factorization

    J - C I = L U

has a unit lower triangular L with the same number of subdiagonals as J
and an upper bidiagonal U with a unit superdiagonal.  Both factors are
computed by one forward sweep, so they commute with truncation: the
factors of a leading principal submatrix are the truncated factors.

The pivots of U are tied to the characteristic polynomials of the
leading principal submatrices.  With P_0 = 1 and

    P_{k+1}(z) = -((a_{k,k} - z) P_k(z) + sum_{i=k-p}^{k-1} a_{k,i} P_i(z)),

one has P_k(z) = det(z I_k - J_k), and the k-th pivot of U at shift C is

    u_k = -P_{k+1}(C) / P_k(C),

which is also the gamma value with index k (p + 1) + 1 in the bidiagonal
factorization downstream.  The factorization exists exactly when no
leading principal minor of J - C I is singular; a pivot at most
BREAKDOWN_RATIO of the summed moduli of its terms reports which one.
"""

from __future__ import annotations

import numpy as np

from .banded import Banded

__all__ = [
    "SingularLeadingMinor",
    "lu_factorize",
]

BREAKDOWN_RATIO = 1e-12


class SingularLeadingMinor(ArithmeticError):
    """Leading principal minor of J - C I is singular to working tolerance."""

    def __init__(self, index: int, magnitude: float = 0.0):
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"leading principal minor {index} is singular (pivot magnitude {magnitude:.3e})"
        )


def lu_factorize(J: Banded, C=0.0):
    """Factor J - C I into L (p subdiagonals, unit diagonal) and U (upper
    bidiagonal, unit superdiagonal).

    One forward sweep over the rows: within row i the subdiagonal entries
    of L are filled left to right, each consuming the pivot of its column
    and the L entry one column to its left, and the pivot u_i closes the
    row.  Raises SingularLeadingMinor(m, |u_m|) when the pivot u_m = a_mm -
    C - l_{m,m-1} has |u_m| <= BREAKDOWN_RATIO (|a_mm| + |C| + |l_{m,m-1}|).
    """
    # complex scratch and bands: complex division rounds unlike float, mixed scalars are slow
    n, p, bands = J.n, J.p, tuple(J.data[J.hi :].astype(np.complex128))
    lbands = [np.zeros(n, dtype=np.complex128) for _ in range(p)]
    u = np.zeros(n, dtype=np.complex128)

    def lentry(i, j):
        # entry (i, j) strictly below the diagonal
        d = i - j
        return lbands[d - 1][i] if d <= p and j >= 0 else 0.0

    for i in range(n):
        for j in range(max(0, i - p), i):
            lbands[i - j - 1][i] = (bands[i - j][i] - lentry(i, j - 1)) / u[j]
        u[i] = bands[0][i] - C - lentry(i, i - 1)
        if abs(u[i]) <= BREAKDOWN_RATIO * (abs(bands[0][i]) + abs(C) + abs(lentry(i, i - 1))):
            raise SingularLeadingMinor(i, abs(u[i]))
    return Banded(p, 0, np.vstack([np.ones(n), *lbands])), Banded(0, 1, np.vstack([np.ones(n), u]))

