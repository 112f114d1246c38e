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

import operator

import numpy as np

from .banded import Banded, _field

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
    n, p = J.n, J.p
    # floats when J is float64 and C real (banded._field's rule), where t / u is taken as
    # t * (1.0 / u), the rounding of numpy's complex division of real operands
    bands, C, quotient = _scalar_rows(J.data[J.hi :], C)
    lbands = [[0.0] * n for _ in range(p)]
    u = [0.0] * n
    for i in range(n):
        left = 0.0  # l_{i,j-1}, zero left of the band
        for j in range(max(0, i - p), i):
            left = lbands[i - j - 1][i] = quotient(bands[i - j][i] - left, u[j])
        u[i] = bands[0][i] - C - left
        if abs(u[i]) <= BREAKDOWN_RATIO * (abs(bands[0][i]) + abs(C) + abs(left)):
            raise SingularLeadingMinor(i, abs(u[i]))
    return Banded(p, 0, np.vstack([np.ones(n), *lbands])), Banded(0, 1, np.vstack([np.ones(n), u]))


def _real_quotient(t: float, u: float) -> float:
    return t * (1.0 / u)


def _scalar_rows(data: np.ndarray, shift) -> tuple:
    """The rows of data and the shift as lists of scalars of one field, and their quotient.

    Python floats when data is float64 and the shift (C, or a stage's
    parameters) real, the rule of ``banded._field``, with t / u taken as
    t * (1.0 / u), which is how numpy's complex division rounds real
    operands; numpy complex128 scalars and their division otherwise.
    """
    shift = _field(shift)
    if np.isrealobj(data) and np.isrealobj(shift):
        return data.tolist(), shift.tolist(), _real_quotient
    return [list(row) for row in data.astype(np.complex128)], shift.astype(np.complex128)[()], operator.truediv
