"""Shifted LU against dense oracles, and the polynomial pivot route."""

import numpy as np
import pytest

from toda_darboux.banded import BandedHessenberg, multiply, random_hessenberg, residual
from toda_darboux.lu import SingularLeadingMinor, lu_factorize

from oracles import char_poly, pivot_gammas, truncate


def doolittle(A):
    # dense LU without pivoting, the textbook recurrences
    n = A.shape[0]
    L = np.eye(n, dtype=np.complex128)
    U = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            U[i, j] = A[i, j] - sum(L[i, k] * U[k, j] for k in range(i))
        for j in range(i + 1, n):
            L[j, i] = (A[j, i] - sum(L[j, k] * U[k, i] for k in range(i))) / U[i, i]
    return L, U


def det_elim(A):
    # determinant by elimination with partial pivoting, sign tracked
    M = np.array(A, dtype=np.complex128)
    n = M.shape[0]
    sign = 1.0
    det = 1.0 + 0j
    for c in range(n):
        piv = c + int(np.argmax(np.abs(M[c:, c])))
        if abs(M[piv, c]) == 0:
            return 0j
        if piv != c:
            M[[c, piv]] = M[[piv, c]]
            sign = -sign
        det *= M[c, c]
        M[c + 1:, c:] -= np.outer(M[c + 1:, c] / M[c, c], M[c, c:])
    return sign * det


def shifted_dense(J, C):
    return J.to_dense() - C * np.eye(J.n)


SEEDED = [(1, 6, "real", 0.0, 0), (2, 8, "real", 0.4, 1), (3, 10, "complex", 0.3 - 0.2j, 2),
          (4, 10, "complex", -0.5 + 0.1j, 3), (2, 9, "real", 0.0, 4)]


# ---------------------------------------------------------------------------
# factorization


def test_already_factored_input_gives_identity_L():
    d = np.array([2.0, 3.0, 4.0])
    J = BandedHessenberg(1, 3, (d, np.zeros(3)))
    L, U = lu_factorize(J, 0.0)
    assert np.array_equal(L.band(1), np.zeros(3))
    assert np.array_equal(U.band(0), d.astype(np.complex128))


def test_lu_2x2_pinned():
    J = BandedHessenberg(1, 2, (np.array([2.0, 3.0]), np.array([0.0, 1.0])))
    L, U = lu_factorize(J, 0.0)
    assert L.band(1)[1] == 0.5
    assert np.array_equal(U.band(0), np.array([2.0, 2.5], dtype=np.complex128))


@pytest.mark.parametrize("p,n,mode,C,seed", SEEDED)
def test_lu_matches_dense_doolittle(p, n, mode, C, seed):
    J = random_hessenberg(p, n, seed=seed, mode=mode)
    L, U = lu_factorize(J, C)
    Ld, Ud = doolittle(shifted_dense(J, C))
    assert np.abs(L.to_dense() - Ld).max() <= 1e-11
    assert np.abs(U.to_dense() - Ud).max() <= 1e-11
    shifted = BandedHessenberg(p, n, (J.bands[0] - C,) + J.bands[1:])
    assert residual(multiply(L, U), shifted) <= 1e-12 * np.abs(Ud).max()


@pytest.mark.parametrize("m", [3, 7])
def test_lu_commutes_with_truncation(m):
    J = random_hessenberg(2, 8, seed=5)
    C = 0.25
    L, U = lu_factorize(J, C)
    Lm, Um = lu_factorize(truncate(J, m), C)
    assert np.array_equal(Lm.to_dense(), truncate(L, m).to_dense())
    assert np.array_equal(Um.to_dense(), truncate(U, m).to_dense())


def test_singular_first_minor_reports_index_zero():
    J = random_hessenberg(1, 4, seed=6)
    C = complex(J.band(0)[0])
    with pytest.raises(SingularLeadingMinor) as err:
        lu_factorize(J, C)
    assert err.value.index == 0


def test_singular_second_minor_reports_index_one():
    J = BandedHessenberg(1, 2, (np.array([1.0, 1.0]), np.array([0.0, 1.0])))
    with pytest.raises(SingularLeadingMinor) as err:
        lu_factorize(J, 0.0)
    assert err.value.index == 1


# ---------------------------------------------------------------------------
# characteristic polynomial values


def test_char_poly_degree_zero():
    J = random_hessenberg(1, 3, seed=8)
    seq = char_poly(J, 0.0, 0)
    assert len(seq) == 1
    assert seq[0] == 1.0


def test_char_poly_2x2_pinned():
    J = BandedHessenberg(1, 2, (np.array([2.0, 3.0]), np.array([0.0, 1.0])))
    seq = char_poly(J, 0.0, 2)
    assert seq[0] == 1.0
    assert seq[1] == -2.0
    assert seq[2] == 5.0


@pytest.mark.parametrize("p,n,mode,C,seed", SEEDED)
def test_char_poly_matches_determinant_oracle(p, n, mode, C, seed):
    J = random_hessenberg(p, n, seed=seed, mode=mode)
    seq = char_poly(J, C, n)
    dense = J.to_dense()
    for k in range(n + 1):
        truth = det_elim(C * np.eye(k) - dense[:k, :k]) if k else 1.0
        assert abs(seq[k] - truth) <= 1e-10 * max(1.0, abs(truth))


def test_char_poly_degree_bounds():
    J = random_hessenberg(1, 4, seed=9)
    with pytest.raises(ValueError):
        char_poly(J, 0.0, 5)
    with pytest.raises(ValueError):
        char_poly(J, 0.0, -1)


# ---------------------------------------------------------------------------
# pivots


def test_pivots_of_already_factored_matrix_are_its_diagonal():
    d = np.array([2.0, -3.0, 4.0, 1.5])
    J = BandedHessenberg(1, 4, (d, np.zeros(4)))
    g = pivot_gammas(J, 0.0, 4)
    assert np.allclose(g, d, atol=0, rtol=1e-15)


def test_pivot_gammas_2x2_pinned():
    J = BandedHessenberg(1, 2, (np.array([2.0, 3.0]), np.array([0.0, 1.0])))
    assert np.allclose(pivot_gammas(J, 0.0, 2), [2.0, 2.5], atol=0, rtol=1e-15)


@pytest.mark.parametrize("p,n,mode,C,seed", SEEDED)
def test_pivot_routes_agree(p, n, mode, C, seed):
    n = min(n, 10)
    J = random_hessenberg(p, n, seed=seed, mode=mode)
    g = pivot_gammas(J, C, n)
    _, U = lu_factorize(J, C)
    u = U.band(0)
    dense = shifted_dense(J, C)
    dets = [det_elim(dense[:k, :k]) if k else 1.0 + 0j for k in range(n + 1)]
    for k in range(n):
        ratio = dets[k + 1] / dets[k]
        assert abs(g[k] - u[k]) <= 1e-9 * abs(u[k])
        assert abs(g[k] - ratio) <= 1e-9 * abs(ratio)
    # pivot products telescope into leading-minor determinants
    prod = 1.0 + 0j
    for k in range(n):
        prod *= g[k]
        assert abs(prod - dets[k + 1]) <= 1e-9 * max(1.0, abs(dets[k + 1]))


def test_pivot_gammas_raises_on_vanishing_polynomial():
    J = random_hessenberg(1, 4, seed=10)
    C = complex(J.band(0)[0])  # P_1(C) = 0 exactly
    with pytest.raises(SingularLeadingMinor) as err:
        pivot_gammas(J, C, 4)
    assert err.value.index == 1

