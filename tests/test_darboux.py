"""Bidiagonal splitting, the gamma table, and the closed-form entries."""

import itertools
import json
import math

import numpy as np
import pytest

from toda_darboux.banded import (
    Banded,
    BandedHessenberg,
    ShapeError,
    _pair,
    from_json_dict,
    graded_scale,
    multiply,
    multiply_chain,
    random_hessenberg,
    residual,
)
from toda_darboux import banded, darboux
from toda_darboux.darboux import (
    DarbouxFactors,
    GammaTable,
    ParameterSet,
    PeelBreakdown,
    SamplingFailed,
    TableBreakdown,
    assemble_transform,
    backlund_entry,
    darboux_factorization,
    darboux_factorize,
    enumerate_indices,
    enumerate_indices_tilde,
    factors_to_table,
    hyperplane_determinant,
    peel,
    sample_parameters,
    table_fill,
)
from toda_darboux.lattice import reconstruct_transform, theorem1_diagram
from toda_darboux.lu import lu_factorize

from oracles import gamma_table_from_json


def brute_indices(j, k, p):
    lo, hi = j + k + 1, j + p + 1
    out = [t for t in itertools.product(range(lo, hi + 1), repeat=k + 1)
           if all(t[r] >= t[r + 1] for r in range(k))]
    return sorted(out)


def brute_tilde(k, p):
    lo, hi = k + 3, p + 1
    out = [t for t in itertools.product(range(lo, hi + 1), repeat=k + 3)
           if all(t[r] >= t[r + 1] for r in range(k + 2)) and t[-1] < p + 1]
    return sorted(out)


def det_cofactor(A):
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    acc = 0j
    for c in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), c, axis=1)
        acc += (-1) ** c * A[0, c] * det_cofactor(minor)
    return acc


def random_unit_lower(p, n, seed, mode="real"):
    J = random_hessenberg(p, n, seed=seed, mode=mode)
    L, _ = lu_factorize(J, 0.0)
    return L


# ---------------------------------------------------------------------------
# index sets


def test_enumerate_indices_pinned_examples():
    assert enumerate_indices(0, 1, 1) == [(2, 2)]
    assert enumerate_indices(0, 1, 2) == [(2, 2), (3, 2), (3, 3)]
    for p in range(1, 5):
        assert enumerate_indices(0, p, p) == [tuple([p + 1] * (p + 1))]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_enumerate_indices_matches_brute_force(p):
    for j in range(p + 1):
        for k in range(1, p + 1):
            got = enumerate_indices(j, k, p)
            assert got == brute_indices(j, k, p)
            assert len(got) == len(set(got))
            assert len(got) == math.comb(p + 1, k + 1)


def reverse_and_sort_indices(j, k, p):
    """The earlier route of enumerate_indices: reverse every ascending tuple, then sort."""
    lo, hi = j + k + 1, j + p + 1
    tuples = [t[::-1] for t in itertools.combinations_with_replacement(range(lo, hi + 1), k + 1)]
    tuples.sort()
    return tuples


@pytest.mark.parametrize("p", range(1, 10))
def test_enumerate_indices_is_the_reverse_and_sort_route(p):
    for j in range(p + 1):
        for k in range(p + 1):
            assert enumerate_indices(j, k, p) == reverse_and_sort_indices(j, k, p)


def test_enumerate_indices_rejects_bad_band_offset():
    with pytest.raises(ValueError):
        enumerate_indices(3, 3, 2)
    with pytest.raises(ValueError):
        enumerate_indices(0, -1, 2)
    # k = 0 is the diagonal: the p + 1 ascending 1-tuples
    for p in range(1, 5):
        for j in range(p + 1):
            assert enumerate_indices(j, 0, p) == [(j + s,) for s in range(1, p + 2)]


def test_enumerate_tilde_pinned_examples():
    assert enumerate_indices_tilde(-1, 2) == [(2, 2), (3, 2)]
    assert enumerate_indices_tilde(-1, 1) == []
    for p in range(2, 6):
        # at k = p-2 every coordinate is pinned to p+1, which the strict
        # last-coordinate constraint forbids, so the set is empty
        assert enumerate_indices_tilde(p - 2, p) == []


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_tilde_is_plain_set_minus_top_tuple(p):
    for k in range(-1, p - 1):
        got = set(enumerate_indices_tilde(k, p))
        assert enumerate_indices_tilde(k, p) == brute_tilde(k, p)
        plain = set(enumerate_indices(0, k + 2, p))
        assert got == plain - {tuple([p + 1] * (k + 3))}


# ---------------------------------------------------------------------------
# hyperplane determinants and sampling


def test_hyperplane_determinant_k1_is_single_entry():
    T = random_unit_lower(3, 8, seed=0)
    q = T.p
    for r in range(q):
        val = hyperplane_determinant(T, r, 1)
        assert val == T.band(q - r - 1)[q - r - 1] if q - r - 1 >= 1 else True
    # explicit: r = 0 picks the entry on row q-1, first column
    assert hyperplane_determinant(T, 0, 1) == T.band(q - 1)[q - 1]


def test_hyperplane_determinant_k2_is_2x2():
    T = random_unit_lower(2, 6, seed=1)
    q = T.p
    a = T.entry(q - 1, 0)
    b = T.entry(q - 1, 1)
    c = T.entry(q, 0)
    d = T.entry(q, 1)
    assert abs(hyperplane_determinant(T, 0, 2) - (a * d - b * c)) <= 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_hyperplane_determinant_matches_cofactor_oracle(seed):
    T = random_unit_lower(3, 9, seed=20 + seed)
    q = T.p
    dense = T.to_dense()
    for r in range(q):
        for k in range(1, 6):
            rows = [q - r - 1] + list(range(q, q + k - 1))
            sub = dense[np.ix_(rows, range(k))]
            truth = det_cofactor(sub)
            got = hyperplane_determinant(T, r, k)
            assert abs(got - truth) <= 1e-10 * max(1.0, abs(truth))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_hyperplane_determinant_equals_det_of_entrywise_submatrix(q):
    n = 16
    for mode, dtype in (("real", np.float64), ("complex", np.complex128)):
        T = random_unit_lower(q, n, seed=30 + q, mode=mode)
        assert T.data.dtype == dtype
        for r in range(q):
            for k in range(1, n - q + 2):
                rows = [q - r - 1] + list(range(q, q + k - 1))
                # entry by entry in T's field, so a real T takes the real determinant
                sub = np.array([[T.band(a - b)[a] for b in range(k)] for a in rows])
                assert sub.dtype == dtype
                assert hyperplane_determinant(T, r, k) == complex(np.linalg.det(sub))


def test_sample_parameters_none_to_sample():
    # one subdiagonal leaves no parameter to draw and nothing to peel
    T = random_unit_lower(1, 6, seed=2)
    with pytest.raises(ValueError):
        sample_parameters(T, np.random.default_rng(0))


def dense_margin(T, D, A):
    """The sampler's margin recomputed entry by entry from dense matrices."""
    q = T.p
    Td, Dd, Ad = T.to_dense(), D.to_dense(), A.to_dense()
    ratios = []
    for i in range(q - 1, T.n):
        j = i - q + 1
        den = abs(Td[i, j]) + abs(Dd[i, i - 1] * Ad[i - 1, j])
        ratios.append(abs(Ad[i, j]) / den if den > 0 else 0.0)
    return min(ratios)


def replay_draws(T, seed, count):
    """The sampler's first ``count`` real draws, peeled: [(margin, D, A)]."""
    rng = np.random.default_rng(seed)
    d = T.p - 1
    scale = float(np.median(np.abs(T.band(1)[1:])))
    out = []
    for _ in range(count):
        alphas = scale * rng.uniform(1.0, 2.0, d) * (rng.integers(0, 2, d) * 2.0 - 1.0)
        try:
            D, A = peel(T, alphas)
        except PeelBreakdown:
            out.append((0.0, None, None))
            continue
        out.append((dense_margin(T, D, A), D, A))
    return out


def test_sample_parameters_deterministic_and_margin_certified():
    T = random_unit_lower(3, 10, seed=3)
    tol = 1e-9
    assert darboux.SAMPLE_MARGIN == tol
    D1, A1 = sample_parameters(T, np.random.default_rng(5))
    D2, A2 = sample_parameters(T, np.random.default_rng(5))
    assert np.array_equal(D1.data, D2.data) and np.array_equal(A1.data, A2.data)
    assert A1.p == T.p - 1
    Td = T.to_dense()
    assert np.abs(D1.to_dense() @ A1.to_dense() - Td).max() <= 1e-12 * np.abs(Td).max()
    assert dense_margin(T, D1, A1) > tol
    # parameters: modulus in [1, 2] times the median first-subdiagonal modulus
    ratio = np.abs(D1.band(1)[1 : T.p]) / np.median(np.abs(T.band(1)[1:]))
    assert np.all((ratio >= 1.0) & (ratio <= 2.0))


def test_sample_parameters_complex_mode():
    T = random_unit_lower(3, 8, seed=4, mode="complex")
    D, A = sample_parameters(T, np.random.default_rng(6))
    assert np.abs(D.band(1)[1:3].imag).max() > 0
    assert dense_margin(T, D, A) > 1e-9


@pytest.mark.parametrize("imag", [0.0, -0.0], ids=["real", "negative-zero-imag"])
def test_sampler_draws_real_parameters_for_a_real_stage(imag):
    # a -0.0 imaginary part is real: T is stored in float64 and the draws are
    # replay_draws' signs
    data = random_unit_lower(3, 16, seed=12).data.astype(np.complex128)
    data.imag = imag
    T = Banded(3, 0, data)
    assert T.data.dtype == np.float64
    seed = 4
    draws = replay_draws(T, seed, 4)
    best = int(np.argmax([m for m, _, _ in draws]))
    D, A = sample_parameters(T, np.random.default_rng(seed))
    assert np.array_equal(D.data, draws[best][1].data)
    assert np.array_equal(A.data, draws[best][2].data)
    assert D.data.dtype == A.data.dtype == np.float64


def test_sampling_failure_carries_retry_count_and_margin(monkeypatch):
    # every cancellation ratio is at most 1, so a margin of 1 cannot be cleared
    T = random_unit_lower(2, 8, seed=5)
    monkeypatch.setattr(darboux, "SAMPLE_MARGIN", 1.0)
    monkeypatch.setattr(darboux, "SAMPLE_RETRIES", 9)
    with pytest.raises(SamplingFailed) as err:
        sample_parameters(T, np.random.default_rng(7))
    assert err.value.retries == 9
    best = max(m for m, _, _ in replay_draws(T, 7, 9))
    assert 0 < err.value.margin <= 1.0
    assert err.value.margin == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("p,scale", [(2, 0.5), (3, 0.15), (4, 0.05)])
def test_sampler_is_equivariant_under_grading(p, scale):
    J = random_hessenberg(p, 24, seed=60 + p)
    T = lu_factorize(J, 0.0)[0]
    Tg = lu_factorize(graded_scale(J, scale), 0.0)[0]
    D, A = sample_parameters(T, np.random.default_rng(p))
    Dg, Ag = sample_parameters(Tg, np.random.default_rng(p))
    # the draws scale with the first subdiagonal, so the same draw is kept
    head = slice(1, p)
    assert np.allclose(Dg.band(1)[head], scale * D.band(1)[head], rtol=1e-12, atol=0)
    assert dense_margin(Tg, Dg, Ag) == pytest.approx(dense_margin(T, D, A), rel=1e-9)


@pytest.mark.parametrize("row", ["first", "last"])
def test_sampler_rejects_a_draw_that_cancels_exactly(row):
    # q = 2, n = 8; the first-subdiagonal median is 1 whatever rows 1 and 7 hold
    seed, n = 11, 8
    sub = np.array([0.0, 1.5, 1.0, -1.0, 0.5, 1.0, -0.5, 1.0])
    deep = np.array([0.0, 0.0, 0.7, -1.3, 0.9, 1.1, -0.8, 0.6])
    T = Banded(2, 0, [np.ones(n), sub, deep])
    (_, D0, _), = replay_draws(T, seed, 1)
    if row == "first":
        sub[1] = D0.band(1)[1].real  # A[1, 0] = T[1, 0] - alpha = 0: row 2 divides by zero
    else:
        sub[n - 1] = D0.band(1)[n - 1].real  # A[n-1, n-2] = 0, on the last row
    T = Banded(2, 0, [np.ones(n), sub, deep])
    first = replay_draws(T, seed, 4)
    assert first[0][0] == 0.0
    D, A = sample_parameters(T, np.random.default_rng(seed))
    assert D.band(1)[1] != D0.band(1)[1]
    assert dense_margin(T, D, A) == max(m for m, _, _ in first) > 1e-9


def test_sampler_keeps_the_best_of_the_first_four_draws():
    T = random_unit_lower(3, 16, seed=12)
    seed = 4
    draws = replay_draws(T, seed, 4)
    margins = [m for m, _, _ in draws]
    best = int(np.argmax(margins))
    # every draw clears the margin, and the first is not the best
    assert min(margins) > 1e-9 and best != 0
    D, A = sample_parameters(T, np.random.default_rng(seed))
    assert np.array_equal(D.data, draws[best][1].data)
    assert np.array_equal(A.data, draws[best][2].data)


# ---------------------------------------------------------------------------
# peeling


def test_peel_hand_case_dense():
    # q = 2, n = 4: one free alpha, remaining rows forced by the band
    vals1 = np.array([0.0, 0.8, -1.1, 0.6])
    vals2 = np.array([0.0, 0.0, 1.3, -0.7])
    T = Banded(2, 0, [np.ones(4), vals1, vals2])
    alpha = np.array([0.5 + 0j])
    D, A = peel(T, alpha)
    assert A.p == 1
    assert D.band(1)[1] == alpha[0]
    assert residual(multiply(D, A), T) <= 1e-13


@pytest.mark.parametrize("p,seed", [(2, 0), (3, 1), (4, 2)])
def test_peel_reconstructs_randomly_sampled_stage(p, seed):
    T = random_unit_lower(p, 12, seed=30 + seed)
    D, A = sample_parameters(T, np.random.default_rng(seed))
    assert A.p == p - 1
    assert residual(multiply(D, A), T) <= 1e-10


def test_peel_breakdown_on_vanishing_denominator():
    alpha = 0.9
    vals1 = np.array([0.0, alpha, 0.5, 0.4])  # row 1 equals alpha: delta dies
    vals2 = np.array([0.0, 0.0, 1.2, 0.8])
    T = Banded(2, 0, [np.ones(4), vals1, vals2])
    with pytest.raises(PeelBreakdown) as err:
        peel(T, np.array([alpha + 0j]))
    assert err.value.row == 2


@pytest.mark.parametrize("count", [0, 1, 3])
def test_peel_rejects_a_wrong_parameter_count(count):
    T = random_unit_lower(3, 8, seed=31)
    with pytest.raises(ValueError, match=rf"stage needs 2 parameters, got shape \({count},\)"):
        peel(T, np.full(count, 0.5))


# ---------------------------------------------------------------------------
# the full splitting


def test_darboux_factorize_p1_is_the_matrix_itself():
    L = random_unit_lower(1, 8, seed=6)
    out = darboux_factorize(L)
    assert len(out) == 1
    assert np.array_equal(out[0].data, L.data)


@pytest.mark.parametrize("p,seed,mode", [(2, 0, "real"), (3, 1, "real"), (4, 2, "complex")])
def test_darboux_factorize_round_trip(p, seed, mode):
    J = random_hessenberg(p, 12, seed=40 + seed, mode=mode)
    L, _ = lu_factorize(J, 0.0)
    out = darboux_factorize(L, rng=np.random.default_rng(seed))
    assert len(out) == p
    assert residual(multiply_chain(list(out)), L) <= 1e-10


def test_darboux_factorize_rejects_params_and_rng_together():
    L = random_unit_lower(2, 6, seed=7)
    params = ParameterSet((np.array([0.5 + 0j]),))
    with pytest.raises(ValueError):
        darboux_factorize(L, params=params, rng=np.random.default_rng(0))


def test_darboux_factorize_rejects_mismatched_params():
    L = random_unit_lower(3, 6, seed=8)
    params = ParameterSet((np.array([0.5 + 0j]),))  # p = 2 parameter shape
    with pytest.raises(ValueError):
        darboux_factorize(L, params=params)


def test_darboux_factorize_deterministic_for_fixed_params():
    L = random_unit_lower(3, 9, seed=9)
    params = ParameterSet((np.array([0.7 + 0j, -1.2 + 0j]), np.array([0.9 + 0j])))
    a = darboux_factorize(L, params=params)
    b = darboux_factorize(L, params=params)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.band(1), fb.band(1))


def test_factor_heads_carry_the_given_parameters():
    # stage s keeps its alphas as the first p-s-1 subdiagonal entries
    L, U = lu_factorize(random_hessenberg(3, 9, seed=10), 0.0)
    params = ParameterSet((np.array([0.7 + 0j, -1.2 + 0j]), np.array([0.9 + 0j])))
    got = DarbouxFactors(U, darboux_factorize(L, params=params)).parameters()
    for s, row in enumerate(params.alphas):
        assert np.allclose(got.alphas[s], row, atol=0, rtol=0)


# ---------------------------------------------------------------------------
# the gamma table


def pipeline(p, n, seed, C=0.0, mode="real"):
    J = random_hessenberg(p, n, seed=seed, mode=mode)
    factors, table = darboux_factorization(J, C, rng=np.random.default_rng(seed))
    return J, factors, table


def test_first_filled_entry_formula():
    for p in (1, 2, 3):
        J, factors, table = pipeline(p, 10, seed=50 + p)
        g = table.gamma
        expect = J.entry(1, 0) / g(1) - sum(g(j) for j in range(2, p + 1))
        assert abs(g(p + 1) - expect) <= 1e-12 * max(1.0, abs(expect))


@pytest.mark.parametrize("p,mode", [(2, "real"), (3, "real"), (2, "complex"), (3, "complex")])
def test_table_fill_agrees_with_peeled_factors(p, mode):
    for seed in range(5):
        J = random_hessenberg(p, 10, seed=60 + seed, mode=mode)
        C = 0.3 - 0.2j if mode == "complex" else 0.25
        factors, table = darboux_factorization(J, C, rng=np.random.default_rng(seed))
        direct = factors_to_table(factors)
        # the returned table is the leading n - 1 columns; the last holds u_{n-1} and p zeros
        assert (table.columns, direct.columns) == (9, 10)
        assert np.array_equal(table.values, direct.values[: table.size])
        assert direct.values[table.size :].tolist() == [factors.U.entry(9, 9)] + [0j] * p
        fill = table_fill(factors.U.band(0), factors.parameters(), J, C)
        assert np.abs(direct.values[: fill.size] - fill.values).max() <= 1e-9


def test_classical_tridiagonal_relation():
    # p = 1: subdiagonal entries split as products of adjacent gammas
    J, factors, table = pipeline(1, 9, seed=11)
    g = table.gamma
    for i in range(table.columns):
        lhs = J.entry(i + 1, i)
        assert abs(g(2 * i + 1) * g(2 * i + 2) - lhs) <= 1e-12 * max(1.0, abs(lhs))
    L, _ = lu_factorize(J, 0.0)
    assert np.allclose(factors.factors[0].band(1)[1:], L.band(1)[1:], atol=1e-13, rtol=0)


def test_table_fill_guards_inconsistent_pivot_head():
    J = random_hessenberg(2, 6, seed=12)
    params = ParameterSet((np.array([0.5 + 0j]),))
    u = np.full(6, 2.0, dtype=np.complex128)  # head does not equal a_00 - C
    with pytest.raises(ValueError):
        table_fill(u, params, J, 0.0)


def test_table_fill_breakdown_on_zero_delta():
    J = random_hessenberg(2, 6, seed=13)
    params = ParameterSet((np.array([0.5 + 0j]),))
    u = np.ones(6, dtype=np.complex128)
    u[0] = 0.0
    C = complex(J.band(0)[0])  # shift equal to the corner keeps the head consistent
    with pytest.raises(TableBreakdown) as err:
        table_fill(u, params, J, C)
    assert err.value.i == 1


@pytest.mark.parametrize("s", [1e-3, 1e-5, 1e3])
def test_table_fill_breakdown_is_invariant_under_grading(s):
    # grading by s scales every gamma by s and a product of k + 2 of them by
    # s^(k+2); an absolute 1e-12 guard broke down at s = 1e-3 on this instance
    J = random_hessenberg(4, 32, seed=1)
    factors, _ = darboux_factorization(J, 0.0, rng=np.random.default_rng(1))
    u, params = factors.U.band(0), factors.parameters()
    fill = table_fill(u, params, J)
    graded = ParameterSet(tuple(s * row for row in params.alphas))
    got = table_fill(s * u, graded, graded_scale(J, s))
    assert np.abs(got.values - s * fill.values).max() <= 1e-9 * s * np.abs(fill.values).max()


@pytest.mark.parametrize("s", [1e-13, 1e-5, 1e-4, 1e3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_factorization_routes_are_equivariant_under_grading(p, s):
    # grading by s scales the pivots, the parameters and so every gamma by s,
    # and leaves every cancellation ratio as it was; at p = 4 absolute guards
    # broke the explicit route down at s = 1e-4 (row 5) and s = 1e-5 (row 4)
    J = random_hessenberg(p, 24, seed=3)
    Jg = graded_scale(J, s)
    u, ug = lu_factorize(J, 0.0)[1].band(0), lu_factorize(Jg, 0.0)[1].band(0)
    assert np.abs(ug - s * u).max() <= 1e-12 * s * np.abs(u).max()
    factors, table = darboux_factorization(J, 0.0, rng=np.random.default_rng(3))
    graded = ParameterSet(tuple(s * row for row in factors.parameters().alphas))
    explicit = darboux_factorization(Jg, 0.0, params=graded)[1]
    # the sampler's draws scale with the stage, so it keeps the same draws
    sampled = darboux_factorization(Jg, 0.0, rng=np.random.default_rng(3))[1]
    for got in (explicit, sampled):
        assert np.abs(got.values - s * table.values).max() <= 1e-12 * s * np.abs(table.values).max()


def test_gamma_table_reads_and_bounds():
    t = GammaTable(1, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert t.gamma(0) == 0
    assert t.gamma(-5) == 0
    assert t.gamma(3) == 3.0
    assert t.row(1)[0] == 2.0
    assert np.array_equal(t.row(0), np.array([1.0, 3.0], dtype=np.complex128))
    with pytest.raises(IndexError):
        t.gamma(5)


def test_gamma_table_json_round_trip():
    values = np.arange(1.0, 10.0) + 0.5j
    values[[1, 4, 7]] = [complex(2.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    t = GammaTable(2, 3, values)
    payload = t.to_json_dict()
    # the one-tolist encoder gives the per-entry pairs, signs of zero included
    signs = [[math.copysign(1.0, x) for x in pair] for pair in payload["gamma"]]
    assert payload["gamma"] == [_pair(z) for z in t.values]
    assert signs == [[math.copysign(1.0, x) for x in _pair(z)] for z in t.values]
    again = gamma_table_from_json(json.loads(json.dumps(payload)))
    assert again.p == 2 and again.columns == 3
    assert again.values.tobytes() == t.values.tobytes()


@pytest.mark.parametrize("bad", [[None, 1], ["1", 0], [True, 0], [1], [1, 2, 3], 5, {"re": 1},
                                 json.loads("[1e400, 0]"), json.loads("[0, NaN]"),
                                 json.loads("[-Infinity, 1]")],
                         ids=["null", "string", "bool", "short", "long", "scalar", "object",
                              "beyond-double-range", "nan", "infinity"])
def test_decoders_reject_a_pair_that_is_not_two_numbers(bad):
    with pytest.raises(ValueError):
        gamma_table_from_json({"p": 1, "columns": 1, "gamma": [bad, [1, 1]]})
    with pytest.raises(ShapeError, match="band 0 entry 1"):
        from_json_dict({"p": 0, "n": 2, "bands": {"0": [[1, 1], bad]}})


def test_decoders_accept_integer_and_float_pairs():
    t = gamma_table_from_json({"p": 1, "columns": 1, "gamma": [[1, 0], [0.5, -2]]})
    assert np.array_equal(t.values, np.array([1, 0.5 - 2j]))
    m = from_json_dict({"p": 0, "n": 1, "bands": {"0": [[2, 0.25]]}})
    assert m.entry(0, 0) == 2 + 0.25j


def test_parameter_set_validation():
    with pytest.raises(ValueError):
        ParameterSet((np.array([0.5 + 0j, 1.0 + 0j]),))  # wrong row length for p=2
    with pytest.raises(ValueError):
        ParameterSet((np.array([0.0 + 0j]),))  # zero parameter
    ps = ParameterSet((np.array([0.5 + 0j, -1.0 + 0j]), np.array([2.0 + 0j])))
    assert ps.p == 3
    assert ParameterSet(()).p == 1


def test_parameter_set_copies_the_callers_arrays():
    a = np.array([1 + 0j, 2 + 0j])
    ps = ParameterSet((a, np.array([3 + 0j])))
    a[0] = 5  # the caller's array stays writeable
    assert ps.alphas[0].tolist() == [1, 2]
    assert not ps.alphas[0].flags.writeable


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_one_by_one_matrix_has_no_gamma_table(p):
    J = random_hessenberg(p, 1, seed=p)
    for run in (darboux_factorization, theorem1_diagram):
        with pytest.raises(ValueError, match="n >= 2, got n=1"):
            run(J)


def test_darboux_factors_json_round_trip():
    _, factors, _ = pipeline(2, 7, seed=14, C=0.3, mode="complex")
    again = DarbouxFactors.from_json_dict(factors.to_json_dict())
    assert again.C == factors.C
    assert np.array_equal(again.U.band(0), factors.U.band(0))
    for a, b in zip(again.factors, factors.factors):
        assert np.array_equal(a.band(1), b.band(1))


@pytest.mark.parametrize("key", ["C", "U", "factors"])
def test_factor_payload_without_a_key_is_rejected(key):
    _, factors, _ = pipeline(2, 6, seed=15)
    payload = factors.to_json_dict()
    del payload[key]
    with pytest.raises(ValueError, match=f"malformed factor payload: '{key}'"):
        DarbouxFactors.from_json_dict(payload)


@pytest.mark.parametrize("p,columns,size,message", [
    (0, 2, 2, "invalid table shape p=0, columns=2"),
    (1, 0, 0, "invalid table shape p=1, columns=0"),
    (2, 2, 5, r"table needs 6 entries, got \(5,\)"),
    (1, 2, 5, r"table needs 4 entries, got \(5,\)"),
])
def test_gamma_table_rejects_a_bad_shape(p, columns, size, message):
    with pytest.raises(ValueError, match=message):
        GammaTable(p, columns, np.ones(size))
    with pytest.raises(ValueError, match=message):
        gamma_table_from_json({"p": p, "columns": columns, "gamma": [[1, 0]] * size})


def test_factor_payload_without_U_is_rejected():
    _, factors, _ = pipeline(2, 6, seed=15)
    payload = factors.to_json_dict()
    payload["U"] = None
    with pytest.raises(ValueError):
        DarbouxFactors.from_json_dict(payload)


def test_darboux_factors_reject_wrong_shapes():
    _, factors, _ = pipeline(2, 6, seed=15)
    U, (L1, L2) = factors.U, factors.factors
    lower_as_U = Banded(1, 0, U.data)
    upper_as_factor = Banded(0, 1, L1.data)
    wide = Banded(2, 0, np.vstack([L1.data, L2.data[1:]]))
    hessenberg_as_U = Banded(1, 1, np.vstack([U.data, L1.data[1:]]))
    for bad_U, bad_factors in [
        (lower_as_U, (L1, L2)),
        (hessenberg_as_U, (L1, L2)),
        (U, (L1, upper_as_factor)),
        (U, (wide, L2)),
        (U, (L1, Banded(1, 0, L2.data[:, :5]))),
        (None, (L1, L2)),
    ]:
        with pytest.raises(ShapeError):
            DarbouxFactors(bad_U, bad_factors)
    with pytest.raises(ShapeError):
        DarbouxFactors(U, ())


def test_darboux_factors_reject_structural_bands_that_are_not_unit():
    _, factors, _ = pipeline(2, 6, seed=15)
    U, (L1, L2) = factors.U, factors.factors

    def bend(m):
        # row 0 holds U's superdiagonal and a lower factor's diagonal
        data = m.data.copy()
        data[0, 2] = 1.5
        return Banded(m.p, m.hi, data)

    with pytest.raises(ShapeError):
        DarbouxFactors(bend(U), (L1, L2))
    with pytest.raises(ShapeError):
        DarbouxFactors(U, (bend(L1), L2))
    assert DarbouxFactors(U, (L1, L2)).p == 2


# ---------------------------------------------------------------------------
# transforms and closed forms


def test_assemble_transform_zero_is_the_input():
    J, factors, _ = pipeline(2, 8, seed=16, C=0.4)
    assert residual(assemble_transform(factors, 0), J) <= 1e-10


def test_assemble_transform_p1_dense_oracle():
    J, factors, _ = pipeline(1, 4, seed=17, C=0.2)
    J1 = assemble_transform(factors, 1)
    dense = factors.U.to_dense() @ factors.factors[0].to_dense() + 0.2 * np.eye(4)
    assert np.abs(J1.to_dense() - dense).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_transforms_are_banded_hessenberg_with_unit_superdiagonal(p):
    J, factors, _ = pipeline(p, 9, seed=18 + p, C=0.1)
    for i in range(p + 1):
        Ji = assemble_transform(factors, i)
        assert (Ji.p, Ji.hi, Ji.n) == (p, 1, 9)
        assert np.array_equal(Ji.band(-1)[: Ji.n - 1], np.ones(Ji.n - 1))


def test_backlund_p1_pinned_entries():
    C = 0.3
    J, factors, table = pipeline(1, 6, seed=19, C=C)
    g = table.gamma
    assert abs(backlund_entry(table, 0, 0, 0, C) - (C + g(1))) <= 1e-14
    assert abs(backlund_entry(table, 0, 0, 1, C) - g(1) * g(2)) <= 1e-14


@pytest.mark.parametrize("p,mode", [(1, "real"), (2, "real"), (3, "complex")])
def test_backlund_equals_product_route_everywhere(p, mode):
    C = 0.15 - 0.1j if mode == "complex" else 0.15
    J = random_hessenberg(p, 10, seed=70 + p, mode=mode)
    factors, _ = darboux_factorization(J, C, rng=np.random.default_rng(p))
    table = factors_to_table(factors)
    for j in range(p + 1):
        Jj = assemble_transform(factors, j)
        for r in range(table.columns):
            for c in range(max(0, r - p), r + 1):
                got = backlund_entry(table, j, c, r - c, C)
                assert abs(got - Jj.entry(r, c)) <= 1e-10


@pytest.mark.parametrize("n", [8, 33, 256])
@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_product_route_equals_the_closed_form_on_all_rows(p, mode, n):
    # the n x n factors and their n-column table are one finite system: every
    # J^(j) of the product route is the table's closed form on all n rows,
    # row n - 1 included, relative to the band scale of J^(j)
    J = graded_scale(random_hessenberg(p, n, seed=n + p, mode=mode), 0.5)
    C = 0.1 - 0.05j if mode == "complex" else 0.1
    factors, _ = darboux_factorization(J, C, rng=np.random.default_rng(p))
    table = factors_to_table(factors)
    assert table.columns == n
    for j in range(p + 1):
        product = assemble_transform(factors, j)
        closed = reconstruct_transform(table, j, C)
        assert product.n == closed.n == n
        gap = residual(product, closed) / np.abs(product.data).max()
        assert gap <= 1e-12, (j, gap)


def test_backlund_entry_out_of_table_raises():
    _, _, table = pipeline(2, 6, seed=20)
    with pytest.raises(IndexError):
        backlund_entry(table, 2, table.columns + 2, 2, 0.0)


# ---------------------------------------------------------------------------
# the field of stored values, decided once by banded._field


FIELD_CASES = {
    # every imaginary part zero, of either sign, is real: stored as float64
    "plus-zero-imag": [complex(1.5, 0.0), complex(-2.0, 0.0), complex(0.25, 0.0)],
    "negative-zero-imag": [complex(1.5, -0.0), complex(-2.0, -0.0), complex(0.25, -0.0)],
    "mixed-zero-imag": [complex(1.5, -0.0), complex(-2.0, 0.0), complex(0.25, -0.0)],
    "float": [1.5, -2.0, 0.25],
    # one nonzero imaginary part, however small, keeps complex128
    "complex": [complex(1.5, -0.0), complex(-2.0, 1e-300), complex(0.25, 0.0)],
}


def stored_values(kind, values):
    """(stored array, the values it was built from) for each array a constructor stores."""
    vals = np.array(values)
    if kind == "Banded":
        return [(Banded(0, 0, [vals]).data[0], vals)]
    if kind == "BandedHessenberg":
        return [(BandedHessenberg(1, 3, (vals, vals[1:])).band(0), vals)]
    if kind == "from_json_dict":
        payload = {"p": 0, "n": 3, "bands": {"0": [_pair(z) for z in vals]}}
        return [(from_json_dict(json.loads(json.dumps(payload))).band(0), vals)]
    if kind == "GammaTable":
        return [(GammaTable(2, 1, vals).values, vals)]
    if kind == "ParameterSet":
        rows = (vals, vals[:2], vals[:1])
        return list(zip(ParameterSet(rows).alphas, rows))
    factors, _ = darboux_factorization(random_hessenberg(2, 6, seed=1), rng=1)
    return [(np.asarray(DarbouxFactors(factors.U, factors.factors, z).C), np.asarray(z))
            for z in vals]


@pytest.mark.parametrize("case", list(FIELD_CASES))
@pytest.mark.parametrize("kind", ["Banded", "BandedHessenberg", "from_json_dict",
                                  "GammaTable", "ParameterSet", "DarbouxFactors.C"])
def test_every_constructor_stores_float64_exactly_when_every_imaginary_part_is_zero(kind, case):
    for got, source in stored_values(kind, FIELD_CASES[case]):
        want = np.complex128 if np.iscomplexobj(source) and source.imag.any() else np.float64
        assert got.dtype == want
        # every stored part, with the sign of its zeros
        parts = [got.real] + ([got.imag] if want is np.complex128 else [])
        wants = [source.real] + ([source.imag] if want is np.complex128 else [])
        for a, b in zip(parts, wants):
            assert [x.hex() for x in np.ravel(a).tolist()] == [x.hex() for x in np.ravel(b).tolist()]


def test_banded_stores_a_new_copy_in_either_field():
    for data in (np.ones((2, 4)), np.full((2, 4), 1 + 1j), np.full((2, 4), complex(1, -0.0))):
        m = Banded(1, 0, data)
        assert not np.shares_memory(m.data, data) and not m.data.flags.writeable


def test_real_factorization_stores_every_factor_in_float64():
    J = random_hessenberg(3, 12, seed=2)
    factors, table = darboux_factorization(J, 0.1, rng=2)
    stored = [factors.U.data, *(f.data for f in factors.factors), table.values,
              *factors.parameters().alphas, np.asarray(factors.C)]
    assert all(a.dtype == np.float64 for a in stored)
    assert assemble_transform(factors, 1).data.dtype == np.float64
    # real factors under a complex shift: the diagonal takes the shift's field
    shifted = assemble_transform(DarbouxFactors(factors.U, factors.factors, 0.5j), 1)
    assert shifted.data.dtype == np.complex128 and np.all(shifted.band(0).imag == 0.5)
    # a complex shift makes the factors complex
    factors, table = darboux_factorization(J, 0.1 + 0.2j, rng=2)
    assert factors.U.data.dtype == table.values.dtype == np.asarray(factors.C).dtype == np.complex128


@pytest.mark.parametrize("p", [2, 3, 4])
def test_real_factors_are_the_all_complex_routes_real_parts(p, monkeypatch):
    # a real instance factors on Python floats, each quotient t * (1.0 / u) as numpy's
    # complex division rounds it: t / u would move factor bits
    J = graded_scale(random_hessenberg(p, 64, seed=p), 0.5)
    real, real_table = darboux_factorization(J, 0.1, rng=p)
    params = real.parameters()

    def complex_field(x):  # every value complex128, as before the field rule
        return np.array(x, dtype=np.complex128)

    monkeypatch.setattr(banded, "_field", complex_field)
    monkeypatch.setattr(darboux, "_field", complex_field)
    cplx, cplx_table = darboux_factorization(BandedHessenberg(p, J.n, J.bands), 0.1, params=params)
    pairs = [(a.data, b.data) for a, b in zip((real.U, *real.factors), (cplx.U, *cplx.factors))]
    for a, b in pairs + [(real_table.values, cplx_table.values)]:
        assert a.dtype == np.float64 and b.dtype == np.complex128
        assert a.tobytes() == np.ascontiguousarray(b.real).tobytes()


SIGNED_ZEROS = {
    "float": [0.0, -0.0, 1.5, -2.0],
    "int": [0, 1, -2, 3],
    "zero-imag": [complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, -0.0), complex(-2.0, 0.0)],
    "complex": [complex(-0.0, 1.0), complex(0.0, -0.0), complex(1.5, -0.0), complex(-2.0, 0.5)],
}


def complex_route_hessenberg(p, n, bands):
    """BandedHessenberg as it was built before: filled in complex128 whatever the bands."""
    data = np.ones((p + 2, n), dtype=np.complex128)
    for d, values in enumerate(bands):
        v = np.asarray(values, dtype=np.complex128)
        data[d + 1, n - len(v):] = v
    return Banded(p, 1, data)


def complex_route_table(factors):
    """factors_to_table as it was built before: its columns filled in complex128."""
    p, n = factors.p, factors.n
    cols = np.zeros((n, p + 1), dtype=np.complex128)
    cols[:, 0] = factors.U.band(0)
    for r, f in enumerate(factors.factors, start=1):
        cols[:-1, r] = f.band(1)[1:]
    return GammaTable(p, n, cols.reshape(-1))


def filled_dtypes(monkeypatch, module):
    """Record the dtype of every array module's stores are built from."""
    seen, field = [], banded._field

    def recording_field(x):
        seen.append(np.asarray(x).dtype)
        return field(x)

    monkeypatch.setattr(module, "_field", recording_field)
    return seen


@pytest.mark.parametrize("case", list(SIGNED_ZEROS))
def test_hessenberg_bands_are_filled_in_their_field_with_the_complex_routes_bits(case, monkeypatch):
    vals = np.array(SIGNED_ZEROS[case])
    filled = np.complex128 if np.iscomplexobj(vals) else np.float64
    n = len(vals)
    natural = (vals, vals[1:], vals[:2])
    padded = (vals, vals[::-1], -vals)
    for bands in (natural, padded):
        want = complex_route_hessenberg(2, n, bands)
        seen = filled_dtypes(monkeypatch, banded)
        got = BandedHessenberg(2, n, bands)
        monkeypatch.undo()
        assert seen == [filled]
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()  # every bit, signed zeros included


@pytest.mark.parametrize("lower", list(SIGNED_ZEROS))
@pytest.mark.parametrize("upper", ["float", "complex"])
def test_table_is_filled_in_the_factors_field_with_the_complex_routes_bits(upper, lower, monkeypatch):
    u, sub = np.array(SIGNED_ZEROS[upper]), np.array(SIGNED_ZEROS[lower])
    ones = np.ones(len(u))
    factors = DarbouxFactors(Banded(0, 1, [ones, u]),
                             (Banded(1, 0, [ones, sub]), Banded(1, 0, [ones, sub[::-1]])))
    filled = np.result_type(factors.U.data, *(f.data for f in factors.factors))
    want = complex_route_table(factors)
    seen = filled_dtypes(monkeypatch, darboux)
    got = factors_to_table(factors)
    monkeypatch.undo()
    assert seen == [filled]
    assert filled == (np.complex128 if "complex" in (upper, lower) else np.float64)
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()
