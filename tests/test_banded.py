"""Band storage, products of finite matrices, and how truncation affects them."""

import json
import tracemalloc

import numpy as np
import pytest

from toda_darboux.banded import (
    Banded,
    BandedHessenberg,
    ShapeError,
    from_json_dict,
    graded_scale,
    multiply,
    multiply_chain,
    random_hessenberg,
    residual,
    to_json_dict,
)

from oracles import dense_residual, truncate


def dense_product(A, B):
    # independent oracle: plain triple loop on dense arrays
    n = A.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def signed(n, rng):
    return rng.uniform(1.0, 2.0, n) * (rng.integers(0, 2, n) * 2 - 1)


def random_banded(p, hi, n, rng):
    # free bands of moduli in [1, 2] at every offset
    return Banded(p, hi, [signed(n, rng) for _ in range(p + hi + 1)])


def random_unit_lower(p, n, rng):
    return Banded(p, 0, [np.ones(n)] + [signed(n, rng) for _ in range(p)])


def random_upper(n, rng):
    return Banded(0, 1, [np.ones(n), signed(n, rng)])


def random_lower_bidiagonal(n, rng):
    return Banded(1, 0, [np.ones(n), signed(n, rng)])


# ---------------------------------------------------------------------------
# truncation


def test_truncate_identity_block():
    eye4 = Banded(1, 0, [np.ones(4), np.zeros(4)])
    out = truncate(eye4, 2)
    assert out.n == 2
    assert np.array_equal(out.to_dense(), np.eye(2))


def test_truncate_full_size_is_identity_operation():
    J = random_hessenberg(2, 6, seed=0)
    out = truncate(J, 6)
    assert np.array_equal(out.to_dense(), J.to_dense())


def test_truncate_index_formula():
    n, p = 5, 2
    bands = tuple(np.array([i + (i - d) if i >= d else 0 for i in range(n)], dtype=float)
                  for d in range(p + 1))
    J = BandedHessenberg(p, n, bands)
    out = truncate(J, 3)
    for i in range(3):
        for j in range(max(0, i - p), i + 1):
            assert out.entry(i, j) == i + j


def test_truncate_size_errors():
    J = random_hessenberg(1, 4, seed=1)
    with pytest.raises(ShapeError):
        truncate(J, 0)
    with pytest.raises(ShapeError):
        truncate(J, 5)


# ---------------------------------------------------------------------------
# multiplication, and the rows on which truncation commutes with it


def test_multiply_identity_keeps_window():
    B = random_hessenberg(2, 6, seed=2)
    eye = Banded(1, 0, [np.ones(6), np.zeros(6)])
    out = multiply(eye, B)
    assert np.allclose(out.to_dense(), B.to_dense(), atol=0, rtol=0)


def test_multiply_bidiagonal_2x2_closed_form():
    beta, u0, u1 = 0.7, 2.0, 3.0
    low = Banded(1, 0, [[1.0, 1.0], [0.0, beta]])
    up = Banded(0, 1, [[1.0, 1.0], [u0, u1]])
    out = multiply(low, up)
    expect = np.array([[u0, 1.0], [beta * u0, beta + u1]])
    assert np.array_equal(out.to_dense(), expect)


@pytest.mark.parametrize("p,n", [(1, 6), (2, 8), (3, 10), (4, 12)])
@pytest.mark.parametrize("seed", [0, 1])
def test_band_closure_unit_lower_times_upper(p, n, seed):
    rng = np.random.default_rng(seed)
    L = random_unit_lower(p, n, rng)
    U = random_upper(n, rng)
    out = multiply(L, U)
    assert (out.p, out.hi) == (p, 1)
    assert np.array_equal(out.band(-1)[: n - 1], np.ones(n - 1))
    oracle = dense_product(L.to_dense(), U.to_dense())
    assert np.abs(out.to_dense() - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("seed", range(4))
def test_mixed_products_match_dense(seed):
    rng = np.random.default_rng(10 + seed)
    n = 7
    J = random_hessenberg(2, n, seed=seed)
    D = random_lower_bidiagonal(n, rng)
    out = multiply(D, J)
    assert np.abs(out.to_dense() - dense_product(D.to_dense(), J.to_dense())).max() <= 1e-13
    out2 = multiply(D, random_unit_lower(3, n, rng))
    assert (out2.p, out2.hi) == (4, 0)
    assert np.array_equal(out2.band(0), np.ones(n))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((0, 1), (0, 1)),  # two upper reaches: hi = 2
    ((2, 1), (1, 1)),  # hi = 2 with subdiagonals on both sides
    ((1, 0), (2, 1)),
    ((0, 1), (3, 0)),
    ((3, 0), (4, 0)),  # p clipped at n - 1
    ((1, 2), (1, 1)),  # a left factor with hi = 2 costs two rows
], ids=["upper-upper", "hessenberg-hessenberg", "lower-hessenberg", "upper-lower", "clipped", "hi2-left"])
def test_general_product_matches_dense_on_its_window(shape_a, shape_b):
    # the product of two truncations is the dense product of the truncations;
    # its leading n - a.hi rows are also the padded (semi-infinite) product,
    # as a left factor's reach above the diagonal reads rows of b past n
    rng = np.random.default_rng(80)
    n, pad = 6, 4
    big_a, big_b = random_banded(*shape_a, n + pad, rng), random_banded(*shape_b, n + pad, rng)
    a, b = truncate(big_a, n), truncate(big_b, n)
    out = multiply(a, b)
    assert (out.p, out.hi) == (min(a.p + b.p, n - 1), a.hi + b.hi)
    dense = dense_product(a.to_dense(), b.to_dense())
    assert np.abs(out.to_dense() - dense).max() <= 1e-13 * np.abs(dense).max()
    truth = dense_product(big_a.to_dense(), big_b.to_dense())[:n, :n]
    k = n - a.hi
    assert np.abs(out.to_dense()[:k, :k] - truth[:k, :k]).max() <= 1e-13 * np.abs(truth).max()


def test_multiply_rejects_size_mismatch():
    a = random_upper(4, np.random.default_rng(0))
    b = random_lower_bidiagonal(5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        multiply(a, b)


def _padded_chain(builders, n, pad):
    big = [b(n + pad) for b in builders]
    small = [truncate(m, n) for m in big]
    return small, big


@pytest.mark.parametrize("seed", range(5))
def test_window_soundness_vs_padded_truth(seed):
    # a chain with one upper factor agrees with the same chain computed at a
    # larger truncation, the ground truth for these rows, on n - 1 rows
    rng = np.random.default_rng(30 + seed)
    n, p = 9, 2
    pad = p + 2
    fixed = [rng.uniform(1.0, 2.0, n + pad) * (rng.integers(0, 2, n + pad) * 2 - 1)
             for _ in range(p + 3)]
    # one upward-reaching factor at most per chain; vary its position
    builders = [
        lambda m: Banded(p, 0, [np.ones(m)] + [f[:m] for f in fixed[:p]]),
        lambda m: Banded(1, 0, [np.ones(m), fixed[p][:m]]),
        lambda m: Banded(0, 1, [np.ones(m), fixed[p + 1][:m]]),
        lambda m: Banded(1, 0, [np.ones(m), fixed[p + 2][:m]]),
    ]
    small, big = _padded_chain(builders, n, pad)
    got = multiply_chain(small)
    truth = multiply_chain(big)
    k = n - 1
    diff = np.abs(got.to_dense()[:k, :k] - truth.to_dense()[:k, :k])
    scale = max(1.0, np.abs(truth.to_dense()[:k, :k]).max())
    assert diff.max() <= 1e-12 * scale


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bidiagonal_chain_window_bound(p):
    # with the upper factor rightmost, truncation commutes with the chain on all n rows
    rng = np.random.default_rng(50 + p)
    n, pad = 10, 3
    big = [random_lower_bidiagonal(n + pad, rng) for _ in range(p)] + [random_upper(n + pad, rng)]
    got = multiply_chain([truncate(f, n) for f in big])
    truth = truncate(multiply_chain(big), n)
    assert (got.p, got.hi) == (truth.p, truth.hi) == (p, 1)
    assert np.abs(got.to_dense() - truth.to_dense()).max() <= 1e-13 * np.abs(truth.data).max()


def test_truncate_multiply_commutes_inside_window():
    rng = np.random.default_rng(60)
    n, m = 9, 6
    L = random_unit_lower(2, n, rng)
    U = random_upper(n, rng)
    whole = multiply(L, U)
    part = multiply(truncate(L, m), truncate(U, m))
    # the left factor reaches no row above the diagonal, so all m rows agree
    assert np.array_equal(truncate(whole, m).to_dense(), part.to_dense())


# ---------------------------------------------------------------------------
# residual


def test_residual_of_equal_matrices_is_zero():
    J = random_hessenberg(2, 5, seed=3)
    assert residual(J, J) == 0.0


def test_residual_unit_difference():
    ones = BandedHessenberg(1, 2, (np.ones(2), np.zeros(2)))
    zeros = BandedHessenberg(1, 2, (np.zeros(2), np.zeros(2)))
    assert residual(ones, zeros) == 1.0


@pytest.mark.parametrize("shape_a,shape_b", [
    ((1, 1), (1, 1)),
    ((1, 1), (4, 0)),  # Hessenberg against unit lower
    ((0, 1), (2, 2)),  # upper reaches that differ
    ((3, 0), (0, 1)),
    ((0, 0), (1, 0)),  # diagonal only on one side
    ((2, 2), (6, 3)),  # bands wider than the matrix
])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_residual_equals_the_dense_comparison(shape_a, shape_b, mode):
    rng = np.random.default_rng(7)
    n = 7

    def draw(p, hi):
        bands = [signed(n, rng) for _ in range(p + hi + 1)]
        if mode == "complex":
            bands = [b * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)) for b in bands]
        return Banded(p, hi, bands)

    a, b = draw(*shape_a), draw(*shape_b)
    near = Banded(a.p, a.hi, a.data * (1 + 1e-9 * signed(n, rng)))
    for x, y in ((a, b), (b, a), (a, near), (a, a)):
        assert residual(x, y) == dense_residual(x, y), (x, y)


def test_residual_propagates_nan():
    a = random_hessenberg(2, 5, seed=3)
    data = a.data.copy()
    data[2, 3] = np.nan
    assert np.isnan(residual(a, Banded(a.p, a.hi, data)))


def test_residual_allocates_no_dense_matrix():
    # the dense comparison allocates two n x n complex arrays (48 MB here)
    a, b = random_hessenberg(4, 1024, seed=1), random_hessenberg(4, 1024, seed=2)
    tracemalloc.start()
    try:
        residual(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# fixture generator and scaling


def test_random_hessenberg_is_deterministic():
    a = random_hessenberg(3, 9, seed=42)
    b = random_hessenberg(3, 9, seed=42)
    assert np.array_equal(a.to_dense(), b.to_dense())
    c = random_hessenberg(3, 9, seed=43)
    assert not np.array_equal(a.to_dense(), c.to_dense())


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_random_hessenberg_moduli_and_regularity(mode):
    J = random_hessenberg(2, 8, seed=5, mode=mode)
    for d in range(3):
        vals = np.abs(J.band(d)[d:])
        assert np.all(vals >= 1.0) and np.all(vals <= 2.0)
    if mode == "real":
        assert np.all(J.to_dense().imag == 0)
    else:
        assert np.abs(J.to_dense().imag).max() > 0


def test_graded_scale_bands_and_superdiagonal():
    J = random_hessenberg(2, 6, seed=6)
    lam = 0.3
    S = graded_scale(J, lam)
    for d in range(3):
        assert np.allclose(S.band(d), lam ** (d + 1) * J.band(d), atol=0, rtol=1e-15)
    assert np.array_equal(S.band(-1)[:5], np.ones(5))


# ---------------------------------------------------------------------------
# JSON interchange


@pytest.mark.parametrize("make", [
    lambda rng: random_hessenberg(2, 5, seed=7, mode="complex"),
    lambda rng: random_upper(5, rng),
    lambda rng: random_lower_bidiagonal(5, rng),
    lambda rng: random_unit_lower(3, 5, rng),
])
def test_json_round_trip(make):
    rng = np.random.default_rng(70)
    m = make(rng)
    payload = to_json_dict(m)
    again = from_json_dict(payload)
    assert np.array_equal(m.to_dense(), again.to_dense())
    assert json.dumps(payload, sort_keys=True) == json.dumps(to_json_dict(again), sort_keys=True)


# (0, 1) is U, (1, 0) a lower factor, (q, 0) the LU factor L and the peel
# stages, (p, 1) J and its transforms; (1, 2) is a product of two upper
# reaches, which the pipeline never forms
PIPELINE_SHAPES = [(0, 1)] + [(q, 0) for q in range(1, 5)] + [(p, 1) for p in range(1, 5)]


@pytest.mark.parametrize("p,hi", PIPELINE_SHAPES + [(1, 2)])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_json_round_trip_of_every_pipeline_shape(p, hi, mode):
    rng = np.random.default_rng(70)
    data = [signed(7, rng) * (np.exp(1j * rng.uniform(0, 6, 7)) if mode == "complex" else 1)
            for _ in range(p + hi + 1)]
    data[0] = np.ones(7)  # the structural unit band
    m = Banded(p, hi, data)
    payload = to_json_dict(m)
    assert sorted(map(int, payload["bands"])) == list(range(-hi, p + 1))
    again = from_json_dict(json.loads(json.dumps(payload)))
    assert (again.p, again.hi) == (p, hi)
    assert again.data.tobytes() == m.data.tobytes()


def test_json_band_keys_are_signed_offsets():
    J = random_hessenberg(1, 3, seed=8)
    payload = to_json_dict(J)
    assert set(payload["bands"]) == {"-1", "0", "1"}
    assert payload["bands"]["-1"] == [[1.0, 0.0], [1.0, 0.0]]


def test_json_rejects_inconsistent_p():
    payload = to_json_dict(random_hessenberg(2, 4, seed=9))
    payload["p"] = 3
    with pytest.raises(ShapeError):
        from_json_dict(payload)


def test_json_rejects_wrong_band_length():
    payload = to_json_dict(random_hessenberg(1, 4, seed=10))
    payload["bands"]["1"] = payload["bands"]["1"][:-1]
    with pytest.raises(ShapeError):
        from_json_dict(payload)


# ---------------------------------------------------------------------------
# construction guards


def test_constructor_shape_errors():
    with pytest.raises(ShapeError):
        BandedHessenberg(1, 4, (np.zeros(4),))  # missing subdiagonal band
    with pytest.raises(ShapeError):
        BandedHessenberg(1, 4, (np.zeros(4), np.zeros(2)))
    with pytest.raises(ShapeError):
        Banded(1, 0, np.zeros((3, 4)))  # p + hi + 1 rows needed
    with pytest.raises(ShapeError):
        Banded(0, -1, np.zeros((0, 4)))
    with pytest.raises(ShapeError):
        Banded(1, 1, np.zeros((3, 0)))


def test_entry_reads_outside_band_are_zero_and_superdiagonal_one():
    J = random_hessenberg(1, 4, seed=11)
    assert J.entry(0, 2) == 0
    assert J.entry(3, 0) == 0
    assert J.entry(1, 2) == 1.0
