"""The factorization's recurrences against their complex128-scalar references.

A real instance runs ``lu_factorize`` and the peels on Python floats, and a
sampled stage ranks its draws on plain rows; every factor, kept split and
margin must equal, byte for byte, what the recurrences gave on numpy
complex128 scalars (``oracles.reference_*``).  Complex instances still run
on complex scalars and must equal the same references.
"""

import numpy as np
import pytest

from toda_darboux import darboux
from toda_darboux.banded import Banded, graded_scale, random_hessenberg
from toda_darboux.darboux import ParameterSet, PeelBreakdown, darboux_factorize, peel
from toda_darboux.lu import SingularLeadingMinor, lu_factorize

from oracles import reference_lu_factorize, reference_peel, reference_peel_ratios, reference_sample

REAL_SHIFTS = [0.0, 0.015, -0.3, complex(0.015, -0.0)]


def outcome(fn, *args):
    """The call's result, or the class and message of a breakdown it raised."""
    try:
        return fn(*args)
    except (SingularLeadingMinor, PeelBreakdown) as exc:
        return type(exc), str(exc)


def assert_same(a: Banded, b: Banded):
    assert (a.p, a.hi, a.data.dtype) == (b.p, b.hi, b.data.dtype)
    assert a.data.tobytes() == b.data.tobytes()


def assert_factorizations_match_reference(J, C, seed, field):
    """LU, the sampled split stage by stage and the explicit split equal the references."""
    got, ref = outcome(lu_factorize, J, C), outcome(reference_lu_factorize, J, C)
    if not isinstance(ref[0], Banded):
        assert got == ref
        return
    (L, U), (rL, rU) = got, ref
    assert L.data.dtype == U.data.dtype == field
    assert_same(L, rL)
    assert_same(U, rU)

    # sampled: each stage keeps the reference's draw, and its rows give the reference margin
    factors = darboux_factorize(L, rng=seed)
    rng, T, kept = np.random.default_rng(seed), L, []
    for D in factors[:-1]:
        margin, alphas, rD, rA = reference_sample(T, rng)
        assert_same(D, rD)
        ratios = darboux._peel_ratios(T, *darboux._peel_rows(T, alphas))
        assert ratios.tobytes() == reference_peel_ratios(T, rD, rA).tobytes()
        assert float(ratios.min(initial=1.0)) == margin
        kept.append(alphas)
        T = rA
    assert_same(factors[-1], T)

    # explicit: the kept parameters peeled again, through peel and the stage guard
    params = ParameterSet(tuple(kept))
    explicit, T = darboux_factorize(L, params), L
    for D, alphas in zip(explicit, params.alphas):
        rD, T = reference_peel(T, alphas)
        assert_same(D, rD)
    assert_same(explicit[-1], T)


@pytest.mark.parametrize("C", REAL_SHIFTS, ids=["0", "0.015", "-0.3", "0.015-0j"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_real_instances_equal_the_complex_scalar_route(p, C):
    for n in (2, 8, 33, 64):
        for seed in (1, 2, 3):
            for scale in (1.0, 0.5):
                J = graded_scale(random_hessenberg(p, n, seed=seed), scale)
                assert J.data.dtype == np.float64
                assert_factorizations_match_reference(J, C, seed, np.float64)


@pytest.mark.parametrize("mode,C", [("complex", 0.0), ("complex", 0.1 + 0.3j), ("real", 0.3j)],
                         ids=["complex", "complex-shifted", "real-imaginary-shift"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_complex_instances_equal_the_complex_scalar_route(p, mode, C):
    for n in (2, 8, 33):
        for seed in (1, 2):
            J = random_hessenberg(p, n, seed=seed, mode=mode)
            assert_factorizations_match_reference(J, C, seed, np.complex128)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_real_stage_with_complex_parameters_peels_on_complex_scalars(p):
    L = lu_factorize(random_hessenberg(p, 33, seed=p), 0.0)[0]
    alphas = np.exp(1j * np.arange(1, p))
    for got, ref in zip(peel(L, alphas), reference_peel(L, alphas)):
        assert got.data.dtype == np.complex128
        assert_same(got, ref)


# ---------------------------------------------------------------------------
# the explicit-parameter guard of darboux_factorize


def unit_lower(p, n, seed):
    rng = np.random.default_rng(seed)
    return Banded(p, 0, np.vstack([np.ones(n), rng.uniform(0.5, 1.5, (p, n))]))


def test_explicit_stage_breaks_down_where_the_deepest_band_nearly_cancels():
    # stage 0 of p = 3: make A's deepest band cancel to a tiny nonzero ratio at row i0
    p, n, i0 = 3, 12, 6
    L = unit_lower(p, n, seed=4)
    params = ParameterSet((np.array([0.8, -1.2]), np.array([0.9])))
    D, A = peel(L, params.alphas[0])
    data = L.data.copy()
    data[2, i0] = D.band(1)[i0] * A.band(1)[i0 - 1] * (1 + 1e-13)
    T = Banded(p, 0, data)
    D, A = peel(T, params.alphas[0])
    ratio = abs(A.band(2)[i0]) / (abs(T.band(2)[i0]) + abs(D.band(1)[i0] * A.band(1)[i0 - 1]))
    assert 0 < ratio <= darboux.BREAKDOWN_RATIO
    with pytest.raises(PeelBreakdown) as err:
        darboux_factorize(T, params)
    # ratio index k = i0 - (q - 1) is reported as row q + k
    assert (err.value.row, err.value.ratio) == (i0 + 1, ratio)


def test_explicit_later_stage_reports_its_own_band_count():
    # stage 1 of p = 3 peels a matrix with q = 2: row 1 cancels, reported as row 2
    L = unit_lower(3, 10, seed=5)
    first = np.array([0.8, -1.2])
    D, A = peel(L, first)
    alpha = A.band(1)[1] * (1 + 1e-13)
    ratio = abs(A.band(1)[1] - alpha) / (abs(A.band(1)[1]) + abs(alpha))
    assert 0 < ratio <= darboux.BREAKDOWN_RATIO
    with pytest.raises(PeelBreakdown) as err:
        darboux_factorize(L, ParameterSet((first, np.array([alpha]))))
    assert (err.value.row, err.value.ratio) == (2, ratio)


def test_explicit_stage_reports_the_first_nan_row():
    # a tiny ratio at row 3 comes first, but the NaN ratios of the infinite entries of
    # rows 6 and 9 (inf / inf) win, and the first of them is reported
    p, n = 3, 12
    L = unit_lower(p, n, seed=4)
    params = ParameterSet((np.array([0.8, -1.2]), np.array([0.9])))
    D, A = peel(L, params.alphas[0])
    data = L.data.copy()
    data[2, 3] = D.band(1)[3] * A.band(1)[2] * (1 + 1e-13)
    data[2, [6, 9]] = np.inf
    T = Banded(p, 0, data)
    with np.errstate(invalid="ignore"):
        ratios = reference_peel_ratios(T, *peel(T, params.alphas[0]))
        assert 0 < ratios[1] <= darboux.BREAKDOWN_RATIO
        assert np.flatnonzero(np.isnan(ratios)).tolist() == [4, 7]
        with pytest.raises(PeelBreakdown) as err:
            darboux_factorize(T, params)
    assert err.value.row == 7 and np.isnan(err.value.ratio)
