"""Flows, residual checks, and the commuting-diagram verification."""

import numpy as np
import pytest

from toda_darboux.banded import (
    BandedHessenberg,
    ValidWindow,
    graded_scale,
    random_hessenberg,
)
from toda_darboux.darboux import (
    GammaTable,
    ParameterSet,
    backlund_entry,
    darboux_factorization,
    identity_parameters,
)
from toda_darboux.lattice import (
    BlowUp,
    InsufficientSamples,
    Trajectory,
    _transform_bands,
    check_delta_derivative,
    check_poly_derivative,
    evolve_kdv,
    evolve_toda,
    kdv_rhs,
    reconstruct_transform,
    theorem1_diagram,
    toda_rhs,
    trajectory_rows,
    verify_kdv,
    verify_toda,
)
from toda_darboux.lu import char_poly


def dense_toda_rhs(J):
    """Entrywise commutator oracle on the dense matrix.

    a'_{ij} = (a_ii - a_jj) a_ij + a_{i+1,j} - a_{i,j-1}, reads outside
    the matrix count as zero.
    """
    n = J.n
    A = J.to_dense()
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(max(0, i - J.p), i + 1):
            below = A[i + 1, j] if i + 1 < n else 0.0
            left = A[i, j - 1] if j - 1 >= 0 else 0.0
            out[i, j] = (A[i, i] - A[j, j]) * A[i, j] + below - left
    return out


def small_params(p, seed, scale):
    if p == 1:
        return identity_parameters(1)
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(p - 1):
        k = p - s - 1
        vals = scale * rng.uniform(0.8, 1.2, k) * (rng.integers(0, 2, k) * 2 - 1)
        rows.append(vals.astype(np.complex128))
    return ParameterSet(tuple(rows))


# ---------------------------------------------------------------------------
# right-hand sides


@pytest.mark.parametrize("p,seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_toda_rhs_matches_dense_commutator(p, seed):
    J = random_hessenberg(p, 9, seed=seed, mode="complex")
    ders = toda_rhs(J)
    truth = dense_toda_rhs(J)
    for d in range(p + 1):
        for i in range(d, J.n):
            assert abs(ders[d][i] - truth[i, i - d]) <= 1e-13 * max(1.0, abs(truth[i, i - d]))


def test_toda_rhs_diagonal_matrix_is_stationary():
    n = 6
    bands = [np.arange(1.0, n + 1).astype(np.complex128)] + [np.zeros(n, dtype=np.complex128)] * 2
    from toda_darboux.banded import BandedHessenberg
    J = BandedHessenberg(2, n, tuple(bands))
    ders = toda_rhs(J)
    # only the superdiagonal feed-in survives: a'_ii = a_{i+1,i} - a_{i,i-1} = 0,
    # deeper bands stay zero since their entries vanish
    for d in range(1, 3):
        assert np.array_equal(ders[d], np.zeros(n))
    assert np.array_equal(ders[0], np.zeros(n))


def test_toda_rhs_shift_invariance():
    J = random_hessenberg(2, 8, seed=4)
    lam = 0.37
    shifted_bands = tuple(
        (J.band(0) + lam if d == 0 else J.band(d)).copy() for d in range(3)
    )
    from toda_darboux.banded import BandedHessenberg
    Js = BandedHessenberg(2, 8, shifted_bands)
    a = toda_rhs(J)
    b = toda_rhs(Js)
    for d in range(3):
        assert np.allclose(a[d], b[d], atol=1e-13, rtol=0)


def test_kdv_rhs_pinned_small_table():
    # p = 1, entries gamma_1..gamma_4 = 1,2,3,4:
    # gamma'_n = gamma_n (gamma_{n+1} - gamma_{n-1}) with boundary zeros,
    # truncation reads missing upper neighbours as zero
    t = GammaTable(1, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    der = kdv_rhs(t)
    assert np.allclose(der, [1 * 2, 2 * (3 - 1), 3 * (4 - 2), 4 * (0 - 3)], atol=0, rtol=0)


def test_kdv_rhs_window_sums_p2():
    vals = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], dtype=np.complex128)
    t = GammaTable(2, 2, vals)
    der = kdv_rhs(t)
    g = np.concatenate([[0.0, 0.0], vals, [0.0, 0.0]])
    for n in range(6):
        up = g[n + 3] + g[n + 4]
        dn = g[n + 1] + g[n]
        assert abs(der[n] - vals[n] * (up - dn)) <= 1e-14


# ---------------------------------------------------------------------------
# integration


def test_equilibrium_state_stays_constant():
    n = 6
    from toda_darboux.banded import BandedHessenberg
    bands = (np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128))
    J = BandedHessenberg(1, n, bands)
    # constant-diagonal matrices with zero lower bands: rhs is superdiagonal
    # feed only, which cancels row by row... it does not; use the true fixed
    # point where all bands vanish
    traj = evolve_toda(J, dt=1e-2, steps=10)
    assert len(traj) == 11
    for state in traj.states:
        for d in range(2):
            assert np.array_equal(state.band(d), np.zeros(n))


def test_rk4_self_convergence_order():
    J = graded_scale(random_hessenberg(2, 8, seed=5), 0.5)
    fine = evolve_toda(J, dt=2.5e-3, steps=64)
    mid = evolve_toda(J, dt=5e-3, steps=32)
    coarse = evolve_toda(J, dt=1e-2, steps=16)
    ref = fine.states[-1]
    err_mid = max(np.abs(mid.states[-1].band(d) - ref.band(d)).max() for d in range(3))
    err_coarse = max(np.abs(coarse.states[-1].band(d) - ref.band(d)).max() for d in range(3))
    # classical four-stage scheme: halving dt cuts the one-shot error ~16x,
    # Richardson against the fine reference gives (16e)/(e... ) ~ 16 with slack
    ratio = err_coarse / err_mid
    assert 12.0 <= ratio <= 20.0


def test_toda_blowup_raises_with_time_stamp():
    n = 5
    from toda_darboux.banded import BandedHessenberg
    bands = (np.full(n, 1e200, dtype=np.complex128), np.full(n, 1e200, dtype=np.complex128))
    bands[1][0] = 0.0
    J = BandedHessenberg(1, n, bands)
    with pytest.raises(BlowUp) as err:
        evolve_toda(J, dt=1.0, steps=3)
    assert err.value.t == 0.0


def test_kdv_blowup():
    t0 = GammaTable(1, 3, np.full(6, 1e80, dtype=np.complex128))
    with pytest.raises(BlowUp):
        evolve_kdv(t0, dt=1.0, steps=5)


def test_trajectory_repr_and_kind():
    J = graded_scale(random_hessenberg(1, 6, seed=6), 0.3)
    traj = evolve_toda(J, dt=1e-3, steps=4)
    assert traj.kind == "toda"
    assert "toda" in repr(traj) and "5" in repr(traj)


# ---------------------------------------------------------------------------
# residual verification


def test_verify_toda_residual_scales_like_dt_squared():
    J = graded_scale(random_hessenberg(2, 8, seed=3), 0.6)
    r1 = verify_toda(evolve_toda(J, dt=1e-2, steps=20), tol=1.0)
    r2 = verify_toda(evolve_toda(J, dt=5e-3, steps=40), tol=1.0)
    ratio = r1.max_residual / r2.max_residual
    assert 3.5 <= ratio <= 4.5


def test_verify_reports_carry_argmax_and_line():
    J = graded_scale(random_hessenberg(1, 6, seed=7), 0.4)
    rep = verify_toda(evolve_toda(J, dt=1e-3, steps=10), tol=1e-5)
    assert rep.passed and rep.max_residual <= 1e-5
    entry, m = rep.argmax
    assert entry.startswith("a[") and 0 <= m
    assert "[pass]" in rep.line()
    bad = verify_toda(evolve_toda(J, dt=1e-1, steps=10), tol=1e-30)
    assert not bad.passed and "[FAIL]" in bad.line()


def test_verify_needs_three_samples():
    J = random_hessenberg(1, 5, seed=8)
    for steps in (0, 1):
        traj = evolve_toda(J, dt=1e-3, steps=steps)
        with pytest.raises(InsufficientSamples):
            verify_toda(traj, tol=1.0)


def test_verify_kdv_on_evolved_table():
    J = graded_scale(random_hessenberg(2, 8, seed=9), 0.15)
    _, table = darboux_factorization(J, 0.0, params=small_params(2, 1, 0.1))
    rep = verify_kdv(evolve_kdv(table, dt=1e-3, steps=40), tol=1e-5)
    assert rep.passed
    entry, _ = rep.argmax
    assert entry.startswith("gamma[")


def test_verify_window_excludes_corrupt_tail_row():
    J = graded_scale(random_hessenberg(1, 7, seed=10), 0.4)
    traj = evolve_toda(J, dt=1e-3, steps=10)
    from toda_darboux.banded import BandedHessenberg
    from toda_darboux.lattice import Trajectory
    spoiled = []
    for state in traj.states:
        bands = tuple(state.band(d).copy() for d in range(state.p + 1))
        # constant corruption in the last row: it feeds the row-below stencil
        # of row n-2 but never moves the finite difference
        bands[1][-1] += 50.0
        spoiled.append(BandedHessenberg(state.p, state.n, bands))
    bad = Trajectory(times=traj.times, states=tuple(spoiled), dt=traj.dt)
    full = verify_toda(bad, tol=1e-5)
    assert not full.passed
    trimmed = verify_toda(bad, tol=1e-5, window=ValidWindow(J.n - 1))
    assert trimmed.passed


# ---------------------------------------------------------------------------
# derivative identities


@pytest.mark.parametrize("p,seed", [(1, 0), (2, 1), (3, 2)])
def test_poly_derivative_routes_agree(p, seed):
    J = random_hessenberg(p, 9, seed=11 + seed, mode="complex")
    Jdot = toda_rhs(J)
    for m in range(1, J.n):
        gap = check_poly_derivative(J, Jdot, 0.3 - 0.1j, m)
        assert gap <= 1e-10


def test_poly_derivative_rejects_full_degree():
    J = random_hessenberg(1, 6, seed=12)
    with pytest.raises(ValueError):
        check_poly_derivative(J, toda_rhs(J), 0.0, J.n)


def test_poly_derivative_detects_fault():
    J = random_hessenberg(2, 8, seed=13)
    Jdot = [b.copy() for b in toda_rhs(J)]
    Jdot[0][3] += 1e-3
    gap = check_poly_derivative(J, tuple(Jdot), 0.2, 6)
    assert gap > 1e-8


def test_delta_derivative_consistent_and_faultable():
    J = graded_scale(random_hessenberg(3, 10, seed=14), 0.5)
    _, table = darboux_factorization(J, 0.0, params=small_params(3, 2, 0.2))
    gd = kdv_rhs(table)
    assert check_delta_derivative(table, gd) <= 1e-10
    bad = gd.copy()
    bad[0] += 1e-3  # gamma_1 multiplies every leading delta
    assert check_delta_derivative(table, bad) > 1e-8


# ---------------------------------------------------------------------------
# reconstruction and the full diagram


def test_reconstruct_transform_matches_direct_assembly():
    from toda_darboux.darboux import assemble_transform
    J = graded_scale(random_hessenberg(2, 8, seed=15), 0.3)
    C = 0.05
    factors, table = darboux_factorization(J, C, params=small_params(2, 3, 0.2))
    for j in range(3):
        direct, w = assemble_transform(factors, j)
        rows = min(w.rows, table.columns)
        rebuilt = reconstruct_transform(table, j, C, rows=rows)
        for r in range(rows):
            for c in range(max(0, r - 2), r + 1):
                assert abs(rebuilt.entry(r, c) - direct.entry(r, c)) <= 1e-10


def test_reconstruct_transform_row_bound():
    J = random_hessenberg(1, 6, seed=16)
    _, table = darboux_factorization(J, 0.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        reconstruct_transform(table, 0, rows=table.columns + 1)
    with pytest.raises(ValueError):
        reconstruct_transform(table, 2)


def scalar_transform_bands(table, j, C, rows):
    """Bands of J^(j) entry by entry through the scalar closed form."""
    return [
        [backlund_entry(table, j, i - d, d, C) for i in range(d, rows)]
        for d in range(table.p + 1)
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_transform_kernel_equals_backlund_entry_exactly(p, mode):
    rng = np.random.default_rng(10 * p)
    columns = 7
    shape = (3, (p + 1) * columns)
    values = rng.normal(size=shape) + (1j * rng.normal(size=shape) if mode == "complex" else 0)
    tables = [GammaTable(p, columns, v) for v in values]
    C = 0.2 - 0.3j if mode == "complex" else 0.2
    for j in range(p + 1):
        for rows in (1, columns - 1, columns):
            stacked = _transform_bands(values, p, j, rows, C)
            for m, table in enumerate(tables):
                single = reconstruct_transform(table, j, C, rows)
                for d, want in enumerate(scalar_transform_bands(table, j, C, rows)):
                    assert stacked[d][m, :d].tolist() == [0j] * min(d, rows)
                    assert stacked[d][m, d:].tolist() == want
                    assert single.bands[d][d:].tolist() == want


@pytest.mark.parametrize("p,jseed,pseed", [(1, 101, 0), (2, 107, 207), (3, 107, 207)])
def test_commuting_diagram_passes_on_tame_instance(p, jseed, pseed):
    J = graded_scale(random_hessenberg(p, 8, seed=jseed), 0.15)
    params = small_params(p, pseed, 0.15)
    out = theorem1_diagram(J, C=0.015, params=params, dt=1e-3, steps=100,
                           tol_path=1e-4, tol_verify=1e-5)
    assert set(out) == {"path"} | {f"toda[{j}]" for j in range(p + 1)} | {"kdv"}
    for rep in out.values():
        assert rep.passed, rep.line()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_commuting_diagram_equals_per_state_scalar_route(p):
    J = graded_scale(random_hessenberg(p, 16, seed=120 + p), 0.15)
    params = small_params(p, 220 + p, 0.15)
    C, dt, steps = 0.015, 1e-3, 20
    out = theorem1_diagram(J, C=C, params=params, dt=dt, steps=steps)

    _, table0 = darboux_factorization(J, C, params=params)
    rows = table0.columns
    w_path = rows - (p + 2)
    traj_table = evolve_kdv(table0, dt, steps)
    recon = {}
    for j in range(p + 1):
        states = []
        for tb in traj_table.states:
            bands = [np.zeros(rows, dtype=np.complex128) for _ in range(p + 1)]
            for d, entries in enumerate(scalar_transform_bands(tb, j, C, rows)):
                bands[d][d:] = entries
            states.append(BandedHessenberg(p, rows, tuple(bands)))
        recon[j] = Trajectory(traj_table.times, states, dt)

    worst, arg = 0.0, ("", 0)
    for m, direct in enumerate(evolve_toda(J, C, dt, steps).states):
        for d in range(p + 1):
            res = np.abs(direct.bands[d][:w_path] - recon[0].states[m].bands[d][:w_path])[d:]
            if res.size and res.max() > worst:
                i = d + int(np.argmax(res))
                worst, arg = float(res.max()), (f"a[{i},{i - d}]", m)
    assert (out["path"].max_residual, out["path"].argmax) == (worst, arg)
    for j in range(p + 1):
        rep = verify_toda(recon[j], 1e-5)
        assert (out[f"toda[{j}]"].max_residual, out[f"toda[{j}]"].argmax) == (
            rep.max_residual,
            rep.argmax,
        )


def test_commuting_diagram_single_step_is_path_only():
    J = graded_scale(random_hessenberg(1, 8, seed=101), 0.15)
    out = theorem1_diagram(J, params=identity_parameters(1), dt=1e-3, steps=1)
    assert set(out) == {"path"}
    assert out["path"].passed


def test_commuting_diagram_rng_route_is_deterministic():
    J = graded_scale(random_hessenberg(2, 8, seed=107), 0.15)
    a = theorem1_diagram(J, rng=np.random.default_rng(3), dt=1e-3, steps=5)
    b = theorem1_diagram(J, rng=np.random.default_rng(3), dt=1e-3, steps=5)
    assert a["path"].max_residual == b["path"].max_residual


def test_trajectory_rows_stream_shape():
    J = graded_scale(random_hessenberg(1, 5, seed=17), 0.3)
    traj = evolve_toda(J, dt=1e-3, steps=2)
    rows = list(trajectory_rows(traj))
    # the stream carries every stored band entry for every sample
    per_sample = len(rows) // len(traj)
    assert len(rows) == per_sample * len(traj)
    t0, entry, val = rows[0]
    assert t0 == 0.0 and entry.startswith("a[") and isinstance(val, complex)
    ts = [r[0] for r in rows]
    assert ts == sorted(ts)
