"""Flows, residual checks, and the commuting-diagram verification."""

import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from toda_darboux.banded import (
    Banded,
    BandedHessenberg,
    graded_scale,
    random_hessenberg,
)
from toda_darboux.darboux import (
    GammaTable,
    ParameterSet,
    backlund_entry,
    darboux_factorization,
    factors_to_table,
)
from toda_darboux import lattice
from toda_darboux.lattice import (
    BlowUp,
    InsufficientSamples,
    Trajectory,
    _transform_bands,
    evolve_kdv,
    evolve_toda,
    kdv_rhs,
    reconstruct_transform,
    theorem1_diagram,
    toda_rhs,
    verify_kdv,
    verify_toda,
)

from oracles import char_poly, check_delta_derivative, check_poly_derivative


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
        return ParameterSet(())
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


def built_rhs(kernel, y, p):
    """The kernel built for y's shape and dtype, called once on y and a fresh output."""
    arg, rhs = kernel(y.shape, y.dtype, p)
    np.copyto(arg, y)
    return rhs(np.empty_like(y))


def kdv_table(p, size, mode, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.5, 1.5, size)
    return g + 1j * rng.uniform(-0.5, 0.5, size) if mode == "complex" else g


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_kdv_rhs_equals_scalar_window_sums_at_both_ends(p, mode):
    size = (p + 1) * 3
    g = kdv_table(p, size, mode, seed=p)

    def at(n):
        return g[n].item() if 0 <= n < size else 0.0

    # Python scalars summed left to right, as the kernel's windows are:
    # gamma_{n+1} + .. + gamma_{n+p} minus gamma_{n-p} + .. + gamma_{n-1}
    diffs = [sum(at(n + i) for i in range(1, p + 1)) - sum(at(n - i) for i in range(p, 0, -1))
             for n in range(size)]
    # the last product is numpy's, whose complex multiply Python's need not match
    want = g * np.array(diffs, dtype=g.dtype)
    got = built_rhs(lattice._kdv_kernel, g, p)
    # size >= 2p, so the first p entries read the boundary and the last p the truncation
    assert got.dtype == g.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_kdv_rhs_of_a_block_equals_its_rows(mode):
    p, size = 3, 40
    block = np.stack([kdv_table(p, size, mode, seed=s) for s in range(5)])
    got = built_rhs(lattice._kdv_kernel, block, p)
    for row, want in zip(got, block):
        assert row.tobytes() == built_rhs(lattice._kdv_kernel, want, p).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_toda_rhs_of_a_block_equals_its_rows(p, mode):
    n = 7
    states = []
    for s in range(5):
        J = random_hessenberg(p, n, seed=60 + s, mode=mode)
        B = np.stack(J.bands)
        # -0.0 in the last row and all along band p: their neighbours below are zero
        # slots, the zero tail among them, whose +0 turns the -0 of their product into +0
        B[:, -1] = B[p, p:] = complex(-0.0, -0.0) if mode == "complex" else -0.0
        states.append(BandedHessenberg(p, n, tuple(B)))
    block = np.stack([np.stack(J.bands) for J in states])
    if mode == "real":
        block = np.ascontiguousarray(block.real)
    got = built_rhs(lattice._toda_kernel, block, p)
    for row, state, J in zip(got, block, states):
        assert row.tobytes() == built_rhs(lattice._toda_kernel, state, p).tobytes()
        want = np.stack(per_state_toda_rhs(J))
        assert row.tobytes() == np.ascontiguousarray(want.real if mode == "real" else want).tobytes()
    assert np.signbit(block[:, p, p:].view(float)).all()
    assert not np.signbit(got[:, p, p:].view(float)).any()


def test_kdv_rhs_round_off_does_not_grow_with_table_length():
    # flow-large's size: p = 3, 1023 columns of a positive table in [0.05, 0.15]
    p, size = 3, 4 * 1023
    g = np.random.default_rng(1).uniform(0.05, 0.15, size)
    ref = np.concatenate([np.zeros(p), g, np.zeros(p)]).astype(np.longdouble)
    up = sum(ref[p + i : p + i + size] for i in range(1, p + 1))
    down = sum(ref[p - i : p - i + size] for i in range(1, p + 1))
    want = ref[p : p + size] * (up - down)
    err = np.abs(built_rhs(lattice._kdv_kernel, g, p) - want).max()
    assert err <= 4 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_built_kdv_rhs_allocates_no_array_per_call(dtype, p):
    size = 4 * 1023
    rng = np.random.default_rng(2)
    g = rng.uniform(0.05, 0.15, size)
    if dtype is np.complex128:
        g = g + 1j * rng.uniform(-0.05, 0.05, size)
    out = np.empty_like(g)
    arg, rhs = lattice._kdv_kernel(g.shape, g.dtype, p)
    np.copyto(arg, g)
    rhs(out)
    tracemalloc.start()
    try:
        for _ in range(100):
            np.copyto(arg, g)
            rhs(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a single temporary of the table is 32 KB
    assert peak < 4096


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_built_toda_rhs_allocates_no_array_per_call(dtype):
    p, n = 3, 1024
    mode = "real" if dtype is np.float64 else "complex"
    B = np.stack(graded_scale(random_hessenberg(p, n, seed=2, mode=mode), 0.4).bands)
    B = np.ascontiguousarray(B.real if mode == "real" else B)
    out = np.empty_like(B)
    arg, rhs = lattice._toda_kernel(B.shape, B.dtype, p)
    np.copyto(arg, B)
    rhs(out)
    tracemalloc.start()
    try:
        for _ in range(100):
            np.copyto(arg, B)
            rhs(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's ufunc buffers alone took 66 KB per call before the flat-offset kernel
    assert peak < 4096


def closure_arrays(rhs):
    return [c.cell_contents for c in rhs.__closure__ if isinstance(c.cell_contents, np.ndarray)]


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_lattice_buffers_start_on_a_cache_line(mode, monkeypatch):
    J = graded_scale(random_hessenberg(3, 38, seed=4, mode=mode), 0.3)
    _, table = darboux_factorization(J, 0.05, rng=np.random.default_rng(4))
    # an odd column count, so a KdV sample is not a whole number of cache lines
    assert table.columns % 2 == 1
    table = GammaTable(3, table.columns, kdv_table(3, table.values.size, mode, seed=4))
    toda, kdv = evolve_toda(J, dt=1e-3, steps=40), evolve_kdv(table, dt=1e-3, steps=40)
    dtype = np.float64 if mode == "real" else np.complex128
    for traj in (toda, kdv):
        assert traj.data.dtype == dtype
        assert traj.data.flags.c_contiguous and traj.data.ctypes.data % 64 == 0
    made, empty = [], lattice._empty

    def recording(shape, dtype, zero=False):
        made.append(empty(shape, dtype, zero))
        return made[-1]

    monkeypatch.setattr(lattice, "_empty", recording)
    for kernel, traj in ((lattice._toda_kernel, toda), (lattice._kdv_kernel, kdv)):
        for shape in (traj.data.shape[1:], (32, *traj.data.shape[1:])):
            made.clear()
            arg, rhs = kernel(shape, dtype, 3)
            # the padded buffers start on a cache line, and arg and every view rhs
            # reads or writes lie in them
            arrays = [arg, *closure_arrays(rhs)]
            assert made and all(a.ctypes.data % 64 == 0 for a in made)
            assert all(any(np.shares_memory(a, b) for b in made) for a in arrays)
    for verify, traj in ((verify_toda, toda), (verify_kdv, kdv)):
        made.clear()
        verify(traj, 1.0)
        # diff, slope and res for the 39 interior samples, then the kernel's own buffers
        assert [(a.dtype, a.shape) for a in made[:3]] == [
            (t, (39, *traj.data.shape[1:])) for t in (dtype, dtype, np.float64)]
        assert all(a.ctypes.data % 64 == 0 for a in made)
    made.clear()
    theorem1_diagram(J, 0.05, rng=np.random.default_rng(4), steps=4)
    # the path check's difference in the instance's field and float64 residual, on all n rows
    shapes = [(a.dtype, a.shape) for a in made]
    block = (5, 4, J.n)
    assert (dtype, block) in shapes and (np.float64, block) in shapes
    assert all(a.ctypes.data % 64 == 0 for a in made)


def python_number(x):
    """Whether x is a Python int, float or complex, which numpy converts on every call."""
    return isinstance(x, (int, float, complex)) and not isinstance(x, np.generic)


class CountingNumpy:
    """numpy, with every call of a numpy function or ufunc counted, and apart
    from that every call with a Python number among its operands."""

    def __init__(self):
        self.calls = self.scalar_calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            self.scalar_calls += any(map(python_number, (*args, *kwargs.values())))
            return attr(*args, **kwargs)

        return counted


def extra_step_calls(counting, evolve, state):
    """Calls, and calls with a Python number, of steps=2 less those of steps=1."""
    counts = []
    for steps in (1, 2):
        counting.calls = counting.scalar_calls = 0
        evolve(state, dt=1e-2, steps=steps)
        counts.append((counting.calls, counting.scalar_calls))
    return counts[1][0] - counts[0][0], counts[1][1] - counts[0][1]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rk4_step_numpy_call_budget(p, monkeypatch):
    J, table = flow_instances(p, "complex")
    counting = CountingNumpy()
    monkeypatch.setattr(lattice, "np", counting)
    # one more step in the same block of samples costs exactly one step's calls.
    # Per step: copy y into the kernel's input, 13 RK4 passes, four right-hand sides;
    # a Toda rhs copies the diagonal twice and makes 4 passes, a KdV rhs p - 1 window
    # adds and 2 passes
    assert extra_step_calls(counting, evolve_toda, J)[0] <= 14 + 4 * 6
    assert extra_step_calls(counting, evolve_kdv, table)[0] <= 14 + 4 * (p + 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_rk4_step_passes_no_python_number_to_numpy(p, mode, monkeypatch):
    J, table = flow_instances(p, mode)
    counting = CountingNumpy()
    monkeypatch.setattr(lattice, "np", counting)
    # numpy converts a Python number operand on every call, about 0.5 us of a
    # 128-entry pass; the RK4 coefficients are cast to the state's dtype once
    for evolve, state in ((evolve_toda, J), (evolve_kdv, table)):
        calls, scalar_calls = extra_step_calls(counting, evolve, state)
        assert calls > 0 and scalar_calls == 0


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
# the array integrator and verifiers against the per-state route they replaced


def per_state_toda_rhs(J):
    p, n = J.p, J.n
    diag = J.band(0)
    out = []
    for d in range(p + 1):
        b = J.band(d)
        nxt = J.band(d + 1)
        shifted = np.zeros(n, dtype=diag.dtype)
        shifted[d:] = diag[: n - d]
        der = (diag - shifted) * b
        der += np.concatenate([nxt[1:], np.zeros(1, diag.dtype)])
        der -= nxt
        der[:d] = 0
        out.append(der)
    return tuple(out)


def per_state_kdv_rhs(table):
    g = table.values
    p = table.p
    size = len(g)
    zeros = np.zeros(p, dtype=g.dtype)
    padded = np.concatenate([zeros, g, zeros])

    def window(lo):
        # padded[lo + n] + ... + padded[lo + n + p - 1] for every n, left to right
        acc = padded[lo : lo + size]
        for i in range(1, p):
            acc = acc + padded[lo + i : lo + i + size]
        return acc

    return g * (window(p + 1) - window(0))


def per_state_rk4(state, dt, steps):
    """RK4 with one frozen BandedHessenberg or GammaTable per stage."""
    if isinstance(state, GammaTable):
        rhs = per_state_kdv_rhs

        def axpy(t, h, k):
            return GammaTable(t.p, t.columns, t.values + h * k)

        def arrays(t):
            return (t.values,)
    else:
        rhs = per_state_toda_rhs

        def axpy(J, h, k):
            return BandedHessenberg(J.p, J.n, tuple(b + h * kb for b, kb in zip(J.bands, k)))

        def arrays(J):
            return J.bands
    states = [state]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            y = states[-1]
            k1 = rhs(y)
            k2 = rhs(axpy(y, dt / 2, k1))
            k3 = rhs(axpy(y, dt / 2, k2))
            k4 = rhs(axpy(y, dt, k3))
            if isinstance(k1, tuple):
                incr = tuple(a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4))
            else:
                incr = k1 + 2 * k2 + 2 * k3 + k4
            nxt = axpy(y, dt / 6, incr)
            if not all(np.all(np.isfinite(a.view(float))) for a in arrays(nxt)):
                raise BlowUp(m * dt)
            states.append(nxt)
    return states


def per_state_verify_toda(states, dt):
    p = states[0].p
    worst, arg = 0.0, ()
    for m in range(1, len(states) - 1):
        rhs = per_state_toda_rhs(states[m])
        for d in range(p + 1):
            diff = (states[m + 1].bands[d] - states[m - 1].bands[d]) / (2 * dt)
            res = np.abs(diff - rhs[d])[d:]
            if res.size and res.max() > worst:
                i = d + int(np.argmax(res))
                worst, arg = float(res.max()), (f"a[{i},{i - d}]", m)
    return worst, arg


def per_state_verify_kdv(states, dt):
    worst, arg = 0.0, ()
    for m in range(1, len(states) - 1):
        diff = (states[m + 1].values - states[m - 1].values) / (2 * dt)
        res = np.abs(diff - per_state_kdv_rhs(states[m]))
        if res.size and res.max() > worst:
            worst, arg = float(res.max()), (f"gamma[{int(np.argmax(res)) + 1}]", m)
    return worst, arg


def negative_zero_imag(x):
    """Real parts of x as complex128, every imaginary part -0.0."""
    out = np.asarray(x).real.astype(np.complex128)
    out.imag = -0.0
    return out


def flow_instances(p, mode):
    """A Toda state and a gamma table: real ("real", every imaginary part +0.0),
    "complex", or "negative-zero-imag", the real ones built from complex data
    with every imaginary part -0.0, which the constructors store in float64."""
    sampled = "complex" if mode == "complex" else "real"
    J = graded_scale(random_hessenberg(p, 9, seed=40 + p, mode=sampled), 0.4)
    rng = np.random.default_rng(50 + p)
    size = (p + 1) * 6
    values = rng.uniform(0.5, 1.5, size).astype(np.complex128)
    if mode == "complex":
        values += 1j * rng.uniform(-0.5, 0.5, size)
    if mode == "negative-zero-imag":
        J = BandedHessenberg(p, J.n, tuple(map(negative_zero_imag, J.bands)))
        values = negative_zero_imag(values)
    return J, GammaTable(p, 6, values)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex", "negative-zero-imag"])
def test_array_flows_equal_per_state_route_bit_for_bit(p, mode, monkeypatch):
    J, table = flow_instances(p, mode)
    assert np.stack(toda_rhs(J)).tobytes() == np.stack(per_state_toda_rhs(J)).tobytes()
    assert kdv_rhs(table).tobytes() == per_state_kdv_rhs(table).tobytes()
    dt, steps = 1e-2, 30
    toda = evolve_toda(J, dt=dt, steps=steps)
    kdv = evolve_kdv(table, dt=dt, steps=steps)
    # -0.0 imaginary parts are real: those states integrate in float64
    dtype = np.complex128 if mode == "complex" else np.float64
    assert toda.data.dtype == kdv.data.dtype == dtype
    toda_states = per_state_rk4(J, dt, steps)
    kdv_states = per_state_rk4(table, dt, steps)
    # the per-state route stores each state in its field
    want_toda = np.stack([np.stack(s.bands) for s in toda_states])
    want_kdv = np.stack([s.values for s in kdv_states])
    assert want_toda.dtype == want_kdv.dtype == dtype
    assert toda.data.tobytes() == want_toda.tobytes()
    assert kdv.data.tobytes() == want_kdv.tobytes()
    assert [s.bands[-1].tolist() for s in toda.states] == [s.bands[-1].tolist() for s in toda_states]
    toda_want = per_state_verify_toda(toda_states, dt)
    kdv_want = per_state_verify_kdv(kdv_states, dt)
    # the default block holds all 29 interior samples; one byte makes every
    # sample its own block; three samples leave a last block that starts two
    # samples early and sweeps them again
    default = lattice._BLOCK_BYTES
    for block in (lambda traj: default, lambda traj: 1, lambda traj: 3 * traj.data[0].nbytes):
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block(toda))
        rep = verify_toda(toda, 1.0)
        assert (rep.max_residual, rep.argmax) == toda_want
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block(kdv))
        rep = verify_kdv(kdv, 1.0)
        assert (rep.max_residual, rep.argmax) == kdv_want


def test_verifier_sweep_builds_one_kernel(monkeypatch):
    J = graded_scale(random_hessenberg(2, 16, seed=6), 0.4)
    _, table = darboux_factorization(J, 0.1, rng=np.random.default_rng(6))
    toda, kdv = evolve_toda(J, dt=1e-3, steps=100), evolve_kdv(table, dt=1e-3, steps=100)
    built = []

    def counting(kernel):
        def build(shape, dtype, p):
            built.append(shape)
            return kernel(shape, dtype, p)
        return build

    monkeypatch.setattr(lattice, "_toda_kernel", counting(lattice._toda_kernel))
    monkeypatch.setattr(lattice, "_kdv_kernel", counting(lattice._kdv_kernel))
    for traj, verify in ((toda, verify_toda), (kdv, verify_kdv)):
        # 99 interior samples in blocks of 8: twelve blocks, and a thirteenth
        # that starts five samples early, all through one kernel
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * traj.data[0].nbytes)
        built.clear()
        verify(traj, 1.0)
        assert built == [(8, *traj.data.shape[1:])]


def test_array_flows_blow_up_at_the_per_state_time():
    J = random_hessenberg(2, 8, seed=1)
    J = BandedHessenberg(2, 8, tuple(30.0 * b for b in J.bands))
    table = GammaTable(1, 3, np.array([1e30, 2e30, -1e30, 3e30, 1e30, -2e30]))
    for state, evolve, dt in ((J, evolve_toda, 5e-2), (table, evolve_kdv, 1e-31)):
        with pytest.raises(BlowUp) as want:
            per_state_rk4(state, dt, 200)
        with pytest.raises(BlowUp) as got:
            evolve(state, dt=dt, steps=200)
        assert got.value.t == want.value.t > 0


@pytest.mark.parametrize("block_samples", [None, 3])
def test_complex_flows_blow_up_at_the_per_state_time(block_samples, monkeypatch):
    J = random_hessenberg(2, 8, seed=1, mode="complex")
    J = BandedHessenberg(2, 8, tuple(30.0 * b for b in J.bands))
    table = GammaTable(1, 3, np.array([1e30, 2e30j, -1e30, 3e30, 1e30 + 1e30j, -2e30]))
    # (state, flow, step, complex bytes per sample)
    cases = ((J, evolve_toda, 5e-2, 3 * 8 * 16), (table, evolve_kdv, 1e-31, 6 * 16))
    for state, evolve, dt, nbytes in cases:
        if block_samples:  # the blow-up (step 4 or 7) lands in the second or third block
            monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_samples * nbytes)
        with pytest.raises(BlowUp) as want:
            per_state_rk4(state, dt, 200)
        with pytest.raises(BlowUp) as got:
            evolve(state, dt=dt, steps=200)
        assert got.value.t == want.value.t >= 4 * dt


def with_negative_zero(state):
    """The same state built from complex data, the imaginary part of its first entry -0.0."""
    if isinstance(state, GammaTable):
        values = state.values.astype(np.complex128)
        values[0] = complex(values[0].real, -0.0)
        return GammaTable(state.p, state.columns, values)
    bands = [b.astype(np.complex128) for b in state.bands]
    bands[0][0] = complex(bands[0][0].real, -0.0)
    return BandedHessenberg(state.p, state.n, tuple(bands))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_real_states_integrate_in_float64_like_the_complex_route(p):
    J, table = flow_instances(p, "real")
    Jc, tablec = flow_instances(p, "complex")
    cases = ((J, Jc, evolve_toda, lattice._toda_kernel), (table, tablec, evolve_kdv, lattice._kdv_kernel))
    for state, cstate, evolve, kernel in cases:
        real = evolve(state, dt=1e-2, steps=30)
        # a -0.0 imaginary part is real: the state is stored and integrated in float64
        signed = evolve(with_negative_zero(state), dt=1e-2, steps=30)
        assert real.data.dtype == signed.data.dtype == np.float64
        assert real.data.tobytes() == signed.data.tobytes()
        # the complex route, entered by casting the initial array
        forced = lattice._rk4(real.data[0].astype(np.complex128), kernel, 1e-2, 30, p)
        assert forced.data.dtype == evolve(cstate, dt=1e-2, steps=30).data.dtype == np.complex128
        # same real parts bit for bit; every stored imaginary part of the complex route is +0.0
        assert real.data.tobytes() == np.ascontiguousarray(forced.data.real).tobytes()
        assert not forced.data.imag.view(np.uint64).any()
        # states are float64
        first = real.states[0]
        assert np.asarray(getattr(first, "bands", None) or first.values).dtype == np.float64


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_verify_reports_equal_on_float64_data_and_its_complex_cast(p):
    J, table = flow_instances(p, "real")
    toda = evolve_toda(J, dt=1e-2, steps=30)
    kdv = evolve_kdv(table, dt=1e-2, steps=30)
    assert toda.data.dtype == kdv.data.dtype == np.float64

    def cast(traj):
        return Trajectory(traj.data.astype(complex), traj.dt, traj.p)

    assert verify_toda(toda, 1e-9) == verify_toda(cast(toda), 1e-9)
    assert verify_kdv(kdv, 1e-9) == verify_kdv(cast(kdv), 1e-9)


@pytest.mark.parametrize("block", [None, 1, 2 * 3 * 6 * 16])
def test_verifier_ties_go_to_the_first_sample_then_band(block, monkeypatch):
    # one byte puts each sample in its own block, so ties across blocks keep the
    # first; two samples per block make the last block (samples 2 and 3) sweep
    # sample 2 again, so ties inside that overlap keep the first too
    if block:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block)
    # a[1,0] = 1 gives band-0 residuals of modulus 1 at rows 0 and 1; a[3,1] = 1
    # gives band-1 residuals of modulus 1 at rows 2 and 3.  Samples alternate
    # so every central difference vanishes and the residual is |rhs|.
    n = 6
    only_band1 = np.zeros((3, n), dtype=np.complex128)
    only_band1[2, 3] = 1.0
    only_band0 = np.zeros((3, n), dtype=np.complex128)
    only_band0[1, 1] = 1.0
    both = only_band0 + only_band1
    for samples, want in [
        ([only_band0, only_band1] * 2 + [only_band0], ("a[2,1]", 1)),
        ([only_band1, only_band0] * 2 + [only_band1], ("a[0,0]", 1)),
        ([both] * 5, ("a[0,0]", 1)),
    ]:
        traj = Trajectory(np.stack(samples), 0.1, 2)
        rep = verify_toda(traj, 1.0)
        assert (rep.max_residual, rep.argmax) == (1.0, want)
        assert per_state_verify_toda(list(traj.states), 0.1) == (1.0, want)


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("where", [(5, 1, 3), (0, 0, 2)])
def test_nan_entry_fails_verify_toda(where, block, monkeypatch):
    if block:  # one sample per block: later blocks hold NaNs too
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block)
    J = graded_scale(random_hessenberg(2, 8, seed=3), 0.4)
    traj = evolve_toda(J, dt=1e-3, steps=10)
    data = traj.data.copy()
    data[where] = np.nan
    rep = verify_toda(Trajectory(data, traj.dt, traj.p), tol=1.0)
    m, d, i = where
    assert np.isnan(rep.max_residual) and not rep.passed
    # the first NaN in sample order: the difference one sample before, or
    # for the first sample the difference one sample after
    assert rep.argmax == (f"a[{i},{i - d}]", max(m - 1, 1))


@pytest.mark.parametrize("block", [None, 1])
def test_nan_entry_fails_verify_kdv(block, monkeypatch):
    if block:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block)
    _, table = flow_instances(2, "real")
    traj = evolve_kdv(table, dt=1e-3, steps=10)
    data = traj.data.copy()
    data[4, 2] = np.nan
    rep = verify_kdv(Trajectory(data, traj.dt, traj.p), tol=1.0)
    assert np.isnan(rep.max_residual) and not rep.passed
    assert rep.argmax == ("gamma[3]", 3)


def test_trajectory_states_are_read_only_and_built_per_access():
    J, table = flow_instances(2, "complex")
    for traj, cls in ((evolve_toda(J, steps=3), Banded), (evolve_kdv(table, steps=3), GammaTable)):
        states = traj.states
        assert len(states) == len(traj) == 4
        assert all(isinstance(s, cls) for s in states)
        assert states[-1] is not states[-1]
        with pytest.raises(IndexError):
            states[4]
        with pytest.raises(ValueError):
            traj.data[0, 0] = 0


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_trajectory_is_its_own_sequence_of_states(mode):
    J, table = flow_instances(2, mode)
    for traj in (evolve_toda(J, steps=3), evolve_kdv(table, steps=3)):
        assert traj.states is traj and isinstance(traj, Sequence)

        def as_array(state):  # the bands of J, or the flat gamma table, as stored
            a = np.stack(state.bands) if traj.kind == "toda" else state.values
            assert a.dtype == traj.data.dtype and state.p == traj.p
            return a.tolist()

        want = [row.tolist() for row in traj.data]
        assert len(traj) == 4 and [as_array(s) for s in traj] == want
        assert [as_array(traj[m]) for m in range(-4, 4)] == want * 2
        assert [as_array(traj[np.int64(m)]) for m in range(4)] == want
        with pytest.raises(IndexError):
            traj[4]
        # a state is indexed by an integer; a slice is no state
        for index in (slice(1, 3), 1.0):
            with pytest.raises(TypeError):
                traj[index]


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
    factors, _ = darboux_factorization(J, C, params=small_params(2, 3, 0.2))
    table = factors_to_table(factors)
    for j in range(3):
        direct = assemble_transform(factors, j)
        rebuilt = reconstruct_transform(table, j, C)
        assert rebuilt.n == table.columns == direct.n == 8
        for r in range(rebuilt.n):
            for c in range(max(0, r - 2), r + 1):
                assert abs(rebuilt.entry(r, c) - direct.entry(r, c)) <= 1e-10


def test_reconstruct_transform_row_bound():
    J = random_hessenberg(1, 6, seed=16)
    _, table = darboux_factorization(J, 0.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        reconstruct_transform(table, 2)


def scalar_transform_bands(table, j, C):
    """Bands of J^(j) entry by entry through the scalar closed form, one row per column."""
    return [
        [backlund_entry(table, j, i - d, d, C) for i in range(d, table.columns)]
        for d in range(table.p + 1)
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
def test_transform_kernel_equals_backlund_entry_exactly(p, mode):
    rng = np.random.default_rng(10 * p)
    columns = 7
    shape = (3, (p + 1) * columns)
    values = rng.normal(size=shape) + (1j * rng.normal(size=shape) if mode == "complex" else 0)
    C = 0.2 - 0.3j if mode == "complex" else 0.2
    for j in range(p + 1):
        full = _transform_bands(values, p, j, C)
        for rows in (1, columns - 1, columns):
            # the leading rows of a transform read only the leading columns
            leading = values[:, : (p + 1) * rows]
            stacked = _transform_bands(leading, p, j, C)
            assert stacked.tolist() == full[..., :rows].tolist()
            for m, table in enumerate(GammaTable(p, rows, v) for v in leading):
                single = reconstruct_transform(table, j, C)
                for d, want in enumerate(scalar_transform_bands(table, j, C)):
                    assert stacked[m, d, :d].tolist() == [0j] * min(d, rows)
                    assert stacked[m, d, d:].tolist() == want
                    assert single.bands[d][d:].tolist() == want


def with_negative_zero_imag(values):
    """values cast to complex with every imaginary part -0.0, which takes the complex route
    of _transform_bands; GammaTable stores them in float64."""
    cast = values.astype(np.complex128)
    cast.imag = -0.0
    return cast


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_real_table_transform_is_the_complex_routes_real_part(p):
    rng = np.random.default_rng(30 + p)
    columns = 6
    # three stacked tables with negative gammas, exact zeros of both signs
    stacked = rng.normal(size=(3, (p + 1) * columns))
    stacked[0, ::3] = 0.0
    stacked[1, 1::4] = -0.0
    # factorize's extended table: a table, its last pivot u_{n-1}, then p zeros
    extended = np.concatenate((stacked[2], rng.normal(size=1), np.zeros(p)))
    for values in (stacked, extended):
        forced = with_negative_zero_imag(values)
        for j in range(p + 1):
            for C in (0.2, -0.0):
                real = _transform_bands(values, p, j, C)
                cplx = _transform_bands(forced, p, j, C)
                assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
                assert real.tobytes() == np.ascontiguousarray(cplx.real).tobytes()
                size = values.shape[-1]
                for v, w in zip(values.reshape(-1, size), forced.reshape(-1, size)):
                    cols = size // (p + 1)
                    a = reconstruct_transform(GammaTable(p, cols, v), j, C)
                    b = reconstruct_transform(GammaTable(p, cols, w), j, C)
                    assert a.data.dtype == b.data.dtype == np.float64
                    assert a.data.tobytes() == b.data.tobytes()
            for C in (0.2 - 0.1j, complex(0.2, -0.0)):
                assert _transform_bands(values, p, j, C).dtype == np.complex128


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

    table0 = factors_to_table(darboux_factorization(J, C, params=params)[0])
    rows = table0.columns
    traj_table = evolve_kdv(table0, dt, steps)
    recon = {}
    for j in range(p + 1):
        data = np.zeros((len(traj_table), p + 1, rows), dtype=np.complex128)
        for m, tb in enumerate(traj_table.states):
            for d, entries in enumerate(scalar_transform_bands(tb, j, C)):
                data[m, d, d:] = entries
        recon[j] = Trajectory(data, dt, p)

    worst, arg = 0.0, ()
    for m, direct in enumerate(evolve_toda(J, C, dt, steps).states):
        for d in range(p + 1):
            res = np.abs(direct.bands[d] - recon[0].states[m].bands[d])[d:]
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


def test_commuting_diagram_reports_do_not_depend_on_the_block_size(monkeypatch):
    p = 2
    J = graded_scale(random_hessenberg(p, 16, seed=120 + p), 0.15)
    params = small_params(p, 220 + p, 0.15)

    def reports():
        out = theorem1_diagram(J, C=0.015, params=params, dt=1e-3, steps=20)
        return {k: (r.max_residual, r.argmax, r.passed) for k, r in out.items()}

    want = reports()
    # one byte puts every sample in its own block; the other size holds three
    # samples of a reassembled transform, (p + 1, 16) in the data's dtype (float64
    # for this real table), leaving a last block of one of the 19 interior samples
    table = factors_to_table(darboux_factorization(J, 0.015, params=params)[0])
    sample = _transform_bands(evolve_kdv(table, steps=0).data[0], p, 0, 0.015)
    assert sample.shape == (p + 1, 16)
    for block in (1, 3 * sample.nbytes):
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block)
        assert reports() == want


def test_commuting_diagram_single_step_is_path_only():
    J = graded_scale(random_hessenberg(1, 8, seed=101), 0.15)
    out = theorem1_diagram(J, params=ParameterSet(()), dt=1e-3, steps=1)
    assert set(out) == {"path"}
    assert out["path"].passed


def test_commuting_diagram_rng_route_is_deterministic():
    J = graded_scale(random_hessenberg(2, 8, seed=107), 0.15)
    a = theorem1_diagram(J, rng=np.random.default_rng(3), dt=1e-3, steps=5)
    b = theorem1_diagram(J, rng=np.random.default_rng(3), dt=1e-3, steps=5)
    assert a["path"].max_residual == b["path"].max_residual
