"""Acceptance gate: one check per shipped guarantee, one line per check.

Each criterion prints a [PASS]/[FAIL] line straight to the terminal,
bypassing capture, then asserts both the property and its runtime
budget.
"""

import itertools
import time

import numpy as np
import pytest

from toda_darboux.banded import (
    graded_scale,
    multiply,
    multiply_chain,
    random_hessenberg,
    residual,
)
from toda_darboux.darboux import (
    DarbouxFactors,
    ParameterSet,
    assemble_transform,
    backlund_entry,
    darboux_factorization,
    darboux_factorize,
    factors_to_table,
    table_fill,
)
from toda_darboux.lattice import (
    evolve_toda,
    kdv_rhs,
    theorem1_diagram,
    toda_rhs,
    verify_toda,
)
from toda_darboux.lu import SingularLeadingMinor, lu_factorize

from oracles import check_delta_derivative, check_poly_derivative, pivot_gammas


@pytest.fixture
def gate(capfd):
    """Run one criterion and print its verdict outside pytest's capture."""

    def run(name, budget, fn):
        t0 = time.perf_counter()
        try:
            detail = fn()
        except BaseException as err:
            elapsed = time.perf_counter() - t0
            _line(capfd, name, False, elapsed, budget, f"{type(err).__name__}: {err}")
            raise
        elapsed = time.perf_counter() - t0
        ok = elapsed < budget
        _line(capfd, name, ok, elapsed, budget, detail)
        assert ok, f"{name} runtime {elapsed:.2f}s exceeds budget {budget:.0f}s"

    return run


def _line(capfd, name, ok, elapsed, budget, detail):
    state = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[{state}] {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s]", flush=True)


def det_pp(A):
    """Determinant by elimination with partial pivoting, complex-safe."""
    A = np.array(A, dtype=np.complex128)
    n = A.shape[0]
    if n == 0:
        return 1.0 + 0j
    det = 1.0 + 0j
    for c in range(n):
        piv = c + int(np.argmax(np.abs(A[c:, c])))
        if A[piv, c] == 0:
            return 0j
        if piv != c:
            A[[c, piv]] = A[[piv, c]]
            det = -det
        det *= A[c, c]
        A[c + 1:, c:] = A[c + 1:, c:] - np.outer(A[c + 1:, c] / A[c, c], A[c, c:])
    return det


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


def test_criterion_lu_round_trip(gate):
    def check():
        done, worst, seed = 0, 0.0, 0
        while done < 50:
            p = (1, 2, 3, 4)[done % 4]
            J = random_hessenberg(p, 12, seed=seed)
            seed += 1
            try:
                L, U = lu_factorize(J, 0.0)
            except SingularLeadingMinor:
                continue
            prod, w = multiply(L, U)
            r = residual(prod, J, w)
            assert r <= 1e-10, f"instance {done}: residual {r:.3e}"
            worst = max(worst, r)
            done += 1
        return f"50/50 instances, worst residual {worst:.2e}"

    gate("lu-round-trip", 1.0, check)


def test_criterion_pivot_identity(gate):
    def check():
        worst = 0.0
        cases = [(1, 10, 0.0, 0), (2, 10, 0.0, 1), (3, 9, 0.3 - 0.2j, 2),
                 (2, 8, -0.4 + 0.1j, 3), (4, 10, 0.25, 4)]
        for p, n, C, seed in cases:
            J = random_hessenberg(p, n, seed=seed, mode="complex" if C.imag else "real")
            route_a = pivot_gammas(J, C, n)
            _, U = lu_factorize(J, C)
            route_b = U.band(0)
            dense = J.to_dense()
            for k in range(n):
                num = det_pp(C * np.eye(k + 1) - dense[: k + 1, : k + 1])
                den = det_pp(C * np.eye(k) - dense[:k, :k])
                route_c = -num / den
                for other in (route_a[k], route_b[k]):
                    gap = abs(other - route_c) / max(1.0, abs(other), abs(route_c))
                    assert gap <= 1e-9, f"p={p} k={k}: relative gap {gap:.3e}"
                    worst = max(worst, gap)
        return f"three routes agree, worst relative gap {worst:.2e}"

    gate("pivot-identity", 1.0, check)


def test_criterion_darboux_round_trip(gate):
    def check():
        worst = 0.0
        for k in range(50):
            p = (1, 2, 3, 4)[k % 4]
            J = random_hessenberg(p, 12, seed=100 + k)
            L, _ = lu_factorize(J, 0.0)
            out = darboux_factorize(L, rng=np.random.default_rng(k))
            prod, w = multiply_chain(list(out))
            r = residual(prod, L, w)
            assert r <= 1e-10, f"instance {k}: residual {r:.3e}"
            worst = max(worst, r)
        return f"50/50 instances, worst residual {worst:.2e}"

    gate("darboux-round-trip", 2.0, check)


def test_criterion_uniqueness_cross_construction(gate):
    def check():
        worst = 0.0
        for k in range(20):
            p = (2, 3)[k % 2]
            J = random_hessenberg(p, 10, seed=300 + k)
            factors, _ = darboux_factorization(J, 0.2, rng=np.random.default_rng(k))
            peeled = factors_to_table(factors)
            fill = table_fill(factors.U.band(0), factors.parameters(), J, 0.2)
            gap = float(np.abs(peeled.values - fill.values).max())
            assert gap <= 1e-9, f"instance {k}: entry gap {gap:.3e}"
            worst = max(worst, gap)
        return f"20/20 instances, worst entry gap {worst:.2e}"

    gate("uniqueness", 2.0, check)


def test_criterion_backlund_equality(gate):
    def check():
        worst, entries = 0.0, 0
        for p, jseed, rseed in [(1, 400, 0), (2, 409, 0), (3, 412, 1)]:
            J = random_hessenberg(p, 10, seed=jseed)
            C = 0.15
            factors, table = darboux_factorization(
                J, C, rng=np.random.default_rng(rseed)
            )
            for j in range(p + 1):
                Jj, w = assemble_transform(factors, j)
                rows = min(w, table.columns)
                for r in range(rows):
                    for c in range(max(0, r - p), r + 1):
                        gap = abs(backlund_entry(table, j, c, r - c, C) - Jj.entry(r, c))
                        assert gap <= 1e-10, f"p={p} j={j} ({r},{c}): gap {gap:.3e}"
                        worst = max(worst, gap)
                        entries += 1
        return f"{entries} entries across all transforms, worst gap {worst:.2e}"

    gate("backlund-equality", 2.0, check)


def test_criterion_derivative_identities(gate):
    def check():
        worst = 0.0
        for p in (1, 2, 3):
            J = random_hessenberg(p, 9, seed=500 + p, mode="complex")
            Jdot = toda_rhs(J)
            for m in range(1, J.n):
                gap = check_poly_derivative(J, Jdot, 0.2 - 0.1j, m)
                assert gap <= 1e-10
                worst = max(worst, gap)
            faulty = [b.copy() for b in Jdot]
            faulty[0][3] += 1e-3
            assert check_poly_derivative(J, tuple(faulty), 0.2 - 0.1j, J.n - 1) > 1e-8

            Jt = graded_scale(J, 0.5)
            _, table = darboux_factorization(Jt, 0.0, params=small_params(p, p, 0.2))
            gd = kdv_rhs(table)
            gap = check_delta_derivative(table, gd)
            assert gap <= 1e-10
            worst = max(worst, gap)
            bad = gd.copy()
            bad[0] += 1e-3
            assert check_delta_derivative(table, bad) > 1e-8
        return f"both identities hold and both detect faults, worst gap {worst:.2e}"

    gate("derivative-identities", 1.0, check)


def test_criterion_commuting_diagram(gate):
    def check():
        lines = []
        for p, jseed, pseed in [(1, 101, 0), (2, 107, 207), (3, 107, 207)]:
            J = graded_scale(random_hessenberg(p, 8, seed=jseed), 0.15)
            out = theorem1_diagram(
                J, C=0.015, params=small_params(p, pseed, 0.15),
                dt=1e-3, steps=100, tol_path=1e-4, tol_verify=1e-5,
            )
            assert set(out) == {"path", "kdv"} | {f"toda[{j}]" for j in range(p + 1)}
            for key, rep in out.items():
                assert rep.passed, f"p={p} {key}: {rep.line()}"
            lines.append(f"p={p} worst {max(r.max_residual for r in out.values()):.1e}")
        return "; ".join(lines)

    gate("commuting-diagram", 30.0, check)


def test_criterion_order_check(gate):
    def check():
        J = graded_scale(random_hessenberg(2, 8, seed=3), 0.6)
        res = {}
        for dt, steps in [(1e-2, 20), (5e-3, 40), (2.5e-3, 80)]:
            res[dt] = verify_toda(evolve_toda(J, dt=dt, steps=steps), tol=1.0).max_residual
        r1 = res[1e-2] / res[5e-3]
        r2 = res[5e-3] / res[2.5e-3]
        for r in (r1, r2):
            assert 3.5 <= r <= 4.5, f"halving ratio {r:.2f} outside [3.5, 4.5]"
        return f"halving ratios {r1:.2f}, {r2:.2f} in [3.5, 4.5]"

    gate("order-check", 10.0, check)


def test_criterion_sampling_robustness(gate):
    def check():
        done = 0
        for k in range(200):
            p = (2, 3, 4)[k % 3]
            J = random_hessenberg(p, 12, seed=1000 + k)
            L, _ = lu_factorize(J, 0.0)
            out = darboux_factorize(L, rng=np.random.default_rng(5000 + k))
            assert len(out) == p
            done += 1
        # graded and long instances: the round trip, graded back to the
        # original units, must hold to 1e-10
        worst, graded = 0.0, 0
        grid = itertools.product((2, 3, 4), (128, 1024), (0.5, 0.15, 0.05), (1, 2, 3))
        for p, n, scale, seed in grid:
            J = random_hessenberg(p, n, seed=seed)
            L, U = lu_factorize(graded_scale(J, scale), 0.0)
            out = darboux_factorize(L, rng=np.random.default_rng(seed))
            prod, window = assemble_transform(DarbouxFactors(U, out), 0)
            assert window == n
            err = float(np.abs(graded_scale(prod, 1 / scale).data - J.data).max())
            assert err <= 1e-10, (p, n, scale, seed, err)
            worst = max(worst, err)
            graded += 1
        return (
            f"{done}/200 instances sampled and peeled without breakdown; "
            f"{graded}/54 graded at n=128, 1024 with round trip {worst:.1e} <= 1e-10"
        )

    gate("sampling-robustness", 5.0, check)
