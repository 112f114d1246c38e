#!/usr/bin/env python3
"""Factor a banded Hessenberg matrix and read off its gamma table.

Walks the full splitting pipeline on one seeded instance: LU at a shift,
the bidiagonal chain, the interlaced gamma sequence, and the closed-form
entries of the transformed matrices.
"""

import numpy as np

from toda_darboux import (
    assemble_transform,
    darboux_factorization,
    random_hessenberg,
    reconstruct_transform,
    residual,
)

P, N, C, SEED = 2, 8, 0.2, 7


def main():
    J = random_hessenberg(P, N, seed=SEED)
    print(f"J: {(P + 2)}-banded Hessenberg, n = {N}, shift C = {C}")
    print(np.array2string(J.to_dense().real, precision=3, suppress_small=True))

    factors, table = darboux_factorization(J, C, rng=np.random.default_rng(SEED))
    print(f"\nfactors: {len(factors.factors)} unit lower bidiagonal + 1 upper")
    print("pivot gammas (U diagonal):",
          np.array2string(factors.U.band(0).real, precision=4))

    prod, w = assemble_transform(factors, 0)
    print(f"round trip |CI + L1...Lp U - J| inside {w} rows:",
          f"{residual(prod, J, w):.2e}")

    print(f"\ngamma table: {table.columns} columns, rows interlace as "
          f"gamma_(m(p+1)+r+1)")
    for r in range(P + 1):
        print(f"  row {r}:", np.array2string(table.row(r).real, precision=4))

    print("\ntransforms J^(i) and one spot check against the closed form:")
    for i in range(P + 1):
        Ji, wi = assemble_transform(factors, i)
        direct = Ji.entry(1, 1)
        closed = reconstruct_transform(table, i, C).entry(1, 1)
        print(f"  J^({i}): window {wi} rows, "
              f"entry (1,1) product route {direct.real:+.6f}, "
              f"closed form {closed.real:+.6f}")


if __name__ == "__main__":
    main()
