"""The Fraction Gauss-Jordan solve, the reference for ``root_basis_coords``.

``ref_root_basis_coords`` solves values = sum_j x_j * nchar(alpha_j) by
exact elimination over ``Fraction``s, row by row with a pivot search.  The
integer, fraction-free solve in ``degeis.characters`` must give the same
coordinates (``tests/test_pole_ints.py``).
"""

from __future__ import annotations

from fractions import Fraction as Q


def ref_root_basis_coords(system, values) -> tuple[Q, ...]:
    n = system.rank
    rows = [[Q(system.pairing[j][i]) for j in range(n)] for i in range(n)]
    rhs = [Q(v) for v in values]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return tuple(rhs)
