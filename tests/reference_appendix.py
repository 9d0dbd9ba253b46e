"""The appendix checks by a walk over all of W, the reference for ``degeis.eisenstein``.

``ref_sharp_invariance_check`` decides the s_i-invariance of the normalized
constant term term by term: it builds the atom tables of lambda and of
s_i lambda, compares the two L polynomials, carries the canonical atom
multiset of every F_w along the Weyl walk and compares F_u(lambda) with
F_{s_i u}(s_i lambda) for every u.  ``ref_h0_cancellations`` pairs w with
s_i w along <lambda, alpha_i^vee> = 0 and also compares the exponents
w^{-1} lambda at eps = 0, read off the carried columns w^{-1} varpi_j
(``ref_inverse_columns``).  ``sharp_invariance_check`` decides the first from
per-root facts, and ``_h0_cancellations`` drops the exponent comparison; both
must answer as these do.
"""

from __future__ import annotations

from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import (_AtomTable, _carry, _eps_character, _l_poly, _left)
from degeis.forms import AffineForm
from degeis.rootdata import RootSystem, WeylWalk, WeylWord
from degeis.zetas import _Expansion, _Multisets


def ref_inverse_columns(system: RootSystem, walk: WeylWalk) -> list[tuple[tuple[int, ...], ...]]:
    """Coordinates of w^{-1} varpi_j for every element w and every j.

    (u s_j)^{-1} = s_j u^{-1}: one simple reflection of the prefix's columns.
    """
    rank = system.rank
    out = [tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))]
    for parent, j, _ in walk.steps:
        row = system.pairing[j - 1]
        out.append(tuple(tuple(c - col[j - 1] * r for c, r in zip(col, row))
                         if col[j - 1] else col for col in out[parent]))
    return out


def generic_character(system: RootSystem) -> TorusCharacter:
    return TorusCharacter(tuple(AffineForm.var(f"z{i}")
                                for i in range(1, system.rank + 1)))


def ref_sharp_invariance_check(system: RootSystem,
                               simple_index: int) -> tuple[bool, WeylWord | None]:
    """Term-by-term W-invariance of the normalized constant term.

    For F(lambda) = L(lambda) sum_w F_w(lambda) [w^{-1} lambda], invariance
    under w_i reads L(w_i lam) F_{w_i u}(w_i lam) = L(lam) F_u(lam) for every
    u in W (both sides attach to the exponent u^{-1} lambda).  Functional-
    equation canonical forms decide the equality exactly: the two sides
    agree when their multisets of canonical atoms do.
    """
    system._check_index(simple_index)
    lam = generic_character(system)
    table = _AtomTable.of_line(system, lam)
    table_i = _AtomTable.of_line(system, weyl_act(system, WeylWord.of(simple_index), lam))
    if _l_poly(table.pairs) != _l_poly(table_i.pairs):
        return False, WeylWord()
    walk = system.weyl_elements()
    sets = _Multisets(len(system.positive_roots))
    f = _carry(walk, table, _Expansion(table.keys, sets, "eps"))
    f_i = _carry(walk, table_i, _Expansion(table_i.keys, sets, "eps"))
    for (_, u), here, partner in zip(walk, f, _left(system, walk, simple_index)):
        if f_i[partner] != here:
            return False, u
    return True, None


def ref_h0_cancellations(system: RootSystem, walk: WeylWalk, simple_index: int,
                         sets: _Multisets,
                         columns: list[tuple[tuple[int, ...], ...]]) -> list[bool]:
    """For every w, whether F_w and F_{w_i w} cancel along <lambda, alpha_i^vee> = 0.

    Both must have a simple pole in eps with opposite leading coefficients,
    and their exponents must agree at eps = 0.  There lambda is
    sum_{j != i} z_j varpi_j, so w^{-1} lambda is read off the columns
    w^{-1} varpi_j with j != i.
    """
    table = _AtomTable.of_line(system, _eps_character(system, simple_index, 0))
    f = _carry(walk, table, _Expansion(table.keys, sets, "eps"))
    i = simple_index
    results = []
    for k, partner in enumerate(_left(system, walk, i)):
        (o1, c1, m1), (o2, c2, m2) = f[k], f[partner]
        here, there = columns[k], columns[partner]
        results.append(o1 == o2 == -1 and m1 == m2 and c2 == -c1
                       and here[:i - 1] == there[:i - 1] and here[i:] == there[i:])
    return results
