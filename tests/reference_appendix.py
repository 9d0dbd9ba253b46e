"""The appendix checks by a walk over all of W, the reference for ``degeis.eisenstein``.

``_carry`` carries the Laurent data in eps of every F_w = F_1 J(w) along the
Weyl walk, one swapped root per step, and ``_left`` pairs each element w
with s_i w.  On them:

* ``ref_sharp_invariance_check`` decides the s_i-invariance of the
  normalized constant term term by term: it builds the atom tables of lambda
  and of s_i lambda, compares the two L polynomials and compares
  F_u(lambda) with F_{s_i u}(s_i lambda) for every u;
* ``ref_boundary`` checks that no L * F_w has a pole along
  <lambda, alpha_i^vee> = +-1, for every w (``ref_boundary_blocks`` per index
  and sign);
* ``ref_h0_cancellations`` pairs w with s_i w along
  <lambda, alpha_i^vee> = 0 and compares their residues;
  ``ref_inverse_columns`` carries the columns w^{-1} varpi_j that compare
  the exponents there.

``sharp_invariance_check``, and the boundary and H^0 verdicts of
``entireness_report`` and ``h0_cancellation_check``, decide the same from
per-root facts and must answer as these do.
"""

from __future__ import annotations

from collections import Counter

from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import _AtomTable, _eps_character, _l_poly, _pairings
from degeis.forms import AffineForm, Q
from degeis.rootdata import RootSystem, WeylWalk, WeylWord
from degeis.zetas import _Expansion, _Multisets, expand_in


def _carry(walk: WeylWalk, table: _AtomTable,
           expansion: _Expansion) -> list[tuple[int, Q, int]]:
    """(order, scalar, packed multiset) of F_w = F_1 J(w) for every element of the walk.

    F_1 is every root's shifted id, and each step swaps one root's shifted
    id for its plain one.  Every id goes through ``expansion.term``, so an
    atom that cannot be expanded raises there.
    """
    first = Counter(shifted for _, shifted in table.roots)
    out = [expansion.term(Q(1), tuple(sorted(first.items())))]
    swap = []
    for k in range(len(table.roots)):
        order, scalar, key = expansion.term(Q(1), table.counts((k,)))
        # only the atoms that are polar in eps carry a scalar other than 1
        swap.append((order, None if scalar == 1 else scalar, key))
    for parent, _, root in walk.steps:
        o, c, m = out[parent]
        do, dc, dm = swap[root]
        out.append((o + do, c if dc is None else c * dc, m + dm))
    return out


def _left(system: RootSystem, walk: WeylWalk, i: int) -> list[int]:
    """Index of s_i w for every element w.

    An element is determined by its images of the simple roots, and s_i w's
    are s_i applied to w's.
    """
    simple, s_i = system._simple_pos, system._gens[i - 1]
    index = {tuple(perm[p] for p in simple): k for k, (perm, _) in enumerate(walk)}
    return [index[tuple(s_i[perm[p]] for p in simple)] for perm, _ in walk]


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
    lam_i = weyl_act(system, WeylWord.of(simple_index), lam)
    table, table_i = _AtomTable.of_line(system, lam), _AtomTable.of_line(system, lam_i)
    if _l_poly(_pairings(system, lam)) != _l_poly(_pairings(system, lam_i)):
        return False, WeylWord()
    walk = system.weyl_elements()
    sets = _Multisets(len(system.positive_roots))
    f = _carry(walk, table, _Expansion(table.keys, sets, "eps"))
    f_i = _carry(walk, table_i, _Expansion(table_i.keys, sets, "eps"))
    for (_, u), here, partner in zip(walk, f, _left(system, walk, simple_index)):
        if f_i[partner] != here:
            return False, u
    return True, None


def ref_boundary_blocks(system: RootSystem) -> dict[tuple[int, int], bool]:
    """For each simple index i and offset +-1, whether no L * F_w has a pole in eps
    along <lambda, alpha_i^vee> = eps + offset."""
    walk = system.weyl_elements()
    sets = _Multisets(len(system.positive_roots))
    verdicts = {}
    for i in range(1, system.rank + 1):
        for offset in (1, -1):
            lam = _eps_character(system, i, offset)
            table = _AtomTable.of_line(system, lam)
            l_order = expand_in(_l_poly(_pairings(system, lam)), "eps").order
            f = _carry(walk, table, _Expansion(table.keys, sets, "eps"))
            verdicts[i, offset] = all(l_order + order >= 0 for order, _, _ in f)
    return verdicts


def ref_boundary(system: RootSystem) -> bool:
    """Whether no L * F_w has a pole in eps along <lambda, alpha_i^vee> = eps +- 1, for any i."""
    return all(ref_boundary_blocks(system).values())


def ref_h0_cancellations(system: RootSystem, walk: WeylWalk, simple_index: int,
                         sets: _Multisets) -> list[bool]:
    """For every w, whether F_w and F_{w_i w} cancel along <lambda, alpha_i^vee> = 0.

    Both must have a simple pole in eps with opposite leading coefficients.
    The exponents are not compared (``ref_inverse_columns`` does that).
    """
    table = _AtomTable.of_line(system, _eps_character(system, simple_index, 0))
    f = _carry(walk, table, _Expansion(table.keys, sets, "eps"))
    results = []
    for (o1, c1, m1), partner in zip(f, _left(system, walk, simple_index)):
        o2, c2, m2 = f[partner]
        results.append(o1 == o2 == -1 and m1 == m2 and c2 == -c1)
    return results
