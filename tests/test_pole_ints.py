"""The integer parts of the pole report, held against their Fraction references.

``_Expansion.leading`` assembles a group's leading monomial from ranked
canonical keys instead of calling ``ZetaExpr.build``; these tests compare it
with ``ZetaExpr.build`` of the same atoms and residues, each atom taken to
its limit by ``atom_limit`` on its own.  ``root_basis_coords`` solves in
integers; it is compared with the Fraction elimination it replaced
(``reference_solve.py``).
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.characters import TorusCharacter, root_basis_coords
from degeis.eisenstein import GKTerm, _AtomTable, constant_term
from degeis.errors import DegeisError
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import (_EPS, ZetaAtom, ZetaExpr, _Expansion, _Multisets, atom_limit,
                          shift_form)

from conftest import F4_CARTAN, af, e_type, exceptional_cases, sweep_cases
from reference_solve import ref_root_basis_coords

POOL = sorted({Q(p, q) for q in (1, 2, 3, 4, 5, 6, 10, 12) for p in range(-2 * q, 2 * q + 1)})


# -- leading monomials ---------------------------------------------------------

def reference_leading(table, point, assume, scalar, counts):
    """ZetaExpr.build of each id's own limit: an atom at eps = 0 or a residue symbol."""
    atoms, residues = [], []
    for i, c in counts:
        key = table.keys[i]
        if isinstance(key, str):
            residues.append((key, c))
        elif isinstance(key, tuple):
            label, arg = key
            limit = atom_limit(label, shift_form(arg, {"s": point}, _EPS), _EPS,
                               assume_no_real_zeros=assume)
            if isinstance(limit, AffineForm):
                atoms.append(ZetaAtom(label, limit, c))
            else:
                residues.append((label, c))
    return ZetaExpr.build(scalar, atoms=atoms, residues=residues)


def expansion_at(table, point, assume):
    return _Expansion(table.keys, _Multisets(table.bound), _EPS, {"s": point}, assume)


def mismatches(table, point, assume, counts_list, scalar=Q(1)):
    """The counts whose leading monomial differs from the reference; counts that raise are skipped."""
    expansion = expansion_at(table, point, assume)
    assert expansion.ranks is None          # numbered on the first leading call only
    bad = []
    for counts in counts_list:
        try:
            expansion.term(scalar, counts)
        except DegeisError:
            continue
        got = expansion.leading(scalar, counts)
        want = reference_leading(table, point, assume, scalar, counts)
        if got != want or str(got) != str(want):
            bad.append((counts, str(got), str(want)))
    return bad


LINE_CASES = [case for case in list(sweep_cases()) + list(exceptional_cases())
              if case[0].split("-")[0] in ("split_D4", "quasi_D4", "G2", "F4", "E6")]


@cache
def line_table(case_id):
    _, system, levi, line = next(c for c in LINE_CASES if c[0] == case_id)
    return constant_term(system, levi, line).table


def merged(draw, table):
    """A few counts that add two terms, where atoms meeting at the point may cancel."""
    out = []
    for _ in range(3):
        a, b = (draw(st.sampled_from(table.terms))[1] for _ in range(2))
        sign = draw(st.sampled_from((1, -1)))
        acc = dict(a)
        for i, c in b:
            acc[i] = acc.get(i, 0) + sign * c
        out.append(tuple(sorted((i, c) for i, c in acc.items() if c)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([case[0] for case in LINE_CASES]), st.sampled_from(POOL),
       st.booleans(), st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
       st.data())
def test_leading_matches_build_on_line_tables(case_id, point, assume, scalar, data):
    table = line_table(case_id)
    counts = [c for _, c in table.terms] + merged(data.draw, table)
    assert not mismatches(table, point, assume, counts, scalar)


LABELS = ("F", "K")
ARG_SLOPES = (-2, -1, 1, 2)
ARG_CONSTS = (Q(-1), Q(-1, 2), Q(0), Q(1, 3), Q(1, 2), Q(2, 3), Q(1), Q(3, 2))
# points where arguments a*s + b of the pools above meet, become polar or lie in (0, 1)
MEETING_POINTS = (Q(0), Q(1, 3), Q(1, 2), Q(-1, 2), Q(1), Q(1, 6), Q(2, 3), Q(-1, 4))


@st.composite
def hand_built_j(draw):
    atoms = [ZetaAtom(draw(st.sampled_from(LABELS)),
                      af(draw(st.sampled_from(ARG_SLOPES)), draw(st.sampled_from(ARG_CONSTS))),
                      draw(st.sampled_from((-2, -1, 1, 2))))
             for _ in range(draw(st.integers(0, 5)))]
    residues = [(draw(st.sampled_from(LABELS)), draw(st.sampled_from((-1, 1, 2))))
                for _ in range(draw(st.integers(0, 2)))]
    forms = [af(draw(st.sampled_from(ARG_SLOPES)), draw(st.sampled_from(ARG_CONSTS)))
             for _ in range(draw(st.integers(0, 2)))]
    scalar = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
    return ZetaExpr.build(scalar, num=forms[:1], den=forms[1:], atoms=atoms, residues=residues)


def by_hand(js):
    lam = TorusCharacter.of(af(1))
    return _AtomTable.of_terms(GKTerm(WeylWord(), j, lam) for j in js)


@settings(max_examples=150, deadline=None)
@given(st.lists(hand_built_j(), min_size=1, max_size=6), st.sampled_from(MEETING_POINTS),
       st.booleans(), st.data())
def test_leading_matches_build_on_hand_built_tables(js, point, assume, data):
    table = by_hand(js)
    counts = [c for _, c in table.terms] + merged(data.draw, table)
    for scalar, c in table.terms:
        assert not mismatches(table, point, assume, [c], scalar)
    assert not mismatches(table, point, assume, counts)


@pytest.mark.parametrize("js,point,expected", [
    # xi(2s) and xi(s) meet at xi(2/3) = xi(1/3) and cancel to exponent 0
    ([ZetaExpr.atom("F", af(2)) / ZetaExpr.atom("F", af(1))], Q(1, 3), ZetaExpr(Q(1))),
    # xi(s+1) and xi(2s) meet at xi(2)
    ([ZetaExpr.atom("F", af(1, 1)) * ZetaExpr.atom("F", af(2))], Q(1),
     ZetaExpr(Q(1), atoms=(ZetaAtom("F", AffineForm.of(2), 2),))),
    # xi(s+1) and xi(-s) are one atom, polar at s = 0: a residue symbol with the id R_F
    ([ZetaExpr.atom("F", af(1, 1)) * ZetaExpr.atom("F", af(-1)) * ZetaExpr.residue_symbol("F")],
     Q(0), ZetaExpr(Q(1), residues=(("F", 3),))),
    # the polar atom's residue cancels against R_F^-1, the K atom stays
    ([ZetaExpr.atom("F", af(1)) * ZetaExpr.atom("K", af(1, 2)) / ZetaExpr.residue_symbol("F")],
     Q(0), ZetaExpr(Q(1), atoms=(ZetaAtom("K", AffineForm.of(2)),))),
])
def test_leading_where_ids_meet_or_cancel(js, point, expected):
    table = by_hand(js)
    [(_, counts)] = table.terms
    assert not mismatches(table, point, True, [counts])
    assert expansion_at(table, point, True).leading(Q(1), counts) == expected


# -- root-basis coordinates ----------------------------------------------------

SYSTEMS = {name: (lambda name=name: build_system(name))
           for name in ("split_D4", "quasi_D4", "tri_D4", "G2", "A1")}
SYSTEMS.update({"F4": lambda: build_system("custom", cartan=F4_CARTAN),
                "E6": lambda: e_type(6), "E7": lambda: e_type(7), "E8": lambda: e_type(8)})


@cache
def system_of(name):
    return SYSTEMS[name]()


@st.composite
def system_and_values(draw):
    system = system_of(draw(st.sampled_from(sorted(SYSTEMS))))
    value = st.one_of(st.integers(-40, 40),
                      st.fractions(min_value=-40, max_value=40, max_denominator=60))
    return system, tuple(draw(value) for _ in range(system.rank))


@settings(max_examples=400, deadline=None)
@given(system_and_values())
def test_root_basis_coords_matches_the_fraction_solve(case):
    system, values = case
    coords = root_basis_coords(system, values)
    assert coords == ref_root_basis_coords(system, values)
    assert all(type(x) is Q for x in coords)
    # and the coordinates give the values back: values_i = sum_j x_j <alpha_j, alpha_i^vee>
    assert all(sum(system.pairing[j][i] * x for j, x in enumerate(coords)) == v
               for i, v in enumerate(values))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_root_basis_coords_of_the_simple_roots(name):
    """nchar(alpha_j) has coordinate 1 at j and 0 elsewhere."""
    system = system_of(name)
    for j in range(system.rank):
        coords = root_basis_coords(system, system.pairing[j])
        assert coords == tuple(Q(int(k == j)) for k in range(system.rank))
