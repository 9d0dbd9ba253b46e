"""The coset table as the Borel constant term restricted to the line.

On a chi line (every Levi simple coroot pairs to -1) each J(w) of a w outside
the minimal representatives of W_L \\ W holds an uncancelled xi(-1)/xi(0),
written xi(1)^-1 after the functional equation, so it vanishes identically
and the Borel sum over all of W restricts to the coset table.  On a mu line
(pairings +1) those J(w) are polar instead.  These tests walk all of W with
``gk_factor`` and enumerate no cosets: the words whose J has no xi_L(1)
atom must be exactly the table's words, with the table's J and exponent,
and every other J carries xi(1) to a net power of the line's sign.
"""

from collections import Counter
from fractions import Fraction as Q

import pytest

from conftest import F4_CARTAN
from degeis.characters import (TorusCharacter, _delta_line, chi_line_for, parabolic_levi,
                               standard_line, weyl_act)
from degeis.eisenstein import constant_term, gk_factor
from degeis.forms import AffineForm, parse_affine
from degeis.rootdata import build_system

ONE = AffineForm.of(1)


def _xi1_power(expr):
    """The net power of the atoms xi_L(1), every label together, and whether there are any."""
    powers = [atom.exp for atom in expr.atoms if atom.arg == ONE]
    return sum(powers), bool(powers)


def _cases():
    for preset, parabolic in (("split_D4", "P"), ("split_D4", "Q"), ("quasi_D4", "P"),
                              ("quasi_D4", "Q"), ("tri_D4", "P")):
        system = build_system(preset)
        levi = parabolic_levi(system, parabolic)
        yield f"{preset}-{parabolic}-chi", system, levi, chi_line_for(system, parabolic), -1
        yield f"{preset}-{parabolic}-mu", system, levi, standard_line(system, "mu" + parabolic), 1
    for node in (1, 2, 3, 4):
        system = build_system("custom", cartan=F4_CARTAN)
        levi = tuple(j for j in range(1, 5) if j != node)
        for kind, a, sign in (("chi", Q(1, 2), -1), ("mu", Q(-1, 2), 1)):
            yield f"F4-{node}-{kind}", system, levi, _delta_line(system, levi, a), sign


CASES = {case[0]: case[1:] for case in _cases()}


def _borel_walk(system, line):
    """(word, J, net xi(1) power, has a xi(1) atom) for every w in W."""
    for _, word in system.weyl_elements():
        j = gk_factor(system, word, line)
        yield (word, j, *_xi1_power(j))


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_coset_table_is_the_borel_sum_restricted_to_the_line(case):
    system, levi, line, sign = CASES[case]
    for i in levi:
        assert line.coords[i - 1] == AffineForm.of(sign)
    table = {t.word: t for t in constant_term(system, levi, line).terms}
    kept, outside = set(), 0
    for word, j, power, polar in _borel_walk(system, line):
        if not polar:
            kept.add(word)
            assert word in table, word
            assert j == table[word].j_factor, word
            assert weyl_act(system, word.inverse(), line) == table[word].exponent, word
        else:
            assert sign * power >= 1, (word, power)
            outside += 1
    assert kept == set(table)
    assert len(kept) + outside == system.weyl_order()


def test_d4_p_chi_powers():
    system, levi, line, _ = CASES["split_D4-P-chi"]
    powers = Counter(power for _, _, power, _ in _borel_walk(system, line))
    assert powers == {0: 24, -1: 72, -2: 72, -3: 24}


def test_a_line_off_the_parabolic_leaves_the_outside_terms_nonzero():
    # 2s, 3 and 0 at the Levi simple coroots of P: no degenerate series of P
    # has this line, and the terms outside the cosets do not vanish on it
    system = build_system("split_D4")
    levi = parabolic_levi(system, "P")
    line = TorusCharacter(tuple(parse_affine(p) for p in "2s,s,3,0".split(",")))
    table = {t.word for t in constant_term(system, levi, line).terms}
    powers = Counter(power for word, _, power, _ in _borel_walk(system, line)
                     if word not in table)
    assert powers == {0: 168}
