import random
from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.characters import (TorusCharacter, iota_check, line_chi_P,
                               line_chi_Q, line_kappa, line_mu_P, line_mu_Q,
                               modular_character, parabolic_levi,
                               root_basis_coords, weyl_act)
from degeis.eisenstein import (constant_term, gk_factor, intertwiner_residue,
                               sharp_normalizer)
from degeis.errors import ConfigError, UnknownRootError, UnsupportedGroupError
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system

from conftest import F4_CARTAN, af


def test_modular_characters_closed_forms(quasi, split, tri):
    assert modular_character(quasi, ()).coords == TorusCharacter.of(2, 2, 2).coords
    assert modular_character(split, ()).coords == TorusCharacter.of(2, 2, 2, 2).coords
    assert modular_character(tri, ()).coords == TorusCharacter.of(2, 2).coords
    # delta_Q(g1, g2) = |g1|^6, delta_P(g1, g2) = |det g1|^5
    assert modular_character(quasi, (2, 3)).coords == TorusCharacter.of(6, 0, 0).coords
    assert modular_character(quasi, (1, 3)).coords == TorusCharacter.of(0, 5, 0).coords
    assert modular_character(split, (2, 3, 4)).coords == TorusCharacter.of(6, 0, 0, 0).coords
    assert modular_character(split, (1, 3, 4)).coords == TorusCharacter.of(0, 5, 0, 0).coords
    assert modular_character(tri, (1,)).coords == TorusCharacter.of(0, 5).coords


def test_levi_internal_modular_character(quasi):
    # delta^L_{L cap R}: weighted root sum 4 alpha_2 + 4 alpha_3 in the Levi of Q
    got = modular_character(quasi, (3,), ambient=(2, 3))
    assert got.coords == TorusCharacter.of(-4, 4, 0).coords


def test_delta_b_pairs_to_two_with_every_simple_coroot(quasi, split, tri, g2):
    for system in (quasi, split, tri, g2):
        delta_b = modular_character(system, ())
        for i in range(1, system.rank + 1):
            val = delta_b.pair(system.coroot(system.simple_root(i)))
            assert val == AffineForm.const_form(2)


def test_standard_lines(quasi, split, tri):
    assert str(line_chi_Q(quasi)) == "(6s+2,-1,-1)"
    assert str(line_chi_P(quasi)) == "(-1,5s+3/2,-1)"
    assert str(line_mu_P(quasi)) == "(1,5s-3/2,1)"
    assert str(line_mu_Q(quasi)) == "(6s-2,1,1)"
    assert str(line_kappa(quasi)) == "(-6s+2,6s-1,1)"
    assert str(line_chi_Q(split)) == "(6s+2,-1,-1,-1)"
    assert str(line_chi_P(split)) == "(-1,5s+3/2,-1,-1)"
    assert str(line_chi_P(tri)) == "(-1,5s+3/2)"
    with pytest.raises(UnsupportedGroupError):
        line_chi_Q(tri)


def test_chi_q_at_zero_from_modular_characters(quasi):
    # chi_0^Q = delta_Q^{1/2} delta_B^{-1/2}, computed independently
    chi0 = line_chi_Q(quasi).evaluate({"s": 0})
    dq = modular_character(quasi, (2, 3)).coords
    db = modular_character(quasi, ()).coords
    indep = tuple(Q(1, 2) * d.const - Q(1, 2) * b.const for d, b in zip(dq, db))
    assert chi0 == indep


def test_mu_p_special_point_relations(quasi):
    # mu^P at 3/10 equals (1,0,1) and equals w_1 . (mu^Q at 1/6)
    mu_p = line_mu_P(quasi)
    assert mu_p.evaluate({"s": Q(3, 10)}) == (1, 0, 1)
    mu_q_val = TorusCharacter.constant(line_mu_Q(quasi).evaluate({"s": Q(1, 6)}))
    moved = weyl_act(quasi, WeylWord.of(1), mu_q_val)
    assert moved.evaluate({}) == (1, 0, 1)
    # kappa_s = w_1 . mu_s^Q as lines
    assert line_kappa(quasi).coords == weyl_act(quasi, WeylWord.of(1), line_mu_Q(quasi)).coords


def test_weyl_act_identity_and_examples(quasi):
    chi = line_chi_Q(quasi)
    assert weyl_act(quasi, WeylWord(), chi).coords == chi.coords
    # (w[1])^{-1} chi_s^Q = (-6s-2, 6s+1, -1), so at 1/6 the middle
    # exponent is 6(1/6)+1 = 2, exactly as in the split form
    moved = weyl_act(quasi, WeylWord.of(1), chi)
    assert str(moved) == "(-6s-2,6s+1,-1)"
    assert moved.evaluate({"s": Q(1, 6)}) == (-3, 2, -1)
    last = weyl_act(quasi, quasi.parse_word("12321").inverse(), chi)
    assert last.evaluate({"s": Q(1, 6)}) == (1, -1, -1)


def test_weyl_act_respects_reduction(quasi):
    rng = random.Random(3)
    lam = TorusCharacter.of(af(2, 1), af(-1, Q(1, 3)), af(5, 0))
    for _ in range(25):
        word = WeylWord(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 8))))
        red = quasi.reduce(word)
        assert weyl_act(quasi, word, lam).coords == weyl_act(quasi, red, lam).coords


def reference_weyl_act(system, word, char):
    """weyl_act as the subtraction of a scaled form: c - s_i * r per coordinate."""
    coords = list(char.coords)
    for i in reversed(word.letters):
        s_i = coords[i - 1]
        coords = [c - s_i * r if r else c for c, r in zip(coords, system.pairing[i - 1])]
    return tuple(coords)


@cache
def _system(name):
    return build_system("custom", cartan=F4_CARTAN) if name == "F4" else build_system(name)


_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _actions(draw):
    """A system (folded ones included), a character in s and t and a word, any length."""
    system = _system(draw(st.sampled_from(["split_D4", "quasi_D4", "tri_D4", "G2", "A1", "F4"])))
    char = TorusCharacter(tuple(AffineForm.of(draw(_coeffs), s=draw(_coeffs), t=draw(_coeffs))
                                for _ in range(system.rank)))
    word = WeylWord(tuple(draw(st.lists(st.integers(1, system.rank), max_size=12))))
    return system, char, word


@settings(max_examples=200, deadline=None)
@given(_actions())
def test_weyl_act_matches_the_subtraction_of_scaled_forms(case):
    """One ``_plus`` per coordinate gives the same normalised forms as c - s_i * r."""
    system, char, word = case
    assert weyl_act(system, word, char).coords == reference_weyl_act(system, word, char)


def test_pairing_invariance_under_weyl(quasi, split, g2):
    # <w lambda, w alpha^vee> = <lambda, alpha^vee>
    rng = random.Random(11)
    for system in (quasi, split, g2):
        lam = TorusCharacter(tuple(af(rng.randrange(-5, 6), Q(rng.randrange(-6, 7), 2))
                                   for _ in range(system.rank)))
        for _ in range(40):
            word = WeylWord(tuple(rng.randrange(1, system.rank + 1)
                                  for _ in range(rng.randrange(0, 7))))
            root = rng.choice(system.positive_roots)
            image = system.word_on_root(word, root)
            lhs = weyl_act(system, word, lam).pair(system.coroot(image))
            rhs = lam.pair(system.coroot(root))
            assert lhs == rhs


def test_iota_identity_and_special_point(quasi, split):
    for system in (quasi, split):
        report = iota_check(system)
        assert report.identity_holds
        assert report.special_point_equal
        assert report.w1_relation_holds
    rep = iota_check(quasi)
    assert str(rep.iota_pq) == "(2s1,-s1+5s2,0)"
    # iota_{P,Q}(-1/2, 3/10) = iota_{Q,P}(1/2, 1/6) = (-1, 2, 0)
    assert rep.iota_pq.evaluate({"s1": -Q(1, 2), "s2": Q(3, 10)}) == (-1, 2, 0)
    assert rep.iota_qp.evaluate({"s1": Q(1, 2), "s2": Q(1, 6)}) == (-1, 2, 0)


def test_root_basis_conversion(quasi, split):
    # exponent of w=e on the quasi table is not strictly negative
    assert root_basis_coords(quasi, (3, -1, -1)) == (1, -1, -1)
    # the surviving split exponents at the residue all are
    assert root_basis_coords(split, (-1, -1, -1, 1)) == (-2, -3, -2, -1)
    assert root_basis_coords(split, (1, -1, -1, -1)) == (-1, -3, -2, -2)


def test_parabolic_levi_names(quasi, split, tri):
    assert parabolic_levi(quasi, "P") == (1, 3)
    assert parabolic_levi(quasi, "Q") == (2, 3)
    assert parabolic_levi(split, "P") == (1, 3, 4)
    assert parabolic_levi(split, "Q") == (2, 3, 4)
    assert parabolic_levi(tri, "P") == (1,)
    assert parabolic_levi(quasi, "borel") == ()
    with pytest.raises(UnsupportedGroupError):
        parabolic_levi(tri, "Q")


def test_render_with_field_subscripts(quasi):
    text = line_chi_Q(quasi).render(quasi)
    assert "|t3|_K" in text and "|t1|_F" in text


# each call takes a character (s, ..., s) of the given length on split_D4 (rank 4)
_BY_CHARACTER = {
    "gk_factor": lambda system, line: gk_factor(system, WeylWord.of(2), line),
    "weyl_act": lambda system, line: weyl_act(system, WeylWord.of(2), line),
    "intertwiner_residue": lambda system, line: intertwiner_residue(
        system, WeylWord.of(2), line, Q(1, 2)),
    "sharp_normalizer": sharp_normalizer,
    "constant_term": lambda system, line: constant_term(system, (), line),
    "root_basis_coords": lambda system, line: root_basis_coords(system, [1] * len(line.coords)),
}


@pytest.mark.parametrize("count", [3, 5])
@pytest.mark.parametrize("call", sorted(_BY_CHARACTER))
def test_a_character_of_the_wrong_length_is_refused(split, call, count):
    line = TorusCharacter.of(*[af(1)] * count)
    with pytest.raises(ConfigError, match=f"rank 4: a character needs 4 coordinates, got {count}"):
        _BY_CHARACTER[call](split, line)


@pytest.mark.parametrize("levi, ambient", [((0,), None), ((5,), None), ((), (1, 9)),
                                           ((), (0, 1)), ((), (7,))])
def test_modular_character_refuses_an_unknown_index(split, levi, ambient):
    with pytest.raises(UnknownRootError, match="out of range 1..4"):
        modular_character(split, levi, ambient=ambient)


@pytest.mark.parametrize("combine, lengths", [
    (lambda: TorusCharacter.of(1, 2) + TorusCharacter.of(1, 2, 3), (2, 3)),
    (lambda: TorusCharacter.of(1, 2, 3) - TorusCharacter.of(1, 2), (3, 2)),
    (lambda: TorusCharacter.of(1, 2, 3).pair([1]), (3, 1)),
    (lambda: TorusCharacter.of(1).pair([1, 0]), (1, 2))],
    ids=["add", "sub", "pair-short", "pair-long"])
def test_characters_of_different_lengths_do_not_combine(combine, lengths):
    with pytest.raises(ConfigError, match="a character with {} coordinates cannot combine "
                                          "with {} coordinates".format(*lengths)):
        combine()


def test_characters_of_one_length_combine_coordinatewise():
    a, b = TorusCharacter.of(1, af(1)), TorusCharacter.of(3, 4)
    assert (a + b).coords == TorusCharacter.of(4, af(1, 4)).coords
    assert (a - b).coords == TorusCharacter.of(-2, af(1, -4)).coords
    assert a.pair([2, 1]) == af(1, 2)
