"""The GK terms of ``constant_term``, each its parent's plus one step of the walk.

J(w) is carried as id counts, +1 on the plain and -1 on the shifted atom of
the one root each step adds to N(u), and w^{-1} lambda as integer rows with
one ``AffineForm`` per distinct coordinate.  These tests hold every term
against J built from the inversion set (``gk_reference``) and against
``weyl_act`` of the inverse word, and gate the walk's work on D4 Borel.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from degeis import eisenstein
from degeis.characters import TorusCharacter, chi_line_for, weyl_act
from degeis.eisenstein import constant_term, coset_reps
from degeis.forms import AffineForm
from degeis.rootdata import RootSystem, build_system

from conftest import e_type, gk_reference, maximal_parabolic


def _d4():
    return build_system("split_D4")


def _cases():
    """(id, system, levi, line): E7 without node 7, D4 Borel on two parameters
    and on a constant line, and D4 P on a constant line."""
    yield ("E7-7", *maximal_parabolic(e_type(7), 7))
    s, t = AffineForm.var("s"), AffineForm.var("t")
    yield "D4-borel-s-t", _d4(), (), TorusCharacter((s, t * Q(1, 2), s - t + Q(1, 3), -s + 2))
    yield "D4-borel-constant", _d4(), (), TorusCharacter.of(1, Q(1, 2), -1, Q(5, 3))
    yield "D4-P-constant", _d4(), (1, 3, 4), TorusCharacter.of(-1, 3, -1, -1)


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: case[0])
def test_terms_match_the_inversion_sets_and_weyl_act(case):
    _, system, levi, line = case
    ct = constant_term(system, levi, line)
    words = coset_reps(system, levi)
    assert [t.word for t in ct.terms] == words
    assert ct.terms[0].exponent == line
    for term in ct.terms:
        j = gk_reference(system, line, term.word)
        exponent = weyl_act(system, term.word.inverse(), line)
        assert (term.j_factor, str(term.j_factor)) == (j, str(j)), term.word
        assert (term.exponent, str(term.exponent)) == (exponent, str(exponent)), term.word
    # twice the longest length bounds every term's total |count|
    table = ct.table
    assert table.bound == 2 * len(words[-1])
    assert max(sum(abs(c) for _, c in counts) for _, counts in table.terms) <= table.bound


def test_d4_borel_walk_counters(monkeypatch):
    """768 exponent coordinates in 10 forms; weyl_act and the inversion set for the
    term of length 1 only."""
    calls = {"weyl_act": 0, "inversions": 0}
    act, inversions = eisenstein.weyl_act, RootSystem._inversions

    def counted_act(*args):
        calls["weyl_act"] += 1
        return act(*args)

    def counted_inversions(*args):
        calls["inversions"] += 1
        return inversions(*args)

    monkeypatch.setattr(eisenstein, "weyl_act", counted_act)
    monkeypatch.setattr(RootSystem, "_inversions", counted_inversions)
    system = _d4()
    ct = constant_term(system, (), chi_line_for(system, "borel"))
    coords = [f for t in ct.terms for f in t.exponent.coords]
    assert (len(coords), len({id(f) for f in coords}), len(set(coords))) == (768, 10, 10)
    assert calls == {"weyl_act": 1, "inversions": 1}


def test_a_wrong_first_step_is_refused(monkeypatch):
    """Negative control: weyl_act disagreeing with the walk's first step raises."""
    act = eisenstein.weyl_act
    monkeypatch.setattr(eisenstein, "weyl_act", lambda system, word, line: TorusCharacter(
        tuple([c * 2 for c in act(system, word, line).coords])))
    system = _d4()
    with pytest.raises(RuntimeError, match=r"w\[1\]"):
        constant_term(system, (), chi_line_for(system, "borel"))
