"""The position-backed root layer against plain coordinate arithmetic.

Inside ``RootSystem`` a root is its signed-root position: ``_signed[k]`` is
the root at position k, ``_gens[i - 1]`` is s_i as a permutation of the
positions, the per-root data are tuples indexed by positive-root position,
and inversion sets are sorted position tuples.  These tests hold that layer
against ``tests/reference_root.py`` on the five presets and on custom F4, E6
and E8, with random words that need not be reduced; a vector that is not a
root of the system is refused.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_root as ref
from conftest import F4_CARTAN, e_type
from degeis.characters import chi_line_for
from degeis.eisenstein import constant_term, pole_report
from degeis.errors import UnknownRootError
from degeis.rootdata import Root, WeylWord, build_system

PRESETS = ("split_D4", "quasi_D4", "tri_D4", "G2", "A1")
SYSTEMS = {name: build_system(name) for name in PRESETS}
SYSTEMS["F4"] = build_system("custom", cartan=F4_CARTAN)
SYSTEMS["E6"] = e_type(6)
SYSTEMS["E8"] = e_type(8)
NAMES = sorted(SYSTEMS)


def words(rank: int, min_size: int = 0):
    return st.lists(st.integers(1, rank), min_size=min_size, max_size=60).map(tuple)


@st.composite
def system_and_word(draw, min_size=0):
    name = draw(st.sampled_from(NAMES))
    system = SYSTEMS[name]
    return system, draw(words(system.rank, min_size))


@pytest.mark.parametrize("name", NAMES)
def test_signed_positions_list_the_roots(name):
    system = SYSTEMS[name]
    positive = ref.positive_roots(system.cartan)
    assert [r.coords for r in system._signed] == \
        positive + [tuple(-x for x in c) for c in positive]
    assert system.positive_roots == system._signed[:len(positive)]
    assert all(system._index[r] == k for k, r in enumerate(system._signed))
    for i in range(1, system.rank + 1):
        assert system.simple_root(i) is system._signed[system._simple_pos[i - 1]]
        assert system.simple_root(i).coords == tuple(int(j == i - 1) for j in range(system.rank))


@pytest.mark.parametrize("name", NAMES)
def test_gens_are_the_coordinate_reflections(name):
    system = SYSTEMS[name]
    for i, gen in enumerate(system._gens, start=1):
        assert sorted(gen) == list(range(len(system._signed)))
        assert system._times[i - 1](tuple(range(len(gen)))) == gen
        for k, root in enumerate(system._signed):
            assert system._signed[gen[k]].coords == ref.reflect(system.cartan, i, root.coords)
            assert system.reflect_root(i, root) is system._signed[gen[k]]


@pytest.mark.parametrize("name", NAMES)
def test_provenance_and_reflection_words_match_a_reference_bfs(name):
    system = SYSTEMS[name]
    expected = ref.provenance(system.cartan)
    roots = system.positive_roots
    assert len(system._provenance) == len(roots)
    got = {r.coords: None if p is None else (p[0], roots[p[1]].coords)
           for r, p in zip(roots, system._provenance)}
    assert got == expected
    for k, root in enumerate(roots):
        # the reflection in a root is s_i u s_i, u the parent's reflection, alpha = s_i(parent)
        outer = []
        while system._provenance[k] is not None:
            letter, k = system._provenance[k]
            outer.append(letter)
        letters = (*outer, system._simple_pos.index(k) + 1, *reversed(outer))
        assert system.word_on_root(WeylWord(letters), root) == -root


@settings(max_examples=150, deadline=None)
@given(system_and_word(), st.data())
def test_word_on_root_matches_the_reference(case, data):
    system, letters = case
    root = data.draw(st.sampled_from(system._signed))
    image = system.word_on_root(WeylWord(letters), root)
    assert image.coords == ref.word_on_root(system.cartan, letters, root.coords)
    assert image is system._signed[system._index[image]]     # the interned root


@settings(max_examples=150, deadline=None)
@given(system_and_word(min_size=40))
def test_long_words_on_every_root(case):
    system, letters = case
    for root in system._signed:
        assert system.word_on_root(WeylWord(letters), root).coords == \
            ref.word_on_root(system.cartan, letters, root.coords)


@settings(max_examples=150, deadline=None)
@given(system_and_word(), st.booleans())
def test_inversion_sets_match_the_reference(case, fresh):
    system, letters = case
    if fresh:   # an empty prefix cache as well as the shared one
        system = build_system("custom", cartan=system.cartan) if system.name == "custom" \
            else build_system(system.name)
    expected = ref.inversion_set(system.cartan, letters)
    assert [r.coords for r in system.inversion_set(WeylWord(letters))] == expected
    for k in range(len(letters) + 1):           # every prefix, now from the cache
        assert [r.coords for r in system.inversion_set(WeylWord(letters[:k]))] == \
            ref.inversion_set(system.cartan, letters[:k])


@st.composite
def off_system_vectors(draw):
    """A nonzero vector with coordinates of one sign that is not a root of the system."""
    system = SYSTEMS[draw(st.sampled_from(NAMES))]
    coords = tuple(draw(st.lists(st.integers(0, 7), min_size=system.rank,
                                 max_size=system.rank)))
    roots = {r.coords for r in system._signed}
    if not any(coords) or coords in roots:
        coords = tuple(3 * x + 3 for x in coords)
    if draw(st.booleans()):
        coords = tuple(-x for x in coords)
    return system, coords


@settings(max_examples=200, deadline=None)
@given(off_system_vectors(), st.data())
def test_vectors_off_the_system_are_unknown_roots(case, data):
    system, coords = case
    assert coords not in {r.coords for r in system._signed}
    root = Root(coords)
    i = data.draw(st.integers(1, system.rank))
    letters = data.draw(words(system.rank))
    with pytest.raises(UnknownRootError):
        system.reflect_root(i, root)
    with pytest.raises(UnknownRootError):
        system.word_on_root(WeylWord(letters), root)
    for query in (system.label_of, system.coroot, system.norm_char):
        with pytest.raises(UnknownRootError):
            query(root)


@pytest.mark.parametrize("name", NAMES)
def test_a_bad_letter_is_an_unknown_root(name):
    system = SYSTEMS[name]
    root = system.positive_roots[-1]
    off = Root(tuple(5 for _ in range(system.rank)))
    for bad in (0, -1, system.rank + 1):
        with pytest.raises(UnknownRootError):
            system.reflect_root(bad, root)
        for word in ((bad,), (1, bad), (bad, 1), (1, bad, 1)):
            with pytest.raises(UnknownRootError):
                system.word_on_root(WeylWord(word), root)
            with pytest.raises(UnknownRootError):
                system.word_on_root(WeylWord(word), off)
            with pytest.raises(UnknownRootError):
                system.inversion_set(WeylWord(word))
            with pytest.raises(UnknownRootError):
                system.perm_of_word(WeylWord(word))


def test_no_root_is_constructed_for_a_constant_term_and_its_poles(monkeypatch):
    """D4 Borel at 1/2: the coset walk, the GK counts and the pole report run on positions."""
    system = build_system("split_D4")
    line = chi_line_for(system, "borel")
    made = []
    init = Root.__init__

    def counted(self, coords):
        made.append(coords)
        init(self, coords)

    monkeypatch.setattr(Root, "__init__", counted)
    negative = -system.positive_roots[0]        # the counter sees a construction
    assert made == [negative.coords]
    made.clear()
    ct = constant_term(system, (), line)
    report = pole_report(ct, Q(1, 2))
    assert len(ct.terms) == 192 and report.order >= 0
    assert made == []
