"""The pole analysis of constant terms read off one atom table per line.

``constant_term`` interns the two atoms of every positive root once, and each
J(w) is a list of (id, count) pairs over them.  ``pole_report`` and
``render_table_rows`` expand each id once per point and sum over the counts.
``ConstantTerm.terms`` is built from that same table on first read, so the
references here are built per coset word with no table
(``conftest.reference_terms``: ``gk_reference`` and ``weyl_act``).  These
tests hold the table path against ``laurent_at`` of each reference J and
against a from-scratch ``ZetaExpr.build``, and gate its build counts.  The
coset walk numbers each distinct exponent coordinate once, and the
exponents at the point are read through those numbers as integers over one
denominator; they are held against ``TorusCharacter.evaluate`` of each
reference term, and the reports against the reference terms built by hand.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis import eisenstein, zetas
from degeis.characters import TorusCharacter, _delta_line, chi_line_for, weyl_act
from degeis.eisenstein import (ConstantTerm, GKTerm, _AtomTable, _exponents_at, _pairings,
                               constant_term, pole_report, render_table_rows)
from degeis.errors import DegeisError
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import (_EPS, ZetaAtom, ZetaExpr, _Expansion, _Multisets, canonical_arg,
                          laurent_at)

from conftest import (af, exceptional_cases, gk_reference, reference_terms, sharp_f_w,
                      sharp_l_poly, sweep_cases, xi)

# the benchmark's point pool: distinct p/q with |p/q| <= 2 and small denominators
POOL = sorted({Q(p, q) for q in (1, 2, 3, 4, 5, 6, 10, 12) for p in range(-2 * q, 2 * q + 1)})
SPECIAL = [Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(3, 10), Q(1, 6)]
SWEEP_POINTS = sorted(set(POOL[::7]) | set(SPECIAL))


def _outcome(call):
    """The result of call(), or ("raises", class, message, info) for a DegeisError."""
    try:
        return call()
    except DegeisError as exc:
        return "raises", type(exc), str(exc), exc.info


def _raised(outcome):
    return isinstance(outcome, tuple) and outcome[0] == "raises"


def compare(ct, reference, point, assume):
    """The terms whose order or leading coefficient from ct's table differ from
    laurent_at of the J of the reference term of the same word, and what laurent_at
    raises at the first term that raises."""
    table = ct.table
    assert table.words == [t.word for t in reference]
    expansion = _Expansion(table.keys, _Multisets(table.bound), _EPS, {"s": point}, assume)

    def from_table(scalar, counts):
        order, leading, _ = expansion.term(scalar, counts)
        return order, expansion.leading(leading, counts)

    def from_laurent_at(j):
        ld = laurent_at(j, {"s": point}, assume_no_real_zeros=assume)
        return ld.order, ld.leading

    bad, first_error = [], None
    for term, (scalar, counts) in zip(reference, table.terms):
        got = _outcome(lambda: from_table(scalar, counts))
        want = _outcome(lambda: from_laurent_at(term.j_factor))
        if got != want:
            bad.append((str(term.word), got, want))
        if first_error is None and want[0] == "raises":
            first_error = want
    return bad, first_error


def j_mismatches(ct):
    return [str(t.word) for t in ct.terms
            if t.j_factor != gk_reference(ct.system, ct.line, t.word)]


def _check(ct, points):
    assert not j_mismatches(ct)
    reference = reference_terms(ct.system, ct.levi, ct.line)
    for point in points:
        for assume in (False, True):
            bad, first_error = compare(ct, reference, point, assume)
            assert not bad, (point, assume)
            if first_error is not None:
                # both reports raise it, before any later term is looked at
                for report in (render_table_rows, pole_report):
                    assert _outcome(lambda: report(
                        ct, point, assume_no_real_zeros=assume)) == first_error


@pytest.mark.parametrize("case", list(sweep_cases()), ids=lambda case: case[0])
def test_sweep_lines_match_laurent_at(case):
    _, system, levi, line = case
    _check(constant_term(system, levi, line), SWEEP_POINTS)


@pytest.mark.parametrize("case", list(exceptional_cases()), ids=lambda case: case[0])
def test_exceptional_lines_match_laurent_at(case):
    _, system, levi, line = case
    _check(constant_term(system, levi, line), [Q(1, 2), Q(-1), Q(3, 10)])


@pytest.mark.parametrize("coords", [("s", "0", "0", "0"), ("s", "1", "0", "0"),
                                    ("0", "s", "0", "0")])
def test_constant_pairings_cancel_without_raising(coords):
    """Roots with a constant pairing give xi(c)/xi(c+1); at c = 0 that is xi(1)/xi(1)."""
    system = build_system("split_D4")
    line = TorusCharacter(tuple(AffineForm.var("s") if c == "s" else AffineForm.of(int(c))
                                for c in coords))
    ct = constant_term(system, (), line)
    _check(ct, [Q(0), Q(1), Q(-1), Q(1, 2), Q(3, 10), Q(2)])
    # a term whose only constant pairings are 0 has Laurent data at a generic point
    table = ct.table
    expansion = _Expansion(table.keys, _Multisets(table.bound), _EPS, {"s": Q(2)}, True)
    cancelled = 0
    for term, (scalar, counts) in zip(ct.terms, table.terms):
        pairings = [line.pair(system.coroot(r)) for r in system.inversion_set(term.word)]
        if all(p.params or p.const == 0 for p in pairings):
            expansion.term(scalar, counts)
            cancelled += any(not p.params for p in pairings)
    assert cancelled


def _built_by_hand(quasi, lam):
    """Terms with affine factors, residue symbols and scalars, one per element of W."""
    lpoly = sharp_l_poly(quasi, lam)
    terms = []
    for k, (_, w) in enumerate(quasi.weyl_elements()):
        j = lpoly * sharp_f_w(quasi, lam, w) * Q(2 * k - 7, 2)
        if k % 3 == 0:
            j = j * ZetaExpr.residue_symbol("F", k % 2 + 1) / xi("K", 2, 1)
        terms.append(GKTerm(w, j, weyl_act(quasi, w.inverse(), lam)))
    return ConstantTerm(quasi, (), lam, tuple(terms))


def test_terms_built_by_hand_match_laurent_at(quasi):
    """Affine factors, residue symbols and scalars are interned on entry."""
    ct = _built_by_hand(quasi, TorusCharacter.of(af(1, 0), af(1, 1), af(1, 2)))
    for point in (Q(0), Q(1), Q(-2), Q(1, 2), Q(1, 3), Q(-1, 4)):
        for assume in (False, True):
            bad, first_error = compare(ct, ct.terms, point, assume)
            assert not bad, (point, assume)
            if first_error is not None:
                assert _outcome(lambda: pole_report(
                    ct, point, assume_no_real_zeros=assume)) == first_error


def test_leading_monomials_meet_under_the_functional_equation(a1):
    """xi(2s) and xi(s) lead with xi(2/3) and xi(1/3) = xi(2/3) at s = 1/3: one monomial."""
    lam = TorusCharacter.of(af(1))
    terms = (GKTerm(WeylWord(), xi("F", 2), lam), GKTerm(WeylWord.of(1), xi("F", 1), lam))
    rep = pole_report(ConstantTerm(a1, (), lam, terms), Q(1, 3), assume_no_real_zeros=True)
    [group] = rep.groups
    assert (group.order, group.leading) == (0, xi("F", 0, Q(2, 3)) * 2)


def _d4_borel():
    system = build_system("split_D4")
    return constant_term(system, (), chi_line_for(system, "borel"))


def test_a_swapped_rank_is_detected(monkeypatch):
    """Negative control: two ids that share a term trade places in the atom order."""
    ct = _d4_borel()
    (i, _), (j, _) = next(counts for _, counts in ct.table.terms if len(counts) >= 2)[:2]
    of_line = _AtomTable.of_line

    def swapped(system, line):
        table = of_line(system, line)
        table.keys[i], table.keys[j] = table.keys[j], table.keys[i]
        table.roots = [tuple({i: j, j: i}.get(k, k) for k in ids) for ids in table.roots]
        return table

    monkeypatch.setattr(_AtomTable, "of_line", staticmethod(swapped))
    assert j_mismatches(constant_term(ct.system, (), ct.line))


def test_a_flipped_count_is_detected():
    """Negative control: one count of one term changes sign.  The reference terms are
    built per word with no table, so they keep the intact J."""
    ct = _d4_borel()
    reference = reference_terms(ct.system, ct.levi, ct.line)
    assert not compare(ct, reference, Q(1, 2), True)[0]
    scalar, counts = ct.table.terms[5]
    (i, c), *rest = counts
    ct.table.terms[5] = scalar, ((i, -c), *rest)
    assert compare(ct, reference, Q(1, 2), True)[0]
    assert compare(ct, reference, Q(1, 3), True)[0]
    # the terms, built on first read from the flipped table, carry the flip
    assert j_mismatches(ct) == [str(ct.table.words[5])]


class _Counter:
    def __init__(self, monkeypatch):
        self.builds = self.laurents = 0
        build = ZetaExpr.__dict__["build"].__func__

        def counted_build(*args, **kwargs):
            self.builds += 1
            return build(*args, **kwargs)

        def counted_laurent(*args, **kwargs):
            self.laurents += 1
            return laurent_at(*args, **kwargs)

        monkeypatch.setattr(ZetaExpr, "build", staticmethod(counted_build))
        for module in (zetas, eisenstein):
            monkeypatch.setattr(module, "laurent_at", counted_laurent)


@pytest.mark.parametrize("case,assume", [("D4", False), ("E6-1", True)])
def test_build_count_is_bounded_by_the_groups_and_the_roots(case, assume, monkeypatch):
    """constant_term, render_table_rows and pole_report at 1/2: no laurent_at, and
    one build per group plus at most two per positive root."""
    if case == "D4":
        ct = _d4_borel()
        system, levi, line = ct.system, (), ct.line
    else:
        _, system, levi, line = next(c for c in exceptional_cases() if c[0] == case)
    counter = _Counter(monkeypatch)
    ct = constant_term(system, levi, line)
    render_table_rows(ct, Q(1, 2), assume_no_real_zeros=assume)
    rep = pole_report(ct, Q(1, 2), assume_no_real_zeros=assume)
    assert counter.laurents == 0
    assert counter.builds <= len(rep.groups) + 2 * len(system.positive_roots)


def test_pole_report_builds_nothing(monkeypatch):
    """D4 Borel at 1/2: 192 groups, every leading monomial assembled from ranked ids."""
    ct = _d4_borel()
    counter = _Counter(monkeypatch)
    rep = pole_report(ct, Q(1, 2))
    assert len(rep.groups) == 192
    assert (counter.builds, counter.laurents) == (0, 0)


def test_laurent_at_and_intertwiner_residue_build_nothing(monkeypatch):
    """Each expands its expression as the one term of its own table at the point:
    on D4 Borel, every coset word's residue and each J over the next one's."""
    ct = _d4_borel()
    words = [t.word for t in ct.terms]
    ratios = [a.j_factor / b.j_factor for a, b in zip(ct.terms, ct.terms[1:])]
    counter = _Counter(monkeypatch)
    for point in (Q(1, 2), Q(1)):
        for word in words:
            eisenstein.intertwiner_residue(ct.system, word, ct.line, point,
                                           assume_no_real_zeros=True)
        for ratio in ratios:
            zetas.laurent_at(ratio, {"s": point}, assume_no_real_zeros=True)
    assert counter.laurents == 2 * (len(words) + len(ratios)) == 766
    assert counter.builds == 0


# -- the exponents at the point, carried along the walk ----------------------------

def chi_cases():
    """The 15 preset lines, then F4 without each node and E6 without node 1 on the chi line."""
    yield from sweep_cases()
    for case_id, system, levi, _ in exceptional_cases():
        yield case_id, system, levi, _delta_line(system, levi, Q(1, 2))


CARRY_POINTS = POOL[::5]


def term_exponents(table, assignment):
    """(den, numerators): term t's exponent at the point is numerators[t] / den."""
    den, nums = _exponents_at(table, assignment)
    return den, [tuple(nums[c] for c in exp) for exp in table.exps]


def reference_groups(terms, point):
    """(exponent at the point, words) per distinct exponent, from evaluate and Fractions."""
    grouped = {}
    for term in terms:
        grouped.setdefault(term.exponent.evaluate({"s": point}), []).append(term.word)
    return [(exp, tuple(words)) for exp, words in sorted(grouped.items())]


def _check_reports(ct, hand, point):
    """Both reports of ct agree with those of the reference terms built by hand,
    and pole_report groups as the Fraction tuples of the reference sort."""
    for assume in (False, True):
        rep = _outcome(lambda: pole_report(ct, point, assume_no_real_zeros=assume))
        assert rep == _outcome(lambda: pole_report(hand, point, assume_no_real_zeros=assume))
        if not _raised(rep):
            assert [(g.exponent_at_point, g.words) for g in rep.groups] == \
                reference_groups(hand.terms, point)
        rows = _outcome(lambda: render_table_rows(ct, point, assume_no_real_zeros=assume))
        assert rows == _outcome(
            lambda: render_table_rows(hand, point, assume_no_real_zeros=assume))
        if not _raised(rows):
            assert [r["exponent_at_point"] for r in rows] == [
                "(" + ",".join(str(x) for x in t.exponent.evaluate({"s": point})) + ")"
                for t in hand.terms]


@pytest.mark.parametrize("case", list(chi_cases()), ids=lambda case: case[0])
def test_carried_exponents_match_evaluate(case):
    """Each carried numerator over den is the term's exponent evaluated at the point,
    the int tuples sort as the Fraction tuples do, and the reports do not change."""
    _, system, levi, line = case
    ct = constant_term(system, levi, line)
    hand = ConstantTerm(system, ct.levi, line, reference_terms(system, levi, line))
    for point in CARRY_POINTS:
        assignment = {"s": point}
        den, exps = term_exponents(ct.table, assignment)
        values = [t.exponent.evaluate(assignment) for t in hand.terms]
        assert den > 0
        assert [tuple(Q(x, den) for x in e) for e in exps] == values
        assert [tuple(Q(x, den) for x in e) for e in sorted(set(exps))] == sorted(set(values))
        # the line is term 0 and every reflection is integral: the same denominator
        assert term_exponents(_AtomTable.of_terms(hand.terms), assignment) == (den, exps)
        _check_reports(ct, hand, point)


def test_terms_built_by_hand_group_as_before(quasi):
    """Terms in no walk order, with exponents over 2 and 3, group by the Fraction order."""
    ct = _built_by_hand(quasi, TorusCharacter.of(af(1, 0), af(1, Q(1, 2)), af(Q(1, 3), 2)))
    ct = ConstantTerm(quasi, (), ct.line, ct.terms[::-1])
    for point in (Q(0), Q(1), Q(-2), Q(1, 2), Q(1, 3), Q(-1, 4)):
        den, exps = term_exponents(_AtomTable.of_terms(ct.terms), {"s": point})
        assert [tuple(Q(x, den) for x in e) for e in exps] == [
            t.exponent.evaluate({"s": point}) for t in ct.terms]
        rep = _outcome(lambda: pole_report(ct, point, assume_no_real_zeros=True))
        if not _raised(rep):
            assert [(g.exponent_at_point, g.words) for g in rep.groups] == \
                reference_groups(ct.terms, point)
            assert rep.surviving_exponents == tuple(
                g.exponent_at_point for g in rep.groups if -g.order == rep.order)


def test_hand_built_exponents_go_over_the_lcm_of_their_denominators(a1):
    """Values over 2 and 3 go over 6, and stay two groups in the Fraction order."""
    terms = (GKTerm(WeylWord(), xi("F", 2), TorusCharacter.of(af(1, Q(1, 2)))),
             GKTerm(WeylWord.of(1), xi("F", 1), TorusCharacter.of(af(1, Q(1, 3)))))
    ct = ConstantTerm(a1, (), TorusCharacter.of(af(1)), terms)
    assert term_exponents(_AtomTable.of_terms(ct.terms), {"s": Q(0)}) == (6, [(3,), (2,)])
    rep = pole_report(ct, Q(1, 4), assume_no_real_zeros=True)
    assert [(g.exponent_at_point, g.words) for g in rep.groups] == \
        reference_groups(ct.terms, Q(1, 4))


def test_a_report_evaluates_each_exponent_coordinate_once(monkeypatch):
    """D4 Borel at 1/2: each report makes one subs call per distinct exponent
    coordinate, 10 for the 768 coordinates of its 192 terms, and evaluates no
    character; the same terms built by hand number the same 10 coordinates."""
    ct = _d4_borel()
    hand = ConstantTerm(ct.system, ct.levi, ct.line, ct.terms)
    calls = Counter()
    evaluate, subs = TorusCharacter.evaluate, AffineForm.subs

    def counted_evaluate(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    def counted_subs(self, assignment):
        calls["subs"] += 1
        return subs(self, assignment)

    assert len(ct.table.coords) == 10
    assert len(ct.table.exps) == 192
    monkeypatch.setattr(TorusCharacter, "evaluate", counted_evaluate)
    monkeypatch.setattr(AffineForm, "subs", counted_subs)
    for c in (ct, hand):
        for report in (pole_report, render_table_rows):
            calls.clear()
            report(c, Q(1, 2))
            assert calls == {"subs": 10}, report.__name__


def test_an_unassigned_coordinate_raises_as_evaluate_does():
    """A coordinate left with a parameter refuses, as evaluate does, with its name."""
    terms = (GKTerm(WeylWord(), xi("F", 2), TorusCharacter.of(af(1, 0), AffineForm.var("t"))),)
    table = _AtomTable.of_terms(terms)
    with pytest.raises(ValueError, match="unassigned parameters: t"):
        _exponents_at(table, {"s": Q(1)})


def test_equal_line_coordinates_share_one_id():
    """A line with two equal coordinates numbers them once: term 0's row repeats the id."""
    system = build_system("G2")
    ct = constant_term(system, (), TorusCharacter.of(af(1, 0), af(1, 0)))
    assert ct.table.exps[0] == (0, 0)
    assert ct.table.coords[0] == ct.line.coords[0]
    assert len(set(ct.table.coords)) == len(ct.table.coords)
    for t, exp in zip(ct.terms, ct.table.exps):
        assert t.exponent.coords == tuple(ct.table.coords[c] for c in exp)


# -- one ZetaAtom per (id, count), and the rows' text --------------------------------

def test_d4_borel_makes_one_zeta_atom_per_id_and_count(monkeypatch):
    """1,438 atom occurrences over the 192 terms, 24 distinct (id, count): 24 ZetaAtoms,
    each term holding the table's own objects, and every J still canonical."""
    made = []

    def counted(*args):
        made.append(ZetaAtom(*args))
        return made[-1]

    monkeypatch.setattr(eisenstein, "ZetaAtom", counted)
    ct = _d4_borel()
    pairs = {ic for _, counts in ct.table.terms for ic in counts}
    occurrences = [a for t in ct.terms for a in t.j_factor.atoms]
    assert (len(ct.terms), len(occurrences), len(pairs), len(made)) == (192, 1438, 24, 24)
    assert {id(a) for a in occurrences} == {id(a) for a in made}
    for term in ct.terms:
        assert ZetaExpr.build(atoms=term.j_factor.atoms) == term.j_factor


def test_d4_borel_report_shares_its_leading_atoms_and_exponent_values():
    """D4 Borel at 1/2: the 556 leading-atom occurrences over the 192 groups are 18
    ZetaAtoms, one per (rank, count), and the 768 exponent coordinates 10 Fractions,
    one per distinct value; the surviving exponents are groups' own tuples.  The same
    terms built by hand give an equal report, shared the same way."""
    ct = _d4_borel()
    hand = ConstantTerm(ct.system, ct.levi, ct.line, ct.terms)
    assert hand.table is not ct.table and hand.table.params == ct.table.params == ["s"]
    reports = [pole_report(c, Q(1, 2)) for c in (ct, hand)]
    assert reports[0] == reports[1]
    for rep in reports:
        atoms = [a for g in rep.groups for a in g.leading.atoms]
        values = [x for g in rep.groups for x in g.exponent_at_point]
        assert len(rep.groups) == 192
        assert (len(atoms), len({id(a) for a in atoms}), len(set(atoms))) == (556, 18, 18)
        assert (len(values), len({id(x) for x in values}), len(set(values))) == (768, 10, 10)
        own = {id(g.exponent_at_point) for g in rep.groups}
        assert rep.surviving_exponents
        assert all(id(e) in own for e in rep.surviving_exponents)


def _rows_match_str(ct, terms, point):
    rows = render_table_rows(ct, point, assume_no_real_zeros=True)
    assert [r["word"] for r in rows] == [str(t.word) for t in terms]
    assert [r["j_factor"] for r in rows] == [str(t.j_factor) for t in terms]
    assert [r["exponent"] for r in rows] == [str(t.exponent) for t in terms]


@pytest.mark.parametrize("case", list(sweep_cases()), ids=lambda case: case[0])
def test_row_text_is_str_of_each_term(case):
    """Each distinct factor and coordinate is rendered once per table; the rows read
    as ``str`` of each reference term, from the walk's table and by hand."""
    _, system, levi, line = case
    reference = reference_terms(system, levi, line)
    _rows_match_str(constant_term(system, levi, line), reference, Q(2))
    _rows_match_str(ConstantTerm(system, levi, line, reference), reference, Q(2))


def test_row_text_of_terms_built_by_hand(quasi):
    """Affine factors, residue symbols and scalars, interned in an order that is not
    canonical: the rows still read as ``str``."""
    ct = _built_by_hand(quasi, TorusCharacter.of(af(1, 0), af(1, 1), af(1, 2)))
    assert ct.table.params == ["s"] and len(ct.table.terms) == len(ct.terms)
    _rows_match_str(ct, ct.terms, Q(2))


def test_terms_built_by_hand_are_interned_once(monkeypatch):
    """D4 Borel built by hand: the ConstantTerm interns its terms when it is made, and two
    reports and a table read that one table (three interns before it held one)."""
    ct = _d4_borel()
    calls = []
    of_terms = _AtomTable.of_terms

    def counted(terms):
        calls.append(1)
        return of_terms(terms)

    monkeypatch.setattr(_AtomTable, "of_terms", staticmethod(counted))
    hand = ConstantTerm(ct.system, ct.levi, ct.line, ct.terms)
    reports = [pole_report(hand, point) for point in (Q(1, 2), Q(2))]
    rows = render_table_rows(hand, Q(1, 2))
    assert len(calls) == 1
    assert reports == [pole_report(ct, point) for point in (Q(1, 2), Q(2))]
    assert rows == render_table_rows(ct, Q(1, 2))


# -- the atom table's pairings and order in integers ----------------------------------

_SYSTEMS = {name: build_system(name) for name in ("split_D4", "quasi_D4", "tri_D4", "G2", "A1")}
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_coords = st.builds(lambda c, a, b: AffineForm(c, [("s", a), ("t", b)]),
                    _rationals, _rationals, st.sampled_from([Q(0), Q(0), Q(1, 3), Q(-2, 5)]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SYSTEMS)), st.lists(_coords, min_size=4, max_size=4))
def test_of_line_matches_the_form_construction(name, coords):
    """The integer pairings are TorusCharacter.pair of each coroot, and the ids are
    numbered in the (label, form) order of the canonical arguments, as sorted forms give it."""
    system = _SYSTEMS[name]
    line = TorusCharacter(tuple(coords[:system.rank]))
    pairs = [(label.symbol, line.pair(vec)) for label, vec in zip(system._labels, system._cvec)]
    args = [(label, canonical_arg(p)[0], canonical_arg(p + 1)[0]) for label, p in pairs]
    keys = sorted({(label, arg) for label, *both in args for arg in both})
    table = _AtomTable.of_line(system, line)
    assert pairs == _pairings(system, line)
    assert table.params == list(line.params)
    assert table.keys == keys
    assert table.roots == [(keys.index((label, plain)), keys.index((label, shifted)))
                           for label, plain, shifted in args]
