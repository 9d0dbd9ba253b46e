from fractions import Fraction as Q
from itertools import combinations

import pytest

from degeis.characters import (TorusCharacter, line_chi_P, line_chi_Q, line_mu_P,
                               line_mu_Q, parabolic_levi, weyl_act)
from degeis.eisenstein import (ConstantTerm, GKTerm, constant_term, coset_reps,
                               gk_factor, h0_cancellation_check,
                               intertwiner_residue, pole_report,
                               render_markdown_table, render_table_rows,
                               sharp_invariance_check, sharp_limit,
                               sharp_normalizer, siegel_weil_constant)
from degeis.errors import (EnumerationTooLargeError, HyperplaneDegeneracyError,
                           IndeterminateZeroRegionError, UnknownRootError)
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import ZetaExpr, laurent_at

from conftest import (F4_CARTAN, af, e_type, sharp_f_w, sharp_l_poly, walk_cases, xi,
                      xir)


def words(reps):
    return [str(w) for w in reps]


def test_coset_reps_quasi_Q(quasi):
    reps = coset_reps(quasi, (2, 3))
    assert words(reps) == ["1", "w[1]", "w[12]", "w[123]", "w[1232]", "w[12321]"]


def test_coset_reps_split_Q(split):
    reps = coset_reps(split, (2, 3, 4))
    assert words(reps) == ["1", "w[1]", "w[12]", "w[123]", "w[124]",
                           "w[1234]", "w[12342]", "w[123421]"]


def test_coset_reps_quasi_P_counts(quasi, split, tri):
    assert len(coset_reps(quasi, (1, 3))) == 12        # |W(B3)| / |W(A1 x A1)|
    assert len(coset_reps(split, (1, 3, 4))) == 24
    assert len(coset_reps(tri, (1,))) == 6
    assert len(coset_reps(tri, ())) == 12


def _scan_coset_reps(system, levi):
    """Reference: list all of W by a breadth-first walk over every step,
    then keep the w with w^{-1} alpha_j > 0 for each Levi node j."""
    roots = system.positive_roots + tuple(-r for r in system.positive_roots)
    index = {r: k for k, r in enumerate(roots)}
    gens = [tuple(index[system.reflect_root(i, r)] for r in roots)
            for i in range(1, system.rank + 1)]
    ident = tuple(range(len(roots)))
    seen = {ident: WeylWord()}
    elements = [WeylWord()]
    frontier = [ident]
    while frontier:
        nxt = []
        for perm in frontier:
            for i, g in enumerate(gens, start=1):
                new = tuple(perm[k] for k in g)
                if new not in seen:
                    seen[new] = WeylWord(seen[perm].letters + (i,))
                    nxt.append(new)
        nxt.sort(key=lambda p: seen[p].letters)
        elements.extend(seen[p] for p in nxt)
        frontier = nxt
    return [w for w in elements
            if all(system.word_on_root(w.inverse(), system.simple_root(j)).height > 0
                   for j in levi)]


def _levi_subsets(rank):
    nodes = range(1, rank + 1)
    return [levi for k in range(rank + 1) for levi in combinations(nodes, k)]


@pytest.mark.parametrize("preset", ["split_D4", "quasi_D4", "tri_D4", "G2", "A1", "F4"])
def test_coset_walk_matches_full_group_scan(preset):
    system = (build_system("custom", cartan=F4_CARTAN) if preset == "F4"
              else build_system(preset))
    for levi in _levi_subsets(system.rank):
        assert coset_reps(system, levi) == _scan_coset_reps(system, levi), levi
    assert [w for _, w in system.weyl_elements()] == _scan_coset_reps(system, ())


# (preset, parabolic, named line or None for the parabolic's chi line): the
# command-line triples of the pole sweep
@pytest.mark.parametrize("case", list(walk_cases()), ids=lambda case: case[0])
def test_constant_term_terms_match_their_from_scratch_factors(case):
    """Each term built from its parent coset equals the term computed alone."""
    _, system, levi, line = case
    ct = constant_term(system, levi, line)
    assert [t.word for t in ct.terms] == coset_reps(system, levi)
    fresh = build_system("custom", cartan=system.cartan) if system.name == "custom" \
        else build_system(system.name)
    for term in ct.terms:
        assert term.j_factor == gk_factor(fresh, term.word, line)
        assert term.exponent == weyl_act(fresh, term.word.inverse(), line)


def _check_minimal_reps(system, levi, expected):
    elements = system.weyl_elements(levi)
    assert len(elements) == expected
    assert len({perm for perm, _ in elements}) == expected
    levi_order = build_system("custom", cartan=[[system.cartan[i - 1][j - 1] for j in levi]
                                                for i in levi]).weyl_order()
    assert expected == system.weyl_order() // levi_order
    for perm, w in elements:
        assert perm == system.perm_of_word(w)
        assert len(system.inversion_set(w)) == len(w)
        for j in levi:
            assert system.word_on_root(w.inverse(), system.simple_root(j)).height > 0


@pytest.mark.parametrize("node,expected", [(1, 27), (2, 72), (3, 216), (4, 720),
                                           (5, 216), (6, 27)])
def test_e6_maximal_parabolic_coset_counts(node, expected):
    e6 = e_type(6)
    _check_minimal_reps(e6, tuple(j for j in range(1, 7) if j != node), expected)


@pytest.mark.parametrize("rank,node,expected", [(7, 1, 126), (7, 7, 56), (8, 8, 240)])
def test_e7_e8_cosets_without_the_full_group(rank, node, expected):
    system = e_type(rank)
    levi = tuple(j for j in range(1, rank + 1) if j != node)
    _check_minimal_reps(system, levi, expected)


def test_full_weyl_enumeration_is_bounded():
    e7 = e_type(7)
    with pytest.raises(EnumerationTooLargeError) as info:
        e7.weyl_elements()
    assert info.value.info["size"] == 2903040
    assert len(e_type(6).weyl_elements()) == 51840


GOLDEN_QUASI = [
    ("1", ZetaExpr(), 0, (3, -1, -1)),
    ("w[1]", xir("F", (6, 2)), 0, (-3, 2, -1)),
    ("w[12]", xir("F", (6, 2), (6, 1)), 0, (-1, -2, 1)),
    ("w[123]", xir("F", (6, 2), (6, 1)) * xir("K", (6, 0)), -1, (-1, 0, -1)),
    ("w[1232]", xir("F", (6, 2), (6, 1), (6, -1)) * xir("K", (6, 0)), -1, (-1, 0, -1)),
    ("w[12321]", xir("F", (6, 2), (6, 1), (6, -1), (6, -2)) * xir("K", (6, 0)), 0, (1, -1, -1)),
]

GOLDEN_SPLIT = [
    ("1", ZetaExpr(), 0, (3, -1, -1, -1)),
    ("w[1]", xir("F", (6, 2)), 0, (-3, 2, -1, -1)),
    ("w[12]", xir("F", (6, 2), (6, 1)), 0, (-1, -2, 1, 1)),
    ("w[123]", xir("F", (6, 2), (6, 1), (6, 0)), -1, (-1, -1, -1, 1)),
    ("w[124]", xir("F", (6, 2), (6, 1), (6, 0)), -1, (-1, -1, 1, -1)),
    ("w[1234]", xir("F", (6, 2), (6, 1), (6, 0), (6, 0)), -2, (-1, 0, -1, -1)),
    ("w[12342]", xir("F", (6, 2), (6, 1), (6, 0), (6, 0), (6, -1)), -2, (-1, 0, -1, -1)),
    ("w[123421]", xir("F", (6, 2), (6, 1), (6, 0), (6, 0), (6, -1), (6, -2)), -1, (1, -1, -1, -1)),
]


@pytest.mark.parametrize("preset,levi,golden", [
    ("quasi_D4", (2, 3), GOLDEN_QUASI),
    ("split_D4", (2, 3, 4), GOLDEN_SPLIT),
])
def test_constant_term_tables(preset, levi, golden):
    system = build_system(preset)
    ct = constant_term(system, levi, line_chi_Q(system))
    assert len(ct.terms) == len(golden)
    for term, (word, j, order, exp) in zip(ct.terms, golden):
        assert str(term.word) == word
        assert term.j_factor == j, word
        if j != ZetaExpr():
            assert laurent_at(term.j_factor, {"s": Q(1, 6)}).order == order, word
        assert term.exponent.evaluate({"s": Q(1, 6)}) == exp, word


def test_quasi_table_j_factor_strings(quasi):
    ct = constant_term(quasi, (2, 3), line_chi_Q(quasi))
    rows = render_table_rows(ct, Q(1, 6))
    assert rows[3]["j_factor"] == "xi_F(6s+1)*xi_K(6s)/(xi_F(6s+3)*xi_K(6s+1))"
    assert rows[5]["j_factor"] == \
        "xi_F(6s-2)*xi_F(6s+1)*xi_K(6s)/(xi_F(6s)*xi_F(6s+3)*xi_K(6s+1))"
    md = render_markdown_table(rows, Q(1, 6))
    assert md.splitlines()[2].startswith("| 1 | 1 | 0 |")


def test_gk_empty_word_is_one(quasi):
    assert gk_factor(quasi, WeylWord(), line_chi_Q(quasi)) == ZetaExpr()


def test_xi_pair_count_equals_relative_length(quasi, split):
    for system, levi in ((quasi, (2, 3)), (split, (2, 3, 4))):
        for w in coset_reps(system, levi):
            assert len(system.inversion_set(w)) == len(w)


def test_pole_report_E_Q(quasi, split):
    ct_q = constant_term(quasi, (2, 3), line_chi_Q(quasi))
    rep_q = pole_report(ct_q, Q(1, 6))
    assert rep_q.order == 0
    assert rep_q.square_integrable is False
    # the two polar rows share one limit exponent and cancel
    polar = [g for g in rep_q.groups if len(g.words) == 2]
    assert len(polar) == 1 and polar[0].log_term and polar[0].order == 0

    ct_s = constant_term(split, (2, 3, 4), line_chi_Q(split))
    rep_s = pole_report(ct_s, Q(1, 6))
    assert rep_s.order == 1
    assert rep_s.square_integrable is True
    pair = next(g for g in rep_s.groups if len(g.words) == 2)
    assert pair.order == -1 and pair.log_term


def test_pole_report_E_P(quasi, split, tri):
    for system, expected in ((tri, 0), (quasi, 1), (split, 2)):
        ct = constant_term(system, parabolic_levi(system, "P"), line_chi_P(system))
        rep = pole_report(ct, Q(3, 10))
        assert rep.order == expected, system.name


def test_keys_shahidi_pairs_cancel_exactly(quasi, split):
    pt = {"s": Q(1, 6)}
    ct = constant_term(quasi, (2, 3), line_chi_Q(quasi))
    j123 = next(t.j_factor for t in ct.terms if str(t.word) == "w[123]")
    j1232 = next(t.j_factor for t in ct.terms if str(t.word) == "w[1232]")
    l1, l2 = laurent_at(j123, pt), laurent_at(j1232, pt)
    assert l1.order == l2.order == -1
    assert l2.leading == l1.leading * Q(-1)
    # the extra factor itself is the Keys-Shahidi -1
    extra = laurent_at(j1232 / j123, pt)
    assert extra.order == 0 and extra.leading == ZetaExpr.build(-1)

    ct_s = constant_term(split, (2, 3, 4), line_chi_Q(split))
    j1234 = next(t.j_factor for t in ct_s.terms if str(t.word) == "w[1234]")
    j12342 = next(t.j_factor for t in ct_s.terms if str(t.word) == "w[12342]")
    m1, m2 = laurent_at(j1234, pt), laurent_at(j12342, pt)
    assert m1.order == m2.order == -2
    assert m2.leading == m1.leading * Q(-1)


def test_exponents_of_cancelling_pair_agree_only_at_the_point(quasi):
    ct = constant_term(quasi, (2, 3), line_chi_Q(quasi))
    e123 = next(t.exponent for t in ct.terms if str(t.word) == "w[123]")
    e1232 = next(t.exponent for t in ct.terms if str(t.word) == "w[1232]")
    assert e123.coords != e1232.coords
    assert e123.evaluate({"s": Q(1, 6)}) == e1232.evaluate({"s": Q(1, 6)})


def test_intertwiner_residues_w2342(quasi, split):
    res_q = intertwiner_residue(quasi, quasi.parse_word("2342"),
                                line_chi_P(quasi), Q(3, 10))
    assert res_q.order == -1
    expected_q = ZetaExpr.build(Q(1, 5), residues=[("F", 1)]) * \
        xi("F", 0, 3) * xi("K", 0, 2) / (xi("F", 0, 2) * xi("F", 0, 4) * xi("K", 0, 3))
    assert res_q.leading == expected_q

    res_s = intertwiner_residue(split, split.parse_word("2342"),
                                line_chi_P(split), Q(3, 10))
    assert res_s.order == -1
    expected_s = ZetaExpr.build(Q(1, 5), residues=[("F", 1)]) * \
        xi("F", 0, 2) / (xi("F", 0, 3) * xi("F", 0, 4))
    assert res_s.leading == expected_s


def test_intertwiner_residue_identity_word(quasi):
    ld = intertwiner_residue(quasi, WeylWord(), line_chi_P(quasi), Q(3, 10))
    assert ld.order == 0 and ld.leading == ZetaExpr()


def test_intertwiner_residue_on_constant_lines(a1):
    """A constant line is expanded as laurent_at expands its J, not read as order 0."""
    w = WeylWord.of(1)
    with pytest.raises(HyperplaneDegeneracyError):
        intertwiner_residue(a1, w, TorusCharacter.of(1), 0)     # xi(1)/xi(2)
    ld = intertwiner_residue(a1, w, TorusCharacter.of(2), 0)
    assert ld.order == 0 and str(ld.leading) == "xi_F(2)/xi_F(3)"
    half = TorusCharacter.of(Q(1, 2))
    with pytest.raises(IndeterminateZeroRegionError):
        intertwiner_residue(a1, w, half, 0)
    ld = intertwiner_residue(a1, w, half, 0, assume_no_real_zeros=True)
    assert ld.order == 0 and ld.leading == gk_factor(a1, w, half)


def test_out_of_range_simple_indices_are_unknown_roots(quasi):
    lam = TorusCharacter.of(af(1, 0), af(1, 1), af(1, 2))
    for i in (0, quasi.rank + 1):
        calls = [lambda: sharp_invariance_check(quasi, i),
                 lambda: h0_cancellation_check(quasi, i, WeylWord.of(1)),
                 lambda: weyl_act(quasi, WeylWord((1, i)), lam),
                 lambda: quasi.perm_of_word(WeylWord((1, i)))]
        for call in calls:
            with pytest.raises(UnknownRootError):
                call()


def test_sharp_limit_refuses_out_of_range_levi_indices(quasi):
    # (1, 3) is the Levi of P; an extra index 0 or 7 is no simple root of quasi_D4
    for levi in ((1, 3, 0), (1, 3, 7)):
        with pytest.raises(UnknownRootError):
            sharp_limit(quasi, levi, line_mu_P(quasi), Q(3, 10))
    assert sharp_limit(quasi, (1, 3), line_mu_P(quasi), Q(3, 10)).order == 1


def test_sharp_normalizer_a1(a1):
    lam = TorusCharacter.of(af(1, 0))
    n = sharp_normalizer(a1, lam)
    expected = ZetaExpr.atom("F", af(1, 1)) * ZetaExpr.build(num=[af(1, 1), af(1, -1)])
    assert n == expected


def test_sharp_limits_reproduce_proof_constants(quasi, split):
    base = ZetaExpr.build(-(2 ** 10) * 3 ** 2)
    stuff_q = xi("F", 0, 2) * xi("K", 0, 2) * xi("K", 0, 2) * xi("F", 0, 3) * \
        xi("K", 0, 3) * xi("F", 0, 4) * xi("F", 0, 4)
    sp = sharp_limit(quasi, (1, 3), line_mu_P(quasi), Q(3, 10))
    assert sp.order == 1 and sp.slope == 5
    assert sp.leading == base * ZetaExpr.residue_symbol("F") * xi("F", 0, 2) * stuff_q
    sq = sharp_limit(quasi, (2, 3), line_mu_Q(quasi), Q(1, 6))
    assert sq.order == 0 and sq.slope == 6
    assert sq.leading == base * ZetaExpr.residue_symbol("F", 2) * stuff_q
    # two polynomial factors vanish identically along each mu-line
    assert sp.dropped == 2 and sq.dropped == 2
    # split case: orders one higher on both sides, ratio unchanged
    sps = sharp_limit(split, (1, 3, 4), line_mu_P(split), Q(3, 10))
    sqs = sharp_limit(split, (2, 3, 4), line_mu_Q(split), Q(1, 6))
    assert (sps.order, sqs.order) == (2, 1)
    assert sqs.leading / sps.leading == ZetaExpr.residue_symbol("F") / xi("F", 0, 2)


def test_siegel_weil_constants(quasi, split):
    r_over_xi2 = ZetaExpr.residue_symbol("F") / xi("F", 0, 2)
    rep_q = siegel_weil_constant(quasi)
    assert rep_q.constant == r_over_xi2
    assert rep_q.section_constant == \
        ZetaExpr.build(5) * xi("F", 0, 4) * xi("K", 0, 3) / (xi("F", 0, 3) * xi("K", 0, 2))
    rep_s = siegel_weil_constant(split)
    assert rep_s.constant == r_over_xi2
    assert rep_s.section_constant == \
        ZetaExpr.build(5) * xi("F", 0, 3) * xi("F", 0, 4) / (xi("F", 0, 2) * xi("F", 0, 2))
    # no residue label other than R_F appears in any of the constants
    for rep in (rep_q, rep_s):
        for expr in (rep.constant, rep.section_constant,
                     rep.sharp_p.leading, rep.sharp_q.leading):
            assert all(label == "F" for label, _ in expr.residues)


def test_gk_cocycle_examples(quasi):
    chi = line_chi_Q(quasi)
    w1 = WeylWord.of(1)
    w2 = WeylWord.of(2)
    lhs = gk_factor(quasi, w1 * w2, chi)
    rhs = gk_factor(quasi, w2, weyl_act(quasi, w1.inverse(), chi)) * gk_factor(quasi, w1, chi)
    assert lhs == rhs


def test_sharp_invariance_small(quasi, a1, g2):
    assert sharp_invariance_check(a1, 1)[0]
    for i in (1, 2):
        assert sharp_invariance_check(g2, i)[0]
    for i in (1, 2, 3):
        assert sharp_invariance_check(quasi, i)[0]


def test_h0_cancellation_examples(quasi):
    assert h0_cancellation_check(quasi, 1, WeylWord())
    assert h0_cancellation_check(quasi, 2, quasi.parse_word("123"))


def test_needs_higher_log_order_is_reported(quasi):
    # two terms with the same exponent function and exactly opposite factors:
    # leading coefficients and log derivatives both cancel, so the engine
    # must refuse to guess instead of reporting an order
    from degeis.errors import NeedsHigherLogOrderError

    chi = line_chi_Q(quasi)
    j = xir("F", (6, 0))
    terms = (GKTerm(WeylWord(), j, chi), GKTerm(WeylWord.of(1), j * Q(-1), chi))
    ct = ConstantTerm(quasi, (), chi, terms)
    with pytest.raises(NeedsHigherLogOrderError):
        pole_report(ct, Q(1, 6))


def test_hyperplane_degeneracy_error():
    from degeis.errors import HyperplaneDegeneracyError
    from degeis.zetas import expand_in

    frozen = ZetaExpr.atom("F", AffineForm.of(1, z=1))  # argument 1+z, no eps
    with pytest.raises(HyperplaneDegeneracyError):
        expand_in(ZetaExpr.atom("F", AffineForm.of(0)), "eps")
    # generic other-parameter arguments stay symbolic instead
    ld = expand_in(frozen, "eps")
    assert ld.order == 0


def test_entireness_on_line_through_pole_hyperplanes(quasi):
    # E_sharp restricted to a line through H_{alpha}^{0, +-1} points stays
    # regular: group the full-Borel terms L * F_w and check the total order
    lam = TorusCharacter.of(af(1, 0), af(1, 1), af(1, 2))
    lpoly = sharp_l_poly(quasi, lam)
    terms = []
    for _, w in quasi.weyl_elements():
        terms.append(GKTerm(w, lpoly * sharp_f_w(quasi, lam, w), weyl_act(quasi, w.inverse(), lam)))
    ct = ConstantTerm(quasi, (), lam, tuple(terms))
    for point in (Q(0), Q(1), Q(-2)):
        rep = pole_report(ct, point)
        assert rep.order == 0, point
