"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success so the whole gate can be
eyeballed from `pytest -v -s tests/test_acceptance.py`.
"""

import random
from fractions import Fraction as Q

import pytest

from degeis.characters import (TorusCharacter, iota_check, line_chi_P,
                               line_chi_Q, line_mu_P, line_mu_Q,
                               parabolic_levi, weyl_act)
from degeis.dualside import (LFactor, LFactorization, arthur_expand,
                             lfactor_standard, order_at_2, restrict_via_r,
                             sym_pole_location)
from degeis.eisenstein import (constant_term, entireness_report, gk_factor,
                               pole_report, render_table_rows,
                               sharp_invariance_check, sharp_limit,
                               siegel_weil_constant)
from degeis.forms import AffineForm
from degeis.localint import ShellFunction, local_zeta, tate_integral
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import ZetaExpr, laurent_at

from conftest import xi


def ok(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


QUASI_TABLE = [
    ("1", "1", 0, "(3,-1,-1)"),
    ("w[1]", "xi_F(6s+2)/xi_F(6s+3)", 0, "(-3,2,-1)"),
    ("w[12]", "xi_F(6s+1)/xi_F(6s+3)", 0, "(-1,-2,1)"),
    ("w[123]", "xi_F(6s+1)*xi_K(6s)/(xi_F(6s+3)*xi_K(6s+1))", 1, "(-1,0,-1)"),
    ("w[1232]", "xi_F(6s-1)*xi_F(6s+1)*xi_K(6s)/(xi_F(6s)*xi_F(6s+3)*xi_K(6s+1))",
     1, "(-1,0,-1)"),
    ("w[12321]", "xi_F(6s-2)*xi_F(6s+1)*xi_K(6s)/(xi_F(6s)*xi_F(6s+3)*xi_K(6s+1))",
     0, "(1,-1,-1)"),
]

SPLIT_TABLE = [
    ("1", "1", 0, "(3,-1,-1,-1)"),
    ("w[1]", "xi_F(6s+2)/xi_F(6s+3)", 0, "(-3,2,-1,-1)"),
    ("w[12]", "xi_F(6s+1)/xi_F(6s+3)", 0, "(-1,-2,1,1)"),
    ("w[123]", "xi_F(6s)/xi_F(6s+3)", 1, "(-1,-1,-1,1)"),
    ("w[124]", "xi_F(6s)/xi_F(6s+3)", 1, "(-1,-1,1,-1)"),
    ("w[1234]", "xi_F(6s)^2/(xi_F(6s+1)*xi_F(6s+3))", 2, "(-1,0,-1,-1)"),
    ("w[12342]", "xi_F(6s-1)*xi_F(6s)/(xi_F(6s+1)*xi_F(6s+3))", 2, "(-1,0,-1,-1)"),
    ("w[123421]", "xi_F(6s-2)*xi_F(6s)/(xi_F(6s+1)*xi_F(6s+3))", 1, "(1,-1,-1,-1)"),
]


def test_criterion_1_gk_tables():
    for preset, parabolic, golden in (("quasi_D4", "Q", QUASI_TABLE),
                                      ("split_D4", "Q", SPLIT_TABLE)):
        system = build_system(preset)
        ct = constant_term(system, parabolic_levi(system, parabolic), line_chi_Q(system))
        rows = render_table_rows(ct, Q(1, 6))
        assert len(rows) == len(golden)
        for row, (word, j, order, exp) in zip(rows, golden):
            assert row["word"] == word
            assert row["j_factor"] == j
            assert row["pole_order"] == order
            assert row["exponent_at_point"] == exp
    ok(1, "both Gindikin-Karpelevich tables reproduced exactly "
          "(words, J factors, orders, evaluated exponents)")


def test_criterion_2_poles_of_E_Q():
    quasi = build_system("quasi_D4")
    split = build_system("split_D4")
    rq = pole_report(constant_term(quasi, (2, 3), line_chi_Q(quasi)), Q(1, 6))
    rs = pole_report(constant_term(split, (2, 3, 4), line_chi_Q(split)), Q(1, 6))
    assert (rq.order, rq.square_integrable) == (0, False)
    assert (rs.order, rs.square_integrable) == (1, True)
    ok(2, "E_Q at 1/6: order 0 / not square-integrable (quasi-split), "
          "order 1 / square-integrable (split)")


def test_criterion_3_poles_of_E_P():
    expected = {"tri_D4": 0, "quasi_D4": 1, "split_D4": 2}
    for name, order in expected.items():
        system = build_system(name)
        ct = constant_term(system, parabolic_levi(system, "P"), line_chi_P(system))
        assert pole_report(ct, Q(3, 10)).order == order, name
    ok(3, "E_P at 3/10: orders 0 (3D4), 1 (2D4), 2 (D4), spherical section")


def test_criterion_4_keys_shahidi():
    pt = {"s": Q(1, 6)}
    quasi = build_system("quasi_D4")
    jq = {str(t.word): t.j_factor
          for t in constant_term(quasi, (2, 3), line_chi_Q(quasi)).terms}
    a, b = laurent_at(jq["w[123]"], pt), laurent_at(jq["w[1232]"], pt)
    assert a.order == b.order == -1 and b.leading == a.leading * Q(-1)
    split = build_system("split_D4")
    js = {str(t.word): t.j_factor
          for t in constant_term(split, (2, 3, 4), line_chi_Q(split)).terms}
    c, d = laurent_at(js["w[1234]"], pt), laurent_at(js["w[12342]"], pt)
    assert c.order == d.order == -2 and d.leading == c.leading * Q(-1)
    # the -1 is produced by the Laurent calculus alone
    ratio = laurent_at(jq["w[1232]"] / jq["w[123]"], pt)
    assert ratio.order == 0 and ratio.leading == ZetaExpr.build(-1)
    ok(4, "Keys-Shahidi pairs (w[123], w[1232]) and (w[1234], w[12342]) have "
          "exactly opposite leading coefficients")


def test_criterion_5_siegel_weil_constants():
    r_over = ZetaExpr.residue_symbol("F") / xi("F", 0, 2)
    quasi = siegel_weil_constant(build_system("quasi_D4"))
    split = siegel_weil_constant(build_system("split_D4"))
    assert quasi.constant == r_over and split.constant == r_over
    assert quasi.section_constant == ZetaExpr.build(5) * xi("F", 0, 4) * \
        xi("K", 0, 3) / (xi("F", 0, 3) * xi("K", 0, 2))
    assert split.section_constant == ZetaExpr.build(5) * xi("F", 0, 3) * \
        xi("F", 0, 4) / (xi("F", 0, 2) * xi("F", 0, 2))
    assert quasi.residue_w2342.leading == ZetaExpr.build(Q(1, 5), residues=[("F", 1)]) * \
        xi("F", 0, 3) * xi("K", 0, 2) / (xi("F", 0, 2) * xi("F", 0, 4) * xi("K", 0, 3))
    assert split.residue_w2342.leading == ZetaExpr.build(Q(1, 5), residues=[("F", 1)]) * \
        xi("F", 0, 2) / (xi("F", 0, 3) * xi("F", 0, 4))
    # every residue symbol in the constants is R_F; no hidden R_K relabeling
    for rep in (quasi, split):
        for expr in (rep.constant, rep.section_constant, rep.residue_w2342.leading):
            assert all(label == "F" for label, _ in expr.residues)
    ok(5, "Siegel-Weil constant R/xi_F(2), both section-level constants and "
          "both A_w[2342] residues match as exact monomials (all residues R_F)")


def test_criterion_6_sharp_limit_monomials():
    quasi = build_system("quasi_D4")
    shared = xi("F", 0, 2) * xi("K", 0, 2) * xi("K", 0, 2) * xi("F", 0, 3) * \
        xi("K", 0, 3) * xi("F", 0, 4) * xi("F", 0, 4)
    rational = ZetaExpr.build(-(2 ** 10) * 3 ** 2)
    sp = sharp_limit(quasi, (1, 3), line_mu_P(quasi), Q(3, 10))
    sq = sharp_limit(quasi, (2, 3), line_mu_Q(quasi), Q(1, 6))
    assert sp.leading == rational * ZetaExpr.residue_symbol("F") * xi("F", 0, 2) * shared
    assert sq.leading == rational * ZetaExpr.residue_symbol("F", 2) * shared
    assert sp.leading.scalar == -9216 and sq.leading.scalar == -9216
    ok(6, "sharp limits -2^10 3^2 R xi_F(2)^2 xi_K(2)^2 xi_F(3) xi_K(3) xi_F(4)^2 "
          "and -2^10 3^2 R^2 xi_F(2) xi_K(2)^2 xi_F(3) xi_K(3) xi_F(4)^2 reproduced")


def test_criterion_7_appendix_machinery():
    quasi = build_system("quasi_D4")
    split = build_system("split_D4")
    for system in (quasi, split):
        for i in range(1, system.rank + 1):
            passed, _ = sharp_invariance_check(system, i)
            assert passed, (system.name, i)
    rep_q = entireness_report(quasi)
    rep_s = entireness_report(split)
    assert rep_q.entire and rep_q.checked_words == 3 * 48
    assert rep_s.entire and rep_s.checked_words == 4 * 192
    ok(7, "W-invariance for every simple reflection; H^0 cancellation over all "
          f"of W ({rep_q.checked_words} + {rep_s.checked_words} pairs); no "
          "surviving pole along any H_alpha^eps")


def test_criterion_8_suitable_pair():
    for name in ("quasi_D4", "split_D4"):
        report = iota_check(build_system(name))
        assert report.identity_holds
        assert report.special_point_equal
        assert report.w1_relation_holds
    ok(8, "iota_{P,Q}(s1,s2) = iota_{Q,P}((5s2-s1)/4,(s1+5s2)/6) as affine "
          "characters, with iota_{P,Q}(-1/2,3/10) = iota_{Q,P}(1/2,1/6)")


def test_criterion_9_dual_side():
    got = [(int(a), int(b)) for a, b in restrict_via_r()]
    assert got == sorted([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 2), (0, 0), (0, -2)])
    vt = lfactor_standard("V_tau")
    assert vt.factors == LFactorization.build([
        LFactor(-1, "zeta"), LFactor(Q(-1, 2), "tau"), LFactor(0, "zeta"),
        LFactor(Q(1, 2), "tau"), LFactor(1, "zeta")]).factors
    vc = lfactor_standard("V_chi")
    assert vc.factors == LFactorization.build([
        LFactor(-1, "zeta"), LFactor(-1, "chi"), LFactor(0, "zeta"),
        LFactor(0, "chi", 2), LFactor(1, "zeta"), LFactor(1, "chi")]).factors
    assert order_at_2(vt) == 1
    assert order_at_2(vc) == 1
    assert order_at_2(vc, chi_trivial=True) == 2
    assert arthur_expand(2) == [1, 0, -1] and sym_pole_location(2) == 2
    ok(9, "bi-weights of std x std + 1 x Sym^2; both standard-L factorizations "
          "verbatim; pole orders 1/1/2 at s=2; Sym^2 predicts the pole at k/2+1=2")


def test_criterion_10_local_integral():
    z = AffineForm.of(3, s=2)
    value = tate_integral(ShellFunction.lattice(0), z)
    assert value.is_local_zeta() and value.equals(local_zeta(z))
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(-6, 7)
        span = rng.randrange(0, 10)
        total = tate_integral(ShellFunction.lattice(k + span + 1), z)
        for j in range(k, k + span + 1):
            total = total + tate_integral(ShellFunction.shell(j), z)
        assert total.equals(tate_integral(ShellFunction.lattice(k), z))
    ok(10, "tate_integral(lattice(0), 2s+3) = zeta_v(2s+3); shell additivity "
           "holds on random ranges")


def _random_zeta_expr(rng):
    from degeis.zetas import ZetaAtom

    atoms = [ZetaAtom(rng.choice("FKE"),
                      AffineForm.of(Q(rng.randrange(-6, 7), rng.choice((1, 2, 3))),
                                    s=rng.choice((-6, -3, -1, 1, 2, 5))),
                      rng.choice((-2, -1, 1, 2)))
             for _ in range(rng.randrange(0, 5))]
    num = [AffineForm.of(Q(rng.randrange(-5, 6)), s=rng.choice((-2, -1, 1, 3)))
           for _ in range(rng.randrange(0, 3))]
    return ZetaExpr.build(Q(rng.randrange(1, 9), rng.choice((1, 2))), num=num, atoms=atoms)


def test_criterion_11_property_suites():
    from conftest import rebuild as canonicalize

    rng = random.Random(2024)
    failures = 0
    for name in ("split_D4", "quasi_D4", "tri_D4", "G2", "A1"):
        system = build_system(name)
        elements = system.weyl_elements()
        checked = 0
        while checked < 200:
            _, word = elements[rng.randrange(len(elements))]
            if len(word) == 0:
                continue
            cut = rng.randrange(0, len(word) + 1)
            w1, w2 = WeylWord(word.letters[:cut]), WeylWord(word.letters[cut:])
            lam = TorusCharacter(tuple(
                AffineForm.of(Q(rng.randrange(-9, 10), rng.choice((1, 2))),
                              s=rng.randrange(-5, 6)) for _ in range(system.rank)))
            lhs = gk_factor(system, word, lam)
            rhs = gk_factor(system, w2, weyl_act(system, w1.inverse(), lam)) * \
                gk_factor(system, w1, lam)
            if lhs != rhs:
                failures += 1
            root = rng.choice(system.positive_roots)
            if weyl_act(system, word, lam).pair(system.coroot(system.word_on_root(word, root))) \
                    != lam.pair(system.coroot(root)):
                failures += 1
            checked += 1
    for _ in range(200):
        e1, e2 = _random_zeta_expr(rng), _random_zeta_expr(rng)
        if canonicalize(e1) != e1 or canonicalize(canonicalize(e1)) != canonicalize(e1):
            failures += 1
        if canonicalize(e1 * e2) != canonicalize(canonicalize(e1) * canonicalize(e2)):
            failures += 1
    assert failures == 0
    ok(11, "GK cocycle on 200 random reduced factorizations per group, Weyl "
           "pairing invariance, and canonicalize idempotence/multiplicativity "
           "on 200 random expressions: zero failures")
