"""The appendix checks, against F_w built in full and against a walk over W.

``entireness_report`` never builds F_w: it reads F_w = F_1 J(w) off the
character's atom table, expands each id once in eps, and carries Laurent
data and canonical atom multisets from each element's prefix.  The
differential tests below rebuild every F_w as one ``ZetaExpr``
(``conftest.sharp_f_w``) and compare per word.  ``sharp_invariance_check``
walks nothing: it checks per root that s_i carries coroot pairings and
labels to those of s_i a.  It must answer as the term-by-term walk over W
(``reference_appendix``) does, on intact systems and on systems with one
root's coroot perturbed.  The negative controls swap one root's atoms, or
tamper with one root's provenance chain, and expect each check to report the
failure.
"""

from __future__ import annotations

import pytest

from degeis import eisenstein
from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import (_AtomTable, _carry, _eps_character, _h0_cancellations, _left,
                               entireness_report, sharp_invariance_check)
from degeis.errors import EnumerationTooLargeError, HyperplaneDegeneracyError
from degeis.forms import AffineForm
from degeis.rootdata import LABEL_E, LABEL_K, WeylWord, _preset_labels, build_system
from degeis.zetas import ZetaExpr, _Expansion, _Multisets, expand_in

from conftest import F4_CARTAN, e_type, sharp_f_w
from reference_appendix import (generic_character, ref_h0_cancellations, ref_inverse_columns,
                                ref_sharp_invariance_check)

PRESETS = ["A1", "G2", "tri_D4", "quasi_D4", "split_D4"]
# every 11th element of W(F4): 105 of 1152 words, all lengths
F4_STRIDE = 11

B3_CARTAN = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3_CARTAN = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
G2_CARTAN = [[2, -3], [-1, 2]]
G2_SWAPPED = [[2, -1], [-3, 2]]
CUSTOM = {"F4": F4_CARTAN, "B3": B3_CARTAN, "C3": C3_CARTAN, "G2-swapped": G2_SWAPPED}
# folded systems: short simple roots labelled by the extension K or E
FOLDED = {"B3-K": (B3_CARTAN, LABEL_K), "C3-K": (C3_CARTAN, LABEL_K),
          "F4-K": (F4_CARTAN, LABEL_K), "G2-E": (G2_CARTAN, LABEL_E),
          "G2-swapped-K": (G2_SWAPPED, LABEL_K)}


def system_of(name):
    if name == "E6":
        return e_type(6)
    if name in CUSTOM:
        return build_system("custom", cartan=CUSTOM[name])
    if name in FOLDED:
        cartan, label = FOLDED[name]
        return build_system("custom", cartan=cartan, labels=_preset_labels(cartan, label))
    return build_system(name)


def sampled(walk, name):
    stride = F4_STRIDE if name == "F4" else 1
    return range(0, len(walk), stride)


def pack(sets, expr):
    """The atoms (keyed by label and argument) and residue symbols of expr, packed."""
    return (sum(sets.weight((a.label, a.arg), a.exp) for a in expr.atoms)
            + sum(sets.weight(label, m) for label, m in expr.residues))


def carried(system, lam, sets):
    """F_w's (order, scalar, packed multiset) in eps for every element, from lam's table."""
    table = _AtomTable.of_line(system, lam)
    return _carry(system.weyl_elements(), table, _Expansion(table.keys, sets, "eps"))


def eps_character(system, i, offset):
    coords = [AffineForm.var(f"z{j}") for j in range(1, system.rank + 1)]
    coords[i - 1] = AffineForm.var("eps") + offset
    return TorusCharacter(tuple(coords))


def eps_characters(system):
    """The 3 * rank characters the entireness check expands in eps."""
    for i in range(1, system.rank + 1):
        for offset in (1, -1, 0):
            lam = eps_character(system, i, offset)
            assert _eps_character(system, i, offset) == lam
            yield lam


@pytest.mark.parametrize("name", PRESETS + ["F4"])
def test_carried_laurent_data_matches_full_builds(name):
    system = system_of(name)
    walk = system.weyl_elements()
    sets = _Multisets(len(system.positive_roots))
    for lam in eps_characters(system):
        f = carried(system, lam, sets)
        for k in sampled(walk, name):
            ld = expand_in(sharp_f_w(system, lam, walk[k][1]), "eps")
            assert not ld.leading.num and not ld.leading.den
            assert f[k] == (ld.order, ld.leading.scalar, pack(sets, ld.leading)), \
                (name, str(lam), str(walk[k][1]))


@pytest.mark.parametrize("name", PRESETS + ["F4"])
def test_carried_exponents_match_weyl_act(name):
    """The reference's carried columns w^{-1} varpi_j, against weyl_act."""
    system = system_of(name)
    walk = system.weyl_elements()
    columns = ref_inverse_columns(system, walk)
    for i in range(1, system.rank + 1):
        lam = eps_character(system, i, 0)
        for k in sampled(walk, name):
            word = walk[k][1]
            expected = weyl_act(system, word.inverse(), lam).subs({"eps": 0})
            carried = tuple(
                AffineForm.of(0, **{f"z{j + 1}": columns[k][j][row]
                                    for j in range(system.rank) if j != i - 1})
                for row in range(system.rank))
            assert carried == expected.coords, (name, i, str(word))


@pytest.mark.parametrize("name", PRESETS + ["F4"])
def test_h0_partner_exponents_agree_at_eps_zero(name):
    """(s_i w)^{-1} lambda = w^{-1} lambda on <lambda, alpha_i^vee> = 0: H^0 compares no exponents.

    There lambda = sum_{j != i} z_j varpi_j and s_i varpi_j = varpi_j for j != i.
    """
    system = system_of(name)
    walk = system.weyl_elements()
    for i in range(1, system.rank + 1):
        lam = eps_character(system, i, 0).subs({"eps": 0})
        left = _left(system, walk, i)
        for k in sampled(walk, name):
            u = walk[k][1]
            partner = WeylWord.of(i) * u
            assert walk[left[k]][0] == system.perm_of_word(partner)
            assert weyl_act(system, partner.inverse(), lam) == weyl_act(system, u.inverse(), lam), \
                (name, i, str(u))


# on A1 the perturbed coroot 2 alpha^vee still gives residues that cancel
@pytest.mark.parametrize("name", PRESETS[1:] + ["F4"])
def test_h0_cancellations_match_the_reference_with_exponents(monkeypatch, name):
    """Dropping the exponent comparison changes no result, intact or with a coroot perturbed."""
    system = system_of(name)
    walk = system.weyl_elements()
    columns = ref_inverse_columns(system, walk)
    cvec = system._cvec
    highest = cvec[-1]
    failed = 0
    for j in (None, *range(system.rank)):
        if j is not None:
            bumped = highest[:j] + (highest[j] + 1,) + highest[j + 1:]
            monkeypatch.setattr(system, "_cvec", cvec[:-1] + (bumped,))
        for i in range(1, system.rank + 1):
            sets = _Multisets(len(system.positive_roots))
            results = _h0_cancellations(system, walk, i, sets)
            assert results == ref_h0_cancellations(system, walk, i, sets, columns), (j, i)
            assert j is not None or all(results)
            failed += results.count(False)
    assert failed


@pytest.mark.parametrize("name", PRESETS + list(CUSTOM) + list(FOLDED) + ["E6"])
def test_invariance_matches_the_walk_over_w(name):
    system = system_of(name)
    for i in range(1, system.rank + 1):
        assert sharp_invariance_check(system, i) == ref_sharp_invariance_check(system, i) \
            == (True, None), (name, i)


@pytest.mark.parametrize("name", ["G2", "tri_D4", "quasi_D4", "split_D4"])
def test_invariance_reports_a_perturbed_coroot_as_the_walk_does(monkeypatch, name):
    """+1 on one coordinate of one root's coroot vector, for every root and coordinate."""
    system = build_system(name)
    cvec = system._cvec
    for k, c in enumerate(cvec):
        passed = []
        for j in range(system.rank):
            bumped = c[:j] + (c[j] + 1,) + c[j + 1:]
            monkeypatch.setattr(system, "_cvec", cvec[:k] + (bumped,) + cvec[k + 1:])
            for i in range(1, system.rank + 1):
                got = sharp_invariance_check(system, i)
                assert got == ref_sharp_invariance_check(system, i), (k, j, i)
                assert got in ((True, None), (False, WeylWord()))
                passed.append(got[0])
        # every root's coroot enters the check of some simple reflection
        assert not all(passed), k


def test_invariance_on_e7_and_e8_walks_nothing(monkeypatch):
    """Past the enumeration bound the invariance check still answers: it lists no W."""
    def refuse(*args, **kwargs):
        raise AssertionError("sharp_invariance_check built a table, a walk or an expression")

    monkeypatch.setattr(eisenstein, "_carry", refuse)
    monkeypatch.setattr(_AtomTable, "of_line", staticmethod(refuse))
    monkeypatch.setattr(ZetaExpr, "build", staticmethod(refuse))
    for rank in (7, 8):
        system = e_type(rank)
        assert all(sharp_invariance_check(system, i) == (True, None)
                   for i in range(1, rank + 1))
        assert system._weyl_cache == {}
    with pytest.raises(EnumerationTooLargeError) as info:
        entireness_report(e_type(7))
    assert info.value.code == "enumeration-too-large"


@pytest.mark.parametrize("name", PRESETS + ["F4"])
def test_carried_invariance_multisets_match_full_builds(name):
    """The reference's carried multisets of F_u(lam) and F_{s_i u}(s_i lam), against full builds."""
    system = system_of(name)
    walk = system.weyl_elements()
    lam = generic_character(system)
    for i in range(1, system.rank + 1):
        lam_i = weyl_act(system, WeylWord.of(i), lam)
        sets = _Multisets(len(system.positive_roots))
        f = carried(system, lam, sets)
        f_i = carried(system, lam_i, sets)
        left = _left(system, walk, i)
        for k in sampled(walk, name):
            perm, u = walk[k]
            partner = WeylWord((i,) + u.letters)
            assert walk[left[k]][0] == system.perm_of_word(partner)
            assert f[k] == (0, 1, pack(sets, sharp_f_w(system, lam, u)))
            assert f_i[left[k]] == (0, 1, pack(sets, sharp_f_w(system, lam_i, partner)))


def test_carry_raises_on_an_atom_that_cannot_be_expanded():
    """No silent (0, 1, 0) data: a pairing identically 0 has no expansion in eps."""
    system = build_system("A1")
    table = _AtomTable.of_line(system, TorusCharacter.of(AffineForm.of(0)))
    with pytest.raises(HyperplaneDegeneracyError) as caught:
        _carry(system.weyl_elements(), table,
               _Expansion(table.keys, _Multisets(len(system.positive_roots)), "eps"))
    with pytest.raises(HyperplaneDegeneracyError) as reference:
        expand_in(ZetaExpr.atom("F", AffineForm.of(0)), "eps")
    assert caught.value.info == reference.value.info


def count_calls(monkeypatch):
    counts = {"build": 0, "expand_in": 0}
    build = ZetaExpr.build

    def counted_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    def counted_expand(*args, **kwargs):
        counts["expand_in"] += 1
        return expand_in(*args, **kwargs)

    monkeypatch.setattr(ZetaExpr, "build", staticmethod(counted_build))
    monkeypatch.setattr(eisenstein, "expand_in", counted_expand)
    return counts


@pytest.mark.parametrize("name", ["split_D4", "F4"])
def test_appendix_checks_build_per_root_not_per_word(monkeypatch, name):
    system = system_of(name)
    system.weyl_elements()
    counts = count_calls(monkeypatch)
    assert all(sharp_invariance_check(system, i)[0] for i in range(1, system.rank + 1))
    assert counts == {"build": 0, "expand_in": 0}
    assert entireness_report(system).entire
    rank = system.rank
    # F_w is read off the atom tables without a build; only the L polynomials
    # of the two boundary characters per simple root are built, each of those
    # also expanded in eps with no further build
    assert counts["expand_in"] <= 2 * rank
    assert counts["build"] <= 2 * rank


def swap_atoms(monkeypatch, position, calls):
    """Exchange one root's plain and shifted id in the atom tables of the given calls."""
    real = _AtomTable.of_line
    seen = []

    def swapped(system, line):
        table = real(system, line)
        seen.append(line)
        if len(seen) in calls:
            plain, shifted = table.roots[position]
            table.roots[position] = shifted, plain
        return table

    monkeypatch.setattr(_AtomTable, "of_line", staticmethod(swapped))


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
def test_invariance_reports_a_swapped_atom(monkeypatch, name):
    """Exchange the atoms of alpha_2 and the highest root: their coroot vectors and labels."""
    system = build_system(name)
    assert sharp_invariance_check(system, 1) == (True, None)
    a, b = system.positive_roots.index(system.simple_root(2)), len(system.positive_roots) - 1
    for attr in ("_cvec", "_labels"):
        data = list(getattr(system, attr))
        data[a], data[b] = data[b], data[a]
        monkeypatch.setattr(system, attr, tuple(data))
    # the walk meets a failing term later in W; the per-root check names no term
    assert sharp_invariance_check(system, 1) == (False, WeylWord())
    assert not ref_sharp_invariance_check(system, 1)[0]


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
def test_boundary_reports_a_missing_normalizer(monkeypatch, name):
    system = build_system(name)
    monkeypatch.setattr(eisenstein, "_l_factors", lambda pairs: [])
    rep = entireness_report(system)
    assert not rep.boundary_ok and rep.h0_ok and not rep.entire


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
def test_h0_reports_a_swapped_atom(monkeypatch, name):
    system = build_system(name)
    # alpha_2 is not fixed by w_1, so the swap breaks the pairing of w with w_1 w
    alpha_2 = system.positive_roots.index(system.simple_root(2))
    boundary_calls = 2 * system.rank
    swap_atoms(monkeypatch, alpha_2, calls={boundary_calls + 1})     # the H^0 character of alpha_1
    rep = entireness_report(system)
    assert rep.boundary_ok and not rep.h0_ok and not rep.entire


def tampered(system, root, entry):
    """The system's provenance with one positive root's entry replaced."""
    prov = list(system._provenance)
    prov[root] = entry
    return tuple(prov)


@pytest.mark.parametrize("name", ["G2", "quasi_D4", "split_D4"])
def test_orbit_reports_a_tampered_provenance(monkeypatch, name):
    system = build_system(name)
    assert entireness_report(system).orbit_ok
    n = len(system.positive_roots)
    highest = n - 1
    letter, parent = system._provenance[highest]
    wrong = next(j for j in range(1, system.rank + 1)
                 if system._gens[j - 1][parent] != highest)
    fixed = next((j, highest) for j in range(1, system.rank + 1)
                 if system._gens[j - 1][highest] == highest)
    # a link that is not a simple reflection, a chain that stops above the
    # simple roots, and a chain that loops on a root its letter fixes
    for entry in ((wrong, parent), None, fixed):
        monkeypatch.setattr(system, "_provenance", tampered(system, highest, entry))
        rep = entireness_report(system)
        assert rep.boundary_ok and rep.h0_ok and not rep.orbit_ok and not rep.entire, entry
