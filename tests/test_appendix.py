"""The appendix checks carried along the Weyl walk, against F_w built in full.

``entireness_report`` and ``sharp_invariance_check`` never build F_w: they
read F_w = F_1 J(w) off the character's atom table, expand each id once in
eps, and carry Laurent data and canonical atom multisets from each
element's prefix.  The differential tests below rebuild every F_w as one
``ZetaExpr`` (``conftest.sharp_f_w``) and compare per word; the negative
controls swap one root's atoms in the table, or tamper with one root's
provenance chain, and expect each check to report the failure.
"""

from __future__ import annotations

import pytest

from degeis import eisenstein
from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import (_AtomTable, _carry, _eps_character, _inverse_columns, _left,
                               entireness_report, generic_character, sharp_invariance_check)
from degeis.errors import HyperplaneDegeneracyError
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import ZetaExpr, _Expansion, _Multisets, expand_in

from conftest import F4_CARTAN, sharp_f_w

PRESETS = ["A1", "G2", "tri_D4", "quasi_D4", "split_D4"]
# every 11th element of W(F4): 105 of 1152 words, all lengths
F4_STRIDE = 11


def system_of(name):
    return build_system("custom", cartan=F4_CARTAN) if name == "F4" else build_system(name)


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
    system = system_of(name)
    walk = system.weyl_elements()
    columns = _inverse_columns(system, walk)
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
def test_carried_invariance_multisets_match_full_builds(name):
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
    assert entireness_report(system).entire
    rank = system.rank
    # F_w is read off the atom tables without a build; only the L polynomials
    # are built: two per invariance check and two boundary characters per
    # simple root, each of those also expanded in eps with no further build
    assert counts["expand_in"] <= 2 * rank
    assert counts["build"] <= 4 * rank


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
    system = build_system(name)
    assert sharp_invariance_check(system, 1) == (True, None)
    swap_atoms(monkeypatch, -1, calls={1})      # in F_u(lam), not in F_{w_1 u}(w_1 lam)
    passed, word = sharp_invariance_check(system, 1)
    assert not passed and word == WeylWord()


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


def test_h0_reports_mismatched_exponents(monkeypatch):
    system = build_system("quasi_D4")
    real = _inverse_columns

    def shuffled(system, walk):
        columns = real(system, walk)
        return columns[1:] + columns[:1]

    monkeypatch.setattr(eisenstein, "_inverse_columns", shuffled)
    rep = entireness_report(system)
    assert rep.boundary_ok and not rep.h0_ok


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
