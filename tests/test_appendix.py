"""The appendix checks, against F_w built in full and against a walk over W.

No appendix check walks W.  ``sharp_invariance_check`` checks per root that
s_i carries coroot pairings and labels to those of s_i a, and
``entireness_report`` and ``h0_cancellation_check`` read each root's plain
and shifted atom off one table per simple index that holds the eps - 1, eps
and eps + 1 characters (``_eps_table``), each atom expanded once in eps; that
table must give each character's per-root data as its own atom table does.
The checks must answer as the term-by-term walk over W
(``reference_appendix``) does, on intact systems and on systems with one
root's coroot perturbed.  The walk carries Laurent data and canonical atom
multisets from each element's prefix; the tests below also check it against
every F_w rebuilt as one ``ZetaExpr`` (``conftest.sharp_f_w``).  The
negative controls swap or replace one root's atoms in the H^0 character's
tables, drop the normalizer's zero on one side of one index, or tamper with
one root's provenance chain, and expect each check to report the failure.
"""

from __future__ import annotations

import pytest

from degeis import eisenstein, zetas
from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import (_AtomTable, _eps_character, _eps_table, _index_verdicts,
                               _pairing_forms, _pairings, _root_atoms, entireness_report,
                               h0_cancellation_check, sharp_invariance_check)
from degeis.errors import HyperplaneDegeneracyError
from degeis.forms import AffineForm
from degeis.rootdata import LABEL_E, LABEL_K, RootSystem, WeylWord, _preset_labels, build_system
from degeis.zetas import ZetaExpr, _Expansion, _Multisets, expand_in

from conftest import F4_CARTAN, e_type, sharp_f_w
from reference_appendix import (_carry, _left, generic_character, ref_boundary,
                                ref_boundary_blocks, ref_h0_cancellations, ref_inverse_columns,
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
    """The per-root H^0 verdict is the walk's, which the exponent comparison does not change.

    Intact, and with the highest root's coroot perturbed.
    """
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
            results = ref_h0_cancellations(system, walk, i, _Multisets(len(system.positive_roots)))
            left = _left(system, walk, i)
            with_exponents = [ok and columns[k][:i - 1] == columns[p][:i - 1]
                              and columns[k][i:] == columns[p][i:]
                              for k, (ok, p) in enumerate(zip(results, left))]
            assert with_exponents == results, (j, i)
            assert h0_cancellation_check(system, i, WeylWord()) == all(results), (j, i)
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


def walk_verdicts(system):
    """The boundary verdict and the H^0 verdict of every simple index, by the walk over W."""
    walk = system.weyl_elements()
    h0 = [all(ref_h0_cancellations(system, walk, i, _Multisets(len(system.positive_roots))))
          for i in range(1, system.rank + 1)]
    return ref_boundary(system), h0


def per_root_verdicts(system):
    """The same verdicts from ``entireness_report`` and ``h0_cancellation_check``."""
    rep = entireness_report(system)
    h0 = [h0_cancellation_check(system, i, WeylWord()) for i in range(1, system.rank + 1)]
    assert rep.h0_ok == all(h0)
    return rep.boundary_ok, h0


@pytest.mark.parametrize("name", PRESETS + ["F4", "B3", "C3", "G2-swapped", "E6", "F4-K", "G2-E"])
def test_entireness_matches_the_walk_over_w(name):
    system = system_of(name)
    assert per_root_verdicts(system) == walk_verdicts(system) == (True, [True] * system.rank)
    assert entireness_report(system).checked_words == system.rank * len(system.weyl_elements())


@pytest.mark.parametrize("name", PRESETS)
def test_entireness_reports_a_perturbed_coroot_as_the_walk_does(monkeypatch, name):
    """+1 on one coordinate of one root's coroot vector, for every root and coordinate.

    Per perturbation: the boundary verdict and rank H^0 verdicts, 422 in all
    over the presets.
    """
    system = build_system(name)
    cvec = system._cvec
    failed = False
    for k, c in enumerate(cvec):
        for j in range(system.rank):
            bumped = c[:j] + (c[j] + 1,) + c[j + 1:]
            monkeypatch.setattr(system, "_cvec", cvec[:k] + (bumped,) + cvec[k + 1:])
            boundary, h0 = per_root_verdicts(system)
            assert (boundary, h0) == walk_verdicts(system), (k, j)
            failed = failed or not (boundary and all(h0))
    # on A1 the perturbed coroot 2 alpha^vee still gives a normalizer and residues that cancel
    assert failed or name == "A1"


def test_invariance_on_e7_and_e8_walks_nothing(monkeypatch):
    """Past the enumeration bound every appendix check still answers: none lists W.

    The invariance check builds no table and no expression either.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("sharp_invariance_check built a table or an expression")

    for rank in (7, 8):
        system = e_type(rank)
        with monkeypatch.context() as patched:
            patched.setattr(_AtomTable, "of_line", staticmethod(refuse))
            patched.setattr(ZetaExpr, "build", staticmethod(refuse))
            assert all(sharp_invariance_check(system, i) == (True, None)
                       for i in range(1, rank + 1))
        rep = entireness_report(system)
        assert rep.entire
        assert rep.checked_words == rank * system.weyl_order()
        assert all(h0_cancellation_check(system, i, system.parse_word("12")) is True
                   for i in range(1, rank + 1))
        assert system._weyl_cache == {}


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


OFFSETS = (-1, 0, 1)


def block_data(atoms):
    """(order, scalar) of every root's plain and shifted atom, and the first of them
    with the same packed leading multiset: packed keys of two tables compare only so."""
    first = {}
    return [(o, c, first.setdefault(m, k))
            for k, (o, c, m) in enumerate(a for pair in atoms for a in pair)]


@pytest.mark.parametrize("name", PRESETS + ["F4", "E6"] + list(FOLDED))
def test_eps_table_matches_one_table_per_character(name):
    """Each offset's block of the shared table, against that character's own atom table.

    Also the boundary pairings, against ``_pairings``, and the H^0 table alone
    that ``h0_cancellation_check`` builds.
    """
    system = system_of(name)
    n = len(system.positive_roots)
    for i in range(1, system.rank + 1):
        table, den, blocks = _eps_table(system, i, OFFSETS)
        assert len(table.roots) == len(OFFSETS) * n
        atoms = _root_atoms(table)
        for b, offset in enumerate(OFFSETS):
            lam = eps_character(system, i, offset)
            expected = block_data(_root_atoms(_AtomTable.of_line(system, lam)))
            assert block_data(atoms[b * n:(b + 1) * n]) == expected, (name, i, offset)
            assert _pairing_forms(system, den, blocks[b]) == _pairings(system, lam), \
                (name, i, offset)
        alone, _, _ = _eps_table(system, i, (0,))
        assert block_data(_root_atoms(alone)) == block_data(atoms[n:2 * n]), (name, i)


def test_per_root_checks_raise_on_an_atom_that_cannot_be_expanded(monkeypatch):
    """No silent (0, 1, 0) data: a pairing identically 0 has no expansion in eps.

    The boundary and H^0 checks raise the typed error the walk and
    ``expand_in`` raise.  A zero coroot vector pairs every eps character,
    at every offset, to 0.
    """
    system = build_system("A1")
    zero = TorusCharacter.of(AffineForm.of(0))
    with pytest.raises(HyperplaneDegeneracyError) as reference:
        expand_in(ZetaExpr.atom("F", AffineForm.of(0)), "eps")
    table = _AtomTable.of_line(system, zero)
    with pytest.raises(HyperplaneDegeneracyError) as walked:
        _carry(system.weyl_elements(), table,
               _Expansion(table.keys, _Multisets(len(system.positive_roots)), "eps"))
    assert walked.value.info == reference.value.info
    monkeypatch.setattr(system, "_cvec", ((0,),))
    for check in (entireness_report, lambda system: h0_cancellation_check(system, 1, WeylWord())):
        with pytest.raises(HyperplaneDegeneracyError) as caught:
            check(system)
        assert caught.value.info == reference.value.info


def count_calls(monkeypatch):
    counts = dict.fromkeys(["build", "expand_in", "weyl_elements", "of_line", "_pairing_nums",
                            "_Expansion"], 0)
    build, weyl_elements, of_line = ZetaExpr.build, RootSystem.weyl_elements, _AtomTable.of_line
    pairing_nums = eisenstein._pairing_nums

    def counted_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    def counted_expand(*args, **kwargs):
        counts["expand_in"] += 1
        return expand_in(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        counts["weyl_elements"] += 1
        return weyl_elements(*args, **kwargs)

    def counted_table(*args, **kwargs):
        counts["of_line"] += 1
        return of_line(*args, **kwargs)

    def counted_nums(*args, **kwargs):
        counts["_pairing_nums"] += 1
        return pairing_nums(*args, **kwargs)

    class CountedExpansion(_Expansion):
        def __init__(self, *args, **kwargs):
            counts["_Expansion"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ZetaExpr, "build", staticmethod(counted_build))
    monkeypatch.setattr(eisenstein, "expand_in", counted_expand)
    monkeypatch.setattr(RootSystem, "weyl_elements", counted_walk)
    monkeypatch.setattr(_AtomTable, "of_line", staticmethod(counted_table))
    monkeypatch.setattr(eisenstein, "_pairing_nums", counted_nums)
    for module in (eisenstein, zetas):
        monkeypatch.setattr(module, "_Expansion", CountedExpansion)
    return counts


@pytest.mark.parametrize("name", ["split_D4", "F4"])
def test_appendix_checks_build_per_root_not_per_word(monkeypatch, name):
    system = system_of(name)
    counts = count_calls(monkeypatch)
    assert all(sharp_invariance_check(system, i)[0] for i in range(1, system.rank + 1))
    assert set(counts.values()) == {0}
    assert entireness_report(system).entire
    rank = system.rank
    # per simple root: one pairing of the eps character and one expansion of
    # the atoms of its three offsets, and the L polynomials of the two
    # boundary characters, each built once and expanded in eps; no walk and
    # no atom table per character
    assert counts == {"build": 2 * rank, "expand_in": 2 * rank, "weyl_elements": 0,
                      "of_line": 0, "_pairing_nums": rank, "_Expansion": 3 * rank}


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


# the whole normalizer; without the p - 1 factors only elements inverting
# alpha_i keep a pole at eps + 1 (w_0, not 1), and without the p + 1 factors
# only elements not inverting it keep one at eps - 1 (1, not w_0)
NORMALIZERS = [lambda pairs: [], lambda pairs: [p + 1 for _, p in pairs],
               lambda pairs: [p - 1 for _, p in pairs]]


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
def test_boundary_reports_a_missing_normalizer(monkeypatch, name):
    system = build_system(name)
    for factors in NORMALIZERS:
        monkeypatch.setattr(eisenstein, "_l_factors", factors)
        rep = entireness_report(system)
        assert not rep.boundary_ok and rep.h0_ok and not rep.entire
        assert not ref_boundary(system)


def lacking_one_factor(index, offset):
    """``_l_factors`` without alpha_index's factor that vanishes at eps = 0 on that index's
    character eps + offset only: p - 1 at p = eps + 1, or p + 1 at p = eps - 1.  Only
    that index's characters pair no root to a form in z_index."""
    eps, z = AffineForm.var("eps"), f"z{index}"

    def factors(pairs):
        own = all(z not in p.params for _, p in pairs)
        return [f for _, p in pairs for f in (p + 1, p - 1)
                if not (own and p == eps + offset and f == eps)]
    return factors


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
@pytest.mark.parametrize("offset", [1, -1])
def test_boundary_pairs_each_offset_with_its_own_normalizer(monkeypatch, name, offset):
    """One side of one index lacks its normalizer's zero: that block alone fails, per
    offset as the walk over W finds, so L at one offset added to the other offset's atoms
    is seen."""
    system = build_system(name)
    monkeypatch.setattr(eisenstein, "_l_factors", lacking_one_factor(2, offset))
    want = ref_boundary_blocks(system)
    assert [key for key, ok in want.items() if not ok] == [(2, offset)]
    for i in range(1, system.rank + 1):
        assert _index_verdicts(system, i)[0] == {o: want[i, o] for o in (-1, 1)}, i
    rep = entireness_report(system)
    assert not rep.boundary_ok and rep.h0_ok


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
def test_h0_reports_a_swapped_atom(monkeypatch, name):
    system = build_system(name)
    # alpha_2 is not fixed by w_1, so the swap breaks the pairing of w with w_1 w
    alpha_2 = system.positive_roots.index(system.simple_root(2))
    tamper_h0_table(monkeypatch, system, alpha_2, swapped)     # alpha_1's H^0 character only
    rep = entireness_report(system)
    assert rep.boundary_ok and not rep.h0_ok and not rep.entire
    assert not h0_cancellation_check(system, 1, WeylWord())
    assert all(h0_cancellation_check(system, i, WeylWord()) for i in range(2, system.rank + 1))


def tamper_h0_table(monkeypatch, system, root, change):
    """Apply change(table, position of root) to every atom table of alpha_1's H^0
    character: its own, which the walk reads, and its block of each eps table of
    alpha_1, which the per-root checks read."""
    real_line, real_eps = _AtomTable.of_line, eisenstein._eps_table
    line = _eps_character(system, 1, 0)

    def tampered_line(system, lam):
        table = real_line(system, lam)
        if lam == line:
            change(table, root)
        return table

    def tampered_eps(system, simple_index, offsets):
        table, den, blocks = real_eps(system, simple_index, offsets)
        if simple_index == 1:
            change(table, offsets.index(0) * len(system.positive_roots) + root)
        return table, den, blocks

    monkeypatch.setattr(_AtomTable, "of_line", staticmethod(tampered_line))
    monkeypatch.setattr(eisenstein, "_eps_table", tampered_eps)


def swapped(table, position):
    """The root's plain and shifted id exchanged."""
    plain, shifted = table.roots[position]
    table.roots[position] = shifted, plain


def fixed_root_made_polar(system):
    """A root b != alpha_1 fixed by s_1, given alpha_1's coroot: its atoms are polar too."""
    alpha, gen = system._simple_pos[0], system._gens[0]
    b = next(k for k in range(len(system.positive_roots)) if k != alpha and gen[k] == k)
    cvec = list(system._cvec)
    cvec[b] = cvec[alpha]
    return tuple(cvec)


def same_atom_twice(table, alpha):
    """alpha_1's plain atom in place of its shifted one: equal residues, not opposite."""
    table.roots[alpha] = (table.roots[alpha][0],) * 2


def relabelled_shift(table, alpha):
    """alpha_1's shifted atom under a label no root carries: opposite scalars, other residue."""
    plain, shifted = table.roots[alpha]
    label, arg = table.keys[shifted]
    table.keys.append(("X", arg))
    table.roots[alpha] = plain, len(table.keys) - 1


@pytest.mark.parametrize("name", ["G2", "quasi_D4"])
@pytest.mark.parametrize("broken", ["polar fixed root", "same atom twice", "relabelled shift"])
def test_h0_reports_each_broken_per_root_fact(monkeypatch, name, broken):
    """Each H^0 fact the walk needs, broken on alpha_1 alone: both report it."""
    system = build_system(name)
    if broken == "polar fixed root":
        monkeypatch.setattr(system, "_cvec", fixed_root_made_polar(system))
    else:
        change = same_atom_twice if broken == "same atom twice" else relabelled_shift
        tamper_h0_table(monkeypatch, system, system._simple_pos[0], change)
    _, h0 = per_root_verdicts(system)
    assert h0 == walk_verdicts(system)[1]
    assert not h0[0]


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
