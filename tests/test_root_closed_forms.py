"""Closed-form coroots and norm characters against root-by-root bookkeeping.

``RootSystem`` takes a split root's coroot as c_i d_i / d_o (d the
symmetrizer, o the simple root its provenance chain starts at) and maps
degree-weighted integer coordinates to characters in one step.
``tests/reference_root.py`` keeps the transport of coroots along the
provenance chain and the norm characters as sums of ``Fraction`` vectors;
these tests hold the two against each other on the presets, on custom
systems of every type up to rank 8 with each Cartan matrix and its
transpose (when it differs), and on custom F4 and G2 with nonsplit labels
on their short simple roots.
"""

from fractions import Fraction as Q
from itertools import combinations

import pytest

import reference_root as ref
from conftest import F4_CARTAN, E_EDGES, simply_laced
from degeis.characters import modular_character, parabolic_levi
from degeis.rootdata import LABEL_E, LABEL_K, _preset_labels, build_system


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _chain(rank, double=None):
    """The A_rank chain, with entry (i, j) (1-based) set to -2 when ``double`` names it."""
    rows = simply_laced(rank, {(i, i + 1) for i in range(1, rank)})
    if double is not None:
        rows[double[0] - 1][double[1] - 1] = -2
    return rows


def _d_type(rank):
    return simply_laced(rank, {(i, i + 1) for i in range(1, rank - 1)} | {(rank - 2, rank)})


CUSTOM = {
    "A3": _chain(3), "B3": _chain(3, (3, 2)), "B4": _chain(4, (4, 3)),
    "C3": _chain(3, (2, 3)), "C4": _chain(4, (3, 4)), "D5": _d_type(5),
    "E6": simply_laced(6, {e for e in E_EDGES if e[1] <= 6}),
    "E7": simply_laced(7, {e for e in E_EDGES if e[1] <= 7}),
    "E8": simply_laced(8, E_EDGES),
    "F4": F4_CARTAN, "G2": [[2, -1], [-3, 2]],
}


def _systems():
    for name in ("split_D4", "quasi_D4", "tri_D4", "G2", "A1"):
        yield name, build_system(name)
    for name, rows in CUSTOM.items():
        yield name, build_system("custom", cartan=rows)
        if _transpose(rows) != rows:
            yield f"{name}^T", build_system("custom", cartan=_transpose(rows))
    for name, rows, label in (("F4", F4_CARTAN, LABEL_K), ("G2", CUSTOM["G2"], LABEL_E)):
        for tag, cartan in ((name, rows), (f"{name}^T", _transpose(rows))):
            yield f"{tag}-{label.symbol}", build_system(
                "custom", cartan=cartan, labels=_preset_labels(cartan, label))


SYSTEMS = dict(_systems())


def _degrees(system):
    return [system.label_of(system.simple_root(i)).degree for i in range(1, system.rank + 1)]


def test_the_systems_cover_split_folded_and_every_type():
    folded = sorted(name for name, system in SYSTEMS.items() if system.folded)
    assert folded == ["F4-K", "F4^T-K", "G2-E", "G2^T-E", "quasi_D4", "tri_D4"]
    assert {len(SYSTEMS[name].positive_roots) for name in CUSTOM} == {6, 9, 16, 20, 36, 63, 120, 24}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_coroots_and_norm_characters_match_the_transport(name):
    system = SYSTEMS[name]
    cartan, pairing, degrees = system.cartan, system.pairing, _degrees(system)
    transported = ref.coroots_by_transport(cartan, pairing, system.folded)
    assert system._cvec == tuple(transported[r.coords] for r in system.positive_roots)
    for root in system._signed:
        c = root.coords
        sign = 1 if root.positive else -1
        vec = transported[c if root.positive else tuple(-x for x in c)]
        assert system.coroot(root) == tuple(Q(sign * x) for x in vec), root
        assert system.norm_char(root) == ref.norm_char(cartan, pairing, degrees, c), root
        assert all(type(x) is Q for x in system.coroot(root) + system.norm_char(root))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_modular_characters_match_the_root_by_root_sum(name):
    system = SYSTEMS[name]
    cartan, pairing, degrees = system.cartan, system.pairing, _degrees(system)
    indices = range(1, system.rank + 1)
    for size in range(system.rank + 1):
        for levi in combinations(indices, size):
            got = modular_character(system, levi).coords
            assert tuple(f.const for f in got) == \
                ref.modular_character(cartan, pairing, degrees, levi), levi
            assert all(f.is_constant() for f in got)


@pytest.mark.parametrize("preset", ["split_D4", "quasi_D4"])
def test_ambient_modular_characters_of_iota_check(preset):
    system = SYSTEMS[preset]
    cartan, pairing, degrees = system.cartan, system.pairing, _degrees(system)
    p_levi, q_levi = parabolic_levi(system, "P"), parabolic_levi(system, "Q")
    r_levi = tuple(i for i in p_levi if i in q_levi)
    for ambient in (p_levi, q_levi):
        got = modular_character(system, r_levi, ambient=ambient).coords
        assert tuple(f.const for f in got) == \
            ref.modular_character(cartan, pairing, degrees, r_levi, ambient)
