from __future__ import annotations

import pytest

from degeis.characters import (TorusCharacter, chi_line_for, parabolic_levi, standard_line,
                               weyl_act)
from degeis.eisenstein import GKTerm, coset_reps
from degeis.forms import AffineForm
from degeis.rootdata import build_system
from degeis.zetas import ZetaAtom, ZetaExpr


@pytest.fixture(scope="session")
def quasi():
    return build_system("quasi_D4")


@pytest.fixture(scope="session")
def split():
    return build_system("split_D4")


@pytest.fixture(scope="session")
def tri():
    return build_system("tri_D4")


@pytest.fixture(scope="session")
def g2():
    return build_system("G2")


@pytest.fixture(scope="session")
def a1():
    return build_system("A1")


def af(a, b=0, name="s"):
    """Affine form a*name + b."""
    return AffineForm.of(b, **{name: a})


def rebuild(e):
    """ZetaExpr.build of an expression's own parts: its canonical form again."""
    return ZetaExpr.build(e.scalar, e.num, e.den, e.atoms, e.residues)


def xi(label, a, b=0):
    """xi_label(a s + b) as a ZetaExpr."""
    return ZetaExpr.atom(label, af(a, b))


def xir(label, *linear):
    """Ratio prod xi(label, a, b) / xi(label, a, b+1) over (a, b) pairs."""
    e = ZetaExpr()
    for a, b in linear:
        e = e * xi(label, a, b) / xi(label, a, b + 1)
    return e


F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]

# Bourbaki numbering: the chain 1-3-4-5-6-7-8 with node 2 attached to node 4
E_EDGES = {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)}


def simply_laced(rank, edges):
    """Cartan matrix of the simply-laced diagram with the given (i, j) edges."""
    return [[2 if i == j else -1 if (i + 1, j + 1) in edges or (j + 1, i + 1) in edges else 0
             for j in range(rank)] for i in range(rank)]


def e_type(rank):
    return build_system("custom", cartan=simply_laced(
        rank, {(i, j) for i, j in E_EDGES if j <= rank}))


# (preset, parabolic, named line or None for the chi line): the benchmark's pole sweep
SWEEP_TRIPLES = [
    (g, p, line)
    for g in ("split_D4", "quasi_D4")
    for p, line in (("borel", None), ("P", None), ("Q", None), ("P", "muP"), ("Q", "muQ"))
] + [("tri_D4", "borel", None), ("tri_D4", "P", None), ("tri_D4", "P", "muP"),
     ("G2", "borel", None), ("A1", "borel", None)]


def maximal_parabolic(system, node):
    """(system, levi, line) with the line s in the removed node and -1 elsewhere."""
    line = [AffineForm.of(-1)] * system.rank
    line[node - 1] = AffineForm.var("s")
    return (system, tuple(j for j in range(1, system.rank + 1) if j != node),
            TorusCharacter(tuple(line)))


def sweep_cases():
    """(id, system, levi, line) for every entry of SWEEP_TRIPLES."""
    for preset, parabolic, name in SWEEP_TRIPLES:
        system = build_system(preset)
        line = chi_line_for(system, parabolic) if name is None else standard_line(system, name)
        yield f"{preset}-{parabolic}-{name}", system, parabolic_levi(system, parabolic), line


def exceptional_cases():
    """(id, system, levi, line) for F4 without node 1-4 and E6 without node 1."""
    for node in (1, 2, 3, 4):
        yield (f"F4-{node}", *maximal_parabolic(build_system("custom", cartan=F4_CARTAN), node))
    yield ("E6-1", *maximal_parabolic(e_type(6), 1))


def walk_cases():
    yield from sweep_cases()
    yield from exceptional_cases()


# -- J(w) built in full: the reference for the constant term's atom table -----

def gk_reference(system, line, word):
    """J(w) along the line built from scratch: xi(<line,a^vee>)/xi(<line,a^vee>+1) over N(w)."""
    atoms = []
    for root in system.inversion_set(word):
        label, p = system.label_of(root).symbol, line.pair(system.coroot(root))
        atoms += [ZetaAtom(label, p, 1), ZetaAtom(label, p + 1, -1)]
    return ZetaExpr.build(atoms=atoms)


def reference_terms(system, levi, line):
    """The GK terms of every coset word built from scratch, with no atom table: J by
    ``gk_reference`` and the exponent w^{-1} . line by ``weyl_act``."""
    return tuple(GKTerm(w, gk_reference(system, line, w), weyl_act(system, w.inverse(), line))
                 for w in coset_reps(system, levi))


# -- the appendix checks built in full: the reference for the carried path ------

def sharp_pairings(system, lam):
    """(label of a, <lam, a^vee>) for every positive root a, in root order."""
    return [(system.label_of(root).symbol, lam.pair(system.coroot(root)))
            for root in system.positive_roots]


def sharp_f_w(system, lam, word):
    """F_w(lam) as one ZetaExpr: xi(<lam,a^vee>) over the roots w inverts, xi(<lam,a^vee>+1) over the rest."""
    inverted = set(system.inversion_set(word))
    return ZetaExpr.build(atoms=[
        ZetaAtom(label, p if root in inverted else p + 1, 1)
        for root, (label, p) in zip(system.positive_roots, sharp_pairings(system, lam))])


def sharp_l_poly(system, lam):
    """The polynomial normalizer L(lam) = prod_a (<lam,a^vee>+1)(<lam,a^vee>-1)."""
    return ZetaExpr.build(num=[f for _, p in sharp_pairings(system, lam) for f in (p + 1, p - 1)])
