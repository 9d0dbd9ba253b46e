from __future__ import annotations

import pytest

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


def xi(label, a, b=0):
    """xi_label(a s + b) as a ZetaExpr."""
    return ZetaExpr.atom(label, af(a, b))


def xir(label, *linear):
    """Ratio prod xi(label, a, b) / xi(label, a, b+1) over (a, b) pairs."""
    e = ZetaExpr.one()
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
