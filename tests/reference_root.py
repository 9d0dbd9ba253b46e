"""Root-system action in plain coordinates, the reference for ``degeis.rootdata``.

Roots are coordinate tuples in the simple-root basis, and s_i subtracts
(row i of the Cartan matrix . c) from coordinate i.  ``cartan`` is a tuple
of row tuples, as ``RootSystem.cartan`` holds it.  Nothing here reads the
signed-root positions, ``_gens`` or the prefix cache of a ``RootSystem``;
only its Cartan matrix (and, for coroots and norm characters, its pairing
matrix and simple-root degrees).  ``tests/test_root_reference.py`` holds the
position-backed action against these functions, and
``tests/test_root_closed_forms.py`` the closed-form coroots and norm
characters.
"""

from __future__ import annotations

import functools
from fractions import Fraction

Coords = tuple[int, ...]


def reflect(cartan, i: int, c: Coords) -> Coords:
    """s_i(c) for a 1-based simple index i."""
    t = sum(a * x for a, x in zip(cartan[i - 1], c))
    return c[:i - 1] + (c[i - 1] - t,) + c[i:]


def word_on_root(cartan, letters, c: Coords) -> Coords:
    """w(c) for w = s_{i1} ... s_{ik}: the rightmost letter acts first."""
    for i in reversed(letters):
        c = reflect(cartan, i, c)
    return c


def positive(c: Coords) -> bool:
    return any(x > 0 for x in c)


def positive_roots(cartan) -> list[Coords]:
    """Every positive root, by height and then coordinates."""
    return sorted(provenance(cartan), key=lambda c: (sum(c), c))


@functools.cache
def provenance(cartan) -> dict[Coords, tuple[int, Coords] | None]:
    """Breadth-first closure of the simple roots under the simple reflections.

    A root's entry is (i, parent) for the first s_i(parent) that reached it,
    scanning each level's roots in the order they were found and i upwards;
    simple roots map to None.  Insertion order is the order of discovery.
    """
    rank = len(cartan)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    found: dict[Coords, tuple[int, Coords] | None] = {c: None for c in simples}
    level = simples
    while level:
        nxt = []
        for c in level:
            for i in range(1, rank + 1):
                img = reflect(cartan, i, c)
                if positive(img) and img not in found:
                    found[img] = (i, c)
                    nxt.append(img)
        level = nxt
    return found


def inversion_set(cartan, letters) -> list[Coords]:
    """{alpha > 0 : w^{-1} alpha < 0}, by height and then coordinates."""
    inverse = tuple(reversed(letters))
    return [c for c in positive_roots(cartan)
            if not positive(word_on_root(cartan, inverse, c))]


# -- coroots and norm characters, root by root --------------------------------
#
# The coroot pairing vector of a split root carried along its provenance
# chain by the dual reflections, and norm characters as sums of Fraction
# vectors: the bookkeeping that ``RootSystem`` replaces by closed forms.
# ``pairing`` and ``degrees`` are what a ``RootSystem`` holds as ``pairing``
# and as the degrees of its simple-root labels.


def coroots_by_transport(cartan, pairing, folded: bool) -> dict[Coords, Coords]:
    """Each positive root's coroot pairing vector.

    A simple root pairs through its own coordinates, and so does every root
    of a folded system.  A split root s_i(parent) takes its parent's vector
    v with (row i of the pairing matrix . v) subtracted from coordinate i.
    """
    out: dict[Coords, Coords] = {}
    for c, prov in provenance(cartan).items():     # every parent before its roots
        if prov is None or folded:
            out[c] = c
            continue
        i, parent = prov
        v = list(out[parent])
        v[i - 1] -= sum(a * x for a, x in zip(pairing[i - 1], v))
        out[c] = tuple(v)
    return out


def origin(cartan, c: Coords) -> int:
    """The 1-based simple index at the start of a positive root's provenance chain."""
    prov = provenance(cartan)
    while prov[c] is not None:
        c = prov[c][1]
    return c.index(1) + 1


def norm_char(cartan, pairing, degrees, c: Coords) -> tuple[Fraction, ...]:
    """sum_i c_i * (deg_alpha / deg_i) * pairing column i, one Fraction at a time."""
    degree = degrees[origin(cartan, c if positive(c) else tuple(-x for x in c)) - 1]
    out = [Fraction(0)] * len(cartan)
    for i, x in enumerate(c):
        for j, p in enumerate(pairing[i]):
            out[j] += Fraction(x * degree, degrees[i]) * p
    return tuple(out)


def modular_character(cartan, pairing, degrees, levi, ambient=None) -> tuple[Fraction, ...]:
    """The norm characters of the radical's roots added as Fraction vectors.

    The radical is the positive roots supported in ``ambient`` (all simple
    indices by default) and not in ``levi``.
    """
    amb = set(range(1, len(cartan) + 1) if ambient is None else ambient)
    total = [Fraction(0)] * len(cartan)
    for c, vec in _norm_chars(cartan, pairing, tuple(degrees)).items():
        support = {j for j, x in enumerate(c, start=1) if x}
        if support <= amb and not support <= set(levi):
            total = [t + v for t, v in zip(total, vec)]
    return tuple(total)


@functools.cache
def _norm_chars(cartan, pairing, degrees) -> dict[Coords, tuple[Fraction, ...]]:
    return {c: norm_char(cartan, pairing, degrees, c) for c in positive_roots(cartan)}
