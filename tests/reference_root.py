"""Root-system action in plain coordinates, the reference for ``degeis.rootdata``.

Roots are coordinate tuples in the simple-root basis, and s_i subtracts
(row i of the Cartan matrix . c) from coordinate i.  ``cartan`` is a tuple
of row tuples, as ``RootSystem.cartan`` holds it.  Nothing here reads the
signed-root positions, ``_gens`` or the prefix cache of a ``RootSystem``;
only its Cartan matrix.  ``tests/test_root_reference.py`` holds the
position-backed action against these functions.
"""

from __future__ import annotations

import functools

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


def reflection_word(cartan, c: Coords) -> tuple[int, ...]:
    """The word s_i u s_i for a root c = s_i(parent), u the parent's word."""
    prov = provenance(cartan)
    outer = []
    while prov[c] is not None:
        i, c = prov[c]
        outer.append(i)
    return tuple(outer) + (c.index(1) + 1,) + tuple(reversed(outer))


def inversion_set(cartan, letters) -> list[Coords]:
    """{alpha > 0 : w^{-1} alpha < 0}, by height and then coordinates."""
    inverse = tuple(reversed(letters))
    return [c for c in positive_roots(cartan)
            if not positive(word_on_root(cartan, inverse, c))]
