"""Labeled relative root systems and their Weyl groups.

Presets cover the groups used in the calculator: split D4, quasi-split 2D4
(relative type B3, quadratic label K), triality 3D4 (relative type G2, cubic
label E), split G2 and A1.  Custom systems are built from a Cartan matrix and
a label map on simple roots.

Conventions
-----------
Roots are written in simple-root coordinates.  The Cartan matrix ``A``
follows the row convention  w_i(alpha_j) = alpha_j - A[i][j] alpha_i,  so a
root ``c`` reflects to ``c - (row_i . c) e_i``.  Inside a ``RootSystem`` a
root is its signed-root position: the per-root data are tuples indexed by
positive-root position, the simple reflections are permutations of the
positions, and a vector that is not a root of the system is refused with
unknown-root.

For the quasi-split (folded) presets the character-side pairing is inherited
from the simply-laced cover: coordinates of torus characters are taken with
respect to the norms |.|_{F_alpha} of the root fields, which makes the
coroot-pairing vector of every root equal to its own root coordinates, and
makes simple reflections act on fundamental-weight coordinates through the
transpose of ``A``.  For split systems everything is classical (pairing
matrix = A, coroot alpha^vee = 2 alpha / (alpha, alpha)).

The norm character of a root (its fundamental-weight coordinate vector as an
absolute-value character of the torus) is

    nchar(alpha) = sum_i c_i * (deg_alpha / deg_i) * pairing-column_i

which for split systems is plain linearity and for folded systems carries the
field-degree bookkeeping of restricted roots.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (ConfigError, EnumerationTooLargeError, LabelInconsistencyError,
                     NotFiniteTypeError, UnknownRootError,
                     UnsupportedGroupError)
from .forms import Q

# weyl_elements refuses to list more elements than this: the walk keeps one
# permutation of the 2N signed roots per element (E6: 51840, E7: 2903040)
_MAX_WEYL_ELEMENTS = 100_000


@dataclass(frozen=True, order=True)
class FieldLabel:
    symbol: str
    degree: int

    def __post_init__(self):
        if isinstance(self.degree, bool) or not isinstance(self.degree, int):
            raise ValueError(f"field degree {self.degree!r} is not an integer")
        if self.degree < 1:
            raise ValueError("field degree must be >= 1")
        if self.symbol == "F" and self.degree != 1:
            raise ValueError("label F must have degree 1")


LABEL_F = FieldLabel("F", 1)
LABEL_K = FieldLabel("K", 2)
LABEL_E = FieldLabel("E", 3)


@dataclass(frozen=True, order=True)
class Root:
    coords: tuple[int, ...]

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise ValueError("zero vector is not a root")
        if not (all(c >= 0 for c in self.coords) or all(c <= 0 for c in self.coords)):
            raise ValueError(f"mixed-sign coordinates: {self.coords}")

    @property
    def positive(self) -> bool:
        return any(c > 0 for c in self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class WeylWord:
    """Word in simple reflections; letters are 1-based simple-root indices."""

    letters: tuple[int, ...] = ()

    @staticmethod
    def of(*letters: int) -> "WeylWord":
        return WeylWord(tuple(letters))

    def __mul__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord(self.letters + other.letters)

    def inverse(self) -> "WeylWord":
        return WeylWord(tuple(reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "1" if not self.letters else "w[" + "".join(str(i) for i in self.letters) + "]"


class WeylWalk(list):
    """The (root permutation, shortlex word) pairs ``weyl_elements`` lists, with its walk.

    Element k > 0 is w = u s_j with u its shortlex prefix, found before it;
    ``steps[k - 1]`` is (index of u, j, position of the positive root
    u(alpha_j)), so N(w) is N(u) plus that root.
    """

    def __init__(self):
        super().__init__()
        self.steps: list[tuple[int, int, int]] = []


def _getter(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """perm -> tuple(perm[p] for p in positions), one C call when there are two or more."""
    get = operator.itemgetter(*positions)
    return get if len(positions) > 1 else lambda perm: (get(perm),)


_PRESET_DATA = {
    # name: (cartan rows, folded, nonsplit label)
    "split_D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
                 False, None),
    "quasi_D4": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], True, LABEL_K),
    "tri_D4": ([[2, -3], [-1, 2]], True, LABEL_E),
    "G2": ([[2, -3], [-1, 2]], False, None),
    "A1": ([[2]], False, None),
}

# absolute simple-root letters of the folded presets map to relative letters
_LETTER_ALIASES = {
    "quasi_D4": {1: 1, 2: 2, 3: 3, 4: 3},
    "tri_D4": {1: 1, 2: 2, 3: 1, 4: 1},
}


class RootSystem:
    """Immutable labeled root system; all operations are pure."""

    def __init__(self, name: str, cartan: Sequence[Sequence[int]], *,
                 folded: bool, labels: Mapping[int, FieldLabel]):
        self.name = name
        self.cartan = _validate_cartan(cartan)
        self.rank = len(self.cartan)
        self.folded = folded
        self.symmetrizer = _symmetrizer(self.cartan)
        _check_finite_type(self.cartan, self.symmetrizer)
        # pairing matrix: column i = fundamental-weight coords of alpha_i
        rows = self.cartan
        self.pairing = tuple(tuple(rows[j][i] for j in range(self.rank)) for i in range(self.rank)) \
            if not folded else rows
        # self.pairing[i] is the vector subtracted (times s_i) by reflection i
        self._simple_labels = {i: labels[i] for i in range(1, self.rank + 1)}
        self._generate()
        self._weyl_cache: dict[tuple[int, ...], WeylWalk] = {}
        self._inversion_cache: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}

    # -- construction -----------------------------------------------------

    def _generate(self) -> None:
        """The positive roots by a breadth-first walk from the simple roots.

        The walk runs on coordinate tuples.  It meets every image of every
        positive root, so it also gives the simple reflections as
        permutations of the signed-root positions (``_gens``); one ``Root``
        is made per signed root.  The per-root data are tuples indexed by
        positive-root position, filled in the walk's discovery order, which
        puts every root after its provenance parent.
        """
        rank, cartan = self.rank, self.cartan
        units = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        provenance: dict[tuple[int, ...], tuple[int, tuple[int, ...]] | None] = \
            {u: None for u in units}
        images: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        frontier = list(units)
        while frontier:
            nxt = []
            for c in frontier:
                images[c] = row = []
                for i in range(rank):
                    t = sum(a * x for a, x in zip(cartan[i], c) if x)
                    img = c[:i] + (c[i] - t,) + c[i + 1:] if t else c
                    row.append(img)
                    if img not in provenance and any(x > 0 for x in img):
                        provenance[img] = (i + 1, c)
                        nxt.append(img)
            frontier = nxt
        coords = sorted(provenance, key=lambda c: (sum(c), c))
        n = len(coords)
        pos = {c: k for k, c in enumerate(coords)}
        pos.update({tuple(-x for x in c): k + n for k, c in enumerate(coords)})
        self.positive_roots: tuple[Root, ...] = tuple(Root(c) for c in coords)
        # position k < n is positive_roots[k], position k + n its negative
        self._signed = self.positive_roots + tuple(-r for r in self.positive_roots)
        self._index = {r: k for k, r in enumerate(self._signed)}
        self._simple_pos = tuple(pos[u] for u in units)
        half = [[pos[images[c][i]] for c in coords] for i in range(rank)]
        self._gens = tuple(tuple(g + [(k + n) % (2 * n) for k in g]) for g in half)
        self._times = tuple(operator.itemgetter(*g) for g in self._gens)

        # Labels and norms are constant on Weyl orbits, so a root takes its
        # label, length class and norm 2 d_o (d the symmetrizer) from the simple
        # root alpha_o its provenance chain starts at.  A split root's coroot is
        # 2 alpha / (alpha, alpha) = sum_i c_i d_i / d_o alpha_i^vee (Bourbaki
        # VI.1); folded systems pair through the root's own coordinates.
        prov: list[tuple[int, int] | None] = [None] * n
        origin = [0] * n
        for c, p in provenance.items():
            k = pos[c]
            if p is None:
                origin[k] = c.index(1)
                continue
            letter, parent = p[0], pos[p[1]]
            prov[k], origin[k] = (letter, parent), origin[parent]
        self._provenance = tuple(prov)
        d, long_d = self.symmetrizer, max(self.symmetrizer)
        self._cvec = tuple(coords) if self.folded else tuple(
            tuple(x * d_i // d[o] for x, d_i in zip(c, d)) for c, o in zip(coords, origin))
        self._labels = tuple(self._simple_labels[i + 1] for i in origin)
        self._length_class = tuple("long" if d[i] == long_d else "short" for i in origin)
        for k, lab in enumerate(self._labels):
            for gen in self._gens:
                other = self._labels[gen[k] % n]
                if other != lab:
                    raise LabelInconsistencyError(
                        f"labels differ on the Weyl orbit of {self.positive_roots[k]}: "
                        f"{lab.symbol} vs {other.symbol}")

    def _weighted_char(self, weighted: Sequence[int]) -> tuple[Q, ...]:
        """sum_i n_i / deg_i * pairing column i, over the lcm of the degrees: additive
        in n, and the norm character of the root c at n = deg_alpha * c."""
        degrees = [lab.degree for lab in self._simple_labels.values()]
        den = math.lcm(*degrees)
        out = [0] * self.rank
        for n_i, deg, column in zip(weighted, degrees, self.pairing):
            for j, p in enumerate(column):
                out[j] += n_i * (den // deg) * p
        return tuple(Q(x, den) for x in out)

    # -- queries -----------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        self._check_index(i)
        return self._signed[self._simple_pos[i - 1]]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise UnknownRootError(f"simple index {i} out of range 1..{self.rank}")

    def _position(self, root: Root) -> int:
        """The signed-root position of a root of the system."""
        k = self._index.get(root)
        if k is None:
            raise UnknownRootError(f"{root} is not a root of {self.name}")
        return k

    def label_of(self, root: Root) -> FieldLabel:
        return self._labels[self._position(root) % len(self.positive_roots)]

    def length_class_of(self, root: Root) -> str:
        return self._length_class[self._position(root) % len(self.positive_roots)]

    def coroot(self, root: Root) -> tuple[Q, ...]:
        """Pairing vector c with <lambda, root^vee> = sum c_j lambda_j."""
        k, n = self._position(root), len(self.positive_roots)
        sign = 1 if k < n else -1
        return tuple(Q(sign * x) for x in self._cvec[k % n])

    def norm_char(self, root: Root) -> tuple[Q, ...]:
        """Fundamental-weight coordinates of |root|_{F_root} as a character."""
        degree = self.label_of(root).degree
        return self._weighted_char([degree * c for c in root.coords])

    def reflect_root(self, i: int, root: Root) -> Root:
        """s_i(root) for a root of the system: a lookup in ``_gens``."""
        self._check_index(i)
        return self._signed[self._gens[i - 1][self._position(root)]]

    def word_on_root(self, word: WeylWord, root: Root) -> Root:
        """Apply w = w_{i1}...w_{ik} to a root (rightmost letter acts first)."""
        k = self._position(root)
        gens, rank = self._gens, self.rank
        for i in reversed(word.letters):
            if not 0 < i <= rank:
                self._check_index(i)    # raises
            k = gens[i - 1][k]
        return self._signed[k]

    # -- Weyl group --------------------------------------------------------
    #
    # ``_signed[k]`` is the root at position k and ``_index`` its inverse;
    # ``_gens[i - 1]`` is s_i as a permutation of the positions, and
    # ``_times[i - 1]`` maps a permutation w to w s_i: (w s_i)(r) = w(s_i r).

    def perm_of_word(self, word: WeylWord) -> tuple[int, ...]:
        perm = tuple(range(len(self._signed)))
        for i in word.letters:
            self._check_index(i)
            perm = self._times[i - 1](perm)
        return perm

    def weyl_elements(self, levi: Iterable[int] = ()) -> WeylWalk:
        """Minimal representatives of W_L \\ W as (root permutation, shortlex word).

        With the default empty Levi this is all of W.  The representatives are
        closed under prefixes, and a step w -> w s_i goes up and stays among
        them exactly when w(alpha_i) is a positive root other than a Levi
        simple root (Deodhar's lemma), so the breadth-first walk visits
        |W| / |W_L| elements.  Words are the lexicographically least reduced
        words, listed in shortlex order.  The list is cached per Levi, with
        the walk's steps (``WeylWalk``).
        """
        key = tuple(sorted(set(levi)))
        cached = self._weyl_cache.get(key)
        if cached is not None:
            return cached
        for j in key:
            self._check_index(j)
        levi_pos = {self._simple_pos[j - 1] for j in key}
        levi_roots = (r for r in self.positive_roots
                      if all(c == 0 or j in key for j, c in enumerate(r.coords, start=1)))
        size = self.weyl_order() // _weyl_group_order(levi_roots)
        if size > _MAX_WEYL_ELEMENTS:
            raise EnumerationTooLargeError(
                f"{size} Weyl elements to enumerate on {self.name}, above the bound "
                f"{_MAX_WEYL_ELEMENTS}", size=size, bound=_MAX_WEYL_ELEMENTS)
        n = len(self.positive_roots)
        simple = self._simple_pos
        # (w s_i)(alpha_j) = w(s_i alpha_j): the key of w s_i read off w's permutation
        letters = [(i, pos, times, _getter([gen[p] for p in simple]))
                   for i, (pos, times, gen) in enumerate(zip(simple, self._times, self._gens), 1)]
        ident = tuple(range(2 * n))
        walk = WeylWalk()
        walk.append((ident, WeylWord()))
        steps = walk.steps
        # an element is determined by its images of the simple roots, the
        # identity's being the simple roots' own positions
        seen = {simple}
        # the output list is the queue: prefixes come in shortlex order and
        # letters ascend, so first discoveries are appended in shortlex order
        for k, (perm, word) in enumerate(walk):
            for i, pos, times, step_key in letters:
                image = perm[pos]
                if image >= n or image in levi_pos:
                    continue
                new = step_key(perm)
                if new not in seen:
                    seen.add(new)
                    walk.append((times(perm), WeylWord(word.letters + (i,))))
                    steps.append((k, i, image))
        self._weyl_cache[key] = walk
        return walk

    def weyl_order(self) -> int:
        return _weyl_group_order(self.positive_roots)

    def length(self, word: WeylWord) -> int:
        return len(self._inversions(word))

    def inversion_set(self, word: WeylWord) -> tuple[Root, ...]:
        """{alpha > 0 : w^{-1} alpha < 0} in canonical positive-root order."""
        signed = self._signed
        return tuple(signed[k] for k in self._inversions(word))

    def _inversions(self, word: WeylWord) -> tuple[int, ...]:
        """The positions of ``inversion_set(word)``, ascending.

        Extends the longest cached prefix u one letter at a time:
        N(u s_i) = N(u) + {u(alpha_i)} when u(alpha_i) > 0, and
        N(u) - {-u(alpha_i)} otherwise.  This holds for any word, reduced or
        not, and every prefix is cached, so the GK terms along the coset walk
        cost one root image each.
        """
        letters = word.letters
        cache = self._inversion_cache
        k = len(letters)
        while letters[:k] not in cache:
            k -= 1
        result = cache[letters[:k]]
        n = len(self.positive_roots)
        for j in range(k, len(letters)):
            image = self._index[self.word_on_root(WeylWord(letters[:j]),
                                                  self.simple_root(letters[j]))]
            current = list(result)
            if image < n:
                bisect.insort(current, image)
            else:
                current.remove(image - n)
            result = tuple(current)
            cache[letters[:j + 1]] = result
        return result

    def reduce(self, word: WeylWord) -> WeylWord:
        """A reduced word for the same element (deterministic)."""
        letters: list[int] = []
        perm = self.perm_of_word(word)
        n = len(self.positive_roots)
        ident = tuple(range(2 * n))
        while perm != ident:
            for i, pos in enumerate(self._simple_pos, start=1):
                # right descent: w(alpha_i) < 0
                if perm[pos] >= n:
                    letters.append(i)
                    perm = self._times[i - 1](perm)
                    break
            else:
                raise RuntimeError("no descent found for nontrivial element")
        return WeylWord(tuple(reversed(letters)))

    def reflection_word(self, root: Root) -> WeylWord:
        """A word s_i u s_i for the reflection in a root, u the parent's word."""
        k = self._position(root) % len(self.positive_roots)
        outer = []
        while (prov := self._provenance[k]) is not None:
            letter, k = prov
            outer.append(letter)
        simple = self._simple_pos.index(k) + 1
        return WeylWord(tuple(outer) + (simple,) + tuple(reversed(outer)))

    # -- parsing -----------------------------------------------------------

    def parse_word(self, text: str) -> WeylWord:
        """Parse words like ``2342`` or ``w[2342]``; ``1``, ``e`` and ``""`` are the identity.

        Every character inside the optional ``w[...]`` must be a digit, one
        simple index each.  For folded presets the absolute Dynkin letters of
        the D4 diagram are accepted: a run of distinct letters from one
        Galois orbit collapses to the single relative reflection (e.g. 2342
        -> [2,3,2] on quasi_D4).
        """
        text = text.strip()
        if text in ("1", "e", ""):
            return WeylWord()
        digits = text[2:-1] if text.startswith("w[") and text.endswith("]") else text
        bad = next((ch for ch in digits if ch not in "0123456789"), None)
        if bad is not None:
            raise UnknownRootError(f"cannot parse Weyl word {text!r}: {bad!r} is not a simple index")
        raw = [int(ch) for ch in digits]
        alias = _LETTER_ALIASES.get(self.name)
        if alias is None:
            letters = raw
        else:
            letters = []
            run: set[int] = set()
            for a in raw:
                rel = alias.get(a)
                if rel is None:
                    raise UnknownRootError(f"letter {a} is not a simple index of {self.name}")
                if letters and letters[-1] == rel and a not in run:
                    run.add(a)  # another member of the same folded orbit
                    continue
                letters.append(rel)
                run = {a}
        for i in letters:
            self._check_index(i)
        return WeylWord(tuple(letters))

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, rank {self.rank}, {len(self.positive_roots)} positive roots)"


def _weyl_group_order(positive_roots: Iterable[Root]) -> int:
    """|W| of a root system from its positive roots, without enumeration.

    Kostant: the exponents are the partition dual to (n_1, n_2, ...), where
    n_h counts the positive roots of height h, so exactly n_h - n_{h+1} of
    them equal h, and |W| is the product of (m + 1) over the exponents m.
    """
    counts = Counter(r.height for r in positive_roots)
    order = 1
    for h, n_h in counts.items():
        order *= (h + 1) ** (n_h - counts.get(h + 1, 0))
    return order


def _validate_cartan(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix as int rows, refused unless a nonempty square list of integer rows."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise NotFiniteTypeError(f"Cartan matrix 'cartan' is {rows!r}, not a list of rows")
    n = len(rows)
    if n == 0:
        raise NotFiniteTypeError("Cartan matrix is empty")
    if any(len(row) != n for row in rows):
        raise NotFiniteTypeError("Cartan matrix is not square")
    cartan = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            try:
                if isinstance(x, bool):     # an int to operator.index, not to JSON
                    raise TypeError
                cartan[i][j] = operator.index(x)
            except TypeError:
                raise NotFiniteTypeError(
                    f"Cartan entry ({i + 1}, {j + 1}) is {x!r}, not an integer") from None
    for i in range(n):
        if cartan[i][i] != 2:
            raise NotFiniteTypeError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise NotFiniteTypeError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise NotFiniteTypeError("Cartan zero pattern must be symmetric")
    return tuple(tuple(row) for row in cartan)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Positive integers d_i with d_i A[i][j] symmetric.

    Along each edge d_j = d_i A[i][j] / A[j][i]; the d_i are carried as
    reduced (numerator, denominator) pairs and scaled to coprime integers.
    """
    n = len(cartan)
    d: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = (1, 1)
        stack = [start]
        while stack:
            i = stack.pop()
            p, q = d[i]
            for j in range(n):
                if cartan[i][j] != 0 and i != j:
                    # both entries are negative in a validated Cartan matrix
                    num, den = p * -cartan[i][j], q * -cartan[j][i]
                    g = math.gcd(num, den)
                    val = (num // g, den // g)
                    if d[j] is None:
                        d[j] = val
                        stack.append(j)
                    elif d[j] != val:
                        raise NotFiniteTypeError("Cartan matrix is not symmetrizable")
    lcm = math.lcm(*(q for _, q in d))
    scaled = [p * (lcm // q) for p, q in d]
    g = math.gcd(*scaled)
    return tuple(x // g for x in scaled)


def _check_finite_type(cartan: tuple[tuple[int, ...], ...], d: tuple[int, ...]) -> None:
    """Refuse a Cartan matrix whose root system would be infinite.

    A symmetrizable Cartan matrix is of finite type iff the symmetrised
    matrix d_i A[i][j] is positive definite (Sylvester: every leading
    principal minor is positive).  The matrix is integral, so fraction-free
    (Bareiss) elimination gives each minor exactly: after step k the pivot
    m[k][k] is the leading principal minor of order k + 1.
    """
    n = len(cartan)
    m = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    previous = 1
    for k in range(n):
        if m[k][k] <= 0:
            raise NotFiniteTypeError(
                f"Cartan matrix is not of finite type: leading principal minor {k + 1} "
                f"of the symmetrised matrix is {m[k][k]}", minor=k + 1)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]


def build_system(preset: str, *, cartan: Sequence[Sequence[int]] | None = None,
                 labels: Mapping[int, FieldLabel] | None = None) -> RootSystem:
    """Build a preset system, or a custom one with preset="custom"."""
    if preset == "custom":
        if cartan is None:
            raise UnsupportedGroupError("custom systems need a Cartan matrix")
        cartan = _validate_cartan(cartan)
        indices = range(1, len(cartan) + 1)
        if labels is None:
            labels = {i: LABEL_F for i in indices}
        stray = [i for i in labels if i not in indices]
        if stray:
            raise ConfigError(f"label index {stray[0]!r} is not a simple index "
                              f"1..{len(indices)}")
        missing = [i for i in indices if i not in labels]
        if missing:
            raise ConfigError(f"no label for simple index {missing[0]}: a label map "
                              f"must cover every simple index")
        bad = next((i for i in indices if not isinstance(labels[i], FieldLabel)), None)
        if bad is not None:
            raise ConfigError(f"label {bad} is {labels[bad]!r}, not a FieldLabel")
        folded = any(lab.degree > 1 for lab in labels.values())
        return RootSystem("custom", cartan, folded=folded, labels=dict(labels))
    if preset not in _PRESET_DATA:
        raise UnsupportedGroupError(f"unknown preset {preset!r}")
    rows, folded, nonsplit = _PRESET_DATA[preset]
    return RootSystem(preset, rows, folded=folded, labels=_preset_labels(rows, nonsplit))


def _preset_labels(rows, nonsplit: FieldLabel | None) -> dict[int, FieldLabel]:
    # label by length class of the simple roots: short simples carry the
    # extension field (K-orbit of the folding), long simples are split; the
    # norm of alpha_i is 2 d_i, so alpha_i is short iff d_i < max(d)
    d = _symmetrizer(rows)
    return {i: nonsplit if nonsplit is not None and d[i - 1] < max(d) else LABEL_F
            for i in range(1, len(rows) + 1)}


def load_custom(document: str | dict) -> RootSystem:
    """Load a custom system from a JSON document {cartan: [[...]], labels: {...}}.

    ``labels`` maps each simple index ("1", "2", ...) to {symbol, degree};
    without it every simple root is labelled F.
    """
    try:
        doc = json.loads(document) if isinstance(document, str) else document
    except json.JSONDecodeError as exc:
        raise ConfigError(f"custom system is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "cartan" not in doc:
        raise ConfigError("custom system needs a 'cartan' entry")
    raw = doc.get("labels", {})
    if not isinstance(raw, dict):
        raise ConfigError(f"'labels' is {raw!r}, not a map from simple indices to labels")
    labels = {}
    for key, val in raw.items():
        try:
            index = int(key)
        except ValueError:
            raise ConfigError(f"label key {key!r} is not a simple index") from None
        try:
            labels[index] = FieldLabel(val["symbol"], val["degree"])
        except KeyError as exc:
            raise ConfigError(f"label {key!r} has no {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"label {key!r} is not a field label: {exc}") from None
    return build_system("custom", cartan=doc["cartan"], labels=labels or None)
