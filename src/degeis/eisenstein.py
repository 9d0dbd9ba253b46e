"""Constant terms, pole reports, Siegel-Weil constants, normalized series.

The constant term of the degenerate Eisenstein series attached to a standard
parabolic with Levi L along a character line lambda_s is the sum over the
minimal coset representatives w of W_L \\ W of

    J(w, s) * [w^{-1} . lambda_s],

where J(w, s) is the Gindikin-Karpelevich factor

    prod_{alpha > 0, w^{-1} alpha < 0}
        xi_{F_alpha}(<lambda_s, alpha^vee>) / xi_{F_alpha}(<lambda_s, alpha^vee> + 1).

Pole analysis groups the terms by the value of their exponent at the point;
distinct limit exponents are linearly independent characters and never
cancel.  The coset walk numbers each distinct exponent coordinate once, each
is evaluated once at the point to an integer over one denominator, and a
term reads its values through its row of numbers.  Within a group the Laurent expansion is
carried to the first two orders with the log-t correction

    t^{exp_w(s)} = t^{exp_w(s0)} (1 + (s - s0) <exp_w'(s0), log t> + ...),

so a cancellation of leading coefficients can be certified to stop at the
next order whenever the log-t coefficient survives.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial
from math import lcm
from operator import mul

from .characters import (TorusCharacter, line_chi_P, line_mu_P, line_mu_Q, parabolic_levi,
                         root_basis_coords, weyl_act)
from .errors import NeedsHigherLogOrderError, UnsupportedGroupError
from .forms import AffineForm, Q, Rat, _make, _q, _ratio_str, _Terms
from .records import Record, setters
from .rootdata import RootSystem, WeylWord
from .zetas import (_EPS, LaurentData, ZetaAtom, ZetaExpr, _Counts, _Expansion, _factors,
                    _intern, _kept, _Multisets, _primitive_order, _quotient_text, _residue_text,
                    expand_in, laurent_at)


# -- constant terms ---------------------------------------------------------

class GKTerm(Record):
    __slots__ = ("word", "j_factor", "exponent")

    def __init__(self, word: WeylWord, j_factor: ZetaExpr,
                 exponent: TorusCharacter):     # w^{-1} . lambda_s, affine in the parameter
        _set_word(self, word)
        _set_j_factor(self, j_factor)
        _set_exponent(self, exponent)


_set_word, _set_j_factor, _set_exponent = setters(GKTerm)


class _Pending(partial):
    """A field value not yet built: the call its first read makes (``_built_on_first_read``)."""
    __slots__ = ()


def _built_on_first_read(cls: type, name: str) -> None:
    """Make slot ``name`` of cls a property that calls a ``_Pending`` value on its first
    read and keeps the result.

    Equality, hash, repr, copy and pickle read the field by name, so they see
    the built value.  The class's setters must be taken before: the property
    has none.
    """
    slot = vars(cls)[name]
    get, put = slot.__get__, slot.__set__

    def read(obj):
        value = get(obj)
        if value.__class__ is _Pending:
            value = value()
            put(obj, value)
        return value

    setattr(cls, name, property(read))


def _factor_order(key: object) -> tuple:
    """Where a factor key stands in a canonical ``ZetaExpr``: residue symbols by label,
    then affine factors as ``ZetaExpr.build`` sorts them, then atoms by (label, arg)."""
    if isinstance(key, str):
        return 0, key
    if isinstance(key, AffineForm):
        return 1, _primitive_order(key)
    return 2, key


class _AtomTable:
    """The factors of a constant term interned to ids, and its terms as id counts.

    ``keys[k]`` is the canonical factor id k stands for: an atom xi_L(arg)
    as (label, arg), an affine factor as the form, or a residue symbol R_L as
    its label.  The ids are numbered in canonical factor order
    (``_factor_order``), so a term's counts, sorted by id, list its factors
    as its canonical ``ZetaExpr`` does.  ``terms[t]`` is (scalar, counts):
    term t's J is the scalar times each id's factor to its count, and
    ``words[t]`` is its Weyl word.  Counts add where factors multiply,
    so the Laurent data of every term follows from one expansion per id
    (``_Expansion``).  ``params`` are the terms' parameters, sorted, and a
    line's ``roots[k]`` holds the (plain, shifted) ids of its positive root at
    position k.  ``coords[c]`` is the exponent coordinate id c stands for,
    each distinct ``AffineForm`` once, and ``exps[t]`` is term t's exponent
    as a tuple of coordinate ids, so each coordinate is evaluated once per
    point (``_exponents_at``).  ``bound`` is at least the total |count| of
    every term, which bounds any merged count.
    """

    def __init__(self):
        self.params: list[str] = []
        self.keys: list[object] = []
        self.roots: list[tuple[int, int]] = []
        self.words: list[WeylWord] = []
        self.terms: list[tuple[Q, _Counts]] = []
        self.coords: list[AffineForm] = []
        self.exps: list[tuple[int, ...]] = []
        self.bound = 0
        # one ZetaAtom per (id, count), shared by every J that holds it
        self.atoms: dict[tuple[int, int], ZetaAtom] = {}

    @staticmethod
    def of_line(system: RootSystem, line: TorusCharacter) -> "_AtomTable":
        """The two atoms xi(<line,a^vee>) and xi(<line,a^vee>+1) of every positive root a."""
        den, nums = _pairing_nums(system, line)
        table = _AtomTable.of_pairings([label.symbol for label in system._labels], den, nums)
        table.params = list(line.params)
        return table

    @staticmethod
    def of_pairings(labels: Sequence[str], den: int,
                    nums: Sequence[tuple[int, _Terms]]) -> "_AtomTable":
        """The atoms xi_L(p) and xi_L(p+1) of every pairing p = (const + coefficients) / den,
        L its label: ``roots[k]`` holds pairing k's (plain, shifted) ids.

        Both are canonical under the functional equation, equal atoms share
        one id, and the ids are numbered in canonical atom order, so sorting a
        term's ids sorts its atoms.  The arguments stay integers over the one
        denominator until each distinct one becomes a form: over one
        denominator, (label, const, coefficients) sort as (label, form) do.
        """
        table = _AtomTable()

        def canonical(c, t):
            return (c, t) if _kept(den, c, t) else (den - c, tuple([(n, -x) for n, x in t]))
        args = [((label, *canonical(c, t)), (label, *canonical(c + den, t)))
                for label, (c, t) in zip(labels, nums)]
        ids = {key: k for k, key in enumerate(sorted({key for both in args for key in both}))}
        table.keys = [(label, _make(den, c, t)) for label, c, t in ids]
        table.roots = [(ids[plain], ids[shifted]) for plain, shifted in args]
        return table

    @staticmethod
    def of_terms(terms: Iterable[GKTerm]) -> "_AtomTable":
        """The table of terms built by hand: words, J factors interned and renumbered in
        canonical factor order, exponent coordinates numbered, and the parameters of
        every factor and exponent."""
        ids: dict[object, int] = {}
        coords: dict[AffineForm, int] = {}
        params: set[str] = set()
        table = _AtomTable()
        interned = []
        for t in terms:
            table.words.append(t.word)
            interned.append((t.j_factor.scalar, _intern(ids, _factors(t.j_factor))))
            table.exps.append(tuple([coords.setdefault(f, len(coords)) for f in t.exponent.coords]))
            params.update(t.j_factor.params, t.exponent.params)
        table.keys = sorted(ids, key=_factor_order)
        new = {ids[key]: k for k, key in enumerate(table.keys)}
        table.terms = [(scalar, tuple(sorted([(new[i], c) for i, c in counts])))
                       for scalar, counts in interned]
        table.coords, table.params = list(coords), sorted(params)
        table.bound = max((sum(abs(c) for _, c in counts) for _, counts in table.terms), default=0)
        return table

    def counts(self, inversions: Iterable[int]) -> _Counts:
        """J(w) from the positions of N(w): +1 on each plain atom, -1 on each shifted one."""
        counts: dict[int, int] = {}
        for k in inversions:
            plain, shifted = self.roots[k]
            counts[plain] = counts.get(plain, 0) + 1
            counts[shifted] = counts.get(shifted, 0) - 1
        return tuple(sorted((i, c) for i, c in counts.items() if c))

    def expr(self, counts: _Counts) -> ZetaExpr:
        """The canonical ZetaExpr of a line's counts, already in atom order: no build."""
        atoms = self.atoms
        if not all(map(atoms.__contains__, counts)):
            for i, c in counts:
                if (i, c) not in atoms:
                    atoms[i, c] = ZetaAtom(*self.keys[i], c)
        return ZetaExpr(atoms=tuple(map(atoms.__getitem__, counts)))


class ConstantTerm(Record):
    """The terms of a constant term and their table.

    ``constant_term`` fills only the table and stores a ``_Pending`` build
    in ``terms``: the first read of ``ConstantTerm.terms`` builds the
    ``GKTerm`` tuple from the table (``_walk_terms``) and keeps it.  Terms
    built by hand are stored as given and interned into a table here.
    """
    __slots__ = ("system", "levi", "line", "terms", "table")
    _compared = __slots__[:4]

    def __init__(self, system: RootSystem, levi: tuple[int, ...], line: TorusCharacter,
                 # a pending build from the table until first read
                 terms: tuple[GKTerm, ...] | _Pending,
                 # J as id counts, exponents as coordinate ids; interned here when not given
                 table: _AtomTable | None = None):
        self._fill(system, levi, line)
        _set_terms(self, terms)
        _set_table(self, _AtomTable.of_terms(terms) if table is None else table)


_set_terms, _set_table = setters(ConstantTerm)[3:]
_built_on_first_read(ConstantTerm, "terms")


def _walk_terms(table: _AtomTable) -> tuple[GKTerm, ...]:
    """The terms of a walk's table: each J from its counts, each exponent from its
    row of coordinate ids."""
    coords, expr = table.coords, table.expr
    return tuple([GKTerm(word, expr(counts), TorusCharacter(tuple([coords[c] for c in exp])))
                  for word, (_, counts), exp in zip(table.words, table.terms, table.exps)])


def coset_reps(system: RootSystem, levi: Iterable[int]) -> list[WeylWord]:
    """Shortest representatives of W_L \\ W in shortlex order.

    These are the w with w^{-1} alpha_i > 0 for every Levi simple root; one
    GK term per representative appears in the constant term.
    """
    return [word for _, word in system.weyl_elements(levi)]


def gk_factor(system: RootSystem, word: WeylWord, line: TorusCharacter) -> ZetaExpr:
    """Gindikin-Karpelevich factor J(w, s) along the line, canonicalized."""
    table = _AtomTable.of_line(system, line)
    return table.expr(table.counts(system._inversions(word)))


def _bump(counts: list[tuple[int, int]], i: int, c: int) -> None:
    """Add c to id i's count in the id-sorted counts, dropping a zero."""
    k = bisect_left(counts, (i,))
    if k < len(counts) and counts[k][0] == i:
        c += counts.pop(k)[1]
    if c:
        counts.insert(k, (i, c))


def constant_term(system: RootSystem, levi: Iterable[int],
                  line: TorusCharacter) -> ConstantTerm:
    """One GK term per coset representative, each its parent's plus one step.

    The walk lists every w = u s_i after its prefix u, with the position of
    the root u(alpha_i) that w adds to N(u).  So J(w) is J(u) with one more
    plain and one fewer shifted atom of that root, and the exponent
    (u s_i)^{-1} lambda = s_i (u^{-1} lambda) is u's minus its i-th
    coordinate times pairing[i - 1].  Each distinct exponent coordinate, a
    (constant, coefficients) tuple over the line's one denominator, is
    numbered once and becomes one ``AffineForm`` (``table.coords``), shared
    by every term that holds it; a term's exponent is a row of these numbers
    (``table.exps``).  The walk fills only the table: the words, J as id
    counts and the exponent rows.  No term is built until
    ``ConstantTerm.terms`` is first read.  The term of length 1 is checked
    against ``weyl_act`` and the inversion set of its word.
    """
    levi_set = tuple(levi)
    table = _AtomTable.of_line(system, line)
    steps = system.weyl_elements(levi_set).steps
    words = table.words = coset_reps(system, levi_set)
    den, names, cols = _line_columns(line)
    # one id per distinct integer tuple, the line's coordinates first, with their forms
    line_forms = dict(zip(zip(*cols), line.coords))
    ids = {x: k for k, x in enumerate(line_forms)}
    vecs = list(line_forms)
    coords = table.coords = list(line_forms.values())
    exps = table.exps = [tuple([ids[x] for x in zip(*cols)])]
    one = Q(1)
    terms = table.terms = [(one, ())]
    # the coordinates s_i moves: (j, pairing[i - 1][j]) with a nonzero entry
    moved = [[(j, r) for j, r in enumerate(row) if r] for row in system.pairing]
    roots = table.roots
    for parent, i, root in steps:
        row = exps[parent]
        x_i = vecs[row[i - 1]]
        if any(x_i):
            row = list(row)
            for j, r in moved[i - 1]:
                x = tuple([a - r * b for a, b in zip(vecs[row[j]], x_i)])
                k = ids.get(x)
                if k is None:
                    k = ids[x] = len(vecs)
                    vecs.append(x)
                    coords.append(_make(den, x[0], tuple(
                        [(n, a) for n, a in zip(names, x[1:]) if a])))
                row[j] = k
            row = tuple(row)
        exps.append(row)
        counts = list(terms[parent][1])
        plain, shifted = roots[root]
        _bump(counts, plain, 1)
        _bump(counts, shifted, -1)
        terms.append((one, tuple(counts)))
    if len(words) > 1 and (
            TorusCharacter(tuple([coords[k] for k in exps[1]])) != weyl_act(system, words[1], line)
            or terms[1][1] != table.counts(system._inversions(words[1]))):
        raise RuntimeError(f"the coset walk disagrees with {words[1]} at its first step")
    # a term's total |count| is at most twice its length; the last word is the longest
    table.bound = 2 * len(words[-1])
    return ConstantTerm(system, levi_set, line, _Pending(_walk_terms, table), table)


# -- pole reports -----------------------------------------------------------

class TermGroup(Record):
    """The terms of a pole report that share one exponent at the point.

    ``leading`` is built on its first read, and kept: ``pole_report`` stores
    a ``_Pending`` call in its place, so a caller that reads only orders
    builds no leading ``ZetaExpr``.  Equality, hash, repr, copy and pickle
    read the field by name and see the built value.
    """
    __slots__ = ("exponent_at_point", "words", "order", "leading", "log_term")

    def __init__(self, exponent_at_point: tuple[Q, ...], words: tuple[WeylWord, ...],
                 order: int,                # order of vanishing of the group sum
                 # a pending build until first read; None when the leading
                 # survives only as log-t or as a formal sum
                 leading: ZetaExpr | _Pending | None,
                 log_term: bool):
        _set_exponent_at_point(self, exponent_at_point)
        _set_words(self, words)
        _set_order(self, order)
        _set_leading(self, leading)
        _set_log_term(self, log_term)


_set_exponent_at_point, _set_words, _set_order, _set_leading, _set_log_term = setters(TermGroup)
_built_on_first_read(TermGroup, "leading")


class PoleReport(Record):
    __slots__ = ("system", "point", "order", "groups", "surviving_exponents",
                 "square_integrable")

    def __init__(self, system: RootSystem, point: Q,
                 order: int,                # pole order of the full constant term (>= 0)
                 groups: tuple[TermGroup, ...], surviving_exponents: tuple[tuple[Q, ...], ...],
                 square_integrable: bool):
        self._fill(system, point, order, groups, surviving_exponents, square_integrable)


def _exponents_at(table: _AtomTable, assignment: Mapping[str, Q]) -> tuple[int, list[int]]:
    """(den, numerators): coordinate c is numerators[c] / den at the point.

    Each coordinate is evaluated once (an unassigned parameter raises
    ``ValueError``); term t's exponent maps ``table.exps[t]`` through the
    numerators.  One positive denominator makes the integer tuples sort as
    the ``Fraction`` tuples do.
    """
    values = [f.subs(assignment) for f in table.coords]
    for v in values:
        if v.coeff_nums:
            raise ValueError(f"unassigned parameters: {', '.join(v.params)}")
    den = lcm(*(v.den for v in values))
    return den, [v.const_num * (den // v.den) for v in values]


def _at_point(table: _AtomTable, param: str, point: Q, *, packed: bool,
              assume_no_real_zeros: bool) -> tuple[_Expansion, int, list[int]]:
    """The table's ``_Expansion`` at param = point, packing leading monomials only when
    asked, and its exponent coordinates there as ``_exponents_at``'s (den, numerators)."""
    assignment = {param: point}
    expansion = _Expansion(table.keys, _Multisets(table.bound) if packed else None, _EPS,
                           assignment, assume_no_real_zeros)
    return expansion, *_exponents_at(table, assignment)


# word, order, leading scalar, packed leading monomial, counts, exponent row
_Member = tuple[WeylWord, int, Q, int, _Counts, tuple[int, ...]]


def _group_order(members: list[_Member], param: str, expansion: _Expansion,
                 coords: list[AffineForm]) -> tuple[int, _Pending | None, bool]:
    """Order of the sum of a group of terms sharing one limit exponent, and its leading term
    as a pending call (None where it survives only as log-t or as a formal sum).
    ``coords`` are the exponent coordinates the members' rows number."""
    if len(members) == 1:
        _, order, scalar, _, counts, _ = members[0]
        return order, _Pending(expansion.leading, scalar, counts), False
    m = min(member[1] for member in members)
    lowest = [member for member in members if member[1] == m]
    # add up the leading scalars of each monomial
    buckets: dict[int, Q] = {}
    for _, _, scalar, key, _, _ in lowest:
        buckets[key] = buckets.get(key, Q(0)) + scalar
    nonzero = [key for key, total in buckets.items() if total != 0]
    if len(nonzero) == 1:
        counts = next(c for _, _, _, key, c, _ in lowest if key == nonzero[0])
        return m, _Pending(expansion.leading, buckets[nonzero[0]], counts), False
    if nonzero:
        # distinct monomials cannot cancel; the sum survives as a formal sum
        return m, None, False
    # full cancellation at order m: look at the log-t part of order m+1
    for key in buckets:
        ders = [[scalar * coords[c].coeff(param) for c in exp]
                for _, _, scalar, k, _, exp in lowest if k == key]
        if any(sum(col) != 0 for col in zip(*ders)):
            return m + 1, None, True
    raise NeedsHigherLogOrderError(
        "leading coefficients and first-order log terms both cancel; "
        "expansion to higher log order is not implemented")


def pole_report(ct: ConstantTerm, point: Rat, *,
                assume_no_real_zeros: bool = False) -> PoleReport:
    """Pole order of the constant term at the point, with exponent grouping.

    Read off the table: no term is built.  Each group's order comes from the
    scalars and packed monomials of its terms; its leading ``ZetaExpr`` is
    built only when ``TermGroup.leading`` is first read.
    """
    system, table, pt = ct.system, ct.table, _q(point)
    params = table.params
    if len(params) != 1:
        raise ValueError(f"pole_report needs a one-parameter line, got {params}")
    expansion, den, nums = _at_point(table, params[0], pt, packed=True,
                                     assume_no_real_zeros=assume_no_real_zeros)
    grouped: dict[tuple[int, ...], list[_Member]] = {}
    for word, (scalar, counts), exp in zip(table.words, table.terms, table.exps):
        order, leading, key = expansion.term(scalar, counts)
        grouped.setdefault(tuple([nums[c] for c in exp]), []).append(
            (word, order, leading, key, counts, exp))

    # one Fraction per distinct numerator, shared by every exponent that holds it
    values = {x: Q(x, den) for x in set().union(*grouped)}
    groups = []
    for exp0 in sorted(grouped):
        members = grouped[exp0]
        order, leading, log_term = _group_order(members, params[0], expansion, table.coords)
        groups.append(TermGroup(tuple([values[x] for x in exp0]),
                                tuple([member[0] for member in members]), order, leading, log_term))
    overall = max(0, max(-g.order for g in groups))
    surviving = tuple(g.exponent_at_point for g in groups if -g.order == overall)
    sq = all(all(x < 0 for x in root_basis_coords(system, exp)) for exp in surviving)
    return PoleReport(system, pt, overall, tuple(groups), surviving, sq)


# -- intertwining operator residues ------------------------------------------

def intertwiner_residue(system: RootSystem, word: WeylWord, line: TorusCharacter,
                        point: Rat, *, assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent data of the GK factor of one Weyl word along the line.

    With the spherical-vector normalization this is the Laurent behaviour of
    the intertwining operator M_w restricted to the line.
    """
    j = gk_factor(system, word, line)
    if len(j.params) > 1:
        raise ValueError("intertwiner_residue needs a one-parameter line")
    return laurent_at(j, {p: _q(point) for p in j.params},
                      assume_no_real_zeros=assume_no_real_zeros)


# -- normalized (sharp) series ------------------------------------------------

def _line_columns(lam: TorusCharacter) -> tuple[int, list[str], list[tuple[int, ...]]]:
    """(den, names, columns): lam over the lcm of its coordinates' denominators.

    ``names`` are lam's parameters, sorted; the columns are the coordinates'
    numerators over den, the constants first, then one column per name.
    """
    coords = lam.coords
    den = lcm(*(f.den for f in coords))
    names = sorted({n for f in coords for n, _ in f.coeff_nums})
    cols = [tuple(f.const_num * (den // f.den) for f in coords)]
    cols += [tuple(dict(f.coeff_nums).get(n, 0) * (den // f.den) for f in coords)
             for n in names]
    return den, names, cols


def _pairing_nums(system: RootSystem, lam: TorusCharacter) -> tuple[int, list[tuple[int, _Terms]]]:
    """<lam, alpha^vee> = (const + coefficients) / den, (const, coefficients) = nums[k],
    for the positive root at position k: integer combinations of the coordinates'
    numerators over their lcm.  Coefficients name-sorted, zeros dropped, unreduced."""
    system._check_rank(len(lam.coords))
    den, names, cols = _line_columns(lam)
    nums = []
    for vec in system._cvec:
        const, *coeffs = [sum(map(mul, vec, col)) for col in cols]
        nums.append((const, tuple([(n, x) for n, x in zip(names, coeffs) if x])))
    return den, nums


def _pairings(system: RootSystem, lam: TorusCharacter) -> list[tuple[str, AffineForm]]:
    """(label of alpha, <lam, alpha^vee>) for every positive root alpha, in root order."""
    return _pairing_forms(system, *_pairing_nums(system, lam))


def _pairing_forms(system: RootSystem, den: int,
                   nums: list[tuple[int, _Terms]]) -> list[tuple[str, AffineForm]]:
    """(label of alpha, pairing) of every positive root from ``_pairing_nums``' integers."""
    return [(label.symbol, _make(den, c, t)) for label, (c, t) in zip(system._labels, nums)]


def _l_factors(pairs: list[tuple[str, AffineForm]]) -> list[AffineForm]:
    """The polynomial part of the normalizer: <lam,alpha^vee> +- 1 for every root."""
    return [f for _, p in pairs for f in (p + 1, p - 1)]


def _xi_shifted(pairs: list[tuple[str, AffineForm]]) -> list[ZetaAtom]:
    return [ZetaAtom(label, p + 1, 1) for label, p in pairs]


def sharp_normalizer(system: RootSystem, lam: TorusCharacter) -> ZetaExpr:
    """prod_{alpha>0} xi_{F_alpha}(<lam,alpha^vee>+1) (<lam,alpha^vee>+1) (<lam,alpha^vee>-1).

    Multiplying the spherical Eisenstein series on the Borel by this factor
    makes it entire and Weyl-invariant; the polynomial parts live in the
    coefficient so rational constants come out exactly.
    """
    pairs = _pairings(system, lam)
    return ZetaExpr.build(num=_l_factors(pairs), atoms=_xi_shifted(pairs))


class SharpLimit(Record):
    """Laurent data of the restricted normalizer along a one-parameter line.

    ``order``/``leading`` are taken in the line-intrinsic coordinate: the
    pairing of the line with the coroot of the parabolic's defining simple
    root, centered at the point.  ``dropped`` counts polynomial factors that
    vanish identically along the line (one per Levi simple root); they divide
    out against the transversal directions of the ambient parameter space.
    """

    __slots__ = ("order", "leading", "dropped", "slope")

    def __init__(self, order: int, leading: ZetaExpr, dropped: int, slope: Q):
        self._fill(order, leading, dropped, slope)


def sharp_limit(system: RootSystem, levi: Sequence[int], line: TorusCharacter,
                point: Rat) -> SharpLimit:
    for i in levi:
        system._check_index(i)
    non_levi = [i for i in range(1, system.rank + 1) if i not in set(levi)]
    if len(non_levi) != 1:
        raise UnsupportedGroupError("sharp_limit expects a maximal parabolic")
    params = line.params
    if len(params) != 1:
        raise ValueError("sharp_limit needs a one-parameter line")
    param = params[0]
    pairing = line.coords[non_levi[0] - 1]
    slope = pairing.coeff(param)
    if slope == 0:
        raise ValueError("line is constant in the transversal direction")

    pairs = _pairings(system, line)
    factors = _l_factors(pairs)
    num = [f for f in factors if not f.is_zero()]
    dropped = len(factors) - len(num)   # identically zero along the line: divide out
    expr = ZetaExpr.build(num=num, atoms=_xi_shifted(pairs))
    ld = laurent_at(expr, {param: _q(point)})
    rescaled = ld.leading * slope ** (-ld.order)
    return SharpLimit(ld.order, rescaled, dropped, slope)


class SiegelWeilReport(Record):
    __slots__ = ("sharp_p", "sharp_q", "constant", "residue_w2342", "section_constant")

    def __init__(self,
                 sharp_p: SharpLimit,            # along mu_s^P at 3/10
                 sharp_q: SharpLimit,            # along mu_s^Q at 1/6
                 constant: ZetaExpr,             # leading(E_P side) = constant * leading(E_Q side)
                 residue_w2342: LaurentData,     # A_{w[2342]} on the spherical vector
                 section_constant: ZetaExpr):
        self._fill(sharp_p, sharp_q, constant, residue_w2342, section_constant)


def siegel_weil_constant(system: RootSystem) -> SiegelWeilReport:
    """Proportionality constants between the leading terms of E_P and E_Q.

    Both sharp limits are computed along the mu-lines; their ratio is the
    spherical-vector constant of the Siegel-Weil identity (R/xi_F(2) for the
    D4 presets).  Dividing by the residue of the intertwining operator
    attached to w[2342] gives the section-level constant.
    """
    if system.name not in ("split_D4", "quasi_D4"):
        raise UnsupportedGroupError("Siegel-Weil constants need the F x K forms")
    p_levi = parabolic_levi(system, "P")
    q_levi = parabolic_levi(system, "Q")
    sharp_p = sharp_limit(system, p_levi, line_mu_P(system), Q(3, 10))
    sharp_q = sharp_limit(system, q_levi, line_mu_Q(system), Q(1, 6))
    constant = sharp_q.leading / sharp_p.leading
    word = system.parse_word("2342")
    res = intertwiner_residue(system, word, line_chi_P(system), Q(3, 10))
    section = constant / res.leading
    return SiegelWeilReport(sharp_p, sharp_q, constant, res, section)


# -- appendix machinery: W-invariance and entireness ---------------------------
#
# F_w(lam) = prod_{a>0} xi_{F_a}(<lam,a^vee> + [a not in N(w)]) = F_1(lam) J(w, lam):
# each positive root contributes its plain atom xi(<lam,a^vee>) when w inverts
# it and its shifted atom xi(<lam,a^vee>+1) otherwise, N(w) = {a>0 : w^{-1}a<0}.
# Both are the atoms of the root in lam's eps table block.  What the entireness
# checks compare -- the order and leading coefficient of the expansion in eps,
# with its canonical multiset of atoms and residue symbols -- is additive over
# the factors (the scalar multiplicative), so F_w's data are the sum of its
# roots' chosen atoms' data, and each check is a fact about the roots' two
# atoms.
#
# W-invariance (Langlands' product formula; Casselman's
# N(s_i w) = s_i N(w) + {alpha_i}).  Let a > 0 and b = s_i a.  For a != alpha_i,
# b > 0, b != alpha_i and a in N(s_i u) <=> b in N(u), since
# (s_i u)^{-1} a = u^{-1} b; and alpha_i in N(s_i u) <=> alpha_i not in N(u).
# If <s_i lam, a^vee> = <lam, b^vee> and F_a = F_b for every a, then a's
# factor of F_{s_i u}(s_i lam) is b's factor of F_u(lam); alpha_i's factor is
# xi(-z + [alpha_i not in N(s_i u)]) with z = <lam,alpha_i^vee>, which is
# xi(z + [alpha_i not in N(u)]) by xi_L(1-z) = xi_L(z).  So
# F_{s_i u}(s_i lam) = F_u(lam) for every u, and L(s_i lam) = L(lam) because
# each root's (p+1)(p-1) = p^2 - 1 is even in p.
#
# Boundary, lam = eps +- 1 in coordinate i, z_j elsewhere.  Orders add, so
# every L F_w has order >= ord L + sum_a min(ord plain_a, ord shifted_a).  At
# eps = 0, <lam,a^vee> is generic in the z_j unless a = alpha_i, so only
# alpha_i's atoms can be polar; w = 1 (every root's shifted atom) or w_0
# (every plain atom) takes alpha_i's lesser one and attains the bound.
#
# H^0, lam = eps in coordinate i.  There the exponents of w and s_i w agree,
# since (s_i w)^{-1} varpi_j = w^{-1} varpi_j for j != i, and by the lemma
# above a = s_i b takes in F_{s_i w} the atom b takes in F_w, and alpha_i the
# other one.  So F_w + F_{s_i w} has no pole, for every w, once every b > 0
# other than alpha_i has order-0 atoms with the data of s_i b's (s_i b > 0),
# and alpha_i's two atoms have order -1, one leading multiset and opposite
# scalars.

def _l_poly(pairs: list[tuple[str, AffineForm]]) -> ZetaExpr:
    return ZetaExpr.build(num=_l_factors(pairs))


def _root_atoms(table: _AtomTable) -> list[tuple[tuple[int, Q, int], tuple[int, Q, int]]]:
    """(order, scalar, packed leading multiset) in eps of every root's (plain, shifted) atom.

    Each id is expanded once and read through ``_Expansion.term``, so an
    atom that cannot be expanded raises here.
    """
    expansion = _Expansion(table.keys, _Multisets(1), "eps")
    one = Q(1)
    data = [expansion.term(one, ((k, 1),)) for k in range(len(table.keys))]
    return [(data[plain], data[shifted]) for plain, shifted in table.roots]


def sharp_invariance_check(system: RootSystem, simple_index: int) -> tuple[bool, WeylWord | None]:
    """Term-by-term W-invariance of the normalized constant term, from per-root facts.

    For F(lambda) = L(lambda) sum_w F_w(lambda) [w^{-1} lambda], invariance
    under s_i reads L(s_i lam) F_{s_i u}(s_i lam) = L(lam) F_u(lam) for every
    u in W, both sides attaching to the exponent u^{-1} lambda.  By the
    lemma in the block comment above, this holds for every u and every
    lambda once, for every positive root a with b = s_i a:

    * <s_i lam, a^vee> = <lam, b^vee>.  s_i lam subtracts
      <lam, alpha_i^vee> pairing[i - 1] from lam, so this is the integer
      identity cvec(b) = c - (pairing[i - 1] . c) e_i with c = cvec(a), where
      cvec(b) is negated when b < 0 (b = -alpha_i);
    * a and b carry the same label, so xi_{F_a} = xi_{F_b}.

    The third fact, xi_L(1-z) = xi_L(z), is how canonical atoms are formed.
    No table, walk or expression is built: O(|Phi+| rank) integer work.  A
    failed hypothesis names no failing term and is reported as (False, 1).
    """
    system._check_index(simple_index)
    n = len(system.positive_roots)
    gen, row, cvec, labels = (system._gens[simple_index - 1], system.pairing[simple_index - 1],
                              system._cvec, system._labels)
    for k, c in enumerate(cvec):
        image = gen[k]
        t = sum(r * x for r, x in zip(row, c))
        moved = tuple(x - t if j == simple_index - 1 else x for j, x in enumerate(c))
        target = cvec[image] if image < n else tuple(-x for x in cvec[image - n])
        if target != moved or labels[k] != labels[image % n]:
            return False, WeylWord()
    return True, None


def _eps_character(system: RootSystem, simple_index: int, offset: int) -> TorusCharacter:
    """z_j in each coordinate but the i-th, eps + offset: <lam,alpha_i^vee> near offset."""
    coords = [AffineForm.var(f"z{j}") for j in range(1, system.rank + 1)]
    coords[simple_index - 1] = AffineForm.var("eps") + offset
    return TorusCharacter(tuple(coords))


def _eps_table(system: RootSystem, simple_index: int, offsets: Sequence[int]
               ) -> tuple[_AtomTable, int, list[list[tuple[int, _Terms]]]]:
    """One atom table for the eps characters of index i at the given offsets.

    The characters differ only in coordinate i, so a root's pairing at
    offset o is its pairing at eps plus o <varpi_i, a^vee>: the integers of
    one ``_pairing_nums`` with o den cvec(a)_i added to the constant.  The
    atoms of every offset are interned together, so an atom two offsets
    share is one id, expanded once.  ``roots`` holds one block of positive
    roots per offset, in the order given.  Returns the table, den and each
    offset's pairing integers.
    """
    den, nums = _pairing_nums(system, _eps_character(system, simple_index, 0))
    steps = [den * vec[simple_index - 1] for vec in system._cvec]
    blocks = [[(c + o * step, t) for (c, t), step in zip(nums, steps)] for o in offsets]
    labels = [label.symbol for label in system._labels]
    table = _AtomTable.of_pairings(labels * len(offsets), den, [p for b in blocks for p in b])
    return table, den, blocks


def _h0_cancels(system: RootSystem, simple_index: int,
                atoms: list[tuple[tuple[int, Q, int], tuple[int, Q, int]]]) -> bool:
    """The H^0 per-root facts of the block comment above, on the roots' atom data at eps."""
    gen, alpha = system._gens[simple_index - 1], system._simple_pos[simple_index - 1]
    (o1, c1, m1), (o2, c2, m2) = atoms[alpha]
    n = len(atoms)
    return (o1 == o2 == -1 and m1 == m2 and c2 == -c1
            and all(gen[b] < n and atoms[gen[b]] == pair and pair[0][0] == pair[1][0] == 0
                    for b, pair in enumerate(atoms) if b != alpha))


def h0_cancellation_check(system: RootSystem, simple_index: int,
                          word: WeylWord) -> bool:
    """Residue cancellation of F_w and F_{s_i w} along <lambda, alpha_i^vee> = 0.

    eps is the i-th fundamental-weight coordinate, the others generic.  By
    the per-root facts of the block comment above, the residues cancel for
    every w or for none: the word is validated, and the verdict is index i's.
    """
    system._check_index(simple_index)
    system.perm_of_word(word)
    table, _, _ = _eps_table(system, simple_index, (0,))
    return _h0_cancels(system, simple_index, _root_atoms(table))


def _index_verdicts(system: RootSystem, simple_index: int) -> tuple[dict[int, bool], bool]:
    """Index i's boundary verdict at each offset, -1 and +1, and its H^0 verdict, from
    one table of the eps - 1, eps and eps + 1 characters (block comment above)."""
    n = len(system.positive_roots)
    table, den, (below, _, above) = _eps_table(system, simple_index, (-1, 0, 1))
    atoms = _root_atoms(table)
    boundary = {}
    for offset, block, nums in ((-1, 0, below), (1, 2, above)):
        l_order = expand_in(_l_poly(_pairing_forms(system, den, nums)), "eps").order
        # the least order of any L * F_w; orders are additive
        least = l_order + sum(min(p[0], s[0]) for p, s in atoms[block * n:(block + 1) * n])
        boundary[offset] = least >= 0
    # every word has the identity's verdict
    return boundary, _h0_cancels(system, simple_index, atoms[n:2 * n])


class EntirenessReport(Record):
    __slots__ = ("boundary_ok", "h0_ok", "orbit_ok", "checked_words")

    def __init__(self,
                 boundary_ok: bool,     # poles along <lam,a>=+-1 killed by the polynomial zeros
                 h0_ok: bool,           # poles along <lam,a>=0 cancel in pairs
                 orbit_ok: bool,        # every positive root is W-conjugate to a simple root
                 checked_words: int):   # the pairs (i, w) the H^0 verdicts cover: rank * |W|
        self._fill(boundary_ok, h0_ok, orbit_ok, checked_words)

    @property
    def entire(self) -> bool:
        return self.boundary_ok and self.h0_ok and self.orbit_ok


def entireness_report(system: RootSystem) -> EntirenessReport:
    """Combined no-surviving-pole report for the normalized series.

    Along H_alpha^{+-1} the simple xi-poles of every L * F_w are cancelled by
    the zeros of the polynomial normalizer; along H_alpha^0 the terms cancel
    pairwise (w against w_i w).  Both are decided from each root's two atoms
    (block comment above), with no walk over W: per simple index, one table
    of the eps - 1, eps and eps + 1 characters, each atom expanded once.
    Non-simple hyperplanes reduce to simple ones because each positive root
    is Weyl-conjugate to a simple root.
    """
    boundary_ok = h0_ok = True
    for i in range(1, system.rank + 1):
        boundary, h0 = _index_verdicts(system, i)
        boundary_ok = all(boundary.values()) and boundary_ok
        h0_ok = h0 and h0_ok
    checked = system.rank * system.weyl_order()
    # each positive root steps down its provenance chain, one simple reflection
    # per link, to a simple root, which it is therefore W-conjugate to
    prov, gens = system._provenance, system._gens
    orbit_ok = True
    for root in range(len(prov)):
        k = root
        for _ in prov:      # a chain longer than that has a cycle
            if prov[k] is None or gens[prov[k][0] - 1][prov[k][1]] != k:
                break
            k = prov[k][1]
        orbit_ok = orbit_ok and prov[k] is None and k in system._simple_pos
    return EntirenessReport(boundary_ok, h0_ok, orbit_ok, checked)


# -- rendering ----------------------------------------------------------------

def _factor_text(key: object, count: int) -> list[str]:
    """The factors of ``ZetaExpr.text`` that a table's factor key to a nonzero count is."""
    if isinstance(key, tuple):
        return [ZetaAtom(*key, count).factor_text()]
    if isinstance(key, AffineForm):
        return [f"({key})"] * abs(count)
    return [_residue_text(key, count)]


def _factor_json(key: object, count: int) -> tuple[str, list]:
    """The field of ``ZetaExpr.to_json`` and its entries that a table's factor key to a
    nonzero count is."""
    if isinstance(key, tuple):
        return "atoms", [ZetaAtom(*key, count).to_json()]
    if isinstance(key, AffineForm):
        return ("num" if count > 0 else "den"), [str(key)] * abs(count)
    return "residues", [{"label": key, "power": count}]


class _PerCount(dict):
    """``render`` of a table's factor key and count, made on the first lookup of each
    (id, count) pair and kept for one command."""

    def __init__(self, keys: list[object], render: Callable[[object, int], object]):
        super().__init__()
        self.keys, self.render = keys, render

    def __missing__(self, pair: tuple[int, int]) -> object:
        value = self[pair] = self.render(self.keys[pair[0]], pair[1])
        return value


def render_table_rows(ct: ConstantTerm, point: Rat, *,
                      assume_no_real_zeros: bool = False) -> list[dict]:
    """One row per coset representative: word, J factor, order, exponents.

    Read off the table, no term built: the ids are in canonical factor
    order, so J's text is its counts' factor texts in id order, each
    rendered once per (id, count), and each exponent coordinate is rendered
    once by its id.
    """
    table, pt = ct.table, _q(point)
    params = table.params
    if len(params) > 1:
        raise ValueError(f"render_table_rows needs a one-parameter line, got {params}")
    # the rows read orders only: no packed monomials
    expansion, den, nums = _at_point(table, params[0] if params else "s", pt, packed=False,
                                     assume_no_real_zeros=assume_no_real_zeros)
    factor_text = _PerCount(table.keys, _factor_text)
    generic, at_point = [str(f) for f in table.coords], [_ratio_str(x, den) for x in nums]
    rows = []
    for word, (scalar, counts), exp in zip(table.words, table.terms, table.exps):
        top: list[str] = []
        bot: list[str] = []
        for pair in counts:
            (top if pair[1] > 0 else bot).extend(factor_text[pair])
        rows.append({
            "word": str(word),
            "j_factor": _quotient_text(scalar, top, bot),
            "pole_order": max(0, -expansion.term(scalar, counts)[0]),
            "exponent": "(" + ",".join([generic[c] for c in exp]) + ")",
            "exponent_at_point": "(" + ",".join([at_point[c] for c in exp]) + ")",
        })
    return rows


def render_markdown_table(rows: list[dict], point: Rat) -> str:
    """The rows of ``render_table_rows`` as a Markdown table."""
    pt = _q(point)
    head = f"| w | J(w,s) | Order of pole at {pt} | exponent (generic) | exponent at {pt} |"
    sep = "|---|---|---|---|---|"
    lines = [head, sep]
    for r in rows:
        lines.append("| {word} | {j_factor} | {pole_order} | {exponent} | {exponent_at_point} |".format(**r))
    return "\n".join(lines)
