"""Formal products of completed Dedekind zeta atoms with exact Laurent analysis.

A :class:`ZetaExpr` is

    scalar * prod(num forms) / prod(den forms) * prod xi_L(arg)^e * prod R_L^m

where the forms and atom arguments are affine in formal parameters, xi_L is
the completed zeta function of the field labelled L (xi_L(s) = xi_L(1-s),
simple poles at 0 and 1 with residues -R_L and R_L), and R_L is the residue
symbol of xi_L at 1.  Expressions are kept in a canonical form:

* affine factors are primitive (integer coprime coefficients, positive
  leading coefficient) with the scale folded into ``scalar``;
* atom arguments are rewritten through the functional equation to the
  representative of {x, 1-x} whose leading parameter coefficient is positive
  (for constants: the larger of the two), and atoms with equal (label, arg)
  merge by adding exponents.

Two expressions are equal as functions iff their canonical forms coincide.

Laurent data come from one expansion, ``_Expansion``: each factor of a
table of terms (``_intern``) is taken to its limit once, and a term's data
are sums over its factor counts.  ``expand_in`` expands an expression as
the one term of its own table, its factors first shifted to a point if one
is given; ``laurent_at`` is ``expand_in`` at the point.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
from math import gcd

from .errors import HyperplaneDegeneracyError, IndeterminateZeroRegionError
from .forms import AffineForm, Q, Rat, _make, _q, _ratio, _Terms
from .records import OrderedRecord, Record, setters


def _primitive(f: AffineForm, var: str | None = None) -> tuple[AffineForm | None, int, int]:
    """f, at var = 0 if var is given, rescaled to integer coprime coefficients with positive lead.

    Returns (primitive form, num, den) with f == num/den * primitive, or
    (None, num, den) when f is the constant num/den.
    """
    terms = f.coeff_nums
    if var is not None:
        terms = tuple([t for t in terms if t[0] != var])
    c = f.const_num
    if not terms:
        return None, c, f.den
    g = gcd(c, *[x for _, x in terms])
    if terms[0][1] < 0:
        g = -g
    if g == 1 and f.den == 1:
        return f if len(terms) == len(f.coeff_nums) else _make(1, c, terms), 1, 1
    return _make(1, c // g, tuple([(n, x // g) for n, x in terms])), g, f.den


def _primitive_order(f: AffineForm) -> tuple[int, tuple[tuple[str, int], ...]]:
    """The sort key of a primitive form: with denominator 1 it orders as its integers."""
    return f.const_num, f.coeff_nums


def _kept(den: int, const_num: int, coeff_nums: _Terms) -> bool:
    """Whether (const_num + coeff_nums) / den represents {x, 1-x}: its leading
    coefficient is positive, or, constant, it is the larger of the two."""
    return coeff_nums[0][1] > 0 if coeff_nums else 2 * const_num >= den


def canonical_arg(arg: AffineForm) -> tuple[AffineForm, bool]:
    """Representative of {arg, 1-arg} under the functional equation.

    Picks the one with positive leading parameter coefficient; for constant
    arguments the larger of the two.  Returns (canonical, flipped).
    """
    keep = _kept(arg.den, arg.const_num, arg.coeff_nums)
    return (arg, False) if keep else (1 - arg, True)


class ZetaAtom(OrderedRecord):
    __slots__ = ("label", "arg", "exp")

    def __init__(self, label: str, arg: AffineForm, exp: int = 1):
        _set_label(self, label)
        _set_arg(self, arg)
        _set_exp(self, exp)

    def __str__(self) -> str:
        base = f"xi_{self.label}({self.arg})"
        return base if self.exp == 1 else f"{base}^{self.exp}"

    def factor_text(self) -> str:
        """The atom as a factor of ``ZetaExpr.text``: xi_L(arg), to the power |exp| unless 1."""
        base = f"xi_{self.label}({self.arg})"
        return base if abs(self.exp) == 1 else f"{base}^{abs(self.exp)}"

    def to_json(self) -> dict:
        return {"label": self.label, "arg": self.arg.to_json(), "exp": self.exp}


_set_label, _set_arg, _set_exp = setters(ZetaAtom)


class ZetaExpr(Record):
    __slots__ = ("scalar", "num", "den", "atoms", "residues")

    def __init__(self, scalar: Q = Q(1), num: tuple[AffineForm, ...] = (),
                 den: tuple[AffineForm, ...] = (), atoms: tuple[ZetaAtom, ...] = (),
                 residues: tuple[tuple[str, int], ...] = ()):
        _set_scalar(self, scalar)
        _set_num(self, num)
        _set_den(self, den)
        _set_atoms(self, atoms)
        _set_residues(self, residues)

    @staticmethod
    def build(scalar: Rat = 1,
              num: Iterable[AffineForm] = (),
              den: Iterable[AffineForm] = (),
              atoms: Iterable[ZetaAtom] = (),
              residues: Iterable[tuple[str, int]] = ()) -> "ZetaExpr":
        sc = _q(scalar)
        if sc == 0:
            return ZetaExpr(Q(0))
        # the scalar is folded as num/den and reduced once
        num_sc, den_sc = sc.numerator, sc.denominator
        nn: list[AffineForm] = []
        dd: list[AffineForm] = []
        for forms, kept, flip in ((num, nn, False), (den, dd, True)):
            for f in forms:
                p, a, b = _primitive(f)
                if flip:
                    a, b = b, a
                num_sc, den_sc = num_sc * a, den_sc * b
                if p is not None:
                    kept.append(p)
        sc = Q(num_sc, den_sc)
        if sc == 0:
            return ZetaExpr(Q(0))
        # cancel common affine factors
        for f in list(nn):
            if f in dd:
                nn.remove(f)
                dd.remove(f)
        merged: dict[tuple[str, AffineForm], int] = {}
        for a in atoms:
            arg, _ = canonical_arg(a.arg)
            key = (a.label, arg)
            merged[key] = merged.get(key, 0) + a.exp
        at = tuple(sorted(ZetaAtom(l, g, e) for (l, g), e in merged.items() if e != 0))
        res: dict[str, int] = {}
        for l, m in residues:
            res[l] = res.get(l, 0) + m
        rr = tuple(sorted((l, m) for l, m in res.items() if m != 0))
        return ZetaExpr(sc, tuple(sorted(nn, key=_primitive_order)),
                        tuple(sorted(dd, key=_primitive_order)), at, rr)

    @staticmethod
    def atom(label: str, arg: AffineForm, exp: int = 1) -> "ZetaExpr":
        return ZetaExpr.build(atoms=[ZetaAtom(label, arg, exp)])

    @staticmethod
    def residue_symbol(label: str, power: int = 1) -> "ZetaExpr":
        return ZetaExpr.build(residues=[(label, power)])

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __mul__(self, other: "ZetaExpr | Rat") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return ZetaExpr.build(self.scalar * _q(other), self.num, self.den,
                                  self.atoms, self.residues)
        return ZetaExpr.build(self.scalar * other.scalar,
                              self.num + other.num, self.den + other.den,
                              self.atoms + other.atoms,
                              self.residues + other.residues)

    __rmul__ = __mul__

    def inverse(self) -> "ZetaExpr":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ZetaExpr")
        return ZetaExpr.build(1 / self.scalar, self.den, self.num,
                              tuple(ZetaAtom(a.label, a.arg, -a.exp) for a in self.atoms),
                              tuple((l, -m) for l, m in self.residues))

    def __truediv__(self, other: "ZetaExpr | Rat") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return self * (Q(1) / _q(other))
        return self * other.inverse()

    def __neg__(self) -> "ZetaExpr":
        return self * Q(-1)

    def subs(self, assignment: Mapping[str, AffineForm | Rat]) -> "ZetaExpr":
        return ZetaExpr.build(
            self.scalar,
            [f.subs(assignment) for f in self.num],
            [f.subs(assignment) for f in self.den],
            [ZetaAtom(a.label, a.arg.subs(assignment), a.exp) for a in self.atoms],
            self.residues)

    @property
    def params(self) -> tuple[str, ...]:
        names: set[str] = set()
        for f in itertools.chain(self.num, self.den, (a.arg for a in self.atoms)):
            names.update(f.params)
        return tuple(sorted(names))

    def __str__(self) -> str:
        return self.text()

    def text(self, factor_text: Callable[[ZetaAtom], str] = ZetaAtom.factor_text) -> str:
        """The text form, each atom's factor rendered by ``factor_text``."""
        top: list[str] = []
        bot: list[str] = []
        for l, m in self.residues:
            (top if m > 0 else bot).append(_residue_text(l, m))
        for f in self.num:
            top.append(f"({f})")
        for f in self.den:
            bot.append(f"({f})")
        for a in self.atoms:
            (top if a.exp > 0 else bot).append(factor_text(a))
        return _quotient_text(self.scalar, top, bot)

    def to_json(self) -> dict:
        return {
            "scalar": str(self.scalar),
            "num": [str(f) for f in self.num],
            "den": [str(f) for f in self.den],
            "atoms": [a.to_json() for a in self.atoms],
            "residues": [{"label": l, "power": m} for l, m in self.residues],
        }


_set_scalar, _set_num, _set_den, _set_atoms, _set_residues = setters(ZetaExpr)


def _residue_text(label: str, power: int) -> str:
    """R_L^m as a factor of ``ZetaExpr.text``: R for the base field F, to the power |m| unless 1."""
    name = "R" if label == "F" else f"R_{label}"
    return name if abs(power) == 1 else f"{name}^{abs(power)}"


def _quotient_text(scalar: Q, top: list[str], bot: list[str]) -> str:
    """``ZetaExpr.text`` from its scalar and the factor texts above and below the line;
    the scalar is written where it is not 1 or nothing else is above."""
    if scalar == 0:
        return "0"
    if scalar != 1 or not top:
        top.insert(0, str(scalar))
    expr = "*".join(top)
    if bot:
        expr += "/" + ("*".join(bot) if len(bot) == 1 else "(" + "*".join(bot) + ")")
    return expr


class LaurentData(Record):
    """Order of vanishing (negative = pole) and the leading coefficient.

    ``leading`` is a ZetaExpr; when the expansion point is fully numeric it is
    a monomial: rational * prod xi_L(q)^e * prod R_L^m.
    """

    __slots__ = ("order", "leading")

    def __init__(self, order: int, leading: ZetaExpr):
        self._fill(order, leading)

    def __str__(self) -> str:
        return f"order {self.order}, leading {self.leading}"


def form_limit(f: AffineForm, var: str) -> tuple[int, AffineForm | None, int, int]:
    """Order of vanishing (0 or 1) of an affine factor as var -> 0, and its leading form.

    f = a*var vanishes to order 1 with leading coefficient a; any other f
    leads with itself at var = 0.  The leading form comes as ``_primitive``
    gives it: (primitive form, num, den), the form None for a constant.
    """
    lead, num, den = _primitive(f, var)
    if lead is not None or num:
        return 0, lead, num, den
    a = next((c for n, c in f.coeff_nums if n == var), 0)
    if a == 0:
        raise ValueError("zero affine factor")
    return 1, None, a, f.den


def atom_limit(label: str, arg: AffineForm, var: str, *, exp: int = 1,
               assume_no_real_zeros: bool = False) -> tuple[int, int] | AffineForm:
    """Leading behaviour of one atom xi_L(arg)^exp as var -> 0.

    A polar atom, xi_L(eps) ~ -R_L/eps or xi_L(1+eps) ~ R_L/eps with
    eps = slope*var, returns its coefficient sign/slope as an integer pair
    (num, den): the atom contributes order -exp, that coefficient to the
    power exp and the residue symbol R_L^exp.  Any other atom returns its argument at var = 0,
    with order 0.  Raises as ``expand_in`` documents, naming the atom.
    """
    g = arg.drop(var)
    if g.is_constant():
        c, d = g.const_num, g.den
        if c == 0 or c == d:
            slope = next((s for n, s in arg.coeff_nums if n == var), 0)
            if slope == 0:
                raise HyperplaneDegeneracyError(f"xi_{label} argument identically {c}",
                                                atom=str(ZetaAtom(label, arg, exp)))
            return -arg.den if c == 0 else arg.den, slope
        if 0 < c < d and not assume_no_real_zeros:
            raise IndeterminateZeroRegionError(
                f"xi_{label}({g}) lies in (0,1); possible real zero",
                atom=str(ZetaAtom(label, arg, exp)))
    return g


_Counts = tuple[tuple[int, int], ...]      # (id, count) pairs, ids ascending


def _factors(expr: ZetaExpr) -> Iterator[tuple[object, int]]:
    """(key, count) of every factor but the scalar: (label, arg) and e of xi_L(arg)^e,
    the form and +-1 of an affine factor in num or den, L and m of R_L^m."""
    return itertools.chain((((a.label, a.arg), a.exp) for a in expr.atoms),
                           ((f, 1) for f in expr.num), ((f, -1) for f in expr.den),
                           expr.residues)


def _intern(ids: dict[object, int], factors: Iterable[tuple[object, int]]) -> _Counts:
    """The factors as (id, count) pairs, each new key numbered in ids as it arrives."""
    counts: dict[int, int] = {}
    for key, c in factors:
        i = ids.setdefault(key, len(ids))
        counts[i] = counts.get(i, 0) + c
    return tuple(sorted((i, c) for i, c in counts.items() if c))


class _Multisets:
    """Interns keys to small ints and packs a multiset of keys into one int.

    Key number j with multiplicity m adds m << (width * j).  The width leaves
    room for multiplicities of either sign up to twice ``bound``, so packed
    multisets of total multiplicity at most ``bound`` are equal as ints
    exactly when they are equal.
    """

    def __init__(self, bound: int):
        self.ids: dict[object, int] = {}
        self.width = bound.bit_length() + 2

    def weight(self, key: object, count: int = 1) -> int:
        return count << (self.width * self.ids.setdefault(key, len(self.ids)))


class _Expansion:
    """Every factor key of a table (``_intern``) expanded once as var -> 0.

    Given a point, each factor is shifted to point + var first (the pole
    reports, ``laurent_at``); else it is expanded in var as it stands.  Per key:
    the order of vanishing, the leading scalar and the key of the leading
    monomial: (label, arg) of an atom at var = 0, canonical so that atoms
    meeting there merge, the label of a polar atom's or a residue symbol's
    R_L, or the primitive form of an affine factor left generic by other
    parameters.  The shared ``_Multisets``, if given, packs these keys, and
    a term's Laurent data are sums over its counts.  A key whose expansion
    raises is kept aside as (label, arg) at the point, where distinct atoms
    can meet; it raises again only for a term whose counts there add to nonzero.
    """

    def __init__(self, keys: Iterable[object], sets: _Multisets | None, var: str,
                 point: Mapping[str, Rat] | None = None, assume_no_real_zeros: bool = False):
        self.var = var
        self.assume = assume_no_real_zeros
        # per key: order, leading scalar as (num, den) or None for 1, packed leading monomial
        self.data: list[tuple[int, tuple[int, int] | None, int]] = []
        self.failing: dict[int, tuple[str, AffineForm]] = {}
        # (kind: 0 R_L, 1 atom, 2 form; sort key; key index; leading key), ranked by ``leading``
        self.keyed: list[tuple[int, object, int, object]] = []
        self.leads: list[tuple[int, object]] = []
        self.ranks: list[int | None] | None = None
        # one ZetaAtom per (rank, count), shared by every leading monomial that holds it
        self.atoms: dict[tuple[int, int], ZetaAtom] = {}
        for i, key in enumerate(keys):
            order, factor, lead, kind = 0, None, key, 0
            if isinstance(key, AffineForm):
                order, lead, num, den = form_limit(
                    key if point is None else shift_form(key, point, var), var)
                factor, kind = (num, den), 2
            elif isinstance(key, tuple):
                label, arg = key
                if point is not None:
                    arg = canonical_arg(shift_form(arg, point, var))[0]
                try:
                    limit = atom_limit(label, arg, var, assume_no_real_zeros=assume_no_real_zeros)
                except (HyperplaneDegeneracyError, IndeterminateZeroRegionError):
                    self.failing[i], lead = (label, arg), None
                else:
                    if isinstance(limit, AffineForm):
                        lead, kind = (label, canonical_arg(limit)[0]), 1
                    else:
                        order, factor, lead = -1, limit, label
            if lead is not None:
                self.keyed.append((kind, _primitive_order(lead) if kind == 2 else lead, i, lead))
            self.data.append((order, None if factor is None or factor[0] == factor[1] else factor,
                              0 if lead is None or sets is None else sets.weight(lead)))

    def term(self, scalar: Q, counts: _Counts) -> tuple[int, Q, int]:
        """(order, leading scalar, packed leading monomial) of one term."""
        if scalar == 0:
            raise ValueError("Laurent expansion of the zero expression")
        failing = self.failing
        if failing:
            # each failing id looked up in the id-sorted counts, the counts of atoms met added
            met: dict[tuple[str, AffineForm], int] = {}
            for i, atom in failing.items():
                if (k := bisect_left(counts, (i,))) < len(counts) and counts[k][0] == i:
                    met[atom] = met.get(atom, 0) + counts[k][1]
            hits = [(*atom, c) for atom, c in met.items() if c]
            if hits:
                label, arg, c = min(hits)
                atom_limit(label, arg, self.var, exp=c, assume_no_real_zeros=self.assume)   # raises
        order = key = 0
        num = den = 1
        data = self.data
        for i, c in counts:
            o, factor, weight = data[i]
            order += o * c
            key += weight * c
            if factor is not None:
                p, q = factor if c > 0 else factor[::-1]
                num *= p ** abs(c)
                den *= q ** abs(c)
        if num != den:
            scalar = Q(scalar.numerator * num, scalar.denominator * den)
        return order, scalar, key

    def leading(self, scalar: Q, counts: _Counts) -> ZetaExpr:
        """scalar (nonzero) times the leading monomial of a term with these counts.

        The first call ranks the distinct leading keys in the order of a
        canonical ``ZetaExpr``, each kind sorted (forms by
        ``_primitive_order``).  Summing counts per rank and sorting the ranks
        then gives the canonical form: no build.
        """
        ranks, leads = self.ranks, self.leads
        if ranks is None:
            self.ranks = ranks = [None] * len(self.data)
            last = None
            for kind, order_key, i, lead in sorted(self.keyed):
                if (kind, order_key) != last:
                    leads.append((kind, lead))
                    last = kind, order_key
                ranks[i] = len(leads) - 1
        summed: dict[int, int] = {}
        for i, c in counts:
            r = ranks[i]
            if r is not None:
                summed[r] = summed.get(r, 0) + c
        residues, atoms, num, den = [], [], [], []
        shared = self.atoms
        for r, c in sorted(summed.items()):
            kind, lead = leads[r]
            if not c:
                continue
            if kind == 0:
                residues.append((lead, c))
            elif kind == 1:
                atom = shared.get((r, c))
                if atom is None:
                    atom = shared[r, c] = ZetaAtom(*lead, c)
                atoms.append(atom)
            else:
                (num if c > 0 else den).extend([lead] * abs(c))
        return ZetaExpr(scalar, tuple(num), tuple(den), tuple(atoms), tuple(residues))


def expand_in(expr: ZetaExpr, var: str, *, point: Mapping[str, Rat] | None = None,
              assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent order and leading coefficient of expr as var -> 0.

    Other parameters are treated as generic; an atom is polar only when its
    argument restricted to var=0 is identically 0 or 1.  An argument that is
    identically 0 or 1 with no var dependence at all cannot be expanded and
    raises hyperplane-degeneracy; a constant argument strictly inside (0,1)
    raises indeterminate-zero-region unless assume_no_real_zeros is set
    (completed zetas may vanish there).  expr is expanded as the one term of
    its own factor table.  Given a point, which must assign every parameter
    (else ``ValueError``), each factor is first shifted to point + var, as
    ``shift_form`` does.
    """
    if point is not None and (free := set(expr.params) - set(point)):
        raise ValueError(f"point does not assign parameters: {sorted(free)}")
    ids: dict[object, int] = {}
    counts = _intern(ids, _factors(expr))
    expansion = _Expansion(list(ids), None, var, point, assume_no_real_zeros)
    order, scalar, _ = expansion.term(expr.scalar, counts)
    return LaurentData(order, expansion.leading(scalar, counts))


def shift_form(f: AffineForm, point: Mapping[str, Rat], var: str) -> AffineForm:
    """f(point + var): its value at the point plus (sum of its coefficients) var.

    The value is accumulated as num / (f.den * den), one denominator at a time.
    """
    num, den = f.const_num, 1
    for n, c in f.coeff_nums:
        p, q = _ratio(point[n])
        num, den = num * q + c * p * den, den * q
    slope = sum(c for _, c in f.coeff_nums) * den
    return _make(f.den * den, num, ((var, slope),) if slope else ())


_EPS = "_eps"


def laurent_at(expr: ZetaExpr, point: Mapping[str, Rat], *,
               assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent data of expr at a full rational parameter assignment.

    The expansion variable is the common offset delta with point + delta
    substituted for every parameter; for single-parameter expressions (every
    use in the calculator) this is the ordinary expansion in s - s0.
    """
    return expand_in(expr, _EPS, point=point, assume_no_real_zeros=assume_no_real_zeros)

