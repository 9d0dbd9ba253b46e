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
"""

from __future__ import annotations

import itertools
from math import gcd
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import HyperplaneDegeneracyError, IndeterminateZeroRegionError
from .forms import AffineForm, Q, Rat, _make, _q, _ratio


def _primitive(f: AffineForm) -> tuple[AffineForm, int, int]:
    """Rescale f to integer coprime coefficients with positive lead.

    Returns (primitive form, num, den) with f == num/den * primitive.
    """
    if f.is_zero():
        raise ValueError("zero form has no primitive representative")
    terms = f.coeff_nums
    g = gcd(f.const_num, *(c for _, c in terms))
    if (terms[0][1] if terms else f.const_num) < 0:
        g = -g
    if g == 1 and f.den == 1:
        return f, 1, 1
    return _make(1, f.const_num // g, tuple((n, c // g) for n, c in terms)), g, f.den


def canonical_arg(arg: AffineForm) -> tuple[AffineForm, bool]:
    """Representative of {arg, 1-arg} under the functional equation.

    Picks the one with positive leading parameter coefficient; for constant
    arguments the larger of the two.  Returns (canonical, flipped).
    """
    terms = arg.coeff_nums
    keep = terms[0][1] > 0 if terms else 2 * arg.const_num >= arg.den
    return (arg, False) if keep else (1 - arg, True)


@dataclass(frozen=True, order=True)
class ZetaAtom:
    label: str
    arg: AffineForm
    exp: int = 1

    def __str__(self) -> str:
        base = f"xi_{self.label}({self.arg})"
        return base if self.exp == 1 else f"{base}^{self.exp}"

    def to_json(self) -> dict:
        return {"label": self.label, "arg": self.arg.to_json(), "exp": self.exp}


@dataclass(frozen=True)
class ZetaExpr:
    scalar: Q = Q(1)
    num: tuple[AffineForm, ...] = ()
    den: tuple[AffineForm, ...] = ()
    atoms: tuple[ZetaAtom, ...] = ()
    residues: tuple[tuple[str, int], ...] = ()

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
        for f in num:
            if f.is_constant():
                num_sc *= f.const_num
                den_sc *= f.den
                continue
            p, a, b = _primitive(f)
            num_sc *= a
            den_sc *= b
            nn.append(p)
        for f in den:
            if f.is_constant():
                num_sc *= f.den
                den_sc *= f.const_num
                continue
            p, a, b = _primitive(f)
            num_sc *= b
            den_sc *= a
            dd.append(p)
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
        return ZetaExpr(sc, tuple(sorted(nn)), tuple(sorted(dd)), at, rr)

    @staticmethod
    def one() -> "ZetaExpr":
        return ZetaExpr()

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
        if self.is_zero():
            return "0"
        top: list[str] = []
        bot: list[str] = []
        for l, m in self.residues:
            name = "R" if l == "F" else f"R_{l}"
            (top if m > 0 else bot).append(name if abs(m) == 1 else f"{name}^{abs(m)}")
        for f in self.num:
            top.append(f"({f})")
        for f in self.den:
            bot.append(f"({f})")
        for a in self.atoms:
            s = f"xi_{a.label}({a.arg})"
            (top if a.exp > 0 else bot).append(s if abs(a.exp) == 1 else f"{s}^{abs(a.exp)}")
        if self.scalar != 1 or not top:
            top.insert(0, str(self.scalar))
        expr = "*".join(top)
        if bot:
            expr += "/" + ("*".join(bot) if len(bot) == 1 else "(" + "*".join(bot) + ")")
        return expr

    def to_json(self) -> dict:
        return {
            "scalar": str(self.scalar),
            "num": [str(f) for f in self.num],
            "den": [str(f) for f in self.den],
            "atoms": [a.to_json() for a in self.atoms],
            "residues": [{"label": l, "power": m} for l, m in self.residues],
        }


@dataclass(frozen=True)
class LaurentData:
    """Order of vanishing (negative = pole) and the leading coefficient.

    ``leading`` is a ZetaExpr; when the expansion point is fully numeric it is
    a monomial: rational * prod xi_L(q)^e * prod R_L^m.
    """

    order: int
    leading: ZetaExpr

    def __str__(self) -> str:
        return f"order {self.order}, leading {self.leading}"


def form_limit(f: AffineForm, var: str) -> tuple[int, AffineForm]:
    """Order of vanishing (0 or 1) of an affine factor as var -> 0, and its leading form.

    f = a*var vanishes to order 1 with leading coefficient a; any other f
    leads with itself at var = 0.
    """
    g = f.drop(var)
    if not g.is_zero():
        return 0, g
    a = f.coeff(var)
    if a == 0:
        raise ValueError("zero affine factor")
    return 1, AffineForm.const_form(a)


def atom_limit(atom: ZetaAtom, var: str, *,
               assume_no_real_zeros: bool = False) -> Q | ZetaAtom:
    """Leading behaviour of one atom xi_L(arg)^e as var -> 0.

    A polar atom, xi_L(eps) ~ -R_L/eps or xi_L(1+eps) ~ R_L/eps with
    eps = slope*var, returns its coefficient sign/slope: the atom contributes
    order -e, that coefficient to the power e and the residue symbol R_L^e.
    Any other atom returns itself at var = 0, with order 0.  Raises as
    ``expand_in`` documents.
    """
    arg = atom.arg
    g = arg.drop(var)
    if g.is_constant():
        c, d = g.const_num, g.den
        if c == 0 or c == d:
            slope = next((s for n, s in arg.coeff_nums if n == var), 0)
            if slope == 0:
                raise HyperplaneDegeneracyError(
                    f"xi_{atom.label} argument identically {c}", atom=str(atom))
            return Q(-arg.den if c == 0 else arg.den, slope)
        if 0 < c < d and not assume_no_real_zeros:
            raise IndeterminateZeroRegionError(
                f"xi_{atom.label}({g}) lies in (0,1); possible real zero",
                atom=str(atom))
    return ZetaAtom(atom.label, g, atom.exp)


def expand_in(expr: ZetaExpr, var: str, *,
              assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent order and leading coefficient of expr as var -> 0.

    Other parameters are treated as generic; an atom is polar only when its
    argument restricted to var=0 is identically 0 or 1.  An argument that is
    identically 0 or 1 with no var dependence at all cannot be expanded and
    raises hyperplane-degeneracy; a constant argument strictly inside (0,1)
    raises indeterminate-zero-region unless assume_no_real_zeros is set
    (completed zetas may vanish there).
    """
    if expr.is_zero():
        raise ValueError("Laurent expansion of the zero expression")
    order = 0
    scalar = expr.scalar
    num: list[AffineForm] = []
    den: list[AffineForm] = []
    for forms, kept, step in ((expr.num, num, 1), (expr.den, den, -1)):
        for f in forms:
            zero, lead = form_limit(f, var)
            order += step * zero
            kept.append(lead)

    atoms: list[ZetaAtom] = []
    residues = list(expr.residues)
    for a in expr.atoms:
        limit = atom_limit(a, var, assume_no_real_zeros=assume_no_real_zeros)
        if isinstance(limit, ZetaAtom):
            atoms.append(limit)
        else:
            order -= a.exp
            scalar *= limit ** a.exp
            residues.append((a.label, a.exp))
    return LaurentData(order, ZetaExpr.build(scalar, num, den, atoms, residues))


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


def _shift_to_point(expr: ZetaExpr, point: Mapping[str, Rat], var: str) -> ZetaExpr:
    """expr with point + var put in for every parameter, in canonical form.

    The result still goes through build: with several parameters, atoms that
    differ generically can coincide after the shift and cancel.
    """
    return ZetaExpr.build(expr.scalar, [shift_form(f, point, var) for f in expr.num],
                          [shift_form(f, point, var) for f in expr.den],
                          [ZetaAtom(a.label, shift_form(a.arg, point, var), a.exp)
                           for a in expr.atoms],
                          expr.residues)


_EPS = "_eps"


def laurent_at(expr: ZetaExpr, point: Mapping[str, Rat], *,
               assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent data of expr at a full rational parameter assignment.

    The expansion variable is the common offset delta with point + delta
    substituted for every parameter; for single-parameter expressions (every
    use in the calculator) this is the ordinary expansion in s - s0.
    """
    free = set(expr.params) - set(point)
    if free:
        raise ValueError(f"point does not assign parameters: {sorted(free)}")
    shifted = _shift_to_point(expr, point, _EPS)
    return expand_in(shifted, _EPS, assume_no_real_zeros=assume_no_real_zeros)

