"""Affine forms over named formal parameters, with exact rational arithmetic.

An :class:`AffineForm` is ``const + sum a_p * p`` where the ``p`` are formal
parameter names ("s", "s1", ...) and all coefficients are ``Fraction``.
These are the arguments of completed-zeta atoms and the coordinates of torus
characters; nothing in the engine ever touches a float.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

Q = Fraction
Rat = Union[Q, int]


def _q(x: Rat) -> Q:
    return x if isinstance(x, Q) else Q(x)


@dataclass(frozen=True, order=True)
class AffineForm:
    const: Q = Q(0)
    coeffs: tuple[tuple[str, Q], ...] = ()

    @staticmethod
    def of(const: Rat = 0, **coeffs: Rat) -> "AffineForm":
        items = tuple(sorted((n, _q(c)) for n, c in coeffs.items() if _q(c) != 0))
        return AffineForm(_q(const), items)

    @staticmethod
    def const_form(c: Rat) -> "AffineForm":
        return AffineForm(_q(c), ())

    @staticmethod
    def var(name: str, coeff: Rat = 1) -> "AffineForm":
        return AffineForm.of(0, **{name: coeff})

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coeffs)

    def coeff(self, name: str) -> Q:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Q(0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_zero(self) -> bool:
        return self.const == 0 and not self.coeffs

    def drop(self, name: str) -> "AffineForm":
        return AffineForm(self.const, tuple((n, c) for n, c in self.coeffs if n != name))

    def __add__(self, other: "AffineForm | Rat") -> "AffineForm":
        if not isinstance(other, AffineForm):
            return AffineForm(self.const + _q(other), self.coeffs)
        acc = dict(self.coeffs)
        for n, c in other.coeffs:
            acc[n] = acc.get(n, Q(0)) + c
        items = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return AffineForm(self.const + other.const, items)

    __radd__ = __add__

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.const, tuple((n, -c) for n, c in self.coeffs))

    def __sub__(self, other: "AffineForm | Rat") -> "AffineForm":
        return self + (-other if isinstance(other, AffineForm) else -_q(other))

    def __rsub__(self, other: Rat) -> "AffineForm":
        return (-self) + _q(other)

    def __mul__(self, scalar: Rat) -> "AffineForm":
        s = _q(scalar)
        if s == 0:
            return AffineForm()
        return AffineForm(self.const * s, tuple((n, c * s) for n, c in self.coeffs))

    __rmul__ = __mul__

    def subs(self, assignment: Mapping[str, "AffineForm | Rat"]) -> "AffineForm":
        """Substitute parameters by rationals or other affine forms."""
        out = AffineForm(self.const, ())
        for n, c in self.coeffs:
            if n in assignment:
                v = assignment[n]
                out = out + (v * c if isinstance(v, AffineForm) else AffineForm.const_form(_q(v) * c))
            else:
                out = out + AffineForm.var(n, c)
        return out

    def evaluate(self, point: Mapping[str, Rat]) -> Q:
        v = self.subs(point)
        if not v.is_constant():
            missing = ", ".join(v.params)
            raise ValueError(f"unassigned parameters: {missing}")
        return v.const

    def leading_coeff(self) -> Q:
        """Coefficient of the first parameter in name order, or 0 if constant."""
        return self.coeffs[0][1] if self.coeffs else Q(0)

    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in self.coeffs:
            if c == 1:
                t = n
            elif c == -1:
                t = f"-{n}"
            else:
                t = f"{c}{n}"
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        if self.const != 0 or not parts:
            c = self.const
            parts.append(f"+{c}" if parts and c > 0 else f"{c}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {"const": str(self.const), "coeffs": {n: str(c) for n, c in self.coeffs}}


# a lone sign is a term of its own, so that ``s+`` or ``2s++3`` are refused
_TERM_RE = re.compile(r"([+-]?[^+-]*)")


def parse_affine(text: str) -> AffineForm:
    """Parse forms like ``6s+2``, ``-1``, ``5s/2-3/10`` or ``3/2s1``."""
    text = text.replace(" ", "").replace("*", "")
    if not text:
        raise ValueError("empty affine form")
    out = AffineForm()
    for term in filter(None, _TERM_RE.findall(text)):
        m = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?([A-Za-z]\w*)?(?:/(\d+))?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Q(m.group(2)) if m.group(2) else Q(1)
        if m.group(4):
            coeff /= int(m.group(4))
        if m.group(3):
            out = out + AffineForm.var(m.group(3), sign * coeff)
        else:
            out = out + sign * coeff
    return out


def parse_rational(text: str) -> Q:
    """Parse a point like ``3/10`` or ``2`` exactly."""
    return Q(text.strip())
