"""A minimal Fraction-backed affine form, the reference for ``degeis.forms``.

``RefForm`` keeps ``const`` and the name-sorted ``coeffs`` as ``Fraction``s
and orders as the dataclass orders the tuple (const, coeffs).  The
integer-backed ``AffineForm`` must agree with it on arithmetic,
substitution, the functional-equation representative, text, equality and
order (``tests/test_forms.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Mapping


@dataclass(frozen=True, order=True)
class RefForm:
    const: Q = Q(0)
    coeffs: tuple[tuple[str, Q], ...] = ()

    @staticmethod
    def of(const=0, **coeffs) -> "RefForm":
        return RefForm(Q(const), tuple(sorted((n, Q(c)) for n, c in coeffs.items() if c != 0)))

    def __add__(self, other: "RefForm | Q | int") -> "RefForm":
        if not isinstance(other, RefForm):
            return RefForm(self.const + other, self.coeffs)
        acc = dict(self.coeffs)
        for n, c in other.coeffs:
            acc[n] = acc.get(n, Q(0)) + c
        return RefForm(self.const + other.const, tuple(sorted((n, c) for n, c in acc.items() if c)))

    def __neg__(self) -> "RefForm":
        return self * -1

    def __sub__(self, other: "RefForm | Q | int") -> "RefForm":
        return self + (-other)

    def __mul__(self, k: Q | int) -> "RefForm":
        if k == 0:
            return RefForm()
        return RefForm(self.const * k, tuple((n, c * k) for n, c in self.coeffs))

    def subs(self, assignment: Mapping[str, "RefForm | Q"]) -> "RefForm":
        out = RefForm(self.const)
        for n, c in self.coeffs:
            v = assignment.get(n, RefForm.of(0, **{n: 1}))
            out = out + (v * c if isinstance(v, RefForm) else RefForm(v * c))
        return out

    def evaluate(self, point: Mapping[str, Q]) -> Q:
        v = self.subs(point)
        if v.coeffs:
            raise ValueError(f"unassigned parameters: {', '.join(n for n, _ in v.coeffs)}")
        return v.const

    def canonical_arg(self) -> tuple["RefForm", bool]:
        """The representative of {f, 1 - f}: positive lead, or the larger constant."""
        keep = self.coeffs[0][1] > 0 if self.coeffs else self.const >= 1 - self.const
        return (self, False) if keep else ((-self) + 1, True)

    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in self.coeffs:
            t = n if c == 1 else f"-{n}" if c == -1 else f"{c}{n}"
            parts.append("+" + t if parts and not t.startswith("-") else t)
        if self.const != 0 or not parts:
            parts.append(f"+{self.const}" if parts and self.const > 0 else f"{self.const}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {"const": str(self.const), "coeffs": {n: str(c) for n, c in self.coeffs}}
