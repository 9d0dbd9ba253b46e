"""Affine forms over named formal parameters, with exact rational arithmetic.

An :class:`AffineForm` is ``const + sum a_p * p`` where the ``p`` are formal
parameter names ("s", "s1", ...) and the coefficients are rational.  A form
is stored as integers: one positive denominator ``den``, the numerator
``const_num`` of the constant and the name-sorted numerators ``coeff_nums``,
with no factor common to all of them.  Arithmetic, substitution and
comparison work on these integers; ``Fraction`` appears only at the
boundaries: parsing, the ``const``/``coeffs`` views, the value of
``evaluate``, ``str`` and ``to_json``.  These are the arguments of
completed-zeta atoms and the coordinates of torus characters; nothing in the
engine ever touches a float.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from .errors import ConfigError

Q = Fraction
Rat = Q | int

_Terms = tuple[tuple[str, int], ...]


def _q(x: Rat) -> Q:
    if isinstance(x, Q):
        return x
    # a float's binary value is not the rational meant (0.3 != 3/10), nor is True 1
    if not isinstance(x, (float, bool)):
        try:
            return Q(x)
        except TypeError:       # a complex, None, a list: no rational at all
            pass
    raise ConfigError(f"{x!r} is a {type(x).__name__}, not an exact rational: "
                      "pass an int, Fraction or str")


def _ratio(x: Rat) -> tuple[int, int]:
    """(numerator, denominator) of a rational, the denominator positive."""
    if x.__class__ is int:
        return x, 1
    return _q(x).as_integer_ratio()


def _ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _per_object(render: Callable[[object], object]) -> Callable[[object], object]:
    """``render``, run once per object: an object met again gets its first result.

    Keyed by ``id``, which costs less than hashing a ``Fraction``, a
    ``ZetaAtom`` or an ``AffineForm``: for the values a result shares as one
    object each.  Every entry holds its object, so no id is reused while the
    memo lives.
    """
    memo: dict[int, tuple[object, object]] = {}

    def once(x: object) -> object:
        hit = memo.get(id(x))
        if hit is None:
            hit = memo[id(x)] = (x, render(x))
        return hit[1]
    return once


def _merge(x: _Terms, m: int, y: _Terms, k: int) -> _Terms:
    """The name-sorted coefficients of m*x + k*y, zeros dropped."""
    if not y:
        return x if m == 1 else tuple((n, c * m) for n, c in x)
    if not x:
        return y if k == 1 else tuple((n, c * k) for n, c in y)
    if len(x) == len(y) == 1 and x[0][0] == y[0][0]:
        c = x[0][1] * m + y[0][1] * k
        return ((x[0][0], c),) if c else ()
    acc = {n: c * m for n, c in x}
    for n, c in y:
        acc[n] = acc.get(n, 0) + c * k
    return tuple(sorted((n, c) for n, c in acc.items() if c))


@total_ordering
class AffineForm:
    """(const_num + sum coeff_nums[p] * p) / den, immutable."""

    __slots__ = ("den", "const_num", "coeff_nums")

    def __init__(self, const: Rat = 0, coeffs: Iterable[tuple[str, Rat]] = ()):
        c = _q(const)
        acc: dict[str, Q] = {}
        for n, v in coeffs:
            acc[n] = acc.get(n, 0) + _q(v)
        items = sorted((n, v) for n, v in acc.items() if v)
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(c.denominator, *(v.denominator for _, v in items))
        _set_den(self, den)
        _set_const(self, c.numerator * (den // c.denominator))
        _set_coeffs(self, tuple((n, v.numerator * (den // v.denominator)) for n, v in items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AffineForm is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AffineForm is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        """Copy and pickle by the integers, as the attributes cannot be set."""
        return _make, (self.den, self.const_num, self.coeff_nums)

    @staticmethod
    def of(const: Rat = 0, **coeffs: Rat) -> "AffineForm":
        return AffineForm(const, coeffs.items())

    @staticmethod
    def const_form(c: Rat) -> "AffineForm":
        p, q = _ratio(c)
        return _make(q, p, ())

    @staticmethod
    def var(name: str, coeff: Rat = 1) -> "AffineForm":
        p, q = _ratio(coeff)
        return _make(q, 0, ((name, p),) if p else ())

    # -- rational views ------------------------------------------------------

    @property
    def const(self) -> Q:
        return Q(self.const_num, self.den)

    @property
    def coeffs(self) -> tuple[tuple[str, Q], ...]:
        return tuple((n, Q(c, self.den)) for n, c in self.coeff_nums)

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coeff_nums)

    def coeff(self, name: str) -> Q:
        for n, c in self.coeff_nums:
            if n == name:
                return Q(c, self.den)
        return Q(0)

    def is_constant(self) -> bool:
        return not self.coeff_nums

    def is_zero(self) -> bool:
        return self.const_num == 0 and not self.coeff_nums

    def drop(self, name: str) -> "AffineForm":
        return _make(self.den, self.const_num,
                     tuple((n, c) for n, c in self.coeff_nums if n != name))

    # -- arithmetic ------------------------------------------------------------

    def _plus(self, other: "AffineForm | Rat", sign: int) -> "AffineForm":
        """self + sign * other over the least common denominator."""
        if isinstance(other, AffineForm):
            q, p, terms = other.den, other.const_num, other.coeff_nums
        else:
            (p, q), terms = _ratio(other), ()
        d = self.den
        if d == q:
            m, k = 1, sign
        else:
            g = gcd(d, q)
            m, k = q // g, sign * (d // g)
        return _make(d * m, self.const_num * m + p * k, _merge(self.coeff_nums, m, terms, k))

    def __add__(self, other: "AffineForm | Rat") -> "AffineForm":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "AffineForm | Rat") -> "AffineForm":
        return self._plus(other, -1)

    def __rsub__(self, other: Rat) -> "AffineForm":
        return (-self)._plus(other, 1)

    def __neg__(self) -> "AffineForm":
        return _make(self.den, -self.const_num, tuple((n, -c) for n, c in self.coeff_nums))

    def __mul__(self, scalar: Rat) -> "AffineForm":
        p, q = _ratio(scalar)
        if p == 0:
            return _make(1, 0, ())
        return _make(self.den * q, self.const_num * p,
                     tuple((n, c * p) for n, c in self.coeff_nums))

    __rmul__ = __mul__

    def subs(self, assignment: Mapping[str, "AffineForm | Rat"]) -> "AffineForm":
        """Substitute parameters by rationals or other affine forms.

        The rational values are summed directly, as num / (den * self.den);
        the parameters left alone and the substituted forms are added after.
        """
        num, den = self.const_num, 1
        rest = []
        for n, c in self.coeff_nums:
            if n not in assignment:
                rest.append(_make(1, 0, ((n, c),)))
                continue
            v = assignment[n]
            if isinstance(v, AffineForm):
                rest.append(v * c)
            else:
                p, q = _ratio(v)
                num, den = num * q + c * p * den, den * q
        if not rest:
            return _make(den * self.den, num, ())
        out = sum(rest, _make(den, num, ()))
        return _make(out.den * self.den, out.const_num, out.coeff_nums)

    def evaluate(self, point: Mapping[str, Rat]) -> Q:
        v = self.subs(point)
        if not v.is_constant():
            missing = ", ".join(v.params)
            raise ValueError(f"unassigned parameters: {missing}")
        return v.const

    # -- equality, order, text --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AffineForm:
            return NotImplemented
        return (self.den == other.den and self.const_num == other.const_num
                and self.coeff_nums == other.coeff_nums)

    def __hash__(self) -> int:
        return hash((self.den, self.const_num, self.coeff_nums))

    def __lt__(self, other: "AffineForm") -> bool:
        """(const, coeffs) < (other.const, other.coeffs), by cross-multiplying.

        The constants compare first, then the name-sorted (name, coefficient)
        pairs as tuples do.
        """
        if other.__class__ is not AffineForm:
            return NotImplemented
        a, b = self.den, other.den
        x, y = self.const_num * b, other.const_num * a
        if x != y:
            return x < y
        for (n, c), (m, e) in zip(self.coeff_nums, other.coeff_nums):
            if n != m:
                return n < m
            x, y = c * b, e * a
            if x != y:
                return x < y
        return len(self.coeff_nums) < len(other.coeff_nums)

    def __repr__(self) -> str:
        return f"AffineForm(const={self.const!r}, coeffs={self.coeffs!r})"

    def __str__(self) -> str:
        den = self.den
        parts: list[str] = []
        for n, c in self.coeff_nums:
            if c == den:
                t = n
            elif c == -den:
                t = f"-{n}"
            else:
                t = f"{_ratio_str(c, den)}{n}"
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        c = self.const_num
        if c != 0 or not parts:
            text = _ratio_str(c, den)
            parts.append(f"+{text}" if parts and c > 0 else text)
        return "".join(parts)

    def to_json(self) -> dict:
        den = self.den
        return {"const": _ratio_str(self.const_num, den),
                "coeffs": {n: _ratio_str(c, den) for n, c in self.coeff_nums}}


_new = object.__new__
_set_den, _set_const, _set_coeffs = (vars(AffineForm)[name].__set__
                                     for name in AffineForm.__slots__)


def _make(den: int, const_num: int, coeff_nums: _Terms) -> AffineForm:
    """The form (const_num + sum coeff_nums) / den, for den > 0 and no zero coefficient."""
    if den != 1:
        g = gcd(den, const_num)
        for _, c in coeff_nums:
            if g == 1:
                break
            g = gcd(g, c)
        if g != 1:
            den //= g
            const_num //= g
            coeff_nums = tuple((n, c // g) for n, c in coeff_nums)
    f = _new(AffineForm)
    _set_den(f, den)
    _set_const(f, const_num)
    _set_coeffs(f, coeff_nums)
    return f


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
