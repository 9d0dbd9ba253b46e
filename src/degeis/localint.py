"""The non-archimedean Tate-type integral on the line, evaluated formally.

With multiplicative Haar measure normalized so the unit group has volume 1,

    integral over F_v^x of |t|^z phi(t e0) d^x t

is a rational function in X = q^{-z}: the characteristic function of the
lattice pi^k O gives X^k / (1 - X) (a geometric series, convergent for
Re z > 0), a single valuation shell gives X^k (a single term, for every z).
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ConfigError
from .forms import AffineForm, Q
from .records import Record

Poly = dict[int, Q]


def _poly(d: Mapping[int, Q]) -> Poly:
    return {k: Q(v) for k, v in d.items() if v != 0}


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Q(0)) + x * y
    return _poly(out)


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for j, y in b.items():
        out[j] = out.get(j, Q(0)) + y
    return _poly(out)


class ShellFunction(Record):
    """lattice(k): indicator of pi^k O;  shell(k): indicator of valuation exactly k."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int):
        if kind not in ("lattice", "shell"):
            raise ValueError("kind must be 'lattice' or 'shell'")
        if k.__class__ is not int:
            raise ValueError(f"k must be an int, got {k!r}")
        self._fill(kind, k)

    @staticmethod
    def lattice(k: int) -> "ShellFunction":
        return ShellFunction("lattice", k)

    @staticmethod
    def shell(k: int) -> "ShellFunction":
        return ShellFunction("shell", k)


# convergence regions, from the widest to the narrowest
_ALL_Z = "all z"
_RIGHT_HALF_PLANE = "Re(z) > 0"
_REGIONS = (_ALL_Z, _RIGHT_HALF_PLANE)


class LocalFactor(Record):
    """num/den in X = q^{-z}, with the exponent form carried for printing."""

    __slots__ = ("num", "den", "z", "convergence")

    def __init__(self, num: tuple[tuple[int, Q], ...], den: tuple[tuple[int, Q], ...],
                 z: AffineForm, convergence: str = _RIGHT_HALF_PLANE):
        self._fill(num, den, z, convergence)

    @staticmethod
    def build(num: Poly, den: Poly, z: AffineForm,
              convergence: str = _RIGHT_HALF_PLANE) -> "LocalFactor":
        return LocalFactor(tuple(sorted(num.items())), tuple(sorted(den.items())), z,
                           convergence)

    def _num(self) -> Poly:
        return dict(self.num)

    def _den(self) -> Poly:
        return dict(self.den)

    def equals(self, other: "LocalFactor") -> bool:
        """Exact equality of rational functions (cross multiplication)."""
        return _pmul(self._num(), other._den()) == _pmul(other._num(), self._den())

    def __add__(self, other: "LocalFactor") -> "LocalFactor":
        """The sum, stated on the narrower convergence region of the two."""
        num = _padd(_pmul(self._num(), other._den()), _pmul(other._num(), self._den()))
        den = _pmul(self._den(), other._den())
        return LocalFactor.build(num, den, self.z,
                                 max(self.convergence, other.convergence, key=_REGIONS.index))

    def is_local_zeta(self) -> bool:
        """Whether this equals zeta_v(z) = 1/(1 - q^{-z})."""
        return self.equals(LocalFactor.build({0: Q(1)}, {0: Q(1), 1: Q(-1)}, self.z))

    def __str__(self) -> str:
        def side(poly: tuple[tuple[int, Q], ...]) -> str:
            parts = []
            for k, c in poly:
                if k == 0:
                    term = str(abs(c))
                else:
                    if k > 0:
                        mono = f"q^(-{k}({self.z}))" if k != 1 else f"q^(-({self.z}))"
                    else:  # X^k = q^(-kz) = q^(|k|z)
                        mono = f"q^({-k}({self.z}))" if k != -1 else f"q^({self.z})"
                    term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                else:
                    parts.append(f"+ {term}" if c > 0 else f"- {term}")
            return " ".join(parts) if parts else "0"

        text = side(self.num)
        if self.den != ((0, Q(1)),):
            text = f"({text}) / ({side(self.den)})"
        return text

    def to_json(self) -> dict:
        return {"variable": f"q^(-({self.z}))",
                "num": {str(k): str(c) for k, c in self.num},
                "den": {str(k): str(c) for k, c in self.den},
                "convergence": self.convergence}


def tate_integral(f: ShellFunction, z: AffineForm) -> LocalFactor:
    """Formal value of the shell/lattice integral as a rational function in q^{-z}.

    A shell's value X^k holds for every z.  A lattice's geometric series is
    stated for Re(z) > 0, and a constant z outside that region is a
    configuration error.
    """
    if f.kind == "shell":
        return LocalFactor.build({f.k: Q(1)}, {0: Q(1)}, z, _ALL_Z)
    if z.is_constant() and z.const <= 0:
        raise ConfigError(f"z = {z} lies outside the convergence region {_RIGHT_HALF_PLANE}")
    return LocalFactor.build({f.k: Q(1)}, {0: Q(1), 1: Q(-1)}, z)


def local_zeta(z: AffineForm) -> LocalFactor:
    """zeta_v(z) = 1/(1 - q^{-z}) = tate_integral(lattice(0), z)."""
    return tate_integral(ShellFunction.lattice(0), z)
