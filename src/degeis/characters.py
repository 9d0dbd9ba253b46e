"""Unramified torus characters, Weyl action, modular characters, named lines.

A :class:`TorusCharacter` is a vector of affine forms in fundamental-weight
coordinates: the i-th coordinate is the pairing with the i-th simple coroot,
and the character reads  prod |t_i|_{F_i}^{coords[i]}  in the torus
parameterization by coroots (the field norm of each coordinate is the one
attached to its simple root).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from math import lcm

from .errors import ConfigError, IotaMismatchError, UnsupportedGroupError
from .forms import AffineForm, Q, Rat, _ratio
from .records import Record, setters
from .rootdata import RootSystem, WeylWord


class TorusCharacter(Record):
    __slots__ = ("coords",)

    def __init__(self, coords: tuple[AffineForm, ...]):
        _set_coords(self, coords)

    @staticmethod
    def of(*coords: AffineForm | Rat) -> "TorusCharacter":
        return TorusCharacter(tuple(
            c if isinstance(c, AffineForm) else AffineForm.const_form(c) for c in coords))

    @staticmethod
    def constant(values: Iterable[Rat]) -> "TorusCharacter":
        return TorusCharacter.of(*values)

    def _zip(self, other: Sequence) -> zip:
        """Each coordinate beside other's; a different length is refused, not truncated."""
        if len(other) != len(self.coords):
            raise ConfigError(f"a character with {len(self.coords)} coordinates cannot "
                              f"combine with {len(other)} coordinates")
        return zip(self.coords, other)

    def __add__(self, other: "TorusCharacter") -> "TorusCharacter":
        return TorusCharacter(tuple(a + b for a, b in self._zip(other.coords)))

    def __sub__(self, other: "TorusCharacter") -> "TorusCharacter":
        return TorusCharacter(tuple(a - b for a, b in self._zip(other.coords)))

    def __mul__(self, scalar: Rat | AffineForm) -> "TorusCharacter":
        return TorusCharacter(tuple(_scale(c, scalar) for c in self.coords))

    __rmul__ = __mul__

    def pair(self, cvec: Sequence[Rat]) -> AffineForm:
        """Pairing with a coroot vector: sum cvec[j] * coords[j]."""
        out = AffineForm()
        for f, c in self._zip(cvec):
            if c:
                out = out + f * c
        return out

    def subs(self, assignment: Mapping[str, AffineForm | Rat]) -> "TorusCharacter":
        return TorusCharacter(tuple(c.subs(assignment) for c in self.coords))

    def evaluate(self, point: Mapping[str, Rat]) -> tuple[Q, ...]:
        return tuple(c.evaluate(point) for c in self.coords)

    def derivative(self, param: str) -> tuple[Q, ...]:
        return tuple(c.coeff(param) for c in self.coords)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.coords)

    @property
    def params(self) -> tuple[str, ...]:
        names: set[str] = set()
        for c in self.coords:
            names.update(c.params)
        return tuple(sorted(names))

    def render(self, system: RootSystem | None = None) -> str:
        """Text form prod |t_i|^(coords[i]) with field subscripts."""
        parts = []
        for i, c in enumerate(self.coords, start=1):
            sub = ""
            if system is not None:
                sym = system.label_of(system.simple_root(i)).symbol
                sub = f"_{sym}" if sym != "F" else "_F"
            parts.append(f"|t{i}|{sub}^({c})")
        return "*".join(parts)

    def __str__(self) -> str:
        return "(" + ",".join([str(c) for c in self.coords]) + ")"

    def to_json(self, form_json: Callable[[AffineForm], dict] = AffineForm.to_json) -> dict:
        """The JSON layout, each coordinate encoded by ``form_json``."""
        return {"coords": [form_json(c) for c in self.coords]}


(_set_coords,) = setters(TorusCharacter)


def _scale(form: AffineForm, scalar: Rat | AffineForm) -> AffineForm:
    if isinstance(scalar, AffineForm):
        if not form.is_constant():
            raise ValueError("cannot multiply two non-constant forms")
        return scalar * form.const
    return form * scalar


def weyl_act(system: RootSystem, word: WeylWord, char: TorusCharacter) -> TorusCharacter:
    """Action of w = w_{i1}...w_{ik}: simple reflections applied right-to-left.

    Each simple reflection is lambda -> lambda - <lambda, alpha_i^vee> alpha_i
    with alpha_i taken as the norm character of the i-th simple root.
    """
    system._check_rank(len(char.coords))
    coords = list(char.coords)
    for i in reversed(word.letters):
        system._check_index(i)
        s_i = coords[i - 1]
        row = system.pairing[i - 1]
        coords = [c._plus(s_i, -r) if r else c for c, r in zip(coords, row)]
    return TorusCharacter(tuple(coords))


def root_basis_coords(system: RootSystem, values: Sequence[Rat]) -> tuple[Q, ...]:
    """Solve for x with values = sum_j x_j * nchar(alpha_j).

    These are the coefficients of the character in the simple-root basis
    (pairings with the fundamental coweights); Langlands' square-
    integrability test reads strict negativity off this vector.

    The values are put over one common denominator and the integer system
    is solved fraction-free (Bareiss elimination, then back substitution
    scaled by the last pivot d, where every division is exact): one
    Fraction per coordinate at the end.
    """
    system._check_rank(len(values))
    n = system.rank
    ratios = [_ratio(v) for v in values]
    den = lcm(*(q for _, q in ratios))
    rows = [[system.pairing[j][i] for j in range(n)] + [p * (den // q)]
            for i, (p, q) in enumerate(ratios)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        d = top[col]
        for row in rows[col + 1:]:
            f = row[col]
            row[col:] = [(x * d - f * y) // prev for x, y in zip(row[col:], top[col:])]
        prev = d
    # the triangular system in d * x, integer by Cramer's rule
    scaled = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        scaled[k] = (prev * row[n] - sum(row[j] * scaled[j] for j in range(k + 1, n))) // row[k]
    return tuple(Q(x, prev * den) for x in scaled)


def modular_character(system: RootSystem, levi: Iterable[int], *,
                      ambient: Iterable[int] | None = None) -> TorusCharacter:
    """Modular character of the standard parabolic with the given Levi.

    Sums the norm characters of the radical's roots as integer coordinates,
    mapped once by ``_weighted_char``.  With ``ambient`` the computation happens
    inside the standard Levi subgroup on that simple-root subset (delta^L_{L cap R}).
    """
    levi_set = set(levi)
    amb = set(ambient) if ambient is not None else set(range(1, system.rank + 1))
    for i in levi_set | amb:
        system._check_index(i)
    if not levi_set <= amb:
        raise ValueError("levi must be contained in the ambient subset")
    total = [0] * system.rank
    for r, label in zip(system.positive_roots, system._labels):
        support = {j + 1 for j, c in enumerate(r.coords) if c != 0}
        if support <= amb and not support <= levi_set:
            total = [t + label.degree * c for t, c in zip(total, r.coords)]
    return TorusCharacter.constant(system._weighted_char(total))


def parabolic_levi(system: RootSystem, parabolic: str) -> tuple[int, ...]:
    """Simple indices of the Levi of a named standard parabolic.

    P is the Heisenberg parabolic (remove the branch vertex alpha_2 of the
    D4 diagrams), Q removes alpha_1; borel removes everything.
    """
    name = parabolic.lower()
    if name == "borel":
        return ()
    if system.name in ("split_D4", "quasi_D4", "tri_D4"):
        if name == "p":
            return tuple(i for i in range(1, system.rank + 1) if i != 2)
        if name == "q":
            if system.name == "tri_D4":
                raise UnsupportedGroupError("Q is not defined over F for the triality form")
            return tuple(i for i in range(1, system.rank + 1) if i != 1)
    raise UnsupportedGroupError(f"parabolic {parabolic!r} not defined for {system.name}")


def _require_d4(system: RootSystem, allow_tri: bool = False) -> None:
    ok = ("split_D4", "quasi_D4") + (("tri_D4",) if allow_tri else ())
    if system.name not in ok:
        raise UnsupportedGroupError(f"{system.name} has no such standard line")


def line_chi_Q(system: RootSystem) -> TorusCharacter:
    """chi_s^Q = delta_Q^{s+1/2} delta_B^{-1/2}."""
    _require_d4(system)
    return _delta_line(system, parabolic_levi(system, "Q"), Q(1, 2))


def line_chi_P(system: RootSystem) -> TorusCharacter:
    """chi_s^P = delta_P^{s+1/2} delta_B^{-1/2}."""
    _require_d4(system, allow_tri=True)
    return _delta_line(system, parabolic_levi(system, "P"), Q(1, 2))


def line_mu_Q(system: RootSystem) -> TorusCharacter:
    """mu_s^Q = delta_B^{1/2} delta_Q^{s-1/2}."""
    _require_d4(system)
    return _delta_line(system, parabolic_levi(system, "Q"), Q(-1, 2))


def line_mu_P(system: RootSystem) -> TorusCharacter:
    """mu_s^P = delta_B^{1/2} delta_P^{s-1/2}."""
    _require_d4(system, allow_tri=True)
    return _delta_line(system, parabolic_levi(system, "P"), Q(-1, 2))


def line_kappa(system: RootSystem) -> TorusCharacter:
    """kappa_s = w_1 . mu_s^Q."""
    _require_d4(system)
    return weyl_act(system, WeylWord.of(1), line_mu_Q(system))


def _delta_line(system: RootSystem, levi: tuple[int, ...], a: Q) -> TorusCharacter:
    """delta_X^{s+a} delta_B^{-a} for the parabolic X with this Levi."""
    delta = modular_character(system, levi)
    delta_b = modular_character(system, ())
    s = AffineForm.var("s")
    return TorusCharacter(tuple(
        (s + a) * d.const - a * b.const for d, b in zip(delta.coords, delta_b.coords)))


STANDARD_LINES = {"chiQ": line_chi_Q, "chiP": line_chi_P, "muP": line_mu_P,
                  "muQ": line_mu_Q, "kappa": line_kappa}


def standard_line(system: RootSystem, name: str) -> TorusCharacter:
    if name not in STANDARD_LINES:
        raise UnsupportedGroupError(f"unknown line {name!r}; choose from {sorted(STANDARD_LINES)}")
    return STANDARD_LINES[name](system)


def chi_line_for(system: RootSystem, parabolic: str) -> TorusCharacter:
    """delta_X^{s+1/2} delta_B^{-1/2} for any named parabolic (borel included)."""
    return _delta_line(system, parabolic_levi(system, parabolic), Q(1, 2))


class IotaReport(Record):
    """Result of the iota change-of-variables verification."""

    __slots__ = ("iota_pq", "iota_qp", "identity_holds", "special_point_equal",
                 "w1_relation_holds")

    def __init__(self, iota_pq: TorusCharacter,    # affine in (s1, s2)
                 iota_qp: TorusCharacter, identity_holds: bool, special_point_equal: bool,
                 w1_relation_holds: bool):
        self._fill(iota_pq, iota_qp, identity_holds, special_point_equal, w1_relation_holds)

    @property
    def ok(self) -> bool:
        return self.identity_holds and self.special_point_equal and self.w1_relation_holds


def iota_check(system: RootSystem) -> IotaReport:
    """Verify iota_{P,Q}(s1,s2) = iota_{Q,P}((5 s2 - s1)/4, (s1 + 5 s2)/6).

    iota_{P,Q} = (delta^M_{M cap R})^{s1} (delta_P)^{s2} and symmetrically for
    iota_{Q,P}, with R = P cap Q.  Also checks the special-point equality
    iota_{P,Q}(-1/2, 3/10) = iota_{Q,P}(1/2, 1/6) and the reflection relation
    w_1 . iota_{P,Q}(1/2, 3/10) = iota_{P,Q}(-1/2, 3/10).
    """
    _require_d4(system)
    p_levi = parabolic_levi(system, "P")
    q_levi = parabolic_levi(system, "Q")
    r_levi = tuple(i for i in p_levi if i in q_levi)
    s1 = AffineForm.var("s1")
    s2 = AffineForm.var("s2")
    delta_m = modular_character(system, r_levi, ambient=p_levi)
    delta_l = modular_character(system, r_levi, ambient=q_levi)
    delta_p = modular_character(system, p_levi)
    delta_q = modular_character(system, q_levi)

    def combine(a: TorusCharacter, sa: AffineForm, b: TorusCharacter, sb: AffineForm) -> TorusCharacter:
        return TorusCharacter(tuple(sa * x.const + sb * y.const
                                    for x, y in zip(a.coords, b.coords)))

    iota_pq = combine(delta_m, s1, delta_p, s2)
    iota_qp = combine(delta_l, s1, delta_q, s2)
    substituted = iota_qp.subs({
        "s1": (5 * AffineForm.var("s2") - AffineForm.var("s1")) * Q(1, 4),
        "s2": (AffineForm.var("s1") + 5 * AffineForm.var("s2")) * Q(1, 6),
    })
    identity = all(a == b for a, b in zip(iota_pq.coords, substituted.coords))
    if not identity:
        bad = next(i for i, (a, b) in enumerate(zip(iota_pq.coords, substituted.coords)) if a != b)
        raise IotaMismatchError(
            f"iota identity fails in coordinate {bad + 1}: "
            f"{iota_pq.coords[bad]} vs {substituted.coords[bad]}", coordinate=bad + 1)
    lhs = iota_pq.evaluate({"s1": -Q(1, 2), "s2": Q(3, 10)})
    rhs = iota_qp.evaluate({"s1": Q(1, 2), "s2": Q(1, 6)})
    special = lhs == rhs
    point_plus = TorusCharacter.constant(iota_pq.evaluate({"s1": Q(1, 2), "s2": Q(3, 10)}))
    point_minus = TorusCharacter.constant(lhs)
    w1rel = weyl_act(system, WeylWord.of(1), point_plus).coords == point_minus.coords
    return IotaReport(iota_pq, iota_qp, identity, special, w1rel)
