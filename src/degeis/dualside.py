"""Weight calculus for the 7-dimensional representation of G2(C).

The standard representation has the zero weight plus the six short roots.
The commuting-pair embedding pairs each weight against the coroots of the
highest (long) root and of the short simple root; the resulting bi-weights
decompose as std (x) std  (+)  1 (x) Sym^2, which drives the shifted
L-function factorizations and their pole orders at s = 2.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import UnmodeledPointError, UnsupportedGroupError
from .forms import Q
from .records import OrderedRecord, Record
from .rootdata import Root, RootSystem, build_system

_SHORT_POS = (Root((1, 0)), Root((1, 1)), Root((2, 1)))


class WeightSet(Record):
    """The seven weights, as fundamental-weight coordinate vectors."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[tuple[Q, ...], ...]):
        self._fill(weights)

    @staticmethod
    def standard(system: RootSystem | None = None) -> "WeightSet":
        system = system or _g2()
        vecs: list[tuple[Q, ...]] = [(Q(0), Q(0))]
        for r in _SHORT_POS:
            v = system.norm_char(r)
            vecs.append(v)
            vecs.append(tuple(-x for x in v))
        return WeightSet(tuple(vecs))


def _g2() -> RootSystem:
    return build_system("G2")


class DualPairEmbedding(Record):
    """Coroot directions of the two commuting SL2s inside G2(C).

    The first corresponds to the unipotent class of a long root (the highest
    root), the second to a short root; the two roots are orthogonal.
    """

    __slots__ = ("long_cochar", "short_cochar")

    def __init__(self, long_cochar: tuple[Q, ...], short_cochar: tuple[Q, ...]):
        self._fill(long_cochar, short_cochar)

    @staticmethod
    def standard(system: RootSystem | None = None) -> "DualPairEmbedding":
        g2 = system or _g2()
        long_root = Root((3, 2))
        short_root = Root((1, 0))
        emb = DualPairEmbedding(g2.coroot(long_root), g2.coroot(short_root))
        # orthogonality of the pair
        if _pair(g2.norm_char(long_root), emb.short_cochar) != 0:
            raise AssertionError("long root not orthogonal to short coroot")
        if _pair(g2.norm_char(short_root), emb.long_cochar) != 0:
            raise AssertionError("short root not orthogonal to long coroot")
        return emb


def _pair(weight: Iterable[Q], cochar: Iterable[Q]) -> Q:
    return sum(a * b for a, b in zip(weight, cochar))


def restrict_via_r() -> list[tuple[Q, Q]]:
    """Bi-weights of the seven weights under the commuting-pair embedding.

    Returns the multiset of (pairing with long coroot, pairing with short
    coroot), sorted; equals the weight multiset of std (x) std + 1 (x) Sym^2.
    """
    g2 = _g2()
    emb = DualPairEmbedding.standard(g2)
    ws = WeightSet.standard(g2)
    return sorted((_pair(w, emb.long_cochar), _pair(w, emb.short_cochar))
                  for w in ws.weights)


class LFactor(OrderedRecord):
    __slots__ = ("shift", "label", "mult")

    def __init__(self,
                 shift: Q,          # the factor is L(s + shift, label)
                 label: str,        # "zeta" | "tau" | "chi"
                 mult: int = 1):
        self._fill(shift, label, mult)

    def degree(self) -> int:
        return (2 if self.label == "tau" else 1) * self.mult

    def __str__(self) -> str:
        arg = "s" if self.shift == 0 else (f"s+{self.shift}" if self.shift > 0 else f"s{self.shift}")
        base = f"zeta({arg})" if self.label == "zeta" else f"L({arg},{self.label})"
        return base if self.mult == 1 else f"{base}^{self.mult}"


class LFactorization(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[LFactor, ...]):
        self._fill(factors)

    @staticmethod
    def build(factors: Iterable[LFactor]) -> "LFactorization":
        merged: dict[tuple[Q, str], int] = {}
        for f in factors:
            key = (f.shift, f.label)
            merged[key] = merged.get(key, 0) + f.mult
        ordered = sorted((LFactor(s, l, m) for (s, l), m in merged.items() if m),
                         key=lambda f: (f.shift, f.label != "zeta", f.label))
        return LFactorization(tuple(ordered))

    def degree(self) -> int:
        return sum(f.degree() for f in self.factors)

    def __str__(self) -> str:
        return " * ".join(str(f) for f in self.factors)

    def to_json(self) -> list[dict]:
        return [{"shift": str(f.shift), "label": f.label, "mult": f.mult}
                for f in self.factors]


def lfactor_standard(source: str) -> LFactorization:
    """Factorization of the degree-7 standard L-function for the two lifts.

    ``V_tau``: the Satake parameter pairs the weights against the short-root
    SL2 at q^(1/2) and the long-root SL2 at the parameter of tau, giving

        zeta(s-1) L(s-1/2,tau) zeta(s) L(s+1/2,tau) zeta(s+1).

    ``V_chi``: the parameter of the relevant degenerate principal series
    pairs the weights against the long-root coroot at q and against the
    second fundamental coweight direction at chi; the assignment is pinned
    by matching the six-factor product
        zeta(s-1) L(s-1,chi) L(s,chi)^2 zeta(s) L(s+1,chi) zeta(s+1).
    """
    g2 = _g2()
    emb = DualPairEmbedding.standard(g2)
    ws = WeightSet.standard(g2)
    if source == "V_tau":
        by_q: dict[Q, list[Q]] = {}
        for w in ws.weights:
            m = _pair(w, emb.long_cochar)
            n = _pair(w, emb.short_cochar)
            by_q.setdefault(n, []).append(m)
        factors = []
        for n, ms in by_q.items():
            zeros = sum(1 for m in ms if m == 0)
            pairs = sum(1 for m in ms if m != 0)
            if pairs % 2:
                raise AssertionError("tau-weights must pair off")
            shift = -n / 2
            factors.extend([LFactor(shift, "zeta")] * zeros)
            factors.extend([LFactor(shift, "tau")] * (pairs // 2))
        return LFactorization.build(factors)
    if source == "V_chi":
        h_chi = g2.coroot(Root((0, 1)))          # beta^vee: odd on the short simple root
        h_q = emb.long_cochar                    # Arthur direction for the chi-lifts
        factors = []
        for w in ws.weights:
            e_chi = _pair(w, h_chi)
            e_q = _pair(w, h_q)
            label = "zeta" if e_chi % 2 == 0 else "chi"
            factors.append(LFactor(-e_q, label))
        return LFactorization.build(factors)
    raise UnsupportedGroupError(f"unknown source {source!r}; use V_tau or V_chi")


def _chi_to_zeta(f: LFactorization) -> LFactorization:
    return LFactorization.build(
        LFactor(x.shift, "zeta" if x.label == "chi" else x.label, x.mult)
        for x in f.factors)


def order_at_2(f: LFactorization, *, chi_trivial: bool = False,
               explain: bool = False):
    """Pole order of the factorization at s = 2.

    Modeled axioms: zeta(u) has a simple pole exactly at u = 1 and is
    regular nonzero at rational u > 1; L(u, tau) for cuspidal tau and
    L(u, chi) for nontrivial quadratic chi are regular and nonzero at every
    evaluated point u >= 1.  A trivial chi turns its factors into zetas
    before evaluation.  Points u < 1 are not modeled.
    """
    work = _chi_to_zeta(f) if chi_trivial else f
    order = 0
    axioms = []
    for factor in work.factors:
        u = 2 + factor.shift
        if u < 1:
            raise UnmodeledPointError(
                f"no regularity axiom for {factor.label} at {u}", point=str(u))
        if factor.label == "zeta":
            if u == 1:
                order += factor.mult
                axioms.append(f"zeta has a simple pole at {u}")
            else:
                axioms.append(f"zeta({u}) finite and nonzero")
        elif factor.label == "tau":
            axioms.append(f"L({u},tau) regular nonzero for cuspidal tau")
        else:
            axioms.append(f"L({u},chi) regular nonzero for nontrivial quadratic chi")
    if explain:
        return order, tuple(axioms)
    return order


def arthur_expand(j: int) -> list[Q]:
    """Shifts of the Sym^j factor: L(s, sigma x 1, rho x Sym^j) = prod_l L(s + j/2 - l, sigma, rho)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return [Q(j, 2) - l for l in range(j + 1)]


def sym_pole_location(k: int) -> Q:
    """Rightmost zeta shift of Sym^k gives the expected pole at s = k/2 + 1."""
    return Q(k, 2) + 1
