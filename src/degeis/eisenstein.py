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
cancel.  Within a group the Laurent expansion is carried to the first two
orders with the log-t correction

    t^{exp_w(s)} = t^{exp_w(s0)} (1 + (s - s0) <exp_w'(s0), log t> + ...),

so a cancellation of leading coefficients can be certified to stop at the
next order whenever the log-t coefficient survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .characters import (TorusCharacter, parabolic_levi,
                         root_basis_coords, weyl_act)
from .errors import NeedsHigherLogOrderError, UnsupportedGroupError
from .forms import AffineForm, Q, Rat, _q
from .rootdata import Root, RootSystem, WeylWord
from .zetas import LaurentData, ZetaAtom, ZetaExpr, expand_in, laurent_at


# -- constant terms ---------------------------------------------------------

@dataclass(frozen=True)
class GKTerm:
    word: WeylWord
    j_factor: ZetaExpr
    exponent: TorusCharacter        # w^{-1} . lambda_s, affine in the parameter


@dataclass(frozen=True)
class ConstantTerm:
    system: RootSystem
    levi: tuple[int, ...]
    line: TorusCharacter
    terms: tuple[GKTerm, ...]


def coset_reps(system: RootSystem, levi: Iterable[int]) -> list[WeylWord]:
    """Shortest representatives of W_L \\ W in shortlex order.

    These are the w with w^{-1} alpha_i > 0 for every Levi simple root; one
    GK term per representative appears in the constant term.
    """
    levi_set = tuple(levi)
    for i in levi_set:
        system._check_index(i)
    return [word for _, word in system.weyl_elements(levi_set)]


def _pairing_table(system: RootSystem, line: TorusCharacter) -> dict[Root, tuple[str, AffineForm]]:
    return dict(zip(system.positive_roots, _pairings(system, line)))


def _j_factor(inversions: Iterable[Root],
              table: dict[Root, tuple[str, AffineForm]]) -> ZetaExpr:
    atoms = []
    for root in inversions:
        label, arg = table[root]
        atoms.append(ZetaAtom(label, arg, 1))
        atoms.append(ZetaAtom(label, arg + 1, -1))
    return ZetaExpr.build(atoms=atoms)


def gk_factor(system: RootSystem, word: WeylWord, line: TorusCharacter) -> ZetaExpr:
    """Gindikin-Karpelevich factor J(w, s) along the line, canonicalized."""
    return _j_factor(system.inversion_set(word), _pairing_table(system, line))


def constant_term(system: RootSystem, levi: Iterable[int],
                  line: TorusCharacter) -> ConstantTerm:
    """One GK term per coset representative, each built from its parent's.

    The walk lists every w = u s_i after its prefix u, so the inversion set
    extends u's by one root and the exponent is
    (u s_i)^{-1} lambda = s_i (u^{-1} lambda).
    """
    levi_set = tuple(levi)
    table = _pairing_table(system, line)
    exponents = {(): line}
    terms = []
    for word in coset_reps(system, levi_set):
        if word.letters:
            exponents[word.letters] = weyl_act(system, WeylWord(word.letters[-1:]),
                                               exponents[word.letters[:-1]])
        j = _j_factor(system.inversion_set(word), table)
        terms.append(GKTerm(word, j, exponents[word.letters]))
    return ConstantTerm(system, levi_set, line, tuple(terms))


# -- pole reports -----------------------------------------------------------

@dataclass(frozen=True)
class TermGroup:
    exponent_at_point: tuple[Q, ...]
    words: tuple[WeylWord, ...]
    order: int                      # order of vanishing of the group sum
    leading: ZetaExpr | None        # None when the leading survives only as log-t
    log_term: bool


@dataclass(frozen=True)
class PoleReport:
    system: RootSystem
    point: Q
    order: int                      # pole order of the full constant term (>= 0)
    groups: tuple[TermGroup, ...]
    surviving_exponents: tuple[tuple[Q, ...], ...]
    square_integrable: bool


def _group_order(system: RootSystem, members: list[tuple[GKTerm, LaurentData]],
                 param: str) -> tuple[int, ZetaExpr | None, bool]:
    """Order of the sum of a group of terms sharing one limit exponent."""
    m = min(ld.order for _, ld in members)
    # split each leading into (monomial key, rational multiple)
    buckets: dict[ZetaExpr, Q] = {}
    for term, ld in members:
        if ld.order != m:
            continue
        key = ld.leading / ld.leading.scalar
        buckets[key] = buckets.get(key, Q(0)) + ld.leading.scalar
    nonzero = {k: v for k, v in buckets.items() if v != 0}
    if nonzero:
        pieces = [k * v for k, v in nonzero.items()]
        if len(pieces) == 1:
            return m, pieces[0], False
        # distinct monomials cannot cancel; the sum survives as a formal sum
        return m, None, False
    # full cancellation at order m: look at the log-t part of order m+1
    for key in buckets:
        vec = [Q(0)] * system.rank
        for term, ld in members:
            if ld.order != m:
                continue
            if ld.leading / ld.leading.scalar != key:
                continue
            der = term.exponent.derivative(param)
            for j in range(system.rank):
                vec[j] += ld.leading.scalar * der[j]
        if any(v != 0 for v in vec):
            return m + 1, None, True
    raise NeedsHigherLogOrderError(
        "leading coefficients and first-order log terms both cancel; "
        "expansion to higher log order is not implemented")


def pole_report(ct: ConstantTerm, point: Rat, *,
                assume_no_real_zeros: bool = False) -> PoleReport:
    """Pole order of the constant term at the point, with exponent grouping."""
    system = ct.system
    pt = _q(point)
    params = set()
    for t in ct.terms:
        params.update(t.exponent.params)
        params.update(t.j_factor.params)
    if len(params) != 1:
        raise ValueError(f"pole_report needs a one-parameter line, got {sorted(params)}")
    param = params.pop()
    assignment = {param: pt}

    grouped: dict[tuple[Q, ...], list[tuple[GKTerm, LaurentData]]] = {}
    for term in ct.terms:
        ld = laurent_at(term.j_factor, assignment,
                        assume_no_real_zeros=assume_no_real_zeros)
        exp0 = term.exponent.evaluate(assignment)
        grouped.setdefault(exp0, []).append((term, ld))

    groups = []
    for exp0 in sorted(grouped):
        members = grouped[exp0]
        order, leading, log_term = _group_order(system, members, param)
        groups.append(TermGroup(exp0, tuple(t.word for t, _ in members),
                                order, leading, log_term))
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
    params = j.params
    if not params:
        return LaurentData(0, j)
    if len(params) != 1:
        raise ValueError("intertwiner_residue needs a one-parameter line")
    return laurent_at(j, {params[0]: _q(point)},
                      assume_no_real_zeros=assume_no_real_zeros)


# -- normalized (sharp) series ------------------------------------------------

def _pairings(system: RootSystem, lam: TorusCharacter) -> list[tuple[str, AffineForm]]:
    """(label of alpha, <lam, alpha^vee>) for every positive root alpha, in root order."""
    return [(system.label_of(root).symbol, lam.pair(system.coroot(root)))
            for root in system.positive_roots]


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


@dataclass(frozen=True)
class SharpLimit:
    """Laurent data of the restricted normalizer along a one-parameter line.

    ``order``/``leading`` are taken in the line-intrinsic coordinate: the
    pairing of the line with the coroot of the parabolic's defining simple
    root, centered at the point.  ``dropped`` counts polynomial factors that
    vanish identically along the line (one per Levi simple root); they divide
    out against the transversal directions of the ambient parameter space.
    """

    order: int
    leading: ZetaExpr
    dropped: int
    slope: Q


def sharp_limit(system: RootSystem, levi: Sequence[int], line: TorusCharacter,
                point: Rat) -> SharpLimit:
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
    rescaled = ld.leading * ZetaExpr.build(slope ** (-ld.order))
    return SharpLimit(ld.order, rescaled, dropped, slope)


@dataclass(frozen=True)
class SiegelWeilReport:
    sharp_p: SharpLimit              # along mu_s^P at 3/10
    sharp_q: SharpLimit              # along mu_s^Q at 1/6
    constant: ZetaExpr               # leading(E_P side) = constant * leading(E_Q side)
    residue_w2342: LaurentData       # A_{w[2342]} on the spherical vector
    section_constant: ZetaExpr


def siegel_weil_constant(system: RootSystem) -> SiegelWeilReport:
    """Proportionality constants between the leading terms of E_P and E_Q.

    Both sharp limits are computed along the mu-lines; their ratio is the
    spherical-vector constant of the Siegel-Weil identity (R/xi_F(2) for the
    D4 presets).  Dividing by the residue of the intertwining operator
    attached to w[2342] gives the section-level constant.
    """
    from .characters import line_chi_P, line_mu_P, line_mu_Q

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

class _SharpData:
    """Per-root atoms of F_w(lam) and the polynomial L(lam) for a fixed character lam."""

    def __init__(self, system: RootSystem, lam: TorusCharacter):
        self.system = system
        self.pairs = _pairings(system, lam)
        self.atoms: list[tuple[Root, ZetaAtom, ZetaAtom]] = [
            (root, ZetaAtom(label, p, 1), ZetaAtom(label, p + 1, 1))
            for root, (label, p) in zip(system.positive_roots, self.pairs)]

    def f_w(self, word: WeylWord) -> ZetaExpr:
        """F_w(lam): xi(<lam,a>+1) over non-inverted roots, xi(<lam,a>) over inverted."""
        inverted = set(self.system.inversion_set(word))
        return ZetaExpr.build(atoms=[plain if r in inverted else shifted
                                     for r, plain, shifted in self.atoms])

    def l_poly(self) -> ZetaExpr:
        return ZetaExpr.build(num=_l_factors(self.pairs))


def generic_character(system: RootSystem, prefix: str = "z") -> TorusCharacter:
    return TorusCharacter(tuple(AffineForm.var(f"{prefix}{i}")
                                for i in range(1, system.rank + 1)))


def sharp_invariance_check(system: RootSystem, simple_index: int) -> tuple[bool, WeylWord | None]:
    """Term-by-term W-invariance of the normalized constant term.

    For F(lambda) = L(lambda) sum_w F_w(lambda) [w^{-1} lambda], invariance
    under w_i reads L(w_i lam) F_{w_i u}(w_i lam) = L(lam) F_u(lam) for every
    u in W (both sides attach to the exponent u^{-1} lambda).  Functional-
    equation canonical forms decide the equality exactly.
    """
    lam = generic_character(system)
    w_i = WeylWord.of(simple_index)
    lam_i = weyl_act(system, w_i, lam)
    data = _SharpData(system, lam)
    data_i = _SharpData(system, lam_i)
    if data.l_poly() != data_i.l_poly():
        return False, WeylWord()
    for _, u in system.weyl_elements():
        lhs = data_i.f_w(WeylWord((simple_index,) + u.letters))
        rhs = data.f_w(u)
        if lhs != rhs:
            return False, u
    return True, None


def _h0_character(system: RootSystem, simple_index: int) -> TorusCharacter:
    coords = [AffineForm.var(f"z{j}") for j in range(1, system.rank + 1)]
    coords[simple_index - 1] = AffineForm.var("eps")
    return TorusCharacter(tuple(coords))


def _h0_pair_check(system: RootSystem, simple_index: int, word: WeylWord,
                   lam: TorusCharacter, data: "_SharpData") -> bool:
    partner = WeylWord((simple_index,) + word.letters)
    f1 = expand_in(data.f_w(word), "eps")
    f2 = expand_in(data.f_w(partner), "eps")
    if f1.order != -1 or f2.order != -1:
        return False
    exp1 = weyl_act(system, word.inverse(), lam).subs({"eps": 0})
    exp2 = weyl_act(system, partner.inverse(), lam).subs({"eps": 0})
    if exp1.coords != exp2.coords:
        return False
    return (f1.leading * Q(-1)) == f2.leading


def h0_cancellation_check(system: RootSystem, simple_index: int,
                          word: WeylWord) -> bool:
    """Residue cancellation along the hyperplane <lambda, alpha_i^vee> = 0.

    Parameterizes a generic point of the hyperplane plus a transversal
    coordinate eps (the i-th fundamental-weight coordinate itself), expands
    F_w and F_{w_i w} to first order and verifies that the residues sum to
    zero while the two exponents agree on the hyperplane.
    """
    lam = _h0_character(system, simple_index)
    return _h0_pair_check(system, simple_index, word, lam, _SharpData(system, lam))


@dataclass(frozen=True)
class EntirenessReport:
    boundary_ok: bool      # poles along <lam,a>=+-1 killed by the polynomial zeros
    h0_ok: bool            # poles along <lam,a>=0 cancel in pairs
    orbit_ok: bool         # every positive root is W-conjugate to a simple root
    checked_words: int

    @property
    def entire(self) -> bool:
        return self.boundary_ok and self.h0_ok and self.orbit_ok


def entireness_report(system: RootSystem) -> EntirenessReport:
    """Combined no-surviving-pole report for the normalized series.

    Along H_alpha^{+-1} the simple xi-poles of every L * F_w are cancelled by
    the zeros of the polynomial normalizer; along H_alpha^0 the terms cancel
    pairwise (w against w_i w).  Non-simple hyperplanes reduce to simple ones
    because each positive root is Weyl-conjugate to a simple root.
    """
    boundary_ok = True
    elements = system.weyl_elements()
    for i in range(1, system.rank + 1):
        for eps in (1, -1):
            coords = [AffineForm.var(f"z{j}") for j in range(1, system.rank + 1)]
            coords[i - 1] = AffineForm.var("eps") + eps
            lam = TorusCharacter(tuple(coords))
            data = _SharpData(system, lam)
            l_order = expand_in(data.l_poly(), "eps").order
            for _, w in elements:
                # orders are additive, so L * F_w never needs assembling
                if l_order + expand_in(data.f_w(w), "eps").order < 0:
                    boundary_ok = False
    h0_ok = True
    checked = 0
    for i in range(1, system.rank + 1):
        lam = _h0_character(system, i)
        data = _SharpData(system, lam)
        for _, w in elements:
            if not _h0_pair_check(system, i, w, lam, data):
                h0_ok = False
            checked += 1
    orbit_ok = True
    simples = {system.simple_root(i) for i in range(1, system.rank + 1)}
    for root in system.positive_roots:
        orbit = {root}
        frontier = [root]
        found = root in simples
        while frontier and not found:
            nxt = []
            for r in frontier:
                for i in range(1, system.rank + 1):
                    img = system.reflect_root(i, r)
                    base = img if img.positive else -img
                    if base not in orbit:
                        orbit.add(base)
                        nxt.append(base)
                        if base in simples:
                            found = True
            frontier = nxt
        if not found:
            orbit_ok = False
    return EntirenessReport(boundary_ok, h0_ok, orbit_ok, checked)


# -- rendering ----------------------------------------------------------------

def pole_order_of(ld_order: int) -> int:
    return max(0, -ld_order)


def render_table_rows(ct: ConstantTerm, point: Rat, *,
                      assume_no_real_zeros: bool = False) -> list[dict]:
    """One row per coset representative: word, J factor, order, exponents."""
    pt = _q(point)
    rows = []
    for term in ct.terms:
        params = term.j_factor.params or term.exponent.params
        param = params[0] if params else "s"
        order = laurent_at(term.j_factor, {param: pt},
                           assume_no_real_zeros=assume_no_real_zeros).order
        exp_val = term.exponent.evaluate({param: pt})
        rows.append({
            "word": str(term.word),
            "j_factor": str(term.j_factor),
            "pole_order": pole_order_of(order),
            "exponent": str(term.exponent),
            "exponent_at_point": "(" + ",".join(str(x) for x in exp_val) + ")",
            "j_factor_json": term.j_factor.to_json(),
            "exponent_json": term.exponent.to_json(),
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
