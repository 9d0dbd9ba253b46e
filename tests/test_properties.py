"""Randomized property suites: GK cocycle, pairing invariance, canonical forms."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.characters import TorusCharacter, weyl_act
from degeis.eisenstein import gk_factor
from degeis.errors import DegeisError, IndeterminateZeroRegionError
from degeis.forms import AffineForm
from degeis.rootdata import WeylWord, build_system
from degeis.zetas import ZetaAtom, ZetaExpr, expand_in, laurent_at

from conftest import af, rebuild
from reference_laurent import ref_expand_in

GROUPS = ("split_D4", "quasi_D4", "tri_D4", "G2", "A1")


def random_character(rng, rank):
    return TorusCharacter(tuple(
        AffineForm.of(Q(rng.randrange(-8, 9), rng.choice((1, 2, 3))),
                      s=rng.randrange(-6, 7))
        for _ in range(rank)))


@pytest.mark.parametrize("name", GROUPS)
def test_gk_cocycle_on_random_reduced_factorizations(name):
    """J(w1 w2, lambda) = J(w2, w1^{-1} lambda) J(w1, lambda) for reduced products."""
    system = build_system(name)
    rng = random.Random(hash(name) & 0xFFFF)
    elements = system.weyl_elements()
    checked = 0
    while checked < 200:
        _, word = elements[rng.randrange(len(elements))]
        if len(word) == 0:
            continue
        cut = rng.randrange(0, len(word) + 1)
        w1 = WeylWord(word.letters[:cut])
        w2 = WeylWord(word.letters[cut:])
        lam = random_character(rng, system.rank)
        lhs = gk_factor(system, word, lam)
        rhs = gk_factor(system, w2, weyl_act(system, w1.inverse(), lam)) * \
            gk_factor(system, w1, lam)
        assert lhs == rhs
        checked += 1


@pytest.mark.parametrize("name", GROUPS)
def test_weyl_pairing_invariance_random(name):
    system = build_system(name)
    rng = random.Random(len(name))
    for _ in range(60):
        lam = random_character(rng, system.rank)
        word = WeylWord(tuple(rng.randrange(1, system.rank + 1)
                              for _ in range(rng.randrange(0, 8))))
        root = rng.choice(system.positive_roots)
        image = system.word_on_root(word, root)
        assert weyl_act(system, word, lam).pair(system.coroot(image)) == \
            lam.pair(system.coroot(root))


_labels = st.sampled_from(["F", "K", "E"])
_rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_atoms = st.builds(
    lambda l, a, b, e: ZetaAtom(l, AffineForm.of(b, s=a), e),
    _labels, _rats.filter(lambda x: x != 0), _rats, st.integers(-3, 3).filter(lambda x: x != 0))
_exprs = st.builds(
    lambda sc, atoms, forms: ZetaExpr.build(
        sc, num=[AffineForm.of(b, s=a) for a, b in forms], atoms=atoms),
    _rats.filter(lambda x: x != 0),
    st.lists(_atoms, max_size=5),
    st.lists(st.tuples(_rats.filter(lambda x: x != 0), _rats), max_size=3))


@settings(max_examples=120, deadline=None)
@given(_exprs)
def test_canonicalize_idempotent(e):
    assert rebuild(e) == e
    assert rebuild(rebuild(e)) == rebuild(e)


@settings(max_examples=120, deadline=None)
@given(_exprs, _exprs)
def test_canonicalize_multiplicative(e1, e2):
    assert rebuild(e1 * e2) == rebuild(rebuild(e1) * rebuild(e2))


@settings(max_examples=80, deadline=None)
@given(_exprs, _exprs)
def test_order_and_leading_multiply(e1, e2):
    point = {"s": Q(7, 1)}  # far outside (0,1) so all arguments are safe
    try:
        o1 = laurent_at(e1, point)
        o2 = laurent_at(e2, point)
        op = laurent_at(e1 * e2, point)
    except IndeterminateZeroRegionError:
        # an argument can land inside (0,1), where real zeros are not excluded
        return
    assert op.order == o1.order + o2.order
    assert op.leading == o1.leading * o2.leading


@settings(max_examples=150, deadline=None)
@given(_exprs, _atoms, st.sampled_from([0, 1]))
def test_order_counts_polar_atoms_and_vanishing_forms(e, atom, target):
    """At a zero of one atom's argument the order is a direct count:
    minus the exponents of the polar atoms, plus the vanishing numerator
    forms, minus the vanishing denominator forms."""
    expr = e * ZetaExpr.build(atoms=[atom])
    slope, const = atom.arg.coeff("s"), atom.arg.const
    point = {"s": (target - const) / slope}
    expected = (-sum(a.exp for a in expr.atoms if a.arg.evaluate(point) in (0, 1))
                + sum(1 for f in expr.num if f.evaluate(point) == 0)
                - sum(1 for f in expr.den if f.evaluate(point) == 0))
    assert laurent_at(expr, point, assume_no_real_zeros=True).order == expected


@settings(max_examples=80, deadline=None)
@given(_atoms)
def test_functional_equation_leaves_orders_invariant(atom):
    e = ZetaExpr.build(atoms=[atom])
    flipped = ZetaExpr.build(atoms=[ZetaAtom(atom.label, 1 - atom.arg, atom.exp)])
    assert e == flipped
    point = {"s": Q(9)}
    try:
        assert laurent_at(e, point).order == laurent_at(flipped, point).order
    except IndeterminateZeroRegionError:
        pass


def _laurent_by_substitution(expr, point, *, assume_no_real_zeros):
    """Reference: substitute point + eps for every parameter symbolically, then
    expand factor by factor (``reference_laurent``)."""
    shifted = expr.subs({name: AffineForm.var("_eps") + value for name, value in point.items()})
    return ref_expand_in(shifted, "_eps", assume_no_real_zeros=assume_no_real_zeros)


def _outcome(expand, expr, point, assume):
    try:
        return expand(expr, point, assume_no_real_zeros=assume)
    except (DegeisError, ValueError) as exc:
        return type(exc)


@st.composite
def _two_parameter_cases(draw):
    """An expression in s1, s2 and a point; half the points have s1 = s2, where
    an atom and its mirror image (s1 and s2 swapped, exponent negated) collide."""
    def form(a1, a2, b):
        return AffineForm.of(b, s1=a1, s2=a2)

    specs = draw(st.lists(st.tuples(_labels, _rats, _rats, _rats, st.integers(-2, 2).filter(bool),
                                    st.booleans()), min_size=1, max_size=4))
    atoms = []
    for label, a1, a2, b, e, mirrored in specs:
        atoms.append(ZetaAtom(label, form(a1, a2, b), e))
        if mirrored:
            atoms.append(ZetaAtom(label, form(a2, a1, b), -e))
    forms = draw(st.lists(st.tuples(_rats.filter(bool), _rats, _rats), max_size=2))
    expr = ZetaExpr.build(draw(_rats.filter(bool)), num=[form(*f) for f in forms], atoms=atoms)
    s1 = draw(_rats)
    s2 = draw(st.one_of(st.just(s1), _rats))
    return expr, {"s1": s1, "s2": s2}


@settings(max_examples=100, deadline=None)
@given(_two_parameter_cases(), st.booleans())
def test_laurent_at_equals_expansion_after_symbolic_shift(case, assume):
    """Without the assumption, atoms met at the point are refused only when
    their exponents do not cancel."""
    expr, point = case
    lhs = _outcome(laurent_at, expr, point, assume)
    assert lhs == _outcome(_laurent_by_substitution, expr, point, assume)


_PARAMS = ("x", "y", "z")     # x is the expansion variable
_nonzero = _rats.filter(bool)


@st.composite
def _expansion_cases(draw):
    """An expression in 1-3 parameters with every kind of factor expand_in meets.

    Affine factors vanish at x = 0 or are generic; atoms are polar (argument
    0 or 1 at x = 0), generic in the other parameters, identically 0 or 1,
    constant in (0, 1) at x = 0, or constant outside [0, 1] there.  A twin
    is an earlier form or argument with another slope in x, so that the two
    lead alike at x = 0 and their counts add."""
    names = _PARAMS[:draw(st.integers(1, 3))]
    others = names[1:]
    made = []

    def twin():
        earlier = made[draw(st.integers(0, len(made) - 1))]
        return earlier.drop("x") + AffineForm.var("x", draw(_rats))

    def form():
        kind = draw(st.sampled_from(["vanishing", "generic", "twin"]))
        if kind == "vanishing":
            return AffineForm.var("x", draw(_nonzero))
        f = twin() if kind == "twin" and made else AffineForm.of(
            draw(_rats), **{n: draw(_rats) for n in names})
        made.append(f if not f.is_zero() else AffineForm.of(1))
        return made[-1]

    def arg(kind):
        slope = AffineForm.var("x", draw(_rats))
        if kind == "twin" and made:
            made.append(twin())
            return made[-1]
        if kind == "polar":
            return AffineForm.var("x", draw(_nonzero)) + draw(st.sampled_from([0, 1]))
        if kind == "generic" and others:
            made.append(slope + AffineForm.var(draw(st.sampled_from(others)), draw(_nonzero)))
            return made[-1]
        if kind == "identical":
            return AffineForm.of(draw(st.sampled_from([0, 1])))
        if kind == "inside":
            return slope + draw(st.fractions(min_value=0, max_value=1, max_denominator=6)
                                .filter(lambda q: 0 < q < 1))
        return slope + draw(st.sampled_from([Q(-3, 2), Q(-1), Q(4, 3), Q(2), Q(5)]))

    kinds = st.sampled_from(["polar", "generic", "identical", "inside", "outside", "twin"])
    atoms = [ZetaAtom(draw(_labels), arg(draw(kinds)), draw(st.sampled_from([-2, -1, 1, 2])))
             for _ in range(draw(st.integers(0, 5)))]
    num = [form() for _ in range(draw(st.integers(0, 3)))]
    den = [form() for _ in range(draw(st.integers(0, 3)))]
    residues = [(draw(_labels), draw(st.sampled_from([-1, 1, 2])))
                for _ in range(draw(st.integers(0, 2)))]
    return ZetaExpr.build(draw(_nonzero), num, den, atoms, residues)


def _expansion_outcome(expand, expr, assume):
    try:
        ld = expand(expr, "x", assume_no_real_zeros=assume)
    except (DegeisError, ValueError) as exc:
        return "raises", type(exc), getattr(exc, "info", None)
    return ld, str(ld)


@settings(max_examples=400, deadline=None)
@given(_expansion_cases(), st.booleans())
def test_expand_in_matches_the_factor_by_factor_reference(expr, assume):
    """The atom-table expansion gives the reference's LaurentData, or its error and info."""
    assert (_expansion_outcome(expand_in, expr, assume)
            == _expansion_outcome(ref_expand_in, expr, assume))


def test_atoms_that_collide_at_the_point_cancel():
    # xi(s1) / xi(s2) at s1 = s2 = 1/3: the two atoms become one and cancel,
    # so no argument inside (0,1) is left to refuse
    expr = ZetaExpr.build(atoms=[ZetaAtom("F", AffineForm.var("s1"), 1),
                                 ZetaAtom("F", AffineForm.var("s2"), -1)])
    ld = laurent_at(expr, {"s1": Q(1, 3), "s2": Q(1, 3)})
    assert (ld.order, ld.leading) == (0, ZetaExpr.one())
    with pytest.raises(IndeterminateZeroRegionError):
        laurent_at(expr, {"s1": Q(1, 3), "s2": Q(1, 4)})


@pytest.mark.parametrize("name", GROUPS)
def test_inversion_count_is_length(name):
    system = build_system(name)
    for _, word in system.weyl_elements():
        assert len(system.inversion_set(word)) == len(word)
