"""The integer-backed AffineForm against the Fraction-backed reference form."""

import re
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.forms import AffineForm
from degeis.zetas import ZetaAtom, canonical_arg

from reference_form import RefForm

NAMES = ("s", "s1", "s2")
# few values, so that equal forms and equal prefixes come up often
_values = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2, 3), Q(-3, 4), Q(5, 6),
                           Q(7, 10), Q(3)])
_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def pairs(draw):
    """The same random form in s, s1, s2 as an AffineForm and as a RefForm."""
    const = draw(_values)
    coeffs = {n: draw(_values) for n in NAMES}
    return AffineForm.of(const, **coeffs), RefForm.of(const, **coeffs)


def assert_agree(form: AffineForm, ref: RefForm) -> None:
    assert (form.const, form.coeffs) == (ref.const, ref.coeffs)
    assert str(form) == str(ref)
    assert form.to_json() == ref.to_json()
    # the stored integers are normalised
    assert form.den > 0
    assert gcd(form.den, form.const_num, *(c for _, c in form.coeff_nums)) == 1
    assert all(c != 0 for _, c in form.coeff_nums)
    assert [n for n, _ in form.coeff_nums] == sorted(n for n, _ in form.coeff_nums)


@settings(max_examples=300, deadline=None)
@given(pairs(), pairs(), _scalars)
def test_arithmetic_agrees(a, b, k):
    (fa, ra), (fb, rb) = a, b
    assert_agree(fa, ra)
    assert_agree(fa + fb, ra + rb)
    assert_agree(fa - fb, ra - rb)
    assert_agree(-fa, -ra)
    assert_agree(fa * k, ra * k)
    assert_agree(k * fa, ra * k)
    assert_agree(fa + k, ra + k)
    assert_agree(k + fa, ra + k)
    assert_agree(fa - k, ra - k)
    assert_agree(k - fa, (-ra) + k)
    assert_agree(fa * int(k), ra * int(k))
    # the same value reached two ways is one form, with one hash
    assert (fa + fb) - fb == fa and hash((fa + fb) - fb) == hash(fa)
    assert fa * 2 == fa + fa and hash(fa * 2) == hash(fa + fa)


@settings(max_examples=300, deadline=None)
@given(pairs(), st.dictionaries(st.sampled_from(NAMES), st.one_of(_scalars, pairs())),
       st.tuples(*(_scalars for _ in NAMES)))
def test_subs_and_evaluate_agree(a, assignment, values):
    form, ref = a
    forms = {n: v[0] if isinstance(v, tuple) else v for n, v in assignment.items()}
    refs = {n: v[1] if isinstance(v, tuple) else v for n, v in assignment.items()}
    assert_agree(form.subs(forms), ref.subs(refs))
    point = dict(zip(NAMES, values))
    assert form.evaluate(point) == ref.evaluate(point)
    assert type(form.evaluate(point)) is Q
    partial = {n: v for n, v in point.items() if n != "s1"}
    try:
        expected = ref.evaluate(partial)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            form.evaluate(partial)
    else:
        assert form.evaluate(partial) == expected


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_canonical_arg_agrees(a):
    form, ref = a
    canonical, flipped = canonical_arg(form)
    expected, expected_flip = ref.canonical_arg()
    assert flipped == expected_flip
    assert_agree(canonical, expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(pairs(), min_size=2, max_size=8))
def test_equality_and_order_agree(items):
    for fa, ra in items:
        for fb, rb in items:
            assert (fa == fb) == (ra == rb)
            assert (fa != fb) == (ra != rb)
            assert (fa < fb) == (ra < rb)
            assert (fa <= fb) == (ra <= rb)
            assert (fa > fb) == (ra > rb)
            assert (fa >= fb) == (ra >= rb)
            if fa == fb:
                assert hash(fa) == hash(fb)
    forms = [f for f, _ in items]
    refs = [r for _, r in items]
    assert [(f.const, f.coeffs) for f in sorted(forms)] == [(r.const, r.coeffs) for r in sorted(refs)]
    assert [str(f) for f in sorted(forms)] == [str(r) for r in sorted(refs)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("FK"), pairs(), st.integers(-2, 2)), min_size=2,
                max_size=8))
def test_sorted_atoms_agree(items):
    atoms = sorted(ZetaAtom(label, form, exp) for label, (form, _), exp in items)
    refs = sorted((label, ref, exp) for label, (_, ref), exp in items)
    assert [(a.label, str(a.arg), a.exp) for a in atoms] == [(l, str(r), e) for l, r, e in refs]


def test_forms_are_immutable_and_compare_only_with_forms():
    f = AffineForm.of(Q(1, 2), s=1)
    with pytest.raises(AttributeError):
        f.den = 3
    with pytest.raises(AttributeError):
        del f.const_num
    assert f != Q(1, 2) and f != "s+1/2"
    with pytest.raises(TypeError):
        f < Q(1, 2)
    assert repr(f) == "AffineForm(const=Fraction(1, 2), coeffs=(('s', Fraction(1, 1)),))"
    assert AffineForm(Q(1, 2), (("s", Q(2, 3)),)) == AffineForm.of(Q(1, 2), s=Q(2, 3))
    # the constructor merges repeated names and drops zero coefficients
    assert AffineForm(1, (("s", 1), ("t", 0), ("s", Q(1, 2)))) == AffineForm.of(1, s=Q(3, 2))


# -- floats are refused, not read as binary rationals ------------------------------

def _d4_p():
    from degeis.characters import chi_line_for, parabolic_levi
    from degeis.rootdata import build_system
    system = build_system("split_D4")
    return system, parabolic_levi(system, "P"), chi_line_for(system, "P")


def _float_calls():
    from degeis.characters import line_chi_P, line_mu_P
    from degeis.eisenstein import (constant_term, intertwiner_residue, pole_report,
                                   render_table_rows, sharp_limit)
    from degeis.zetas import ZetaExpr, laurent_at
    system, levi, line = _d4_p()
    ct = constant_term(system, levi, line)
    s = AffineForm.var("s")
    return {
        "pole_report": lambda x: pole_report(ct, x, assume_no_real_zeros=True),
        "render_table_rows": lambda x: render_table_rows(ct, x, assume_no_real_zeros=True),
        "sharp_limit": lambda x: sharp_limit(system, levi, line_mu_P(system), x),
        "intertwiner_residue": lambda x: intertwiner_residue(
            system, system.parse_word("2342"), line_chi_P(system), x),
        "laurent_at": lambda x: laurent_at(ZetaExpr.build(num=[s]), {"s": x}),
        "AffineForm": lambda x: AffineForm(x),
        "AffineForm coefficient": lambda x: AffineForm(0, [("s", x)]),
        "AffineForm.var": lambda x: AffineForm.var("s", x),
        "AffineForm.const_form": lambda x: AffineForm.const_form(x),
        "form plus": lambda x: s + x,
        "subs": lambda x: s.subs({"s": x}),
        "ZetaExpr.build": lambda x: ZetaExpr.build(x),
    }


@pytest.mark.parametrize("name", sorted(_float_calls()))
def test_a_float_is_refused_with_its_value(name):
    """0.3 is 5404319552844595/18014398509481984 in binary: every entry point that
    takes a point or a coefficient refuses it, naming it, and takes 3/10 exactly."""
    from degeis.errors import ConfigError
    call = _float_calls()[name]
    with pytest.raises(ConfigError, match=r"0\.3 is a float"):
        call(0.3)
    exact = call(Q(3, 10))
    assert call("3/10") == exact
    assert call(1) == call(Q(1))


def test_d4_p_pole_order_at_3_10_is_not_read_off_a_float():
    """The float 0.3 answered order 0 at 5404319552844595/18014398509481984; 3/10 has order 2."""
    from degeis.errors import ConfigError
    from degeis.eisenstein import constant_term, pole_report
    system, levi, line = _d4_p()
    ct = constant_term(system, levi, line)
    assert pole_report(ct, Q(3, 10), assume_no_real_zeros=True).order == 2
    with pytest.raises(ConfigError, match=r"0\.3 is a float"):
        pole_report(ct, 0.3, assume_no_real_zeros=True)


# -- bools, complex numbers and non-numbers are refused too ------------------------

@pytest.mark.parametrize("value", [True, False, 1 + 2j, None, [1]],
                         ids=["True", "False", "complex", "None", "list"])
@pytest.mark.parametrize("name", ["AffineForm", "AffineForm.var", "AffineForm.const_form",
                                  "ZetaExpr.build", "pole_report", "laurent_at"])
def test_a_bool_or_a_complex_is_refused_with_its_value(name, value):
    """True was read as 1 (pole_report(ct, True) answered at 1, AffineForm.var("s", True)
    kept True as its coefficient) and a complex, None or a list raised an untyped TypeError."""
    from degeis.errors import ConfigError
    message = f"{value!r} is a {type(value).__name__}, not an exact rational"
    with pytest.raises(ConfigError, match=re.escape(message)):
        _float_calls()[name](value)
