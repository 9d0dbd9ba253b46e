import re
from fractions import Fraction as Q

import pytest

from degeis.errors import IndeterminateZeroRegionError
from degeis.forms import AffineForm, parse_affine
from degeis.zetas import ZetaExpr, expand_in, laurent_at

from conftest import af, rebuild, xi


def test_affine_parse_roundtrip():
    f = parse_affine("6s+2")
    assert f == AffineForm.of(2, s=6)
    assert parse_affine("-1") == AffineForm.of(-1)
    assert parse_affine("5s/2-3/10") == AffineForm.of(Q(-3, 10), s=Q(5, 2))
    assert str(parse_affine("6s+2")) == "6s+2"


def test_functional_equation_canonical_forms():
    # xi_F(1-6s) -> xi_F(6s)
    assert ZetaExpr.atom("F", af(-6, 1)) == ZetaExpr.atom("F", af(6, 0))
    # already canonical
    assert ZetaExpr.atom("K", af(6, 1)).atoms[0].arg == af(6, 1)
    # xi_F(-s+1/2) * xi_F(s+1/2) -> xi_F(s+1/2)^2
    merged = ZetaExpr.atom("F", AffineForm.of(Q(1, 2), s=-1)) * \
        ZetaExpr.atom("F", AffineForm.of(Q(1, 2), s=1))
    assert merged == ZetaExpr.atom("F", AffineForm.of(Q(1, 2), s=1), 2)
    # constant arguments pick the larger representative
    assert ZetaExpr.atom("F", AffineForm.of(-1)) == ZetaExpr.atom("F", AffineForm.of(2))
    assert ZetaExpr.atom("F", AffineForm.of(0)) == ZetaExpr.atom("F", AffineForm.of(1))


def test_canonicalize_idempotent_and_exponent_merge():
    e = xi("F", 6, 2) / xi("F", 6, 2)
    assert e == ZetaExpr()
    assert rebuild(rebuild(e)) == rebuild(e)


def test_order_examples_from_split_table():
    pt = {"s": Q(1, 6)}
    assert laurent_at(xi("F", 6, 0) / xi("F", 6, 3), pt).order == -1
    assert laurent_at(xi("F", 6, 0) * xi("F", 6, 0) / (xi("F", 6, 3) * xi("F", 6, 1)), pt).order == -2
    mixed = xi("F", 6, 1) / xi("F", 6, 3) * xi("K", 6, 0) / xi("K", 6, 1)
    assert laurent_at(mixed, pt).order == -1


def test_leading_examples():
    pt = {"s": Q(1, 6)}
    # ratio of residues forced by the functional equation
    ld = laurent_at(xi("F", 6, -1) / xi("F", 6, 0), pt)
    assert ld.order == 0
    assert ld.leading == ZetaExpr.build(-1)
    # simple pole of the completed zeta at 1
    ld2 = laurent_at(xi("F", 6, 0), pt)
    assert ld2.order == -1
    assert ld2.leading == ZetaExpr.build(Q(1, 6), residues=[("F", 1)])
    # xi(eps) ~ -R/eps
    ld3 = laurent_at(ZetaExpr.atom("F", af(6, -1)), {"s": Q(1, 6)})
    assert ld3.order == -1
    assert ld3.leading == ZetaExpr.build(Q(-1, 6), residues=[("F", 1)])


def test_keys_shahidi_minus_one_is_exact():
    # whenever a*s+b vanishes, leading of xi(as+b)/xi(as+b+1) is exactly -1
    for a, b in [(6, -1), (5, Q(-3, 2)), (-7, Q(2, 3)), (1, 0)]:
        expr = ZetaExpr.atom("F", AffineForm.of(b, s=a)) / \
            ZetaExpr.atom("F", AffineForm.of(b + 1, s=a))
        point = {"s": Q(-b, a)}
        ld = laurent_at(expr, point)
        assert ld.order == 0
        assert ld.leading == ZetaExpr.build(-1)


def test_order_and_leading_multiplicative():
    pt = {"s": Q(1, 6)}
    e1 = xi("F", 6, 0) / xi("F", 6, 3)
    e2 = xi("K", 6, 0) * ZetaExpr.build(num=[af(6, -1)])
    prod = e1 * e2
    assert laurent_at(prod, pt).order == laurent_at(e1, pt).order + laurent_at(e2, pt).order
    l1, l2, lp = (laurent_at(x, pt) for x in (e1, e2, prod))
    assert lp.leading == l1.leading * l2.leading


def test_functional_equation_invariance_of_orders():
    pt = {"s": Q(1, 6)}
    e = xi("F", 6, 0) / xi("F", 6, 3) * xi("K", 6, 1)
    flipped = ZetaExpr.atom("F", af(-6, 1)) / ZetaExpr.atom("F", af(-6, -2)) * \
        ZetaExpr.atom("K", af(-6, 0))
    assert e == flipped
    assert laurent_at(e, pt).order == laurent_at(flipped, pt).order


def test_indeterminate_zero_region():
    e = ZetaExpr.atom("K", AffineForm.of(Q(1, 3), s=1))
    with pytest.raises(IndeterminateZeroRegionError):
        laurent_at(e, {"s": 0})
    # the flag certifies regularity instead
    assert laurent_at(e, {"s": 0}, assume_no_real_zeros=True).order == 0
    # arguments at integer points outside (0,1) never need the flag
    assert laurent_at(e, {"s": Q(5, 3)}).order == 0


def test_polynomial_coefficients_stay_exact():
    e = ZetaExpr.build(num=[af(5, Q(-3, 2)), af(5, Q(1, 2))], den=[af(10, 0)])
    ld = laurent_at(e, {"s": Q(3, 10)})
    # (5s-3/2)(5s+1/2)/(10s) at 3/10: zero of slope 5 times 2 over 3
    assert ld.order == 1
    assert ld.leading == ZetaExpr.build(Q(10, 3))


def test_expand_in_keeps_generic_atoms():
    e = ZetaExpr.atom("F", AffineForm.of(0, eps=3)) * \
        ZetaExpr.atom("K", AffineForm.of(0, eps=1, z=2))
    ld = expand_in(e, "eps")
    assert ld.order == -1
    assert ld.leading == ZetaExpr.build(Q(-1, 3), residues=[("F", 1)]) * \
        ZetaExpr.atom("K", AffineForm.of(0, z=2))


@pytest.mark.parametrize("call", [
    lambda e, point: expand_in(e, "_eps", point=point),
    lambda e, point: laurent_at(e, point)], ids=["expand_in", "laurent_at"])
def test_a_point_that_leaves_a_parameter_free_is_refused(call):
    """expand_in with a point raised an untyped KeyError from the shift of the first
    form that held the free parameter; both entry points now name what is free."""
    e = ZetaExpr.atom("F", AffineForm.of(0, s=1, t=1)) / ZetaExpr.atom("K", AffineForm.of(1, u=2))
    with pytest.raises(ValueError, match=re.escape("point does not assign parameters: ['t', 'u']")):
        call(e, {"s": 1})
    with pytest.raises(ValueError, match=re.escape("point does not assign parameters: ['t']")):
        call(ZetaExpr.atom("F", AffineForm.of(0, s=1, t=1)), {"s": 1})
    assert call(e, {"s": 1, "t": Q(1, 2), "u": 3}).order == 0


def test_json_rendering():
    e = xi("F", 6, 2)
    js = e.to_json()
    assert js["atoms"][0]["label"] == "F"
    assert js["atoms"][0]["arg"] == {"const": "2", "coeffs": {"s": "6"}}
    assert str(e) == "xi_F(6s+2)"
