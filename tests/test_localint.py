import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.errors import ConfigError
from degeis.forms import AffineForm
from degeis.localint import LocalFactor, ShellFunction, local_zeta, tate_integral

Z = AffineForm.of(3, s=2)


def test_lattice_zero_is_local_zeta():
    value = tate_integral(ShellFunction.lattice(0), Z)
    assert value.is_local_zeta()
    assert value.equals(local_zeta(Z))
    assert "1 - q^(-(2s+3))" in str(value)
    assert value.convergence == "Re(z) > 0"


def test_single_shell_has_unit_volume():
    for k in (-2, 0, 1, 5):
        value = tate_integral(ShellFunction.shell(k), Z)
        assert value.num == ((k, Q(1)),)
        assert value.den == ((0, Q(1)),)


def test_convergence_region_depends_on_the_kind():
    lattice, shell = (tate_integral(f(1), Z) for f in (ShellFunction.lattice, ShellFunction.shell))
    assert (lattice.convergence, shell.convergence) == ("Re(z) > 0", "all z")
    # a sum holds where both summands do
    assert (shell + shell).convergence == "all z"
    assert (shell + lattice).convergence == (lattice + shell).convergence == "Re(z) > 0"
    assert lattice.to_json()["convergence"] == "Re(z) > 0"
    assert shell.to_json()["convergence"] == "all z"


def test_lattice_one_by_summing_shells():
    # derived oracle: sum the shell values for k >= 1
    expected = tate_integral(ShellFunction.lattice(1), Z)
    acc = tate_integral(ShellFunction.shell(1), Z)
    partial = acc
    for k in range(2, 30):
        partial = partial + tate_integral(ShellFunction.shell(k), Z)
    # the tail is lattice(30)
    total = partial + tate_integral(ShellFunction.lattice(30), Z)
    assert total.equals(expected)


@pytest.mark.parametrize("k,mono", [
    (2, "q^(-2(2s+3))"), (1, "q^(-(2s+3))"), (-1, "q^(2s+3)"), (-2, "q^(2(2s+3))"),
])
def test_shell_display_signs(k, mono):
    # X^k = q^(-kz): a negative k prints a positive exponent, with one sign
    assert str(tate_integral(ShellFunction.shell(k), Z)) == mono
    assert str(tate_integral(ShellFunction.lattice(k), Z)) == f"({mono}) / (1 - q^(-(2s+3)))"


def test_functional_identity():
    one = LocalFactor.build({0: Q(1)}, {0: Q(1)}, Z)
    zeta = tate_integral(ShellFunction.lattice(0), Z)
    product = LocalFactor.build(
        dict(zeta.num), {0: Q(1)}, Z)
    # zeta * (1 - X) == 1 by cross-multiplied equality
    lhs = LocalFactor.build({0: Q(1), 1: Q(-1)}, dict(zeta.den), Z)
    assert lhs.equals(one)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(0, 12))
def test_shell_additivity_property(k, span):
    # lattice(k) = sum_{j=k}^{k+span} shell(j) + lattice(k+span+1)
    total = tate_integral(ShellFunction.lattice(k + span + 1), Z)
    for j in range(k, k + span + 1):
        total = total + tate_integral(ShellFunction.shell(j), Z)
    assert total.equals(tate_integral(ShellFunction.lattice(k), Z))


@pytest.mark.parametrize("z", [Q(-1), Q(0), Q(-1, 2)])
def test_constant_z_outside_the_convergence_region_is_refused(z):
    with pytest.raises(ConfigError, match=r"Re\(z\) > 0"):
        tate_integral(ShellFunction.lattice(0), AffineForm.of(z))
    # one shell is a single term X^2, defined for every z
    shell = tate_integral(ShellFunction.shell(2), AffineForm.of(z))
    assert (shell.num, shell.den, shell.convergence) == (((2, Q(1)),), ((0, Q(1)),), "all z")
    with pytest.raises(ConfigError):
        local_zeta(AffineForm.of(z))
    # a z that is not constant is left alone: its region is stated, not checked
    assert tate_integral(ShellFunction.lattice(0), AffineForm.of(z, s=1)).is_local_zeta()


@pytest.mark.parametrize("k", [1.5, True, False, "2", Q(2)])
def test_an_index_that_is_not_an_int_is_refused(k):
    """shell(1.5) printed q^(-1.5(s)), True was read as 1 and "2" raised an untyped TypeError."""
    for kind in ("lattice", "shell"):
        with pytest.raises(ValueError, match=rf"k must be an int, got {re.escape(repr(k))}"):
            ShellFunction(kind, k)
