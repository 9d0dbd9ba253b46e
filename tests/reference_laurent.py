"""Factor-by-factor Laurent expansion, the reference for ``degeis.zetas.expand_in``.

``ref_expand_in`` takes each affine factor and each atom of the expression
to its own limit as var -> 0, adds up the orders, multiplies the polar
atoms' coefficients into the scalar, and canonicalizes the leading
coefficient with one ``ZetaExpr.build``.  The limits of one factor are
copied here too (``ref_form_limit``, ``ref_atom_limit``), so nothing below
reads the atom-table expansion of ``degeis.zetas``.  ``expand_in`` must give
the same ``LaurentData``, or raise the same error with the same info
(``tests/test_properties.py``).
"""

from __future__ import annotations

from degeis.errors import HyperplaneDegeneracyError, IndeterminateZeroRegionError
from degeis.forms import AffineForm, Q
from degeis.zetas import LaurentData, ZetaAtom, ZetaExpr


def ref_form_limit(f: AffineForm, var: str) -> tuple[int, AffineForm]:
    """Order of vanishing (0 or 1) of an affine factor as var -> 0, and its leading form."""
    g = f.drop(var)
    if not g.is_zero():
        return 0, g
    a = f.coeff(var)
    if a == 0:
        raise ValueError("zero affine factor")
    return 1, AffineForm.const_form(a)


def ref_atom_limit(atom: ZetaAtom, var: str, *,
                   assume_no_real_zeros: bool = False) -> Q | ZetaAtom:
    """The polar coefficient sign/slope of xi_L(arg), or the atom at var = 0."""
    arg = atom.arg
    g = arg.drop(var)
    if g.is_constant():
        c, d = g.const_num, g.den
        if c == 0 or c == d:
            slope = next((s for n, s in arg.coeff_nums if n == var), 0)
            if slope == 0:
                raise HyperplaneDegeneracyError(
                    f"xi_{atom.label} argument identically {c}", atom=str(atom))
            return Q(-arg.den if c == 0 else arg.den, slope)
        if 0 < c < d and not assume_no_real_zeros:
            raise IndeterminateZeroRegionError(
                f"xi_{atom.label}({g}) lies in (0,1); possible real zero",
                atom=str(atom))
    return ZetaAtom(atom.label, g, atom.exp)


def ref_expand_in(expr: ZetaExpr, var: str, *,
                  assume_no_real_zeros: bool = False) -> LaurentData:
    """Laurent order and leading coefficient of expr as var -> 0, one factor at a time."""
    if expr.is_zero():
        raise ValueError("Laurent expansion of the zero expression")
    order = 0
    scalar = expr.scalar
    num: list[AffineForm] = []
    den: list[AffineForm] = []
    for forms, kept, step in ((expr.num, num, 1), (expr.den, den, -1)):
        for f in forms:
            zero, lead = ref_form_limit(f, var)
            order += step * zero
            kept.append(lead)

    atoms: list[ZetaAtom] = []
    residues = list(expr.residues)
    for a in expr.atoms:
        limit = ref_atom_limit(a, var, assume_no_real_zeros=assume_no_real_zeros)
        if isinstance(limit, ZetaAtom):
            atoms.append(limit)
        else:
            order -= a.exp
            scalar *= limit ** a.exp
            residues.append((a.label, a.exp))
    return LaurentData(order, ZetaExpr.build(scalar, num, den, atoms, residues))
