"""A pole report builds each group's leading term on its first read.

``pole_report`` keeps a pending ``_Expansion.leading`` call in each group's
``leading`` slot, and the first read of ``TermGroup.leading`` builds and
keeps the ``ZetaExpr``.  These tests count the builds, and hold the built
terms against ``laurent_at`` of each group's J factors, the value the report
computed eagerly before.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as Q

import pytest

from degeis import eisenstein
from degeis.characters import chi_line_for, parabolic_levi
from degeis.eisenstein import constant_term, pole_report
from degeis.errors import DegeisError
from degeis.rootdata import build_system
from degeis.zetas import ZetaExpr, _Expansion, laurent_at

from conftest import exceptional_cases, walk_cases
from test_pole_walk import SWEEP_POINTS

# lines with a group whose terms cancel to one surviving monomial at some sweep point
CANCELLING = ("quasi_D4-Q-None", "quasi_D4-Q-muQ", "tri_D4-P-None", "tri_D4-P-muP")


@pytest.fixture
def builds(monkeypatch):
    """The (scalar, counts) of every ``_Expansion.leading`` call, in call order."""
    calls = []
    leading = _Expansion.leading

    def counted(self, scalar, counts):
        calls.append((scalar, counts))
        return leading(self, scalar, counts)

    monkeypatch.setattr(_Expansion, "leading", counted)
    return calls


def _chi(preset, parabolic):
    system = build_system(preset)
    return constant_term(system, parabolic_levi(system, parabolic), chi_line_for(system, parabolic))


def test_a_report_builds_no_leading_term_until_one_is_read(builds):
    rep = pole_report(_chi("split_D4", "borel"), Q(1, 2))
    assert rep.order == 4 and len(rep.groups) == 192 and builds == []
    first = rep.groups[5].leading
    assert len(builds) == 1
    assert rep.groups[5].leading is first and len(builds) == 1
    assert None not in [g.leading for g in rep.groups] and len(builds) == 192


def test_an_exceptional_library_report_builds_no_leading_term(builds):
    (_, system, levi, line), = [c for c in exceptional_cases() if c[0] == "E6-1"]
    rep = pole_report(constant_term(system, levi, line), Q(1, 2), assume_no_real_zeros=True)
    assert rep.groups and builds == []


def eager_leading(ct, group, point, assume):
    """The group's leading term from laurent_at of each member's J.

    A singleton leads with its own term.  Otherwise the members of least
    order add up their scalars per leading monomial: one nonzero total leads
    with that monomial, and several (a formal sum) or none (a log term)
    leave no leading term.
    """
    j = {t.word: t.j_factor for t in ct.terms}
    data = [laurent_at(j[w], {"s": point}, assume_no_real_zeros=assume) for w in group.words]
    if len(data) == 1:
        return data[0].leading
    m = min(d.order for d in data)
    totals: dict[ZetaExpr, Q] = {}
    for d in data:
        if d.order == m:
            e = d.leading
            monomial = ZetaExpr(Q(1), e.num, e.den, e.atoms, e.residues)
            totals[monomial] = totals.get(monomial, Q(0)) + e.scalar
    nonzero = [(monomial, total) for monomial, total in totals.items() if total]
    return nonzero[0][0] * nonzero[0][1] if len(nonzero) == 1 else None


@pytest.mark.parametrize("case", list(walk_cases()), ids=lambda case: case[0])
def test_deferred_leading_terms_equal_the_eager_ones(case):
    name, system, levi, line = case
    ct = constant_term(system, levi, line)
    cancelling = 0
    for point in SWEEP_POINTS:
        for assume in (False, True):
            try:
                rep = pole_report(ct, point, assume_no_real_zeros=assume)
            except DegeisError:
                continue
            for g in rep.groups:
                assert g.leading == eager_leading(ct, g, point, assume), (point, assume, g.words)
                cancelling += len(g.words) > 1 and g.leading is not None
    assert (cancelling > 0) is (name in CANCELLING)


def test_a_report_used_before_any_read_equals_one_read_first(builds):
    ct, point = _chi("quasi_D4", "Q"), Q(0)
    read = pole_report(ct, point)
    for g in read.groups:
        g.leading
    built = len(builds)

    def fresh():
        return pole_report(ct, point)

    assert fresh() == read and hash(fresh()) == hash(read) and repr(fresh()) == repr(read)
    assert copy.copy(fresh()) == read and copy.deepcopy(fresh()).groups == read.groups
    assert pickle.loads(pickle.dumps(fresh().groups)) == read.groups
    # each of the six fresh reports built its leading terms once
    assert len(builds) == 7 * built
    for g in fresh().groups:
        for x in (copy.copy(g), pickle.loads(pickle.dumps(g))):
            assert x == g and type(eisenstein._get_leading(x)) is not eisenstein._Pending


def test_the_leading_term_stays_immutable():
    group = pole_report(_chi("split_D4", "P"), Q(1, 2)).groups[0]
    for name in ("leading", "order"):
        with pytest.raises(AttributeError):
            setattr(group, name, None)
        with pytest.raises(AttributeError):
            delattr(group, name)
    assert isinstance(group.leading, ZetaExpr)
