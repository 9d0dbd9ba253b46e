from fractions import Fraction as Q

import pytest

from degeis.dualside import (DualPairEmbedding, LFactor, LFactorization,
                             WeightSet, arthur_expand, lfactor_standard,
                             order_at_2, restrict_via_r, sym_pole_location)
from degeis.errors import UnmodeledPointError, UnsupportedGroupError


def biweight_oracle():
    """Character multiset of std (x) std + 1 (x) Sym^2, built directly."""
    std = [1, -1]
    tensor = [(a, b) for a in std for b in std]
    sym2 = [(0, n) for n in (2, 0, -2)]
    return sorted(tensor + sym2)


def test_weight_set_shape():
    ws = WeightSet.standard()
    assert len(ws.weights) == 7
    assert sorted(ws.weights) == sorted(tuple(-x for x in w) for w in ws.weights)
    assert tuple(map(sum, zip(*ws.weights))) == (0, 0)


def test_embedding_orthogonality():
    emb = DualPairEmbedding.standard()
    assert emb.long_cochar == (1, 2)
    assert emb.short_cochar == (1, 0)


def test_restrict_via_r_matches_tensor_oracle():
    got = [(int(a), int(b)) for a, b in restrict_via_r()]
    assert got == biweight_oracle()
    # weight zero maps to (0,0); the multiset sums to zero
    assert (0, 0) in got
    assert sum(a for a, _ in got) == 0 and sum(b for _, b in got) == 0


def test_one_g2_per_call(monkeypatch, g2):
    import degeis.dualside as dualside

    built = []

    def counted(name):
        built.append(name)
        return g2

    monkeypatch.setattr(dualside, "build_system", counted)
    assert DualPairEmbedding.standard(g2) == DualPairEmbedding.standard()
    built.clear()
    restrict_via_r()
    assert built == ["G2"]
    for source in ("V_tau", "V_chi"):
        built.clear()
        lfactor_standard(source)
        assert built == ["G2"]


def test_conjugating_the_pair_preserves_biweights(g2):
    # any Weyl-conjugate choice of the orthogonal (long, short) pair gives
    # exactly the same bi-weight multiset: the weights are W-stable and the
    # multiset is symmetric under sign flips of either coordinate
    from degeis.dualside import WeightSet, _pair
    from degeis.rootdata import Root

    ws = WeightSet.standard(g2)
    reference = sorted(restrict_via_r())
    for _, w in g2.weyl_elements():
        lc = g2.coroot(g2.word_on_root(w, Root((3, 2))))
        sc = g2.coroot(g2.word_on_root(w, Root((1, 0))))
        got = sorted((_pair(v, lc), _pair(v, sc)) for v in ws.weights)
        assert got == reference


def test_v_tau_factorization_verbatim():
    vt = lfactor_standard("V_tau")
    assert vt.factors == LFactorization.build([
        LFactor(Q(-1), "zeta"), LFactor(Q(-1, 2), "tau"), LFactor(0, "zeta"),
        LFactor(Q(1, 2), "tau"), LFactor(1, "zeta")]).factors
    assert vt.degree() == 7
    assert str(vt) == "zeta(s-1) * L(s-1/2,tau) * zeta(s) * L(s+1/2,tau) * zeta(s+1)"


def test_v_chi_factorization_verbatim():
    vc = lfactor_standard("V_chi")
    assert vc.factors == LFactorization.build([
        LFactor(Q(-1), "zeta"), LFactor(Q(-1), "chi"), LFactor(0, "zeta"),
        LFactor(0, "chi", 2), LFactor(1, "zeta"), LFactor(1, "chi")]).factors
    assert vc.degree() == 7
    assert "L(s,chi)^2" in str(vc)


def test_v_tau_equals_biweight_product():
    # oracle equivalence: build the factorization straight from the bi-weights
    factors = []
    for m, n in restrict_via_r():
        if m == 0:
            factors.append(LFactor(-n / 2, "zeta"))
        elif m > 0:
            factors.append(LFactor(-n / 2, "tau"))
    assert LFactorization.build(factors).factors == lfactor_standard("V_tau").factors


def test_orders_at_two():
    assert order_at_2(lfactor_standard("V_tau")) == 1
    assert order_at_2(lfactor_standard("V_chi")) == 1
    assert order_at_2(lfactor_standard("V_chi"), chi_trivial=True) == 2
    order, axioms = order_at_2(lfactor_standard("V_tau"), explain=True)
    assert order == 1
    assert any("simple pole" in a for a in axioms)


def test_unmodeled_point():
    bad = LFactorization.build([LFactor(Q(-3, 2), "zeta")])
    with pytest.raises(UnmodeledPointError):
        order_at_2(bad)


def test_unknown_source():
    with pytest.raises(UnsupportedGroupError):
        lfactor_standard("V_sigma")


def test_arthur_expand():
    assert arthur_expand(0) == [0]
    assert arthur_expand(1) == [Q(1, 2), -Q(1, 2)]
    assert arthur_expand(2) == [1, 0, -1]
    for j in range(8):
        shifts = arthur_expand(j)
        assert len(shifts) == j + 1
        assert sorted(shifts) == sorted(-x for x in shifts)
        assert max(shifts) == Q(j, 2)
    # rho = 1, j = 2 gives zeta(s+1) zeta(s) zeta(s-1): pole at s = k/2 + 1 = 2
    assert sym_pole_location(2) == 2
    assert 2 + min(arthur_expand(2)) == 1   # the factor zeta(s-1) at s=2 is zeta(1)
