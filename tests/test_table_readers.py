"""The readers of a constant term's atom table, and its terms on first read.

``constant_term`` fills only its ``_AtomTable``: words, J as id counts and
exponents as rows of coordinate ids.  ``pole_report``, ``render_table_rows``
and the JSON rows of ``table`` read that table, and ``ConstantTerm.terms``
builds the ``GKTerm`` tuple from it on its first read.  These tests count the
objects each command makes, hold the JSON rows byte for byte against
``json.dumps`` of ``to_json`` of terms built per word with no table
(``conftest.reference_terms``), check that the built terms behave as a
stored tuple does, and reach the two branches of ``_group_order`` that no
preset line reaches.
"""

from __future__ import annotations

import copy
import json
import pickle
from collections import Counter
from fractions import Fraction as Q

import pytest

from degeis import cli
from degeis.characters import TorusCharacter, chi_line_for
from degeis.eisenstein import (ConstantTerm, GKTerm, _factor_order, constant_term, coset_reps,
                               pole_report, render_table_rows)
from degeis.forms import AffineForm
from degeis.rootdata import build_system
from degeis.zetas import ZetaExpr, _factors, _intern, laurent_at

from conftest import af, reference_terms, sweep_cases, xi
from test_pole_walk import _built_by_hand

D4_BOREL = ["--group", "D4", "--parabolic", "borel", "--point", "1/2"]
SPLIT = build_system("split_D4")


def _d4_borel():
    return constant_term(SPLIT, (), chi_line_for(SPLIT, "borel"))


# -- what each command makes --------------------------------------------------------

@pytest.fixture
def made(monkeypatch):
    """Counts of GKTerm and ZetaExpr objects made: in all, and under ``constant_term``."""
    counts = Counter()
    depth = []
    for cls in (GKTerm, ZetaExpr):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            if depth:
                counts[_name + " in constant_term"] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def counted_constant_term(*args):
        depth.append(1)
        try:
            return constant_term(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(cli, "constant_term", counted_constant_term)
    return counts


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_poles_builds_no_term(made, capsys, fmt):
    """D4 Borel at 1/2: no GKTerm anywhere, and no ZetaExpr inside constant_term; Markdown
    reads no leading term, so it makes no ZetaExpr at all."""
    assert cli.main(["poles", *D4_BOREL, "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert made["GKTerm"] == made["ZetaExpr in constant_term"] == 0
    # JSON builds one leading term per group, the 192 of D4 Borel at 1/2
    assert made["ZetaExpr"] == (0 if fmt == "md" else 192)


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_table_builds_no_row_expression(made, capsys, fmt):
    """D4 Borel at 1/2: the 192 rows are written from the table, no GKTerm or ZetaExpr made."""
    assert cli.main(["table", *D4_BOREL, "--format", fmt]) == 0
    # every word but the identity, which is written 1
    assert capsys.readouterr().out.count("w[") == 191
    assert made == {}


def test_reading_the_terms_builds_each_term_once(made):
    ct = _d4_borel()
    assert made == {}
    terms = ct.terms
    assert len(terms) == 192 and made == {"GKTerm": 192, "ZetaExpr": 192}
    assert ct.terms is terms and ct == ct and made == {"GKTerm": 192, "ZetaExpr": 192}


# -- the terms on first read ----------------------------------------------------------

def test_the_built_terms_are_the_reference_terms(made):
    ct = _d4_borel()
    assert made == {}
    assert ct.terms == reference_terms(ct.system, ct.levi, ct.line)


def test_terms_used_before_any_read_equal_one_read_first(made):
    """Equality, hash, repr, copy and pickle see the built tuple, and build it once."""
    read = _d4_borel()
    read.terms
    assert _d4_borel() == read and hash(_d4_borel()) == hash(read)
    assert repr(_d4_borel()) == repr(read)
    for x in (copy.copy(_d4_borel()), copy.deepcopy(_d4_borel()),
              pickle.loads(pickle.dumps(_d4_borel()))):
        # the copy holds the built tuple: comparing it builds no term
        built = made["GKTerm"]
        assert x == read and hash(x) == hash(read) and made["GKTerm"] == built
        assert pole_report(x, Q(1, 2)) == pole_report(read, Q(1, 2))


def test_terms_built_by_hand_are_kept_as_given():
    ct = _d4_borel()
    terms = reference_terms(ct.system, ct.levi, ct.line)
    hand = ConstantTerm(ct.system, ct.levi, ct.line, terms)
    assert hand.terms is terms and hand == ct


def test_the_terms_stay_immutable():
    ct = _d4_borel()
    for name in ("terms", "table"):
        with pytest.raises(AttributeError):
            setattr(ct, name, None)
        with pytest.raises(AttributeError):
            delattr(ct, name)
    assert isinstance(ct.terms, tuple)


# -- the JSON rows --------------------------------------------------------------------

def _reference_json(terms, rows):
    """The rows of ``table --format json`` as dicts: ``render_table_rows``' fields with
    ``to_json`` of each term."""
    return [r | {"j_factor_json": t.j_factor.to_json(), "exponent_json": t.exponent.to_json()}
            for r, t in zip(rows, terms)]


def _assert_rows_written_as_the_stdlib(ct, terms):
    """The written rows, in a document, byte for byte as ``json.dumps`` of the dicts."""
    rows = render_table_rows(ct, Q(1, 2), assume_no_real_zeros=True)
    written = cli._json({"rows": cli._table_rows_json(ct, rows)})
    assert written == json.dumps({"rows": _reference_json(terms, rows)}, indent=2,
                                 sort_keys=True)


@pytest.mark.parametrize("case", list(sweep_cases()), ids=lambda case: case[0])
def test_json_rows_are_to_json_of_each_term(case):
    """From the walk's table and from the reference terms built by hand."""
    _, system, levi, line = case
    reference = reference_terms(system, levi, line)
    _assert_rows_written_as_the_stdlib(constant_term(system, levi, line), reference)
    _assert_rows_written_as_the_stdlib(ConstantTerm(system, levi, line, reference), reference)


def test_json_rows_of_terms_built_by_hand(quasi):
    """Affine factors, residue symbols and scalars, interned in an order that is not
    canonical, lay out as ``to_json`` of each term does."""
    ct = _built_by_hand(quasi, TorusCharacter.of(af(1, 0), af(1, 1), af(1, 2)))
    first_seen: dict = {}
    for t in ct.terms:
        _intern(first_seen, _factors(t.j_factor))
    assert sorted(first_seen, key=_factor_order) == ct.table.keys != list(first_seen)
    _assert_rows_written_as_the_stdlib(ct, ct.terms)
    # the atoms, the forms and the residues: every branch of _factor_json
    assert any(j["residues"] and j["num"] and j["atoms"] and j["scalar"] != "1"
               for j in (t.j_factor.to_json() for t in ct.terms))


def test_json_rows_encode_each_entry_and_coordinate_once(monkeypatch, capsys):
    """D4 Borel: the 1,438 atom entries are encoded as 24, one per (id, count), and the
    768 coordinates as 10, one per id."""
    encoded = Counter()

    def counted_json(value, newline="\n", _json=cli._json):
        encoded["atom" if "label" in value else "coordinate" if "const" in value
                else "document"] += 1
        return _json(value, newline)

    def counted_factor_json(key, count, _factor_json=cli._factor_json):
        encoded["entry"] += 1
        return _factor_json(key, count)

    monkeypatch.setattr(cli, "_json", counted_json)
    monkeypatch.setattr(cli, "_factor_json", counted_factor_json)
    assert cli.main(["table", *D4_BOREL, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(len(r["j_factor_json"]["atoms"]) for r in doc["rows"]) == 1438
    assert sum(len(r["exponent_json"]["coords"]) for r in doc["rows"]) == 768
    assert encoded == {"entry": 24, "atom": 24, "coordinate": 10, "document": 1}


# -- the branches of _group_order that no preset line reaches ------------------------------

def _one_group(system, js, point):
    """The report at the point of terms that share the line as their exponent."""
    lam = TorusCharacter(tuple(AffineForm.var("s") for _ in range(system.rank)))
    words = coset_reps(system, ())
    terms = tuple(GKTerm(w, j, lam) for w, j in zip(words, js))
    rep = pole_report(ConstantTerm(system, (), lam, terms), point)
    [group] = rep.groups
    assert group.words == tuple(words[:len(js)])
    return group


def test_distinct_monomials_survive_as_a_formal_sum(split):
    """xi(s+1) and xi(2s+1) lead at s = 1/3 with xi(4/3) and xi(5/3): two monomials,
    neither cancelled, so the group has order 0 and no single leading term."""
    js = [xi("F", 1, 1), xi("F", 2, 1) * 3]
    for point in (Q(1, 3), Q(2)):
        orders = [laurent_at(j, {"s": point}).order for j in js]
        group = _one_group(split, js, point)
        assert orders == [0, 0]
        assert (group.order, group.leading, group.log_term) == (0, None, False)


@pytest.mark.parametrize("rotation", [0, 1, 2])
def test_all_monomials_but_one_cancel(split, rotation):
    """xi(s+1) - xi(s+1) + 2 xi(2s+1) at s = 1/3: two buckets, one cancelled.  The group
    leads with the surviving monomial and its total, wherever its member stands."""
    js = [xi("F", 1, 1), xi("F", 1, 1) * -1, xi("F", 2, 1) * 2]
    js = js[rotation:] + js[:rotation]
    group = _one_group(split, js, Q(1, 3))
    survivor = xi("F", 0, Q(5, 3)) * 2
    assert (group.order, group.leading, group.log_term) == (0, survivor, False)
    assert group.leading == laurent_at(xi("F", 2, 1) * 2, {"s": Q(1, 3)}).leading
