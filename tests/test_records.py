"""The ``__slots__`` records agree with the frozen dataclasses they replace.

``reference_records`` keeps the dataclass declarations.  Instances come from
real calls (a D4 constant term and pole report, the appendix and Siegel-Weil
reports, the L-factorizations, the local integral and the iota check), made
twice on the same root systems so that equal instances are also distinct
objects.  Each is mirrored into the dataclass of the same name with the same
field values.  Equality, hash, repr, order, defaults, keyword construction,
immutability and validation must then agree.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import reference_records as ref
from degeis import characters, dualside, eisenstein, localint, rootdata, zetas
from degeis.characters import chi_line_for, iota_check, line_mu_P, parabolic_levi
from degeis.dualside import DualPairEmbedding, WeightSet, lfactor_standard
from degeis.eisenstein import (ConstantTerm, constant_term, entireness_report, pole_report,
                               sharp_limit, siegel_weil_constant)
from degeis.forms import AffineForm
from degeis.localint import ShellFunction, tate_integral
from degeis.records import Record
from degeis.rootdata import FieldLabel, Root, build_system
from degeis.zetas import laurent_at

MODULES = (rootdata, zetas, characters, eisenstein, dualside, localint)
RECORDS = {name: cls for mod in MODULES for name, cls in vars(mod).items()
           if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == mod.__name__}
ORDERED = ("FieldLabel", "Root", "LFactor", "ZetaAtom")
SAMPLE = 24         # instances per class whose pairs are all compared


def _calls(system, split):
    """Records from one round of real calls on the two D4 systems, as lists by class name."""
    out: dict[str, list] = {name: [] for name in RECORDS}
    seen: set[int] = set()

    def add(x):
        if type(x) in RECORDS.values() and id(x) not in seen:
            seen.add(id(x))
            out[type(x).__name__].append(x)
            for name in x.__slots__:
                value = getattr(x, name)
                for v in (value if isinstance(value, tuple) else (value,)):
                    add(v)

    ct = constant_term(system, parabolic_levi(system, "P"), chi_line_for(system, "P"))
    add(ct.terms[-1].word.inverse())        # the walk's words are cached per system
    add(ct)
    add(pole_report(ct, Q(1, 2)))
    add(pole_report(ct, Q(3, 10), assume_no_real_zeros=True))
    add(sharp_limit(system, parabolic_levi(system, "P"), line_mu_P(system), Q(3, 10)))
    add(siegel_weil_constant(system))
    add(entireness_report(system))
    add(iota_check(split))
    add(laurent_at(ct.terms[3].j_factor, {"s": Q(1, 2)}))
    add(WeightSet.standard())
    add(DualPairEmbedding.standard())
    for source in ("V_tau", "V_chi"):
        add(lfactor_standard(source))
    for f in (ShellFunction.lattice(0), ShellFunction.lattice(2), ShellFunction.shell(1)):
        add(f)
        add(tate_integral(f, AffineForm.of(3, s=2)))
    for root in system.positive_roots:
        add(root)
        add(-root)
        label = system.label_of(root)
        add(FieldLabel(label.symbol, label.degree))
    return out


@pytest.fixture(scope="module")
def made():
    systems = build_system("quasi_D4"), build_system("split_D4")
    first, second = _calls(*systems), _calls(*systems)
    return {name: first[name] + second[name] for name in RECORDS}


def mirror(x):
    """The reference dataclass with x's field values."""
    cls = getattr(ref, type(x).__name__)
    return cls(*[getattr(x, f.name) for f in dataclasses.fields(cls)])


def sample(xs):
    """The first SAMPLE // 2 instances of each of the two equal-length rounds."""
    return xs[:SAMPLE // 2] + xs[len(xs) // 2:len(xs) // 2 + SAMPLE // 2]


def test_every_record_has_its_reference_and_real_instances(made):
    refs = {name for name, cls in vars(ref).items() if dataclasses.is_dataclass(cls)}
    assert set(RECORDS) == refs and len(refs) == 21
    for name, cls in RECORDS.items():
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(getattr(ref, name)))
        assert len(made[name]) >= 2, name


def test_no_record_class_defines_its_own_equality():
    # records.Record and OrderedRecord hold the only definitions
    own = {name: sorted({"__eq__", "__hash__", "__lt__"} & set(vars(cls)))
           for name, cls in RECORDS.items()}
    assert {name: methods for name, methods in own.items() if methods} == {}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr_match_the_dataclass(made, name):
    xs = sample(made[name])
    mirrored = [mirror(x) for x in xs]
    for x, m in zip(xs, mirrored):
        assert repr(x) == repr(m)
        assert hash(x) == hash(m)
        assert x != m and x.__eq__(m) is NotImplemented
        assert x != tuple(getattr(x, f) for f in x.__slots__)
    equal_pairs = 0
    for (a, ma), (b, mb) in itertools.product(zip(xs, mirrored), repeat=2):
        assert (a == b) is (ma == mb) and (a != b) is (ma != mb)
        if a == b:
            assert hash(a) == hash(b)
            equal_pairs += a is not b
    assert equal_pairs > 0


@pytest.mark.parametrize("name", ORDERED)
def test_order_matches_the_dataclass(made, name):
    xs = sample(made[name])
    assert [mirror(x) for x in sorted(xs)] == sorted(mirror(x) for x in xs)
    for a, b in itertools.product(xs, repeat=2):
        ma, mb = mirror(a), mirror(b)
        assert ((a < b), (a <= b), (a > b), (a >= b)) == ((ma < mb), (ma <= mb), (ma > mb),
                                                          (ma >= mb))
    other = next(iter(made[next(n for n in ORDERED if n != name)]))
    with pytest.raises(TypeError):
        xs[0] < other


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keyword_construction_copy_and_immutability(made, name):
    x = made[name][0]
    fields = {f: getattr(x, f) for f in x.__slots__}
    assert type(x)(**fields) == x and copy.copy(x) == x
    sub = type("Sub", (type(x),), {"__slots__": ()})(**fields)
    assert sub != x and x != sub and repr(sub) == "Sub" + repr(x)[len(type(x).__name__):]
    for f in (*x.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert not hasattr(x, "__dict__")


def test_pickle_round_trip():
    for x in (Root((1, 0, 1)), FieldLabel("K", 2), ShellFunction("shell", 3),
              lfactor_standard("V_tau"), rootdata.WeylWord((1, 2))):
        assert pickle.loads(pickle.dumps(x)) == x
    # an AffineForm and every record that holds one: copied and pickled by their integers
    system = build_system("split_D4")
    ct = constant_term(system, parabolic_levi(system, "P"), chi_line_for(system, "P"))
    rep = pole_report(ct, Q(1, 2))
    for x in (AffineForm.of(Q(-3, 4), s=Q(5, 2), t=-1), ct.line, ct.terms[-1].j_factor,
              ct.terms[-1].exponent, ct, rep):
        assert copy.copy(x) == x
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_a_root_system_is_its_inputs():
    """Equal and hashed by name, Cartan rows, folded and simple labels; copied and
    pickled by them, so a cached walk is not carried."""
    system = build_system("split_D4")
    size = len(pickle.dumps(system))
    system.weyl_elements(())
    assert len(system.weyl_elements(())) == 192 and len(pickle.dumps(system)) == size
    for y in (copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system)),
              build_system("split_D4")):
        assert y is not system and y == system and hash(y) == hash(system)
        assert y._weyl_cache == {} and y.positive_roots == system.positive_roots
    g2, labels = build_system("G2"), {1: rootdata.LABEL_E, 2: rootdata.LABEL_F}
    assert g2 != build_system("tri_D4") and g2 != build_system("custom", cartan=g2.cartan)
    assert build_system("tri_D4") != rootdata.RootSystem("tri_D4", g2.cartan, folded=False,
                                                         labels=labels)
    assert build_system("tri_D4") == rootdata.RootSystem("tri_D4", g2.cartan, folded=True,
                                                         labels=labels)
    assert system != system.name and system != (system.name, system.cartan)


def test_defaults_match_the_dataclass():
    form = AffineForm.of(1, s=2)
    cases = [("WeylWord", ()), ("ZetaExpr", ()), ("ZetaAtom", ("K", form)),
             ("LFactor", (Q(1, 2), "tau")), ("LocalFactor", (((0, Q(1)),), (), form))]
    for name, args in cases:
        assert repr(RECORDS[name](*args)) == repr(getattr(ref, name)(*args))
    assert zetas.ZetaExpr().scalar == 1 and zetas.ZetaAtom("F", form).exp == 1


@pytest.mark.parametrize("name, args", [
    ("FieldLabel", ("F", 2)), ("FieldLabel", ("K", 0)), ("FieldLabel", ("K", True)),
    ("FieldLabel", ("K", 2.0)), ("Root", ((0, 0),)), ("Root", ((1, -1),)),
    ("ShellFunction", ("ball", 0))])
def test_validation_matches_the_dataclass(name, args):
    with pytest.raises(ValueError) as want:
        getattr(ref, name)(*args)
    with pytest.raises(ValueError) as got:
        RECORDS[name](*args)
    assert str(got.value) == str(want.value)


def test_constant_term_compares_without_its_table(made):
    ct = made["ConstantTerm"][0]
    bare = ConstantTerm(ct.system, ct.levi, ct.line, ct.terms)
    assert bare.table is not ct.table and bare == ct and hash(bare) == hash(ct)
    assert repr(bare) == repr(ct) and "table" not in repr(ct)


def test_cli_import_loads_no_dataclasses():
    """``import degeis.cli`` in a fresh interpreter (without site) loads none of these."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import degeis.cli; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == []
