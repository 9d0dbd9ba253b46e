"""The CLI's JSON emitter against ``json.dumps(x, indent=2, sort_keys=True)``."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis import cli
from degeis.cli import _Encoded, _json

# non-ASCII (accents, CJK, astral-plane emoji), quotes, backslashes and control characters
_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é漢😀')),
                max_size=12)
_scalars = st.one_of(st.none(), st.booleans(), _text,
                     st.integers(), st.integers(min_value=2**64, max_value=2**200),
                     st.integers(min_value=-2**200, max_value=-2**64))
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_payloads)
def test_emitter_matches_the_stdlib(payload):
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [
    {}, [], [{}], {"a": []}, [[[[]]]], {"b": {"a": {"": [1, {}]}}}, True, False, None,
    -(2**70), "", " \ud800", [0, -0, 10**30],
])
def test_emitter_edge_cases(payload):
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("newline", ["\n", "\n  ", "\n      "])
@pytest.mark.parametrize("payload", [
    {}, [], "a", 7, None, [1, [2, {}]], {"b": {"a": [None, True]}, "c": []},
])
def test_newline_is_the_depth_written_at(payload, newline):
    """The text of a value nested that deep: the stdlib's, every line break indented."""
    assert _json(payload, newline) == json.dumps(payload, indent=2,
                                                 sort_keys=True).replace("\n", newline)


# -- text encoded ahead: _Encoded ------------------------------------------------------

def _subvalues(value, newline, path=()):
    """(path, newline) of the value and of every value inside it, with the depth each
    is written at."""
    yield path, newline
    inner = newline + "  "
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from _subvalues(v, inner, path + (k,))


def _replaced(value, path, new):
    """The value with the sub-value at path replaced by new, the rest unchanged."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replaced(v, rest, new) if k == head else v for k, v in value.items()}
    return [_replaced(v, rest, new) if k == head else v for k, v in enumerate(value)]


def _at(value, path):
    for k in path:
        value = value[k]
    return value


@settings(max_examples=200, deadline=None)
@given(_payloads, st.data())
def test_an_encoded_subvalue_leaves_the_document_unchanged(payload, data):
    """Any sub-value, replaced by its own text at its depth as ``_Encoded``."""
    path, newline = data.draw(st.sampled_from(list(_subvalues(payload, "\n"))))
    encoded = _Encoded(_json(_at(payload, path), newline))
    assert _json(_replaced(payload, path, encoded)) == json.dumps(payload, indent=2,
                                                                  sort_keys=True)


# -- poles --format json: one template per group ---------------------------------------

POLES = [
    ["--group", "A1", "--parabolic", "borel", "--point=0", "--assume-no-real-zeros"],
    ["--group", "3D4", "--parabolic", "P", "--point=0", "--assume-no-real-zeros"],
    ["--group", "2D4", "--parabolic", "Q", "--point=1/3", "--assume-no-real-zeros"],
    ["--group", "D4", "--parabolic", "borel", "--point=1/2"],
    ["--group", "D4", "--parabolic", "Q", "--point=-1/6", "--line", "muQ"],
]


def _poles_reference(args) -> dict:
    """The document of ``poles --format json`` as dicts, from ``pole_report``."""
    ct, point = cli._constant_term(args)
    rep = cli.pole_report(ct, point, assume_no_real_zeros=args.assume_no_real_zeros)
    return {"schema": cli.SCHEMA, "command": "poles", "group": args.group,
            "parabolic": args.parabolic, "point": str(point), "order": rep.order,
            "square_integrable": rep.square_integrable,
            "groups": [{"exponent": "(" + ",".join(str(x) for x in g.exponent_at_point) + ")",
                        "words": [str(w) for w in g.words], "order": g.order,
                        "leading": None if g.leading is None else str(g.leading),
                        "log_term": g.log_term} for g in rep.groups]}


@pytest.mark.parametrize("argv", POLES, ids=lambda argv: " ".join(argv))
def test_poles_groups_are_written_as_the_stdlib(argv):
    argv = ["poles", *argv, "--format", "json"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    reference = _poles_reference(cli.build_parser().parse_args(argv))
    assert out.getvalue() == json.dumps(reference, indent=2, sort_keys=True) + "\n"


def test_poles_cases_reach_a_null_leading_and_a_log_term():
    groups = [g for argv in POLES
              for g in _poles_reference(cli.build_parser().parse_args(["poles", *argv]))["groups"]]
    assert any(g["leading"] is None for g in groups)
    assert any(g["log_term"] for g in groups)
    assert any(g["leading"] is not None and not g["log_term"] for g in groups)


@pytest.mark.parametrize("payload", [
    1.5, float("nan"), (1, 2), Fraction(1, 2), {1: "a"}, {None: 1}, {("a",): 1},
    {"a": [1, {"b": 0.5}]}, [{"x": (1,)}], {"a": 1, 2: "b"}, {1, 2}, b"bytes",
])
def test_emitter_refuses_other_types(payload):
    with pytest.raises(TypeError):
        _json(payload)


# -- one dict object inserted many times: written once per occurrence ----------------

_SLOT = object()      # where a template takes the shared dict
_templates = st.recursive(
    st.one_of(_scalars, st.just(_SLOT)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=20)


def _fill(template, shared):
    """The template with the one object ``shared`` at every slot."""
    if template is _SLOT:
        return shared
    if isinstance(template, list):
        return [_fill(v, shared) for v in template]
    if isinstance(template, dict):
        return {k: _fill(v, shared) for k, v in template.items()}
    return template


@settings(max_examples=200, deadline=None)
@given(_templates, _templates, st.dictionaries(_text, _payloads, min_size=1, max_size=4))
def test_repeated_dicts_match_the_stdlib(outer, inner, shared):
    """A dict object at equal and at different depths, and inside another repeated dict."""
    middle = {"m": _fill(inner, shared), "s": shared}
    payload = [_fill(outer, middle), shared, shared, [shared, middle], {"a": middle, "b": shared}]
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_repeated_dicts_at_one_depth_match_the_stdlib():
    shared = {"label": "F", "arg": {"const": "1/2", "coeffs": {"s": "1"}}, "exp": -1}
    payload = {"rows": [{"atoms": [shared, shared]} for _ in range(3)], "last": [[shared]]}
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [{"a": 1, 2: "b"}, {"a": {None: 1}}])
def test_a_repeated_dict_with_a_foreign_key_raises_at_every_occurrence(bad):
    """The first occurrence raises, at any depth, and again in the next call."""
    for payload in ([bad, bad], [[bad], bad], {"x": [{}, bad], "y": bad}, [bad, [[bad]]]):
        for _ in range(2):
            with pytest.raises(TypeError):
                _json(payload)


def test_the_memo_lasts_one_call():
    """A dict written twice in one call, then given a foreign key, raises in the next:
    no text is kept from one call to the next."""
    shared = {"a": [1]}
    payload = [shared, shared, [shared]]
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    shared[1] = "b"
    with pytest.raises(TypeError):
        _json(payload)
    del shared[1]
    shared["a"].append(2)
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
