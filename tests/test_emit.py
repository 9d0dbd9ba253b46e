"""The CLI's JSON emitter against ``json.dumps(x, indent=2, sort_keys=True)``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeis.cli import _json

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


@pytest.mark.parametrize("payload", [
    1.5, float("nan"), (1, 2), Fraction(1, 2), {1: "a"}, {None: 1}, {("a",): 1},
    {"a": [1, {"b": 0.5}]}, [{"x": (1,)}], {"a": 1, 2: "b"}, {1, 2}, b"bytes",
])
def test_emitter_refuses_other_types(payload):
    with pytest.raises(TypeError):
        _json(payload)


# -- one dict object inserted many times -----------------------------------------

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
    """The first occurrence raises, at any depth, and a failed encoding is never kept."""
    for payload in ([bad, bad], [[bad], bad], {"x": [{}, bad], "y": bad}, [bad, [[bad]]]):
        for _ in range(2):
            with pytest.raises(TypeError):
                _json(payload)


def test_the_memo_lasts_one_call():
    """A dict encoded twice in one call, then given a foreign key, raises in the next."""
    shared = {"a": [1]}
    payload = [shared, shared, [shared]]
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    shared[1] = "b"
    with pytest.raises(TypeError):
        _json(payload)
    del shared[1]
    shared["a"].append(2)
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
