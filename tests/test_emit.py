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
