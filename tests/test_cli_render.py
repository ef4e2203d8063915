"""The CLI's JSON writer against the encoder it replaces.

`cli._render_json(v)` must be exactly `json.dumps(v, indent=2, sort_keys=True)`
on every value a report can hold, and on the reports themselves.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revpeg.cli import _render_json, main
from test_cli_golden import GOLDEN


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\U0001f600\xe9'),
))
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert _render_json(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, [[]], {"b": [], "a": ()}, [{}, [], ()],
    True, False, None, 0, -1, 2**64, -(2**100),
    math.nan, math.inf, -math.inf, -0.0,
    "", '"', "\\", "\x00\x1f", "\xe9\u2028\U0001f600",
])
def test_edge_values(value):
    assert _render_json(value) == reference(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": 1, 2: "b"}, {None: 0}, {True: 0},
                                   {2.5: 0}, [{"a": {3: 0}}]])
def test_non_str_key_is_refused(value):
    # json would coerce these keys to strings; no report has one
    with pytest.raises(TypeError):
        _render_json(value)


def test_golden_reports_rerender_identically():
    checked = 0
    for case in json.loads(GOLDEN.read_text()):
        if case["stdout"].startswith("{"):
            report = json.loads(case["stdout"])
            assert _render_json(report) + "\n" == case["stdout"], case["argv"]
            checked += 1
    assert checked >= 30


def test_largest_table_report_is_json_dumps_byte_for_byte():
    # the largest report the CLI writes: every end peg of cycle:3..128 (5.3 MB)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--memory-budget", "1K", "table", "--family", "cycle", "--max-n", "128"])
    text = out.getvalue()
    assert len(text) > 5_000_000
    assert text == reference(json.loads(text)) + "\n"
