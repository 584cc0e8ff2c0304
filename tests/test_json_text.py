"""``output.json_text`` writes every JSON output; its text is the stdlib's, byte for byte."""

import collections
import enum
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakian import output
from sasakian import report as rep
from sasakian.cli import MAX_ABS_C, _parse_sweep, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# characters that the escape treats specially: quotes, backslashes, control
# characters, DEL, the line separators, lone surrogates and astral code points
_SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\ud800\udfff\xe9\u20ac\U0001f600'
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()), max_size=12)
# repr switches to exponent notation at 1e16 and below 1e-4
_EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000002e-05, 1.7976931348623157e308,
)  # fmt: skip
_SCALARS = st.one_of(
    _TEXT,
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


class _Level(enum.IntEnum):
    LOW = 1


class _Row(list):
    pass


class _Name(str):
    pass


def _nested(depth):
    """Lists and dicts in turn, ``depth`` levels deep, with float and str leaves at every level."""
    value = [0.5, "leaf"]
    for i in range(depth - 1):
        value = {"inner": value, "x": -1.5} if i % 2 else [value, "s", 2.0]
    return value


_EXAMPLES = (
    # empty containers and bare scalars at the top level
    [], {}, (), [[]], {"a": {}}, [(), {"": []}], "", 0, -0.0, math.nan,
    # int and float subclasses are written as their base type
    np.float64(0.1), np.float64(-np.inf), [np.float64(1e16)], {"k": np.float64(-0.0)}, [_Level.LOW],
    # so are dict, list and str subclasses, as values and as keys
    collections.OrderedDict([("b", _Row([1.0])), (_Name("a"), _Name("v"))]), [_Row(), collections.OrderedDict()],
    # deeper than any report, so that no table of indents caps the depth
    _nested(100),
)  # fmt: skip


@settings(max_examples=100, deadline=None)
@given(_VALUES)
def test_json_text_is_the_stdlib_indent_text(value):
    assert output.json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", _EXAMPLES)
def test_fixed_values_are_the_stdlib_indent_text(value):
    assert output.json_text(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), {1, 2}, frozenset(), b"x", 1j, object(), {"a": [np.int64(1)]}, [{"b": {2}}]],
)
def test_what_json_dumps_refuses_the_writer_refuses(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        output.json_text(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 0}, {1.5: 0}, {"a": {True: 0}}])
def test_non_str_keys_raise_instead_of_being_converted(value):
    # json.dumps converts these keys to strings; no report has one
    _dumps(value)
    with pytest.raises(TypeError):
        output.json_text(value)


def _classify_args(argv):
    if "--mode" in argv:
        return {"mode": argv[argv.index("--mode") + 1]}
    return {"c": float(argv[argv.index("--c") + 1])}


def test_classify_reports_of_both_workloads_and_a_sweep_are_the_stdlib_text():
    workload_names = ("classify-reduction", "classify-sweep")
    kwargs = [_classify_args(argv) for seed in (1, 2, 3) for w in workload_names for argv in workloads.items(w, seed)]
    kwargs += [{"c": c} for c in (MAX_ABS_C, -MAX_ABS_C, 5e-324)]
    assert len(kwargs) > 190 and {"mode": "minus4"} in kwargs
    for kw in kwargs:
        payload = output.classification_report(**kw)
        assert output.json_text(payload) == _dumps(payload), kw
    sweep = {"sweep": [output.classification_report(c=c) for c in _parse_sweep("-1:3:0.05")]}
    assert output.json_text(sweep) == _dumps(sweep)


@pytest.mark.parametrize("name", [n.replace("<kappa1>", "0.5") for n in rep.EXAMPLE_NAMES])
def test_verify_reports_are_the_stdlib_text(name):
    report = rep.build_report(name, per_axis=3)
    assert report.to_json() == _dumps(report.to_dict())


def test_an_infinite_residual_still_prints_the_infinity_token(capsys):
    assert main(["verify", "legendre-helix:1e-9", "--grid", "3", "--format", "json"]) == 1
    text = capsys.readouterr().out
    assert text.count(": Infinity") == 2
    assert text == _dumps(rep.build_report("legendre-helix:1e-9", per_axis=3).to_dict())
