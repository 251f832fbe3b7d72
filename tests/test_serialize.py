"""serialize.dumps against json.dumps with the same layout, byte for byte."""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.cli import main
from hyperdisc.serialize import _RUN_MIN, distribution_to_json, dumps, scalar_to_json
from hyperdisc.srdist import SRDistribution

from test_cli import SR_SEARCH_GRAPHS


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def gen_blob(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["gen", *argv]) == 0
    return json.loads(out.getvalue()), out.getvalue()


GEN_ARGS = [
    *(["--kind", "kls-det", "--n", "5", "--mprime", "3", "--variables", v, "--seed", "2"]
      for v in ("mixed", "rademacher", "biased", "threepoint")),
    *(["--kind", "kls-lorentz", "--n", "4", "--m", "3", "--variables", v, "--seed", "1"]
      for v in ("mixed", "rademacher", "biased", "threepoint")),
    *(["--kind", "sr-ust", "--graph", spec] for spec in SR_SEARCH_GRAPHS),
]


@pytest.mark.parametrize("argv", GEN_ARGS, ids=[" ".join(a[1::2]) for a in GEN_ARGS])
def test_gen_output_matches_json_dumps(argv):
    blob, text = gen_blob(*argv)
    assert dumps(blob) == text == reference_dumps(blob)


ESCAPES = st.text(st.sampled_from('",[]{}%\\\n\t\x00é€😀 ab') | st.characters(), max_size=12)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
           | st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0) | ESCAPES)


def containers(children):
    return (st.lists(children, max_size=6) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(ESCAPES, children, max_size=6))


@st.composite
def runs(draw):
    """A list of dicts sharing their str keys, each value a str in every
    dict or a non-empty int list in every dict, shorter and longer than
    _RUN_MIN; sometimes an int list holds a bool or is empty."""
    keys = draw(st.lists(ESCAPES, min_size=1, max_size=3, unique=True))
    kinds = [draw(st.sampled_from(["str", "ints"])) for _ in keys]
    length = draw(st.sampled_from([_RUN_MIN, 2 * _RUN_MIN, _RUN_MIN - 1, 1]))
    int_lists = st.lists(st.integers(-10**20, 10**20) | st.integers(0, 20), min_size=1, max_size=5)
    odd_lists = st.lists(st.integers(0, 3) | st.booleans(), max_size=3)
    rows = [{key: draw(ESCAPES if kind == "str" else int_lists) for key, kind in zip(keys, kinds)}
            for _ in range(length)]
    if draw(st.booleans()) and "ints" in kinds:
        rows[draw(st.integers(0, length - 1))][keys[kinds.index("ints")]] = draw(odd_lists)
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.recursive(SCALARS, containers, max_leaves=12))
def test_json_trees_match_json_dumps(obj):
    assert dumps(obj) == reference_dumps(obj)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(runs(), st.integers(0, 2))
def test_runs_of_same_shaped_dicts_match_json_dumps(rows, depth):
    obj = rows
    for _ in range(depth):
        obj = {"payload": obj, "n": depth}
    assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [
    {"a": [[], {}, ()], "b": {"c": {}}, "f": [math.nan, math.inf, -math.inf, -0.0],
     "i": [1, True, False, 2**100], "s": ['",[]{}', "é "],
     "r": [{} for _ in range(2 * _RUN_MIN)], "t": [{"k": []}] * (2 * _RUN_MIN),
     "%": [{"%s": "%d", "100%": [1, 2]}] * (2 * _RUN_MIN)},
    {1: [[1]], 2: {}}, {1.5: [[]], -0.0: [{}]}, {None: [[None]]}, {True: [[]], False: [0, [1]]},
], ids=["empty-and-special", "int-keys", "float-keys", "none-key", "bool-keys"])
def test_fixed_trees_match_json_dumps(obj):
    assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [
    {"x": Fraction(1, 3)}, [object()], {1, 2}, [[1j]], {(1, 2): 0},
    [{"p": "1/3", "s": [Fraction(1)]}] * (2 * _RUN_MIN),
])
def test_unserializable_value_raises_type_error(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        dumps(obj)


def test_distribution_to_json_formats_every_entry_by_value():
    # Equal probabilities that are different objects, a run of one shared
    # object and a change of value between runs: every entry gets the text
    # of its own probability.
    sixth = Fraction(1, 6)
    mu = SRDistribution.from_support(4, [((0, 1), Fraction(1, 3)), ((0, 2), Fraction(1, 3)),
                                         ((0, 3), sixth), ((1, 2), sixth)])
    blob = distribution_to_json(mu)
    assert [entry["prob"] for entry in blob["support"]] == ["1/3", "1/3", "1/6", "1/6"]
    assert blob["support"] == [{"set": list(e), "prob": scalar_to_json(p)} for e, p in mu.support]
