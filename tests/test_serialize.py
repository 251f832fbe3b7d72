"""serialize.dumps against json.dumps with the same layout, byte for byte."""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.cli import main
from hyperdisc.serialize import distribution_to_json, dumps, scalar_to_json
from hyperdisc.srdist import SRDistribution
from srdist_helpers import from_support, pairs
from test_cli import SR_SEARCH_GRAPHS

# Lists of same-shaped dicts, which dumps writes by recursion like any other
# list, are drawn shorter and longer than this.
RUN = 8


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
    RUN; sometimes an int list holds a bool or is empty."""
    keys = draw(st.lists(ESCAPES, min_size=1, max_size=3, unique=True))
    kinds = [draw(st.sampled_from(["str", "ints"])) for _ in keys]
    length = draw(st.sampled_from([RUN, 2 * RUN, RUN - 1, 1]))
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
     "r": [{} for _ in range(2 * RUN)], "t": [{"k": []}] * (2 * RUN),
     "%": [{"%s": "%d", "100%": [1, 2]}] * (2 * RUN)},
    {1: [[1]], 2: {}}, {1.5: [[]], -0.0: [{}]}, {None: [[None]]}, {True: [[]], False: [0, [1]]},
], ids=["empty-and-special", "int-keys", "float-keys", "none-key", "bool-keys"])
def test_fixed_trees_match_json_dumps(obj):
    assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [
    {"x": Fraction(1, 3)}, [object()], {1, 2}, [[1j]], {(1, 2): 0},
    [{"p": "1/3", "s": [Fraction(1)]}] * (2 * RUN),
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
    mu = from_support(4, [((0, 1), Fraction(1, 3)), ((0, 2), Fraction(1, 3)),
                          ((0, 3), sixth), ((1, 2), sixth)])
    blob = json.loads(dumps(distribution_to_json(mu)))
    assert [entry["prob"] for entry in blob["support"]] == ["1/3", "1/3", "1/6", "1/6"]
    assert blob["support"] == [{"set": list(e), "prob": scalar_to_json(p)} for e, p in pairs(mu)]


def pairs_form(mu) -> dict:
    """distribution_to_json's object with the support as a list of dicts."""
    return {"n": mu.n, "d_mu": mu.d_mu, "support": [
        {"set": list(elems), "prob": scalar_to_json(prob)} for elems, prob in pairs(mu)]}


@st.composite
def distributions(draw):
    """1-40 sets of 0-8 elements of range(n), duplicates allowed, with a few
    distinct Fraction probabilities (sometimes one shared object, sometimes
    equal values as distinct objects), or dyadic floats."""
    d = draw(st.integers(0, 8))
    n = draw(st.integers(max(d, 1), 12) | st.just(10**6))
    count = draw(st.integers(1, 40))
    sets = [draw(st.lists(st.integers(0, min(n, 40) - 1), min_size=d, max_size=d, unique=True))
            for _ in range(count)]
    kind = draw(st.sampled_from(["shared", "fractions", "floats"]))
    if kind == "shared":
        probs = [Fraction(1, count)] * count
    else:
        weights = [draw(st.integers(1, 3)) for _ in range(count)]
        total = sum(weights)
        if kind == "floats":
            total = 1 << (total - 1).bit_length()
            weights[-1] += total - sum(weights)
            probs = [w / total for w in weights]
        else:
            probs = [Fraction(w, total) for w in weights]
    return from_support(n, zip(sets, probs))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(distributions(), st.integers(0, 3))
def test_support_rows_match_json_dumps_of_the_pairs(mu, depth):
    obj, ref = distribution_to_json(mu), pairs_form(mu)
    for _ in range(depth):
        obj, ref = {"distribution": obj, "n": depth}, {"distribution": ref, "n": depth}
    assert dumps(obj) == reference_dumps(ref)


@pytest.mark.parametrize("d", [0, 1, 3])
def test_support_rows_on_a_huge_declared_n(d):
    # The renderer formats the element values it meets, nothing per element
    # of range(n): a support of one set under n = 2**62 is written at once.
    mu = SRDistribution.from_rows(2**62, np.array([list(range(2**62 - d, 2**62))], dtype=np.intp),
                                  [1], 1)
    assert dumps(distribution_to_json(mu)) == reference_dumps(pairs_form(mu))
