"""The array route of subset distributions against the per-set reference.

serialize.set_rows parses the "set" lists into one int array, and
SRDistribution.from_rows validates and orders that array in one numpy
pass.  Every case runs through the file loader
(serialize.distribution_from_json), through from_support
(tests/srdist_helpers.py: set_rows, then from_rows with each probability
as int weights over one denominator, from_probs) and, wherever the sets
form one int array, through from_probs alone.  max_marginal sums integer
weights per element; SRDistribution.members fills its membership matrix
from SRDistribution.sets.  Each is tied here to the straightforward
one-set-at-a-time computation it replaced.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.graphs import complete_graph, diamond_graph, named_graph
from hyperdisc.hyperbolic import DeterminantInstance
from hyperdisc.instances import random_connected_graph
from hyperdisc.mixedchar import AgFamily, SrInstance
from hyperdisc.serialize import distribution_from_json, distribution_to_json, dumps, scalar_to_json
from hyperdisc.solver import brute_force
from hyperdisc.srdist import SRDistribution, max_marginal, uniform_spanning_tree
from srdist_helpers import from_probs, from_support, pairs, probabilities, same_distribution


def reference_from_support(n, items):
    """The per-set validation and ordering; returns (support, d_mu)."""
    norm = []
    sizes = set()
    for elems, prob in items:
        elems = tuple(sorted(int(e) for e in elems))
        if any(not (0 <= e < n) for e in elems):
            raise ValueError("support element out of range")
        if len(set(elems)) != len(elems):
            raise ValueError("support sets cannot repeat elements")
        if not prob > 0:
            raise ValueError("probabilities must be positive")
        sizes.add(len(elems))
        norm.append((elems, prob))
    if not norm:
        raise ValueError("empty support")
    if len(sizes) != 1:
        raise ValueError("distribution is not homogeneous")
    total = sum(Fraction(p) for _, p in norm)  # a float counts as the rational it is
    if total != 1:
        raise ValueError(f"probabilities sum to {total}, not 1")
    norm.sort(key=lambda item: item[0])
    return tuple(norm), sizes.pop()


def reference_max_marginal(mu):
    return max((sum((Fraction(p) for elems, p in pairs(mu) if i in elems), Fraction(0))
                for i in range(mu.n)), default=Fraction(0))


def reference_members(mu):
    members = np.zeros((len(pairs(mu)), mu.n), dtype=bool)
    for r, (elems, _) in enumerate(pairs(mu)):
        members[r, list(elems)] = True
    return members


def as_rows(items):
    """The sets as one (N, d) intp array with the probabilities, or None when
    they are not one int array (no sets, a non-int element or unequal sizes)."""
    sets = [list(elems) for elems, _ in items]
    if not sets or len(set(map(len, sets))) != 1 or {type(e) for s in sets for e in s} - {int}:
        return None
    return np.array(sets, dtype=np.intp).reshape(len(sets), len(sets[0])), [p for _, p in items]


def loaded(n, items):
    """The distribution the file loader reads from the pairs written as a
    file's "distribution" object (a float probability is read as the
    rational it is)."""
    return distribution_from_json({"n": n, "support": [
        {"set": list(elems), "prob": scalar_to_json(prob)} for elems, prob in items]})


def assert_same_as_reference(n, items):
    support, d_mu = reference_from_support(n, items)
    mu = from_support(n, items)
    assert pairs(mu) == support and mu.d_mu == d_mu
    from_rows = from_probs(n, *as_rows(items))
    assert same_distribution(from_rows, mu) and np.array_equal(from_rows.sets, mu.sets)
    from_file = loaded(n, items)
    assert same_distribution(from_file, mu) and np.array_equal(from_file.sets, mu.sets)
    assert from_file.weights == mu.weights and from_file.denominator == mu.denominator
    assert mu.sets.dtype == np.intp and type(mu.weights) is tuple
    assert mu.sets.shape == (len(support), d_mu)
    assert mu.sets.tolist() == [list(elems) for elems, _ in support]
    assert max_marginal(mu) == reference_max_marginal(mu)
    assert type(max_marginal(mu)) is Fraction
    # The int weights kept at load give each row's probability over the
    # lcm of the probabilities' denominators.
    fractions = [Fraction(p) for _, p in support]
    assert mu.denominator == math.lcm(*(p.denominator for p in fractions))
    assert all(type(w) is int for w in mu.weights)
    assert [Fraction(w, mu.denominator) for w in mu.weights] == fractions
    return mu


def assert_same_error(n, items):
    with pytest.raises(ValueError) as ref:
        reference_from_support(n, items)
    with pytest.raises(ValueError) as got:
        from_support(n, items)
    assert str(got.value) == str(ref.value)
    with pytest.raises(ValueError) as got:
        loaded(n, items)
    assert str(got.value) == str(ref.value)
    if as_rows(items) is not None:
        with pytest.raises(ValueError) as got:
            from_probs(n, *as_rows(items))
        assert str(got.value) == str(ref.value)


def random_support(rng, n, d, size, floats=False):
    """size sets of d elements of range(n), duplicates allowed, elements in
    random order, as lists or tuples; probabilities sum to exactly one (as
    floats, they are dyadic, so each is exact in binary64)."""
    combos = list(itertools.combinations(range(n), d))
    sets = []
    for _ in range(size):
        elems = list(rng.choice(combos))
        rng.shuffle(elems)
        sets.append(elems if rng.random() < 0.5 else tuple(elems))
    weights = [rng.randint(1, 9) for _ in sets]
    total = sum(weights)
    if floats:
        total = 1 << (total - 1).bit_length()
        weights[-1] += total - sum(weights)
        probs = [w / total for w in weights]
    else:
        probs = [Fraction(w, total) for w in weights]
    return list(zip(sets, probs))


def test_from_support_matches_reference_on_seeded_supports():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(1, 8)
        d = rng.randint(0, n)
        items = random_support(rng, n, d, rng.randint(1, 12), floats=trial % 4 == 3)
        assert_same_as_reference(n, items)


def test_from_support_matches_reference_on_special_supports():
    third = Fraction(1, 3)
    cases = [
        (3, [((), Fraction(1))]),                                  # the empty set
        (2, [((), Fraction(1, 2)), ((), Fraction(1, 2))]),         # twice
        (4, [((2, 1), third), ((1, 2), third), ((0, 3), third)]),  # a duplicate set
        (3, [((2,), 0.25), ((0,), 0.5), ((1,), 0.25)]),            # float probabilities
        (3, [((2,), Fraction(1, 2)), ((0,), 0.5)]),                # a mixture
        (2, [((1,), 1)]),                                          # an int probability
        (5, [((4, 0), Fraction(1))]),
    ]
    for n, items in cases:
        assert_same_as_reference(n, items)
    assert_same_error(2, [((1,), 0.5), ((0,), 0.5 + 1e-13)])  # no float slack
    assert_same_error(3, [((0,), 0.1), ((1,), 0.2), ((2,), 0.7)])   # sums to 1.0 in floats only


@st.composite
def _supports(draw):
    n = draw(st.integers(1, 7))
    d = draw(st.integers(0, n))
    combos = list(itertools.combinations(range(n), d))
    sets = draw(st.lists(st.sampled_from(combos), min_size=1, max_size=10))
    sets = [draw(st.permutations(elems)) for elems in sets]
    weights = draw(st.lists(st.integers(1, 50), min_size=len(sets), max_size=len(sets)))
    total = sum(weights)
    if draw(st.booleans()):
        probs = [Fraction(w, total) for w in weights]
    else:
        probs = [w / total for w in weights]
    return n, list(zip(sets, probs))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_supports())
def test_from_support_matches_reference_property(case):
    n, items = case
    if any(isinstance(p, float) for _, p in items):
        try:
            reference_from_support(n, items)
        except ValueError:
            assert_same_error(n, items)  # a float sum that is not exactly 1
            return
    assert_same_as_reference(n, items)


def _single_faults(rng, n, items):
    """(name, items) pairs, each with one fault injected into a valid support."""
    sets = [list(elems) for elems, _ in items]
    probs = [p for _, p in items]
    d = len(sets[0])
    r = rng.randrange(len(items))

    def with_set(elems):
        return [(elems if i == r else s, p) for i, (s, p) in enumerate(zip(sets, probs))]

    def with_probs(new):
        return list(zip(sets, new))

    faults = [("empty", [])]
    if d >= 1:
        elems = list(sets[r])
        elems[rng.randrange(d)] = rng.choice((n, n + 3, -1))
        faults.append(("out of range", with_set(elems)))
    if d >= 1 and len(items) >= 2:
        faults.append(("not homogeneous", with_set(sets[r][1:])))
    if d >= 2:
        elems = list(sets[r])
        elems[1] = elems[0]
        faults.append(("repeat", with_set(elems)))
    if d < n and len(items) >= 2:
        extra = rng.choice(sorted(set(range(n)) - set(sets[r])))
        faults.append(("not homogeneous", with_set(sets[r] + [extra])))
    if len(items) >= 2:
        j = (r + 1) % len(items)
        for bad in (0, -probs[j]):
            new = list(probs)
            new[r] = probs[r] + probs[j] - bad
            new[j] = bad
            faults.append(("non-positive", with_probs(new)))
    new = list(probs)
    new[r] = probs[r] * 2
    faults.append(("sum", with_probs(new)))
    return faults


def test_from_support_raises_the_reference_message_on_single_faults():
    rng = random.Random(11)
    seen = set()
    for trial in range(200):
        n = rng.randint(1, 7)
        d = rng.randint(0, n)
        items = random_support(rng, n, d, rng.randint(1, 8), floats=trial % 3 == 2)
        for name, bad in _single_faults(rng, n, items):
            assert_same_error(n, bad)
            seen.add(name)
    assert seen == {"empty", "out of range", "repeat", "non-positive", "sum", "not homogeneous"}


@pytest.mark.parametrize("elems", [(0, 1.0), (0, 1.7), (0, True), (False, 1), ("0", 1), (0, None)])
def test_from_support_rejects_non_int_elements(elems):
    for parse in (from_support, loaded):
        with pytest.raises(ValueError, match="support elements must be ints"):
            parse(3, [(elems, Fraction(1))])


def test_from_support_rejects_elements_beyond_int64():
    for parse in (from_support, loaded):
        with pytest.raises(ValueError, match="out of range"):
            parse(3, [((0, 2 ** 70), Fraction(1))])


@pytest.mark.parametrize("rows", [np.array([[0, 1]], dtype=np.int32),
                                  np.array([[0.0, 1.0]]), np.array([[False, True]]),
                                  np.array([0, 1], dtype=np.intp), np.empty((0, 2), dtype=np.intp)],
                         ids=["int32", "float", "bool", "one-dimensional", "no rows"])
def test_from_rows_takes_only_a_non_empty_two_dimensional_intp_array(rows):
    with pytest.raises(ValueError, match=r"non-empty \(N, d\) intp array"):
        SRDistribution.from_rows(3, rows, [1] * len(rows), 1)


def test_equal_supports_give_equal_distributions():
    a = from_support(3, [((0, 1), Fraction(1))])
    b = from_support(3, [([1, 0], Fraction(1))])
    assert same_distribution(a, b)
    assert "sets" not in repr(a)
    assert not a.sets.flags.writeable
    half = Fraction(1, 2)
    others = [from_support(3, [((0, 2), Fraction(1))]), from_support(4, [((0, 1), Fraction(1))]),
              from_support(3, [((0,), half), ((1,), half)]),
              from_support(3, [((0, 1), half), ((0, 2), half)]),
              from_support(3, [((0, 1), Fraction(1, 3)), ((0, 2), Fraction(2, 3))])]
    for i, mu in enumerate(others):
        assert not same_distribution(mu, a)
        assert not any(same_distribution(mu, other) for other in others[i + 1:])
    assert same_distribution(from_support(3, [((0, 1), 0.5), ((0, 2), half)]), others[3])


def test_max_marginal_matches_per_element_sum_on_spanning_trees():
    graphs = [complete_graph(4), diamond_graph(), named_graph("c5"),
              random_connected_graph(7, 10, 2), random_connected_graph(8, 12, 1)]
    for graph in graphs:
        mu = uniform_spanning_tree(graph)
        assert max_marginal(mu) == reference_max_marginal(mu)


def test_max_marginal_sums_big_weights_exactly():
    # Denominators whose lcm overflows int64: the per-element sums stay exact.
    p = [Fraction(1, 2 ** 70 + 1), Fraction(1, 3 ** 45)]
    items = [((0, 1), p[0]), ((1, 2), p[1]), ((0, 2), 1 - p[0] - p[1])]
    mu = assert_same_as_reference(3, items)
    assert max_marginal(mu) == 1 - p[1]


def test_members_match_per_set_loop():
    cases = [SrInstance.from_graph(complete_graph(4)), SrInstance.from_graph(diamond_graph()),
             SrInstance.from_graph(random_connected_graph(7, 10, 1))]
    rng = random.Random(3)
    h = DeterminantInstance(1)
    for trial in range(12):
        n = rng.randint(1, 6)
        mu = from_support(n, random_support(rng, n, rng.randint(0, n), 6))
        cases.append(SrInstance.build(h, mu, [(rng.random(),) for _ in range(n)]))
    for inst in cases:
        members = inst.mu.members
        assert members.dtype == bool and not members.flags.writeable
        assert np.array_equal(members, reference_members(inst.mu))


@pytest.mark.parametrize("graph", [complete_graph(4), diamond_graph(), complete_graph(5),
                                   random_connected_graph(7, 10, 1)],
                         ids=["k4", "diamond", "k5", "random:7:10:1"])
def test_from_support_gives_one_distribution_for_any_input_order(graph):
    mu = uniform_spanning_tree(graph)
    items = list(pairs(mu))
    shuffled = random.Random(5).sample(items, len(items))
    variants = {
        "generated": items,
        "shuffled rows": shuffled,
        "reversed sets": [(elems[::-1], p) for elems, p in items],
        "both, as lists": [(list(elems[::-1]), p) for elems, p in shuffled],
    }
    for name, variant in variants.items():
        for got in (from_support(mu.n, variant),
                    from_probs(mu.n, *as_rows(variant))):
            assert pairs(got) == pairs(mu), name
            assert got.sets.dtype == np.intp and probabilities(got) == probabilities(mu), name
            assert got.sets.tolist() == mu.sets.tolist() and not got.sets.flags.writeable, name


def test_from_support_keeps_duplicate_sets_in_input_order():
    a, b, c = Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)
    cases = [
        ([((0, 1), a), ((0, 1), b), ((0, 2), c)], [((0, 1), a), ((0, 1), b), ((0, 2), c)]),
        ([((0, 2), c), ((1, 0), b), ((0, 1), a)], [((0, 1), b), ((0, 1), a), ((0, 2), c)]),
        ([((0, 1), b), ((0, 2), c), ((0, 1), a)], [((0, 1), b), ((0, 1), a), ((0, 2), c)]),
    ]
    for items, want in cases:
        assert list(pairs(from_support(3, items))) == want


def _set_entry(value):
    def fault(sets, probs):
        sets[5][1] = value
    return fault


def _drop_entry(sets, probs):
    del sets[5][-1]


def _repeat_entry(sets, probs):
    sets[5][1] = sets[5][0]


def _move_weight(sets, probs):
    probs[6] += probs[5]
    probs[5] = 0


def _double_weight(sets, probs):
    probs[5] *= 2


@pytest.mark.parametrize("fault, message", [
    (_set_entry(True), "support elements must be ints"),
    (_set_entry(1.0), "support elements must be ints"),
    (_set_entry(6), "support element out of range"),
    (_set_entry(-1), "support element out of range"),
    (_drop_entry, "distribution is not homogeneous"),
    (_repeat_entry, "support sets cannot repeat elements"),
    (_move_weight, "probabilities must be positive"),
    (_double_weight, "probabilities sum to 17/16, not 1"),
], ids=["bool", "float", "out-of-range", "negative", "ragged", "repeat", "non-positive", "sum"])
@pytest.mark.parametrize("order", ["generated", "shuffled"])
def test_from_support_raises_the_same_message_in_any_order(fault, message, order):
    # k4 has 16 spanning trees of 3 of its 6 edges, each with probability 1/16.
    mu = uniform_spanning_tree(complete_graph(4))
    items = list(pairs(mu))
    if order == "shuffled":
        items = random.Random(2).sample(items, len(items))
    sets = [list(elems) for elems, _ in items]
    probs = [p for _, p in items]
    fault(sets, probs)
    for parse in (from_support, loaded):
        with pytest.raises(ValueError) as err:
            parse(mu.n, zip(sets, probs))
        assert str(err.value) == message
    rows = as_rows(list(zip(sets, probs)))
    if rows is not None:
        with pytest.raises(ValueError) as err:
            from_probs(mu.n, *rows)
        assert str(err.value) == message


@st.composite
def _weighted_rows(draw):
    """(n, rows, weights, denominator): rows of one size in any order,
    weights positive ints summing to the denominator, which may lie far
    past 2^53."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n))
    combos = list(itertools.combinations(range(n), d))
    sets = draw(st.lists(st.sampled_from(combos), min_size=1, max_size=8))
    scale = draw(st.sampled_from([1, 3, 2 ** 53 + 1, 3 ** 40, 2 ** 70 - 1]))
    weights = [w * scale + draw(st.integers(0, scale - 1))
               for w in draw(st.lists(st.integers(1, 9), min_size=len(sets), max_size=len(sets)))]
    return n, np.array(sets, dtype=np.intp).reshape(len(sets), d), weights, sum(weights)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_weighted_rows())
def test_int_weights_give_correctly_rounded_floats_and_round_trip(case):
    n, rows, weights, denominator = case
    mu = SRDistribution.from_rows(n, rows, weights, denominator)
    assert [p.hex() for p in mu.float_probs.tolist()] == \
        [float(Fraction(w, mu.denominator)).hex() for w in mu.weights]
    assert sorted(probabilities(mu)) == sorted(Fraction(w, denominator) for w in weights)
    assert math.gcd(mu.denominator, *mu.weights) == 1  # lowest terms
    assert not mu.float_probs.flags.writeable and not mu.members.flags.writeable
    text = dumps(distribution_to_json(mu))
    assert same_distribution(distribution_from_json(json.loads(text)), mu)
    assert dumps(distribution_to_json(distribution_from_json(json.loads(text)))) == text
    bad = list(weights)
    bad[0] = -bad[0] if len(bad) == 1 else 0
    with pytest.raises(ValueError, match="^probabilities must be positive$"):
        SRDistribution.from_rows(n, rows, bad, denominator)
    with pytest.raises(ValueError, match=r"^probabilities sum to \d+/\d+, not 1$"):
        SRDistribution.from_rows(n, rows, weights, denominator + 1)
    with pytest.raises(ValueError, match=f"^{len(weights) + 1} weights for {len(weights)} support sets$"):
        SRDistribution.from_rows(n, rows, weights + [1], denominator + 1)


def test_feasible_leaves_the_leaf_table_unbuilt():
    # feasible reads the membership matrix only.
    inst = SrInstance.from_graph(complete_graph(4))
    assert AgFamily(inst).feasible((1, 0, 1))
    assert "leaf_table" not in inst.__dict__


def test_brute_force_leaves_the_leaf_table_unbuilt():
    inst = SrInstance.from_graph(complete_graph(4))
    brute_force(inst, "ag")
    assert "leaf_table" not in inst.__dict__
