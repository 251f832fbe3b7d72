"""SR distributions: spanning trees, the marginal formula, resistance vectors."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import cli, srdist
from hyperdisc.errors import DisconnectedGraph, IndexOutOfRange
from hyperdisc.graphs import Graph, complete_graph, diamond_graph, path_graph
from hyperdisc.hyperbolic import hyperbolic_traces, spectrum
from hyperdisc.mixedchar import SrInstance
from hyperdisc.srdist import (
    effective_resistance_family,
    marginal_via_enum,
    marginal_via_formula,
    max_marginal,
    uniform_spanning_tree,
)
from srdist_helpers import (from_support, generating_polynomial, marginal_via_multipoly, pairs,
                            same_distribution)
from stability_oracle import stability_test

K3 = complete_graph(3)


def test_ust_k3():
    mu = uniform_spanning_tree(K3)
    assert len(pairs(mu)) == 3
    assert all(p == Fraction(1, 3) for _, p in pairs(mu))
    assert mu.d_mu == 2
    assert stability_test(generating_polynomial(mu), trials=32).passed


def test_ust_diamond_matches_fixture_monomials():
    mu = uniform_spanning_tree(diamond_graph())
    assert len(pairs(mu)) == 8
    # Edge indices 0=ab 1=ac 2=bd 3=cd 4=bc.
    expect = {(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2),
              (1, 2, 4), (0, 3, 4), (1, 3, 4), (0, 2, 4)}
    assert {elems for elems, _ in pairs(mu)} == expect


def test_ust_path_is_point_mass():
    mu = uniform_spanning_tree(path_graph(3))
    assert len(pairs(mu)) == 1
    assert pairs(mu)[0][1] == 1


def test_ust_disconnected_raises():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraph):
        uniform_spanning_tree(g)


def test_marginal_enum_k3():
    mu = uniform_spanning_tree(K3)
    assert marginal_via_enum(mu, {0}, 1) == Fraction(2, 3)
    assert marginal_via_enum(mu, set(), 0) == 1


def test_marginal_enum_point_mass():
    mu = from_support(3, [((0, 1), Fraction(1))])
    assert marginal_via_enum(mu, {0}, 2) == 0  # T cap [2] is {0,1}, not {0}
    assert marginal_via_enum(mu, {0, 1}, 2) == 1


def test_marginal_formula_k3():
    mu = uniform_spanning_tree(K3)
    assert marginal_via_formula(mu, {0}, 1, Fraction(1)) == Fraction(2, 3)
    assert marginal_via_formula(mu, set(), 0, Fraction(2)) == 1


def test_marginal_formula_int_x0_is_exact():
    mu = uniform_spanning_tree(K3)
    for x0 in (3, 1, -2):
        got = marginal_via_formula(mu, {0}, {0}, x0)
        assert isinstance(got, Fraction) and got == Fraction(2, 3)
    for s in (set(), {0}, {1}, {0, 1}):
        assert marginal_via_formula(mu, s, 2, 2) == marginal_via_enum(mu, s, 2)


def test_marginal_formula_diamond_edge5():
    mu = uniform_spanning_tree(diamond_graph())
    # Edge label 5 (index 4) appears in 4 of the 8 trees; observe just it.
    assert marginal_via_formula(mu, {4}, {4}, Fraction(2)) == Fraction(1, 2)
    assert marginal_via_enum(mu, {4}, {4}) == Fraction(1, 2)


def test_marginal_formula_matches_enum_everywhere():
    for graph in (K3, diamond_graph()):
        mu = uniform_spanning_tree(graph)
        for k in range(mu.n + 1):
            for mask in range(1 << k):
                s = {i for i in range(k) if mask >> i & 1}
                expect = marginal_via_enum(mu, s, k)
                for x0 in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
                    assert marginal_via_formula(mu, s, k, x0) == expect


@st.composite
def _homogeneous_case(draw):
    """A homogeneous distribution on n <= 6, an observed set K, S within K, x0."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n))
    sets = list(itertools.combinations(range(n), d))
    chosen = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets), unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(chosen), max_size=len(chosen)))
    total = sum(weights)
    mu = from_support(n, [(elems, Fraction(w, total)) for elems, w in zip(chosen, weights)])
    observed = draw(st.sets(st.integers(0, n - 1)))
    s = draw(st.sets(st.sampled_from(sorted(observed)))) if observed else set()
    x0 = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
    return mu, s, observed, x0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_homogeneous_case())
def test_marginal_formula_equals_enum_property(case):
    mu, s, observed, x0 = case
    assert marginal_via_formula(mu, s, observed, x0) == marginal_via_enum(mu, s, observed)


def test_marginal_formula_float_x0_is_the_rational_it_is():
    mu = uniform_spanning_tree(K3)
    for x0 in (0.5, 0.1, -3.0):
        got = marginal_via_formula(mu, {0}, {0}, x0)
        assert isinstance(got, Fraction) and got == Fraction(2, 3)


@pytest.mark.parametrize("s, k", [(set(), 10), (set(), -1), ({-1}, {-1}), (set(), {0, 3})])
def test_observed_set_outside_the_ground_set_raises_on_both_routes(s, k):
    mu = uniform_spanning_tree(K3)
    with pytest.raises(IndexOutOfRange):
        marginal_via_enum(mu, s, k)
    with pytest.raises(IndexOutOfRange):
        marginal_via_formula(mu, s, k, Fraction(2))


@pytest.mark.parametrize("s, k", [({1.5}, {1}), ({"1"}, {1}), ({1}, {1.5}), (set(), {"0"}),
                                  ({Fraction(1)}, 2)])
def test_non_integral_elements_raise_on_both_routes(s, k):
    # Neither route truncates an element: {1.5} is not {1}.
    mu = uniform_spanning_tree(diamond_graph())
    with pytest.raises(TypeError):
        marginal_via_enum(mu, s, k)
    with pytest.raises(TypeError):
        marginal_via_formula(mu, s, k, Fraction(2))


@st.composite
def _rational_case(draw):
    """A homogeneous distribution on n <= 6 with probabilities of unrelated
    denominators, K, S within K, and x0 negative, fractional or binary64."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n))
    sets = list(itertools.combinations(range(n), d))
    chosen = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets), unique=True))
    probs = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 12))) for _ in chosen[1:]]
    while sum(probs) >= 1:
        probs = [p / 2 for p in probs]
    mu = from_support(n, list(zip(chosen, [1 - sum(probs)] + probs)))
    observed = draw(st.sets(st.integers(0, n - 1)))
    s = draw(st.sets(st.sampled_from(sorted(observed)))) if observed else set()
    x0 = draw(st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(bool),
        st.sampled_from([-1, -3, 2 ** 70, -(2.0 ** -40)])))
    return mu, s, observed, x0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_rational_case())
def test_integer_formula_equals_the_multipoly_formula_and_enum(case):
    mu, s, observed, x0 = case
    got = marginal_via_formula(mu, s, observed, x0)
    assert type(got) is Fraction
    assert got == marginal_via_multipoly(mu, s, observed, x0)
    assert got == marginal_via_enum(mu, s, observed)


@st.composite
def _query_sequence(draw):
    """A distribution and queries whose sorted observed sets share prefixes
    of one trunk and then diverge; x0 comes from a small pool so prefixes
    repeat under the same x0."""
    mu, _, _, _ = draw(_homogeneous_case())
    trunk = sorted(draw(st.sets(st.integers(0, mu.n - 1))))
    trunk_s = draw(st.sets(st.sampled_from(trunk))) if trunk else set()
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        cut = draw(st.integers(0, len(trunk)))
        floor = trunk[cut - 1] + 1 if cut else 0
        tail = draw(st.sets(st.integers(floor, mu.n - 1))) if floor < mu.n else set()
        s = (trunk_s & set(trunk[:cut])) | (draw(st.sets(st.sampled_from(sorted(tail)))) if tail else set())
        x0 = draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3))))
        queries.append((s, set(trunk[:cut]) | tail, x0))
    return mu, queries


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_query_sequence())
def test_stored_prefixes_give_the_fresh_answer(case):
    mu, queries = case
    for s, observed, x0 in queries:
        fresh = from_support(mu.n, pairs(mu))
        got = marginal_via_formula(mu, s, observed, x0)
        assert got == marginal_via_formula(fresh, s, observed, x0)
        assert got == marginal_via_enum(mu, s, observed)


def test_suite_marginals_applies_each_operator_prefix_once(monkeypatch):
    builds = []
    apply = srdist._apply_operator
    monkeypatch.setattr(srdist, "_apply_operator",
                        lambda p, i, in_s, a, b: builds.append(i) or apply(p, i, in_s, a, b))
    assert all(check["passed"] for check in cli._suite_marginals(0))
    first = len(builds)
    # 76 edges of the prefix tree over k3 and diamond, for each of 4 values of x0.
    assert 0 < first <= 304
    # Fresh distributions start from an empty store: no process-wide cache.
    cli._suite_marginals(0)
    assert len(builds) == 2 * first


def test_queried_distribution_equals_a_fresh_one():
    mu = uniform_spanning_tree(diamond_graph())
    for k in range(mu.n + 1):
        marginal_via_formula(mu, set(range(0, k, 2)), k, Fraction(2))
    fresh = uniform_spanning_tree(diamond_graph())
    assert mu._operator_nodes and not fresh._operator_nodes
    assert same_distribution(mu, fresh)


def test_marginals_sum_to_one():
    mu = uniform_spanning_tree(diamond_graph())
    for k in range(mu.n + 1):
        total = sum(marginal_via_enum(mu, {i for i in range(k) if mask >> i & 1}, k)
                    for mask in range(1 << k))
        assert total == 1


def test_marginal_formula_on_products_and_conditionings():
    # Independent unions on disjoint ground sets and conditionings on one
    # element keep a distribution homogeneous SR.
    rng = random.Random(31)
    base1 = uniform_spanning_tree(K3)
    base2 = uniform_spanning_tree(path_graph(3))
    product = from_support(base1.n + base2.n, [
        (e1 + tuple(x + base1.n for x in e2), p1 * p2)
        for e1, p1 in pairs(base1) for e2, p2 in pairs(base2)])
    for trial in range(8):
        mu = product
        if rng.random() < 0.5:
            i = rng.randrange(mu.n)
            present = rng.random() < 0.5
            kept = [(elems, p) for elems, p in pairs(mu) if (i in elems) == present]
            if kept:
                total = sum(p for _, p in kept)
                mu = from_support(mu.n, [(e, p / total) for e, p in kept])
        k = rng.randint(0, min(mu.n, 4))
        for mask in range(1 << k):
            s = {i for i in range(k) if mask >> i & 1}
            expect = marginal_via_enum(mu, s, k)
            got = marginal_via_formula(mu, s, k, Fraction(2))
            assert got == expect


def test_max_marginal():
    assert max_marginal(uniform_spanning_tree(K3)) == Fraction(2, 3)
    point = from_support(2, [((0,), Fraction(1))])
    assert max_marginal(point) == 1
    # Diamond graph: edges 1-4 sit in 5 of 8 trees, edge 5 in 4 of 8.
    assert max_marginal(uniform_spanning_tree(diamond_graph())) == Fraction(5, 8)


def test_heterogeneous_support_rejected():
    with pytest.raises(ValueError):
        from_support(3, [((0,), Fraction(1, 2)), ((0, 1), Fraction(1, 2))])


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        from_support(2, [((0,), Fraction(1, 3))])


def test_effective_resistance_k3():
    fam = effective_resistance_family(K3)
    assert len(fam.vectors) == 3
    for vec in fam.vectors:
        assert spectrum(fam.h, vec).norm == pytest.approx(2 / 3, abs=1e-9)
    assert SrInstance.from_graph(K3).eps2 == pytest.approx(2 / 3, abs=1e-9)


def test_effective_resistance_k4():
    fam = effective_resistance_family(complete_graph(4))
    for vec in fam.vectors:
        assert spectrum(fam.h, vec).norm == pytest.approx(1 / 2, abs=1e-9)


def test_effective_resistance_single_edge():
    fam = effective_resistance_family(path_graph(2))
    assert len(fam.vectors) == 1
    assert fam.vectors[0] == pytest.approx((1.0,), abs=1e-9)
    assert SrInstance.from_graph(path_graph(2)).eps2 == pytest.approx(1.0, abs=1e-9)


def test_effective_resistance_trace_identity():
    # Foster: total effective resistance over edges is |V| - 1.
    for graph in (K3, complete_graph(4), diamond_graph(), path_graph(5)):
        fam = effective_resistance_family(graph)
        total = sum(map(float, hyperbolic_traces(fam.h, fam.vectors)))
        assert total == pytest.approx(graph.n_vertices - 1, abs=1e-8)


def test_effective_resistance_rank_one():
    fam = effective_resistance_family(diamond_graph())
    for vec in fam.vectors:
        sp = spectrum(fam.h, vec)
        assert sp.eigenvalues[1:] == pytest.approx((0.0,) * (fam.h.d - 1), abs=1e-9)
        # Rank-1 cone vectors: norm equals trace, the sum of the eigenvalues.
        trace = float(hyperbolic_traces(fam.h, [vec])[0])
        assert trace == pytest.approx(sum(sp.eigenvalues), abs=1e-9)
        assert sp.norm == pytest.approx(trace, abs=1e-9)
