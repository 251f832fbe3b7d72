"""Spanning-tree enumeration against the all-subsets reference, the uniform
spanning-tree distribution against the parsed route, and the graph checks
at construction."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.cli import _resolve_graph
from hyperdisc.errors import TooLarge
from hyperdisc.graphs import (MAX_ENUM_EDGES, NAMED_GRAPHS, Graph, complete_graph, named_graph,
                              path_graph)
from hyperdisc.srdist import SRDistribution, max_marginal, uniform_spanning_tree

from srdist_helpers import from_support
from test_cli import SR_SEARCH_GRAPHS


def reference_spanning_trees(graph: Graph) -> list:
    """Every (n_vertices - 1)-subset of edge indices, in combinations order,
    kept when a fresh union-find finds no cycle in it."""
    trees = []
    for combo in itertools.combinations(range(graph.n_edges), graph.n_vertices - 1):
        parent = list(range(graph.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in combo:
            u, v = graph.edges[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            trees.append(tuple(combo))
    return trees


def assert_matches_reference(graph: Graph):
    trees = graph.spanning_trees()
    assert trees.dtype == np.intp
    assert trees.shape == (len(trees), graph.n_vertices - 1)
    assert list(map(tuple, trees.tolist())) == reference_spanning_trees(graph)
    assert len(trees) == graph.spanning_tree_count_matrix_tree()


def assert_distribution_matches_parsed(graph: Graph):
    """uniform_spanning_tree hands its array to SRDistribution.from_rows;
    parsing the same trees as tuples gives the same distribution."""
    trees = graph.spanning_trees()
    mu = uniform_spanning_tree(graph)
    parsed = from_support(graph.n_edges,
                          [(tuple(r), Fraction(1, len(trees))) for r in trees.tolist()])
    assert mu == parsed
    assert np.array_equal(mu.sets, parsed.sets) and mu.sets.dtype == parsed.sets.dtype
    assert max_marginal(mu) == max_marginal(parsed)
    assert set(mu.weights) == {1} and mu.denominator == len(trees)


# A 16-edge tree on 17 vertices (one tree, one forest per level) and a dense
# 16-edge graph on 7 vertices (C(16, 6) candidate edge sets).
EXTRA_GRAPHS = {"tree17": path_graph(MAX_ENUM_EDGES + 1),
                "dense7": Graph(7, complete_graph(7).edges[:MAX_ENUM_EDGES])}
ALL_GRAPHS = [*(named_graph(name) for name in sorted(NAMED_GRAPHS)),
              *map(_resolve_graph, SR_SEARCH_GRAPHS), *EXTRA_GRAPHS.values()]
ALL_IDS = [*sorted(NAMED_GRAPHS), *SR_SEARCH_GRAPHS, *EXTRA_GRAPHS]


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_named_graph_trees_match_reference(name):
    assert_matches_reference(named_graph(name))


@pytest.mark.parametrize("spec", SR_SEARCH_GRAPHS)
def test_sr_search_graph_trees_match_reference(spec):
    assert_matches_reference(_resolve_graph(spec))


@pytest.mark.parametrize("name", EXTRA_GRAPHS)
def test_sixteen_edge_graph_trees_match_reference(name):
    assert_matches_reference(EXTRA_GRAPHS[name])


@pytest.mark.parametrize("graph", [path_graph(2), path_graph(4), EXTRA_GRAPHS["tree17"]],
                         ids=["p2", "p4", "tree17"])
def test_a_tree_is_its_one_spanning_tree(graph):
    trees = graph.spanning_trees()
    assert trees.dtype == np.intp
    assert trees.tolist() == [list(range(graph.n_edges))]


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=ALL_IDS)
def test_uniform_spanning_tree_equals_the_parsed_distribution(graph):
    assert_distribution_matches_parsed(graph)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on shuffled labels, extra edges up to
    MAX_ENUM_EDGES in all, and a shuffled edge list with random orientation."""
    n = draw(st.integers(2, 9))
    labels = draw(st.permutations(range(n)))
    tree = {frozenset((labels[v], labels[draw(st.integers(0, v - 1))])) for v in range(1, n)}
    others = [frozenset(p) for p in itertools.combinations(range(n), 2)
              if frozenset(p) not in tree]
    room = min(len(others), MAX_ENUM_EDGES - len(tree))
    extra = draw(st.lists(st.sampled_from(others), max_size=room, unique=True)) if room else []
    edges = draw(st.permutations(sorted(tuple(sorted(e)) for e in tree | set(extra))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(connected_graphs())
def test_random_graph_trees_match_reference(graph):
    assert_matches_reference(graph)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(connected_graphs())
def test_random_graph_distribution_equals_the_parsed_distribution(graph):
    assert_distribution_matches_parsed(graph)


def test_seventeen_edges_is_too_large():
    graph = Graph(7, complete_graph(7).edges[:MAX_ENUM_EDGES + 1])
    assert graph.is_connected()
    with pytest.raises(TooLarge):
        graph.spanning_trees()


@pytest.mark.parametrize("n_vertices, edges, match", [
    (1, (), "at least 2 vertices"),
    (-1, (), "at least 2 vertices"),
    (3, ((0, 1), (0, 1)), "repeated edges"),
    (3, ((0, 1), (1, 2), (1, 0)), "repeated edges"),
])
def test_graph_rejects_fewer_than_two_vertices_and_repeated_edges(n_vertices, edges, match):
    with pytest.raises(ValueError, match=match):
        Graph(n_vertices, edges)


@pytest.mark.parametrize("obj", [
    {"vertices": 3.0, "edges": [[0, 1], [1, 2]]},
    {"vertices": True, "edges": []},
    {"vertices": 3, "edges": [[0, 1], [1, 2.7]]},
    {"vertices": 3, "edges": [[0, 1], [True, 2]]},
], ids=["float-vertices", "bool-vertices", "float-endpoint", "bool-endpoint"])
def test_from_json_requires_ints(obj):
    with pytest.raises(ValueError, match="must be ints"):
        Graph.from_json(obj)
