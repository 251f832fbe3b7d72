"""Undirected simple graphs (no self-loops, no repeated edges) with at
least two vertices and labeled edges.

Edge labels are 1-based positions in the edge list; polynomial fixtures and
spanning-tree distributions index their variables by these labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._exact import det_exact
from .errors import DisconnectedGraph, TooLarge

MAX_ENUM_EDGES = 16


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple

    def __post_init__(self):
        if self.n_vertices < 2:
            raise ValueError("a graph needs at least 2 vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not supported")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError("edge endpoint out of range")
        if len({frozenset(e) for e in self.edges}) != len(self.edges):
            raise ValueError("repeated edges are not supported")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.n_vertices

    def laplacian(self) -> list:
        lap = [[0] * self.n_vertices for _ in range(self.n_vertices)]
        for u, v in self.edges:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
        return lap

    def spanning_trees(self) -> list:
        """All spanning trees as sorted tuples of 0-based edge indices, in
        lexicographic order.

        A backtracking over edge indices in increasing order: each branch
        carries a component label per vertex, skips an edge whose endpoints
        already share a label (it would close a cycle), and stops when too
        few edges remain to reach n_vertices - 1.  Every branch is a forest,
        so only acyclic edge sets are visited, not all (n_vertices - 1)-subsets.
        """
        if not self.is_connected():
            raise DisconnectedGraph("graph is not connected")
        if self.n_edges > MAX_ENUM_EDGES:
            raise TooLarge(f"spanning-tree enumeration capped at {MAX_ENUM_EDGES} edges")
        edges, k, m = self.edges, self.n_vertices - 1, self.n_edges
        trees = []

        def extend(chosen, comp, start):
            leaf = len(chosen) == k - 1
            for i in range(start, m - k + len(chosen) + 1):
                u, v = edges[i]
                cu, cv = comp[u], comp[v]
                if cu != cv:
                    if leaf:
                        trees.append((*chosen, i))
                    else:
                        extend((*chosen, i), [cu if c == cv else c for c in comp], i + 1)

        extend((), list(range(self.n_vertices)), 0)
        return trees

    def spanning_tree_count_matrix_tree(self) -> int:
        """Kirchhoff count: any cofactor of the Laplacian, evaluated exactly."""
        lap = self.laplacian()
        minor = [row[1:] for row in lap[1:]]
        val = det_exact(minor) if minor else Fraction(1)
        return int(val)

    def to_json(self) -> dict:
        return {"vertices": self.n_vertices, "edges": [[u, v] for u, v in self.edges]}

    @staticmethod
    def from_json(obj: dict) -> "Graph":
        """The vertex count and every endpoint must be JSON ints (a bool is
        not one), the rule a subset distribution's "set" lists follow."""
        n_vertices = obj["vertices"]
        edges = tuple((u, v) for u, v in obj["edges"])
        if not set(map(type, [n_vertices, *(x for e in edges for x in e)])) <= {int}:
            raise ValueError("vertices and edge endpoints must be ints")
        return Graph(n_vertices, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def diamond_graph() -> Graph:
    """K4 minus one edge, with the edge labeling used by the built-in fixtures.

    Vertices a,b,c,d = 0,1,2,3; edges 1=ab, 2=ac, 3=bd, 4=cd, 5=bc.  The
    only non-tree edge triples are {1,2,5} and {3,4,5}, so the graph has
    exactly 8 spanning trees.
    """
    return Graph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (1, 2)))


NAMED_GRAPHS = {
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "diamond": diamond_graph,
    "p2": lambda: path_graph(2),
    "p3": lambda: path_graph(3),
    "p4": lambda: path_graph(4),
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
}


def named_graph(name: str) -> Graph:
    try:
        return NAMED_GRAPHS[name]()
    except KeyError:
        raise ValueError(f"unknown graph name {name!r}; choices: {sorted(NAMED_GRAPHS)}")
