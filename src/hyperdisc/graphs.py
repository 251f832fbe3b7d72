"""Undirected simple graphs (no self-loops, no repeated edges) with at
least two vertices and labeled edges.

An edge is named by its 0-based position in the edge list: spanning trees
are rows of these indices, and a spanning-tree distribution's ground set is
range(n_edges).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import det_exact
from .errors import DisconnectedGraph, TooLarge

# The level loop of Graph.spanning_trees holds at most C(16, j) forests of j
# edges at once, 12,870 at j = 8.
MAX_ENUM_EDGES = 16


def require_enumerable(n_edges: int) -> None:
    """TooLarge for an edge count past MAX_ENUM_EDGES."""
    if n_edges > MAX_ENUM_EDGES:
        raise TooLarge(f"spanning-tree enumeration capped at {MAX_ENUM_EDGES} edges")


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
        """Whether every vertex is reached from vertex 0.  Fewer than
        n_vertices - 1 edges cannot connect the graph, which is decided
        before any adjacency list is built."""
        if self.n_edges < self.n_vertices - 1:
            return False
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

    def spanning_trees(self) -> np.ndarray:
        """All spanning trees as an (N, n_vertices - 1) intp array, each row
        the sorted 0-based edge indices of one tree, rows in lexicographic
        order.

        Built one level at a time.  Level j holds every forest of j edges
        with at least n_vertices - 1 - j edges after its last one, as rows
        of per-vertex component labels, in lexicographic order of their
        edges.  A forest is extended by each later edge that joins two of
        its components and leaves enough edges after it to reach
        n_vertices - 1.  One nonzero over the forests x edges mask picks the
        extensions in row-major order, so the next level is lexicographic
        too, and one where merges the two components of each new edge.  A
        forest that its later edges cannot complete is not pruned early: it
        drops out at the first level where it has no extension.
        """
        require_enumerable(self.n_edges)
        if not self.is_connected():
            raise DisconnectedGraph("graph is not connected")
        k, m = self.n_vertices - 1, self.n_edges
        ends_u, ends_v = np.array(self.edges, dtype=np.intp).T
        edge = np.arange(m)
        labels = np.arange(self.n_vertices)[None, :]
        trees = np.empty((1, 0), dtype=np.intp)
        last = -1
        for j in range(k):
            stop = m - k + j + 1  # edges before stop leave the k - j - 1 a tree still needs
            cu, cv = labels[:, ends_u[:stop]], labels[:, ends_v[:stop]]
            rows, cols = ((cu != cv) & (edge[:stop] > last)).nonzero()
            trees = np.concatenate((trees[rows], cols[:, None]), axis=1)
            if j < k - 1:
                labels = labels[rows]
                absorbed = labels == cv[rows, cols][:, None]
                labels = np.where(absorbed, cu[rows, cols][:, None], labels)
                last = cols[:, None]
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
    """K4 minus one edge.

    Vertices a,b,c,d = 0,1,2,3; edges 0=ab, 1=ac, 2=bd, 3=cd, 4=bc.  The
    only non-tree edge triples are {0,1,4} and {2,3,4}, so the graph has
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
