"""Seeded builders for problem instances.

All randomness is drawn from string-seeded streams so that a (kind, seed)
pair reproduces the same instance on any platform.  Rational data is used
wherever exactness matters downstream: determinant instances carry small
integer rank-1 generators, the quadratic-form instances use Pythagorean
triples so boundary (rank-1) vectors stay rational.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InvalidParams
from .graphs import Graph, require_enumerable
from .hyperbolic import determinant, lorentz
from .mixedchar import KlsInstance, RandomVar

# _variable_list swaps in a Rademacher variable once the product of the
# support sizes would pass this count.  No computation is bounded by it, but
# the swap decides which variables gen draws: changing the value changes
# gen's output for the same seed.
MAX_BRANCHES = 4096

PYTHAGOREAN_TRIPLES = (
    (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (1, 0, 1),
)

VARIABLE_KINDS = ("rademacher", "biased", "threepoint")


def make_variable(kind: str, rng: random.Random) -> RandomVar:
    if kind == "rademacher":
        return RandomVar.rademacher()
    if kind == "biased":
        p = Fraction(rng.randint(1, 7), 8)
        return RandomVar((Fraction(1), Fraction(-1)), (p, 1 - p))
    if kind == "threepoint":
        a = Fraction(rng.randint(1, 3), 8)
        b = Fraction(rng.randint(1, 3), 8)
        mid = 1 - a - b
        support = (Fraction(-1), Fraction(rng.randint(0, 1)), Fraction(2))
        if len(set(support)) < 3:
            support = (Fraction(-1), Fraction(0), Fraction(2))
        return RandomVar(support, (a, mid, b))
    raise InvalidParams(f"unknown variable kind {kind!r}")


def _variable_list(n: int, kinds: str, rng: random.Random) -> list:
    chosen = []
    for _ in range(n):
        kind = rng.choice(VARIABLE_KINDS) if kinds == "mixed" else kinds
        var = make_variable(kind, rng)
        if math.prod(len(v.support) for v in chosen) * len(var.support) > MAX_BRANCHES:
            var = make_variable("rademacher", rng)
        chosen.append(var)
    return chosen


def gen_kls_det(n: int, mprime: int, seed: int, variables: str = "mixed") -> KlsInstance:
    """Determinant instance from random small-integer rank-1 generators.

    Any n is accepted: the blocked search reads its nodes off the integer
    coefficient table, whose size grows like n^mprime, not 2^n.  Brute
    force keeps its own cap (solver.MAX_BRUTE_BRANCHES).
    """
    if n < 1 or mprime < 1:
        raise InvalidParams("need n >= 1 and mprime >= 1")
    rng = random.Random(f"kls-det:{seed}")
    h = determinant(mprime)
    gens = []
    for _ in range(n):
        u = [Fraction(rng.randint(-2, 2)) for _ in range(mprime)]
        if not any(u):
            u[rng.randrange(mprime)] = Fraction(rng.choice((-2, -1, 1, 2)))
        gens.append(tuple(u))
    vecs = [h.vec_outer(u) for u in gens]
    vars_ = _variable_list(n, variables, rng)
    return KlsInstance.build(h, vecs, vars_, generators=gens)


def gen_kls_lorentz(n: int, m: int, seed: int, variables: str = "mixed") -> KlsInstance:
    """Quadratic-form instance with rational boundary (rank-1) cone vectors."""
    if n < 1 or m < 3:
        raise InvalidParams("need n >= 1 and m >= 3")
    rng = random.Random(f"kls-lorentz:{seed}")
    h = lorentz(m)
    vecs = []
    for _ in range(n):
        a, b, c = PYTHAGOREAN_TRIPLES[rng.randrange(len(PYTHAGOREAN_TRIPLES))]
        vec = [Fraction(0)] * m
        spots = rng.sample(range(m - 1), 2)
        vec[spots[0]] = Fraction(a if rng.random() < 0.5 else -a)
        vec[spots[1]] = Fraction(b if rng.random() < 0.5 else -b)
        vec[m - 1] = Fraction(c)
        denom = rng.randint(1, 4)
        vecs.append(tuple(x / denom for x in vec))
    vars_ = _variable_list(n, variables, rng)
    return KlsInstance.build(h, vecs, vars_)


def random_connected_graph(n_vertices: int, n_edges: int, seed: int) -> Graph:
    """Random spanning tree plus random extra edges; simple and connected.

    An edge count past graphs.MAX_ENUM_EDGES is refused before the O(V^2)
    candidate list is built, with the TooLarge that Graph.spanning_trees
    would raise later: a subset family needs every spanning tree."""
    if n_vertices < 2:
        raise InvalidParams("need at least 2 vertices")
    max_edges = n_vertices * (n_vertices - 1) // 2
    if not (n_vertices - 1 <= n_edges <= max_edges):
        raise InvalidParams(
            f"edge count must lie in [{n_vertices - 1}, {max_edges}]")
    require_enumerable(n_edges)
    rng = random.Random(f"graph:{seed}")
    edges = set()
    order = list(range(1, n_vertices))
    rng.shuffle(order)
    attached = [0]
    for v in order:
        u = rng.choice(attached)
        edges.add((min(u, v), max(u, v)))
        attached.append(v)
    candidates = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    while len(edges) < n_edges and candidates:
        edges.add(candidates.pop())
    return Graph(n_vertices, tuple(sorted(edges)))
