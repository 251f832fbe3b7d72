"""Homogeneous strongly Rayleigh distributions over subsets of [n].

A distribution is strongly Rayleigh (SR) when its generating polynomial
g(z) = sum_S mu(S) z^S is real stable; homogeneous when every support set
has the same size d.  Marginals of homogeneous SR distributions admit a
derivative formula on the generating polynomial,

    Pr[T cap [k] = S] = x^(|S|-d) * prod_{i in S} d/dz_i
                        prod_{i in [k]\\S} (1 - x d/dz_i) g(x 1 + z) | z=0,

whose value is independent of the dummy scalar x != 0.  Derivatives commute
with the shift, so the operators are applied to g and the result is read at
x 1.  The operators have constant coefficients and commute with each other,
so they are applied in sorted order of K, and each distribution keeps every
operator prefix it has built for a given x: a query that shares a prefix
with an earlier one starts from the stored polynomial.  Both the formula and
a direct support-sum oracle are provided so they can be checked against each
other exactly.

The uniform spanning-tree distribution (enumerated by a backtracking over
forests, Graph.spanning_trees, with a matrix-tree cross-check) and the
effective-resistance vector family it pairs with are built here as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DisconnectedGraph, IndexOutOfRange
from .graphs import Graph
from .hyperbolic import DeterminantInstance
from .realstable import MultiPoly
from .scalars import ISOTROPY_TOL, LAPLACIAN_ZERO_TOL


@dataclass(frozen=True)
class SRDistribution:
    """``support`` holds (sorted element tuple, probability) pairs, ordered
    by element tuple; ``sets`` holds the same tuples as one read-only (N, d)
    int array, row r for support[r], and takes no part in equality."""

    n: int
    support: tuple
    d_mu: int
    sets: np.ndarray = field(compare=False, repr=False)

    @staticmethod
    def from_support(n: int, items) -> "SRDistribution":
        """Build and validate a homogeneous distribution.

        ``items`` is an iterable of (elements, probability); elements must
        be ints.  Probabilities must be positive and sum to exactly one, a
        binary64 probability counting as the rational it is.  Real stability
        is assumed, not checked.  Sets are sorted, and the rows stably put in
        lexicographic order, only when they are not already.
        """
        items = list(items)
        if not items:
            raise ValueError("empty support")
        sets, probs = zip(*items)
        flat = list(chain.from_iterable(sets))
        if not set(map(type, flat)) <= {int}:
            raise ValueError("support elements must be ints")
        try:
            elems = np.array(flat, dtype=np.intp)
        except OverflowError:
            raise ValueError("support element out of range") from None
        if elems.size and (elems.min() < 0 or elems.max() >= n):
            raise ValueError("support element out of range")
        sizes = set(map(len, sets))
        if len(sizes) != 1:
            raise ValueError("distribution is not homogeneous")
        d_mu = sizes.pop()
        rows = elems.reshape(len(sets), d_mu)
        in_order = bool((rows[:, 1:] > rows[:, :-1]).all())
        if not in_order:
            rows = np.sort(rows, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():
                raise ValueError("support sets cannot repeat elements")
        weights, denom = _integer_weights(probs)
        if min(weights) <= 0:
            raise ValueError("probabilities must be positive")
        if sum(weights) != denom:
            raise ValueError(f"probabilities sum to {Fraction(sum(weights), denom)}, not 1")
        if not _ascending(rows):
            in_order = False
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            probs = map(probs.__getitem__, order.tolist())
        rows.setflags(write=False)
        # Sets that arrive sorted, in order, are the support's tuples as they are.
        support = tuple(zip(map(tuple, sets if in_order else rows.tolist()), probs))
        return SRDistribution(n, support, d_mu, rows)

    @functools.cached_property
    def generating_polynomial(self) -> MultiPoly:
        """g(z) = sum_S mu(S) z^S, built once per distribution."""
        terms = {}
        for elems, prob in self.support:
            exps = [0] * self.n
            for e in elems:
                exps[e] = 1
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + prob
        return MultiPoly(self.n, terms)

    @functools.cached_property
    def _operator_nodes(self) -> dict:
        """The formula's operator prefixes applied to g, keyed by
        (x0, ((i, i in S), ...)) over a sorted prefix of K."""
        return {}


def _ascending(rows: np.ndarray) -> bool:
    """Whether the rows are in lexicographic order: where two neighbours
    first differ, the later one is larger."""
    diff = np.diff(rows, axis=0)
    if not diff.size:
        return True
    first = (diff != 0).argmax(axis=1)
    return bool((diff[np.arange(len(diff)), first] >= 0).all())


def uniform_spanning_tree(graph: Graph) -> SRDistribution:
    """Uniform distribution over all spanning trees, by enumeration.

    The tree count is cross-checked against the matrix-tree determinant;
    ground-set elements are edge indices.  Spanning-tree distributions are
    homogeneous SR.
    """
    trees = graph.spanning_trees()  # raises DisconnectedGraph / TooLarge
    count = graph.spanning_tree_count_matrix_tree()
    if len(trees) != count:
        raise AssertionError(
            f"enumerated {len(trees)} spanning trees but the matrix-tree "
            f"determinant says {count}"
        )
    prob = Fraction(1, len(trees))
    return SRDistribution.from_support(graph.n_edges, [(tree, prob) for tree in trees])


def _observed_set(k, n: int) -> frozenset:
    """An int k means the prefix [k]; any iterable is taken literally.

    The prefix form is the canonical statement; an arbitrary observed set is
    the same thing after relabeling, and single-element marginals read more
    naturally that way.  A prefix must have 0 <= k <= n and every element
    of a literal set must lie in range(n).
    """
    if isinstance(k, int):
        if not 0 <= k <= n:
            raise IndexOutOfRange(f"prefix [{k}] is not within range({n})")
        return frozenset(range(k))
    observed = frozenset(int(i) for i in k)
    if observed and (min(observed) < 0 or max(observed) >= n):
        raise IndexOutOfRange(f"observed set {sorted(observed)} is not within range({n})")
    return observed


def marginal_via_enum(mu: SRDistribution, s, k):
    """Pr[T cap K = S] by direct support summation (the oracle route)."""
    observed = _observed_set(k, mu.n)
    target = frozenset(s)
    if not target <= observed:
        raise ValueError("S must be a subset of the observed set")
    total = Fraction(0)
    for elems, prob in mu.support:
        if frozenset(elems) & observed == target:
            total = total + prob
    return total


def marginal_via_formula(mu: SRDistribution, s, k, x0):
    """Pr[T cap K = S] via derivatives of the generating polynomial.

    The z-derivatives of g(x0 1 + z) at z = 0 are the derivatives of g at
    x0 1, so the operators act on g itself and the result is evaluated at
    x0 1; nothing is expanded.  The operators are applied in sorted order
    of K, d/dz_i for i in S and (1 - x0 d/dz_i) otherwise, and every prefix
    is kept on ``mu``, so a query applies only the operators no earlier
    query on ``mu`` with the same x0 has applied.  x0 is taken as a
    Fraction (a float as the rational it is), so the result is exact; it is
    x0-independent, which callers are encouraged to test.
    """
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("the dummy scalar must be nonzero")
    observed = _observed_set(k, mu.n)
    target = frozenset(int(i) for i in s)
    if not target <= observed:
        raise ValueError("S must be a subset of the observed set")
    ops = tuple((i, i in target) for i in sorted(observed))
    nodes = mu._operator_nodes
    p = mu.generating_polynomial
    for j, (i, in_s) in enumerate(ops, 1):
        key = (x0, ops[:j])
        node = nodes.get(key)
        if node is None:
            dp = p.partial(i)
            node = nodes[key] = dp if in_s else p + dp.scale(-x0)
        p = node
    # p(x0 1) = sum_j x0^j sum_{|e| = j} c_e, times x0^(|S| - d).
    by_degree = {}
    for exps, c in p.terms.items():
        deg = sum(exps)
        by_degree[deg] = by_degree.get(deg, 0) + c
    shift = len(target) - mu.d_mu
    return sum((c * x0 ** (deg + shift) for deg, c in by_degree.items()), Fraction(0))


def per_object(f, items) -> list:
    """[f(x) for x in items], calling f once per run of one object: every
    entry of a spanning-tree distribution holds one probability object
    (uniform_spanning_tree, serialize.distribution_from_json)."""
    out, last, value = [], object(), None
    for x in items:
        if x is not last:
            last, value = x, f(x)
        out.append(value)
    return out


def _integer_weights(probs) -> tuple:
    """Ints w_r and one denominator q with p_r = w_r / q, q the lcm of the
    probabilities' denominators (exact for ints, Fractions and floats)."""
    ratios = per_object(lambda p: p.as_integer_ratio(), probs)
    denom = math.lcm(*{q for _, q in ratios})
    return [w * (denom // q) for w, q in ratios], denom


def max_marginal(mu: SRDistribution) -> Fraction:
    """Largest single-element inclusion probability, exactly.

    Rows are grouped by their integer weight and one bincount counts each
    group's elements, so Python ints are multiplied once per group.
    """
    weights, denom = _integer_weights(p for _, p in mu.support)
    groups = {}
    index = np.array([groups.setdefault(w, len(groups)) for w in weights], dtype=np.intp)
    counts = np.bincount((index[:, None] * mu.n + mu.sets).ravel(),
                         minlength=len(groups) * mu.n).reshape(len(groups), mu.n)
    totals = np.array(list(groups), dtype=object) @ counts
    return Fraction(int(max(totals, default=0)), denom)


# ---------------------------------------------------------------------------
# Graph -> isotropic rank-1 vectors via effective resistances.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropicFamily:
    """Rank-1 cone vectors summing to the direction of a determinant instance.

    One vector per edge: v_e = vec(w_e w_e^T) with w_e = B (1_u - 1_v),
    where B composes an orthonormal basis of the all-ones complement with
    the inverse square root of the Laplacian restricted to that subspace.
    ||v_e||_h is then the effective resistance of e, and sum_e v_e = vec(I).
    """

    h: DeterminantInstance
    vectors: tuple
    basis: tuple  # rows of B, recorded for reproducibility


def isotropic(h, vectors) -> bool:
    """Whether the vectors, added in order in binary64, are within
    ISOTROPY_TOL of h.e in every entry."""
    total = np.zeros(h.m)
    for vec in vectors:
        total += np.array(vec, dtype=float)
    return bool(np.max(np.abs(total - np.array(h.e, dtype=float))) <= ISOTROPY_TOL)


def effective_resistance_family(graph: Graph) -> IsotropicFamily:
    if not graph.is_connected():
        raise DisconnectedGraph("effective resistances need a connected graph")
    nv = graph.n_vertices
    lap = np.array(graph.laplacian(), dtype=float)
    evals, evecs = np.linalg.eigh(lap)
    if nv > 1 and evals[1] <= LAPLACIAN_ZERO_TOL:
        raise DisconnectedGraph("Laplacian has a repeated zero eigenvalue")
    # B = diag(lambda^{-1/2}) Q^T on the complement of the all-ones vector.
    q = evecs[:, 1:]
    b = (q / np.sqrt(evals[1:])).T  # (nv-1, nv)
    h = DeterminantInstance(nv - 1)
    vectors = []
    for u, v in graph.edges:
        incid = np.zeros(nv)
        incid[u] = 1.0
        incid[v] = -1.0
        w = b @ incid
        vectors.append(h.vec_outer(tuple(float(c) for c in w)))
    if not isotropic(h, vectors):
        raise AssertionError("effective-resistance vectors do not sum to vec(I)")
    return IsotropicFamily(h, tuple(vectors), tuple(tuple(float(x) for x in row) for row in b))
