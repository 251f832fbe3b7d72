"""Homogeneous strongly Rayleigh distributions over subsets of [n].

A distribution is strongly Rayleigh (SR) when its generating polynomial
g(z) = sum_S mu(S) z^S is real stable; homogeneous when every support set
has the same size d.  Marginals of homogeneous SR distributions admit a
derivative formula on the generating polynomial,

    Pr[T cap [k] = S] = x^(|S|-d) * prod_{i in S} d/dz_i
                        prod_{i in [k]\\S} (1 - x d/dz_i) g(x 1 + z) | z=0,

whose value is independent of the dummy scalar x != 0.  Derivatives commute
with the shift, so the operators are applied to g and the result is read at
x 1.  The formula runs over Python ints: g is scaled by the distribution's
denominator q and kept as {bitmask of a support set: int},
d/dz_i stays over ints, and with x = a/b the operator (1 - x d/dz_i) is
applied as b p - a d/dz_i p, one more factor b in the denominator.  One
Fraction is built at the end.  The operators have constant coefficients
and commute with each other, so they are applied in sorted order of K, and
each distribution keeps every operator prefix it has built for a given x:
a query that shares a prefix with an earlier one starts from the stored
polynomial.  Both the formula and a direct support-sum oracle are provided
so they can be checked against each other exactly; both read S and a
literal K with operator.index, so a non-integral element raises in both.

A distribution is held as one read-only (N, d) int array of support sets
(SRDistribution.sets) and one int weight per row over one denominator
(SRDistribution.weights, SRDistribution.denominator).  The membership
matrix (SRDistribution.members) and the binary64 probabilities
(SRDistribution.float_probs) are built from them here, once; readers take
those views, or sum the int weights and divide once, and convert nothing.
The uniform spanning-tree distribution (enumerated level by level into one
int array, Graph.spanning_trees, with a matrix-tree cross-check) and the
effective-resistance vector family it pairs with are built here as well.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DisconnectedGraph, IndexOutOfRange
from .graphs import Graph
from .hyperbolic import DeterminantInstance
from .scalars import ISOTROPY_TOL


@dataclass(frozen=True, eq=False)
class SRDistribution:
    """Row r of the read-only (N, d_mu) int array ``sets`` is a support set,
    its elements ascending and the rows in lexicographic order, and its
    probability is the int weights[r] over the one ``denominator``, in
    lowest terms (the lcm of the probabilities' denominators).  Readers take
    the membership matrix (members) and the binary64 probabilities
    (float_probs) from here, each built once."""

    n: int
    sets: np.ndarray = field(repr=False)
    weights: tuple = field(repr=False)
    denominator: int = field(repr=False)

    @property
    def d_mu(self) -> int:
        return self.sets.shape[1]

    @staticmethod
    def from_rows(n: int, rows: np.ndarray, weights, denominator: int) -> "SRDistribution":
        """Validate and build a homogeneous distribution from a non-empty
        (N, d) intp array, row r a support set with probability
        weights[r] / denominator, over ints.

        Elements must lie in range(n) and no set may repeat one.  Weights
        must be positive and sum to the denominator; they are kept in
        lowest terms.  Real stability is assumed, not checked.  Rows are
        sorted, and stably put in lexicographic order, only when they are
        not already; the array kept as ``sets`` is made read-only.
        """
        if rows.dtype != np.intp or rows.ndim != 2 or not len(rows):
            raise ValueError("support rows must be a non-empty (N, d) intp array")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError("support element out of range")
        if not (rows[:, 1:] > rows[:, :-1]).all():
            rows = np.sort(rows, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():
                raise ValueError("support sets cannot repeat elements")
        weights = tuple(weights)
        if len(weights) != len(rows):
            raise ValueError(f"{len(weights)} weights for {len(rows)} support sets")
        if min(weights) <= 0:
            raise ValueError("probabilities must be positive")
        if sum(weights) != denominator:
            raise ValueError(f"probabilities sum to {Fraction(sum(weights), denominator)}, not 1")
        common = math.gcd(denominator, *weights)
        if common > 1:
            weights, denominator = tuple(w // common for w in weights), denominator // common
        if not _ascending(rows):
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            weights = tuple(map(weights.__getitem__, order.tolist()))
        rows.setflags(write=False)
        return SRDistribution(n, rows, weights, denominator)

    @functools.cached_property
    def members(self) -> np.ndarray:
        """The read-only (N, n) bool matrix: members[r, i] says whether
        element i is in set r."""
        members = np.zeros((len(self.sets), self.n), dtype=bool)
        members[np.arange(len(self.sets))[:, None], self.sets] = True
        members.setflags(write=False)
        return members

    @functools.cached_property
    def float_probs(self) -> np.ndarray:
        """The read-only float64 probabilities, each w / q rounded once:
        int true division rounds correctly, so each is float(Fraction(w, q)).
        Each distinct weight is divided once."""
        values = {w: w / self.denominator for w in set(self.weights)}
        probs = np.array(list(map(values.__getitem__, self.weights)))
        probs.setflags(write=False)
        return probs

    def fractions(self) -> list:
        """Each row's probability as a Fraction, one per distinct weight."""
        values = {w: Fraction(w, self.denominator) for w in set(self.weights)}
        return list(map(values.__getitem__, self.weights))

    @functools.cached_property
    def _scaled_generating(self) -> tuple:
        """(terms, q): q g(z) = sum_S q mu(S) z^S as {bitmask of S: int}, q
        the denominator, built once per distribution."""
        terms = {}
        for elems, w in zip(self.sets.tolist(), self.weights):
            mask = sum(1 << e for e in elems)
            terms[mask] = terms.get(mask, 0) + w
        return terms, self.denominator

    @functools.cached_property
    def _operator_nodes(self) -> dict:
        """The formula's operator prefixes applied to q g, over ints, keyed
        by (a, b, ((i, i in S), ...)) for x0 = a/b over a sorted prefix of K."""
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
    return SRDistribution.from_rows(graph.n_edges, trees, (1,) * count, count)


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
    observed = frozenset(map(operator.index, k))
    if observed and (min(observed) < 0 or max(observed) >= n):
        raise IndexOutOfRange(f"observed set {sorted(observed)} is not within range({n})")
    return observed


def marginal_via_enum(mu: SRDistribution, s, k):
    """Pr[T cap K = S] by direct support summation (the oracle route)."""
    observed = _observed_set(k, mu.n)
    target = frozenset(map(operator.index, s))
    if not target <= observed:
        raise ValueError("S must be a subset of the observed set")
    total = 0
    for elems, w in zip(mu.sets.tolist(), mu.weights):
        if frozenset(elems) & observed == target:
            total += w
    return Fraction(total, mu.denominator)


def marginal_via_formula(mu: SRDistribution, s, k, x0):
    """Pr[T cap K = S] via derivatives of the generating polynomial.

    The z-derivatives of g(x0 1 + z) at z = 0 are the derivatives of g at
    x0 1, so the operators act on g itself and the result is evaluated at
    x0 1; nothing is expanded.  x0 is taken as a Fraction a/b, b > 0 (a
    float as the rational it is).  The operators are applied in sorted
    order of K to q g over ints, d/dz_i for i in S and b - a d/dz_i
    otherwise, and every prefix is kept on ``mu``, so a query applies only
    the operators no earlier query on ``mu`` with the same x0 has applied.
    The value is the resulting int polynomial P read at x0 1, times
    x0^(|S| - d), over q b^(|K| - |S|): one exact Fraction.  It is
    x0-independent, which callers are encouraged to test.
    """
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("the dummy scalar must be nonzero")
    observed = _observed_set(k, mu.n)
    target = frozenset(map(operator.index, s))
    if not target <= observed:
        raise ValueError("S must be a subset of the observed set")
    a, b = x0.numerator, x0.denominator
    ops = tuple((i, i in target) for i in sorted(observed))
    nodes = mu._operator_nodes
    p, denom = mu._scaled_generating
    for j, (i, in_s) in enumerate(ops, 1):
        key = (a, b, ops[:j])
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _apply_operator(p, i, in_s, a, b)
        p = node
    # Every monomial left has degree deg <= d - |S| = top, so
    # x0^(deg + |S| - d) = b^(top - deg) a^(deg - low) / a^(top - low) for
    # the lowest degree low (none is left when |S| > d).
    by_degree = {}
    for mask, c in p.items():
        deg = mask.bit_count()
        by_degree[deg] = by_degree.get(deg, 0) + c
    top = mu.d_mu - len(target)
    low = min(by_degree, default=top)
    num = sum(c * b ** (top - deg) * a ** (deg - low) for deg, c in by_degree.items())
    return Fraction(num, denom * b ** (len(observed) - len(target)) * a ** (top - low))


def _apply_operator(p: dict, i: int, in_s: bool, a: int, b: int) -> dict:
    """d/dz_i p if in_s, else b p - a d/dz_i p, for a multilinear int
    polynomial p given as {bitmask: coefficient}."""
    bit = 1 << i
    if in_s:
        return {mask ^ bit: c for mask, c in p.items() if mask & bit}
    out = {mask: b * c for mask, c in p.items()}
    for mask, c in p.items():
        if mask & bit:
            out[mask ^ bit] = out.get(mask ^ bit, 0) - a * c
    return out


def max_marginal(mu: SRDistribution) -> Fraction:
    """Largest single-element inclusion probability, exactly.

    Rows are grouped by their integer weight and one bincount counts each
    group's elements, so Python ints are multiplied once per group.
    """
    groups = {}
    index = np.array([groups.setdefault(w, len(groups)) for w in mu.weights], dtype=np.intp)
    counts = np.bincount((index[:, None] * mu.n + mu.sets).ravel(),
                         minlength=len(groups) * mu.n).reshape(len(groups), mu.n)
    totals = np.array(list(groups), dtype=object) @ counts
    return Fraction(int(max(totals, default=0)), mu.denominator)


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
