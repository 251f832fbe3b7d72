"""The one multivariate polynomial type, and randomized real-stability testing.

MultiPoly is a sparse map from exponent vectors to coefficients.  Every
multivariate object in the package is one: the generating polynomial of an
SR distribution (srdist), h(xe + sum z_i v_i) and its square in the barrier
argument (mixedchar, barrier), and the exact multi-restrictions in
hyperbolic.  Operators such as (1 - c d^2/dz_i^2) act on it directly
(``one_minus_c_d2``, ``partial``), and values are taken with ``eval`` at
the point of interest rather than by expanding a shifted copy.

A polynomial is real stable when it has no zeros with every coordinate in
the open upper half plane; equivalently, every univariate restriction
p(a t + b) with a > 0 componentwise is nonzero and real-rooted.  The test
here is refutation-only: it samples seeded rational lines and certifies any
failure exactly, so a refutation is a proof while a pass is only evidence.

Also houses the example generating polynomials used as fixtures throughout
the test suite (spanning trees, matchings, the Vamos matroid basis
polynomial, elementary symmetrics, PSD determinant mixtures).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, TooLarge, ZeroPolynomial
from .graphs import Graph
from .scalars import FLOAT, RATIONAL, coerce, join_backend
from .unipoly import UniPoly, is_real_rooted


class MultiPoly:
    """Map from exponent vectors to coefficients; zero terms are dropped."""

    __slots__ = ("nvars", "terms", "backend")

    def __init__(self, nvars: int, terms: dict, backend: str = RATIONAL):
        self.nvars = nvars
        self.backend = backend
        clean = {}
        for exps, c in terms.items():
            c = coerce(c, backend)
            if c == 0:
                continue
            clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars: int, backend: str = RATIONAL) -> "MultiPoly":
        return MultiPoly(nvars, {}, backend)

    @staticmethod
    def constant(nvars: int, c, backend: str = RATIONAL) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c}, backend)

    @staticmethod
    def variable(i: int, nvars: int, backend: str = RATIONAL) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return MultiPoly(nvars, {tuple(exps): 1}, backend)

    @staticmethod
    def monomial(exps, c=1, backend: str = RATIONAL) -> "MultiPoly":
        return MultiPoly(len(exps), {tuple(exps): c}, backend)

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out, join_backend(self.backend, other.backend))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out, join_backend(self.backend, other.backend))

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()}, self.backend)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus / substitution --------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def partial(self, i: int) -> "MultiPoly":
        if not (0 <= i < self.nvars):
            raise IndexOutOfRange(f"variable {i} out of range")
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[i]
        return MultiPoly(self.nvars, out, self.backend)

    def substitute(self, i: int, value) -> "MultiPoly":
        """Set variable i to a scalar; the variable slot stays (exponent 0)."""
        if not (0 <= i < self.nvars):
            raise IndexOutOfRange(f"variable {i} out of range")
        value = coerce(value, self.backend if not isinstance(value, float) else FLOAT)
        out = {}
        for e, c in self.terms.items():
            v = c * value ** e[i]
            ne = list(e)
            ne[i] = 0
            key = tuple(ne)
            out[key] = out.get(key, 0) + v
        return MultiPoly(self.nvars, out, self.backend)

    def eval(self, point):
        acc = coerce(0, self.backend)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            acc = acc + v
        return acc

    def restrict_line(self, a, b) -> UniPoly:
        """Univariate restriction t -> p(a t + b)."""
        backend = self.backend
        acc = UniPoly.zero(backend)
        for e, c in self.terms.items():
            term = UniPoly.constant(c, backend)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                lin = UniPoly.from_coeffs([b[i], a[i]], backend)
                for _ in range(k):
                    term = term * lin
            acc = acc + term
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = sorted(self.terms.items())
        return f"MultiPoly({self.nvars}, {items!r})"


# ---------------------------------------------------------------------------
# Stability testing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityVerdict:
    passed: bool
    trials: int
    witness_a: tuple | None = None
    witness_b: tuple | None = None
    witness_restriction: UniPoly | None = None

    def __bool__(self) -> bool:
        return self.passed


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Counter-derived sub-seeds keep trial streams independent of scheduling.
    return random.Random(f"stability:{seed}:{trial}")


def stability_test(p: MultiPoly, trials: int = 1000, seed: int = 0) -> StabilityVerdict:
    """Seeded refutation search for real stability.

    Each trial draws a rational direction a in (0, 4]^n and offset b in
    [-4, 4]^n on a 1/8 grid, restricts p to the line a t + b, and requires
    the restriction to be nonzero and real-rooted (checked exactly).  The
    first failing line is returned as an exact certificate.
    """
    if p.is_zero:
        raise ZeroPolynomial("stability test needs a nonzero polynomial")
    n = p.nvars
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        a = tuple(Fraction(rng.randint(1, 32), 8) for _ in range(n))
        b = tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(n))
        line = p.restrict_line(a, b)
        if line.is_zero or not is_real_rooted(line):
            return StabilityVerdict(False, trial + 1, a, b, line)
    return StabilityVerdict(True, trials)


def one_minus_c_d2(p: MultiPoly, i: int, c) -> MultiPoly:
    if c < 0:
        raise ValueError("the (1 - c d^2) operator requires c >= 0")
    return p - p.partial(i).partial(i).scale(c)


# ---------------------------------------------------------------------------
# Fixture polynomials.
# ---------------------------------------------------------------------------

def spanning_tree_polynomial(graph: Graph) -> MultiPoly:
    """Sum over spanning trees of the product of edge variables."""
    trees = graph.spanning_trees()
    n = graph.n_edges
    terms = {}
    for tree in trees:
        exps = [0] * n
        for idx in tree:
            exps[idx] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def _matchings(graph: Graph) -> list:
    if graph.n_edges > 16:
        raise TooLarge("matching enumeration capped at 16 edges")
    out = [()]
    edges = graph.edges

    def extend(start: int, used: frozenset, acc: tuple):
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if u in used or v in used:
                continue
            m = acc + (idx,)
            out.append(m)
            extend(idx + 1, used | {u, v}, m)

    extend(0, frozenset(), ())
    return out


def vertex_matching_polynomial(graph: Graph) -> MultiPoly:
    """Sum over matchings M of prod_{(u,v) in M} (-x_u x_v).

    Variables are indexed by vertices.  The empty matching contributes the
    constant +1, so each matching of size k carries sign (-1)^k.
    """
    n = graph.n_vertices
    terms = {}
    for m in _matchings(graph):
        exps = [0] * n
        for idx in m:
            u, v = graph.edges[idx]
            exps[u] += 1
            exps[v] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (-1) ** len(m)
    return MultiPoly(n, terms)


VAMOS_NON_BASES = (
    frozenset({1, 2, 3, 4}), frozenset({1, 2, 5, 6}), frozenset({1, 2, 7, 8}),
    frozenset({1, 2, 9, 10}), frozenset({3, 4, 5, 6}), frozenset({5, 6, 7, 8}),
    frozenset({7, 8, 9, 10}),
)


def vamos_polynomial() -> MultiPoly:
    """Basis generating polynomial of the Vamos matroid (203 monomials)."""
    terms = {}
    for combo in itertools.combinations(range(1, 11), 4):
        if frozenset(combo) in VAMOS_NON_BASES:
            continue
        exps = [0] * 10
        for i in combo:
            exps[i - 1] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(10, terms)


def elementary_symmetric(n: int, k: int) -> MultiPoly:
    terms = {}
    for combo in itertools.combinations(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def multivariate_matching_polynomial(graph: Graph) -> MultiPoly:
    """Matchings with vertex variables for exposed vertices and squared edge weights.

    sum over matchings M of (-1)^|M| * prod_{u not covered} x_u * prod_{e in M} w_e^2,
    over variables (x_1..x_V, w_1..w_E).  Hyperbolic in direction (1_V, 0),
    not real stable in general.
    """
    nv, ne = graph.n_vertices, graph.n_edges
    terms = {}
    for m in _matchings(graph):
        covered = set()
        for idx in m:
            u, v = graph.edges[idx]
            covered.update((u, v))
        exps = [0] * (nv + ne)
        for u in range(nv):
            if u not in covered:
                exps[u] = 1
        for idx in m:
            exps[nv + idx] = 2
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (-1) ** len(m)
    return MultiPoly(nv + ne, terms)


def psd_mixture_determinant(matrices: list) -> MultiPoly:
    """det(sum_i z_i A_i) expanded symbolically (Leibniz; desk-size only)."""
    n = len(matrices)
    dim = len(matrices[0])
    entries = [[MultiPoly(n, {tuple(1 if t == i else 0 for t in range(n)): matrices[i][r][c]
                              for i in range(n)}) for c in range(dim)] for r in range(dim)]
    total = MultiPoly.zero(n)
    for perm in itertools.permutations(range(dim)):
        sign = _perm_sign(perm)
        term = MultiPoly.constant(n, sign)
        for r in range(dim):
            term = term * entries[r][perm[r]]
        total = total + term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
