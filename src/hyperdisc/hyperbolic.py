"""Hyperbolic polynomial instances and their spectral calculus.

A degree-d homogeneous polynomial h with h(e) > 0 is hyperbolic in
direction e when t -> h(te - x) is real-rooted for every real x.  The d
roots of that restriction are the hyperbolic eigenvalues of x, and their
largest magnitude is the hyperbolic norm; the trace, their sum, is read
exactly off two coefficients (hyperbolic_traces).  Four instance kinds are
supported:

* ``determinant``: h = det on vectorized symmetric matrices, e = vec(I);
* ``lorentz``: h = x_m^2 - x_1^2 - ... - x_{m-1}^2, e = last basis vector;
* ``elem_sym``: the elementary symmetric polynomial e_k(x_1..x_n), e = 1;
* ``custom``: any homogeneous real-stable polynomial with a strictly
  positive direction (real stability makes every positive direction
  hyperbolic).

Restrictions along lines are exact: closed forms where available,
otherwise interpolation through the integer nodes 0..d, which keeps exact
(Fraction) input exact and the conditioning predictable; float input gives
float coefficients.  restrict_lines takes many lines through one base at
once: the kinds that interpolate evaluate every node of every line in one
call and interpolate them as one stack, each line with the bits of its own.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import (_integer_rows, char_poly_exact, char_poly_ints, char_polys, det_exact,
                     principal_minors)
from .errors import DimensionMismatch, NotRealRooted, RankTooHigh
from .realstable import MultiPoly
from .unipoly import RootList, UniPoly, interpolate, real_roots


def _is_float_vec(x) -> bool:
    return any(isinstance(v, float) for v in x)


class HyperbolicInstance:
    """Base class: subclasses provide value() and an exact line restriction."""

    kind: str
    m: int
    d: int
    e: tuple

    def value(self, x):
        raise NotImplementedError

    def values(self, points) -> list:
        """h at each of a sequence of points (tuples, or the rows of a 2-D
        array), in order, each as value() gives it.  Here value() is called
        per point; determinant evaluates a float stack in one call."""
        rows = points.tolist() if isinstance(points, np.ndarray) else points
        return [self.value(tuple(p)) for p in rows]

    def restrict_line(self, base, dirv) -> UniPoly:
        """Exact univariate polynomial t -> h(base + t dirv)."""
        raise NotImplementedError

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Hyperbolic norms of a stack of float vectors, one per row: each
        row's spectrum, or a closed form where the subclass has one."""
        return np.array([spectrum(self, tuple(row)).norm for row in rows])

    def restrict_e_rows(self, bases: np.ndarray) -> np.ndarray:
        """Ascending coefficients of t -> h(base + t e), one row of d + 1
        (the top one is h(e) > 0) per base: restrict_line's, as float64 for
        float bases and as an object array of exact coefficients for exact
        ones."""
        return np.array([self.restrict_line(tuple(base), self.e).coeffs for base in bases],
                        dtype=bases.dtype)

    def restrict_e_ints(self, bases) -> tuple:
        """(rows, E) for a sequence of int bases: rows[r] lists the ascending
        int coefficients of t -> E h(base_r + t e), and E is the lcm of the
        denominators of restrict_line's coefficients, 1 where h has int
        coefficients."""
        return _integer_rows([self.restrict_line(tuple(base), self.e).coeffs for base in bases])

    def restrict_lines(self, base, dirs) -> list:
        """restrict_line(base, dirv) for each direction, in order, through
        its values at the integer nodes 0..d: every node of every line is
        evaluated by one h.values call, and one stacked interpolate gives
        each line the polynomial it would get alone.  Lorentz states its
        closed form per line instead."""
        self.check_dim(base, "base")
        for dirv in dirs:
            self.check_dim(dirv, "direction")
        nodes = range(self.d + 1)
        values = self.values([tuple(b + t * w for b, w in zip(base, dirv))
                              for dirv in dirs for t in nodes])
        return interpolate(nodes, [values[k:k + len(nodes)]
                                   for k in range(0, len(values), len(nodes))])

    def check_dim(self, x, name: str = "vector"):
        if len(x) != self.m:
            raise DimensionMismatch(f"{name} has length {len(x)}, expected {self.m}")

    def params(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} m={self.m} d={self.d}>"


class DeterminantInstance(HyperbolicInstance):
    """det on vectorized symmetric mprime x mprime matrices."""

    kind = "determinant"

    @staticmethod
    def size(mprime: int) -> int:
        """m for these parameters, without building anything (serialize
        checks a file's vectors against it before building h)."""
        return mprime * (mprime + 1) // 2

    def __init__(self, mprime: int):
        if mprime < 1:
            raise ValueError("mprime must be >= 1")
        self.mprime = mprime
        self.m = self.size(mprime)
        self.d = mprime
        self._pairs = [(i, j) for i in range(mprime) for j in range(i, mprime)]
        self._upper = tuple(np.array(self._pairs).T)  # _pairs as (rows, columns)
        e = [0] * self.m
        for idx, (i, j) in enumerate(self._pairs):
            if i == j:
                e[idx] = 1
        self.e = tuple(e)

    def mat(self, x) -> list:
        a = [[0] * self.mprime for _ in range(self.mprime)]
        for idx, (i, j) in enumerate(self._pairs):
            a[i][j] = x[idx]
            a[j][i] = x[idx]
        return a

    def vec_outer(self, u) -> tuple:
        """vec(u u^T): a certified hyperbolic-rank-<=1 cone vector."""
        return tuple(u[i] * u[j] for (i, j) in self._pairs)

    def value(self, x):
        a = self.mat(x)
        if _is_float_vec(x):
            return float(np.linalg.det(np.array(a, dtype=float)))
        return det_exact(a)

    def values(self, points) -> list:
        """value() at each point: one stacked np.linalg.det over float
        points (a float64 array, or tuples of floats alone), which gives each
        matrix the bits of its own call; any other points take value() one
        at a time."""
        floats = (points.dtype == np.float64 if isinstance(points, np.ndarray)
                  else all(isinstance(c, float) for p in points for c in p))
        if not floats:
            return super().values(points)
        return np.linalg.det(self._stack(np.asarray(points, dtype=float))).tolist()

    def restrict_line(self, base, dirv) -> UniPoly:
        self.check_dim(base, "base")
        self.check_dim(dirv, "direction")
        if tuple(dirv) == self.e:
            if _is_float_vec(base):  # the stacked route's one-row case
                row = self.restrict_e_rows(np.array([base], dtype=float))[0]
                return UniPoly.from_coeffs(row.tolist())
            neg = [[-x for x in row] for row in self.mat(base)]
            return UniPoly.from_coeffs(char_poly_exact(neg))
        return super().restrict_lines(base, [dirv])[0]

    def restrict_lines(self, base, dirs) -> list:
        """Every line interpolated from one evaluation, unless a direction
        is e: then every line takes restrict_line."""
        if self.e in map(tuple, dirs):
            return [self.restrict_line(base, dirv) for dirv in dirs]
        return super().restrict_lines(base, dirs)

    def _stack(self, rows: np.ndarray) -> np.ndarray:
        """The symmetric matrices of a stack of float vectors, one per row."""
        mats = np.empty((len(rows), self.d, self.d))
        i, j = self._upper
        mats[:, i, j] = mats[:, j, i] = rows
        return mats

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Largest eigenvalue magnitudes, from one stacked eigvalsh."""
        return np.max(np.abs(np.linalg.eigvalsh(self._stack(rows))), axis=1)

    def restrict_e_rows(self, bases: np.ndarray) -> np.ndarray:
        """det(tI + A) per base.

        Float stacks take the one float route along e (restrict_line sends
        its float bases here): one stacked eigvalsh, then the factors
        t + lambda_k multiplied in eigenvalue order.  A coefficient past
        the binary64 range comes out inf, without a warning, for the callers
        to reject (real_roots, barrier.construction_point).  Exact stacks of
        ints and Fractions give restrict_line's Fractions from
        restrict_e_ints: the stack is scaled once by the lcm D of its
        denominators, and the coefficient of t^(d-k) of det(tI + DA) is
        divided by D^k at the end.
        """
        if bases.dtype == object:
            ints, scale = _integer_rows(bases.tolist())
            powers = [scale ** k for k in range(self.d, -1, -1)]
            rows, _ = self.restrict_e_ints(ints)
            return np.array([list(map(Fraction, row, powers)) for row in rows],
                            dtype=object).reshape(len(bases), self.d + 1)
        eigs = np.linalg.eigvalsh(self._stack(bases))
        desc = np.zeros((self.d + 1, len(bases)))  # descending coefficients, a column per base
        desc[0] = 1.0
        with np.errstate(over="ignore"):
            for k, lam in enumerate(eigs.T):
                desc[1:k + 2] += desc[:k + 1] * lam
        return desc[::-1].T

    def restrict_e_ints(self, bases) -> tuple:
        """(rows, 1): det(tI + A) per int base, over ints.  One base (a signed
        leaf) takes _exact.char_poly_ints's list recurrence, which is faster
        than a stack of one; more take one stacked _exact.char_polys call."""
        if len(bases) == 1:
            return [char_poly_ints([[-x for x in row] for row in self.mat(bases[0])])], 1
        mats = np.empty((len(bases), self.d, self.d), dtype=object)
        i, j = self._upper
        mats[:, i, j] = mats[:, j, i] = -np.array(bases, dtype=object).reshape(len(bases), self.m)
        return char_polys(mats).tolist(), 1

    def params(self) -> dict:
        return {"kind": self.kind, "mprime": self.mprime}


class LorentzInstance(HyperbolicInstance):
    """x_m^2 - x_1^2 - ... - x_{m-1}^2, hyperbolic toward the last axis."""

    kind = "lorentz"

    @staticmethod
    def size(m: int) -> int:
        return m

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("the quadratic form needs m >= 2")
        self.m = self.size(m)
        self.d = 2
        self.e = tuple([0] * (m - 1) + [1])

    def value(self, x):
        return x[-1] * x[-1] - sum(v * v for v in x[:-1])

    def restrict_line(self, base, dirv) -> UniPoly:
        self.check_dim(base, "base")
        self.check_dim(dirv, "direction")
        c2 = dirv[-1] * dirv[-1] - sum(w * w for w in dirv[:-1])
        c1 = 2 * (base[-1] * dirv[-1] - sum(b * w for b, w in zip(base[:-1], dirv[:-1])))
        return UniPoly.from_coeffs([self.value(base), c1, c2])

    def restrict_lines(self, base, dirs) -> list:
        """restrict_line's closed form per line."""
        return [self.restrict_line(base, dirv) for dirv in dirs]

    def restrict_e_ints(self, bases) -> tuple:
        """(rows, 1): restrict_line's closed form along e, h(b) + 2 b_m t + t^2,
        per int base b."""
        return [[self.value(b), 2 * b[-1], 1] for b in bases], 1

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """|x_m| + ||(x_1..x_{m-1})||, the largest eigenvalue magnitude, per row.

        A row whose sum of squares overflows takes its length from hypot,
        which scales as it goes; every other row keeps the plain sum's bits.
        """
        space = rows[:, :-1]
        with np.errstate(over="ignore"):
            length = np.sqrt(np.sum(space ** 2, axis=1))
        big = np.isinf(length)
        if big.any():
            length[big] = np.hypot.reduce(space[big], axis=1, initial=0.0)
        return np.abs(rows[:, -1]) + length

    def params(self) -> dict:
        return {"kind": self.kind, "m": self.m}


class ElemSymInstance(HyperbolicInstance):
    """Elementary symmetric polynomial e_k over n variables, direction 1."""

    kind = "elem_sym"

    @staticmethod
    def size(n: int, k: int) -> int:
        return n

    def __init__(self, n: int, k: int):
        if not (1 <= k <= n):
            raise ValueError("need 1 <= k <= n")
        self.n = n
        self.k = k
        self.m = self.size(n, k)
        self.d = k
        self.e = (1,) * n

    def value(self, x):
        # Standard DP on prefix elementary symmetrics.
        row = [1] + [0] * self.k
        for v in x:
            for j in range(min(self.k, len(row) - 1), 0, -1):
                row[j] = row[j] + v * row[j - 1]
        return row[self.k]

    def restrict_line(self, base, dirv) -> UniPoly:
        return self.restrict_lines(base, [dirv])[0]

    def params(self) -> dict:
        return {"kind": self.kind, "n": self.n, "k": self.k}


class RealStableInstance(HyperbolicInstance):
    """A homogeneous real-stable polynomial with a strictly positive direction."""

    kind = "custom"

    def __init__(self, poly: MultiPoly, e):
        if poly.is_zero:
            raise ValueError("zero polynomial is not hyperbolic")
        if not poly.is_homogeneous():
            raise ValueError("hyperbolic instances need a homogeneous polynomial")
        if len(e) != poly.nvars:
            raise DimensionMismatch("direction length does not match variable count")
        if not all(v > 0 for v in e):
            raise ValueError("custom instances need a strictly positive direction")
        self.poly = poly
        self.m = poly.nvars
        self.d = poly.total_degree()
        self.e = tuple(e)
        he = self.value(self.e)
        if not he > 0:
            raise ValueError("h(e) must be positive")
        self._spot_check_homogeneity()

    def _spot_check_homogeneity(self):
        """p(c x) = c^d p(x) at two seeded integer points.  Every term
        already has degree d, so with exact coefficients this holds; it is
        the one load-time rejection of float coefficients whose values
        overflow binary64: e_2 on three variables with every coefficient
        5e307 gives nan against -inf here.  Without it such a file loads,
        and its non-finite values surface only mid-search."""
        rng = random.Random(20240917)
        for c in (2, -1):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(self.m))
            lhs = self.poly.eval(tuple(c * v for v in x))
            rhs = Fraction(c) ** self.d * self.poly.eval(x)
            if lhs != rhs:
                raise ValueError("polynomial failed the homogeneity spot check")

    def value(self, x):
        return self.poly.eval(tuple(x))

    def restrict_line(self, base, dirv) -> UniPoly:
        return self.restrict_lines(base, [dirv])[0]

    def params(self) -> dict:
        return {"kind": self.kind, "nvars": self.m, "e": list(self.e)}


def determinant(mprime: int) -> DeterminantInstance:
    return DeterminantInstance(mprime)


def lorentz(m: int) -> LorentzInstance:
    return LorentzInstance(m)


# ---------------------------------------------------------------------------
# Spectral calculus.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    eigenvalues: RootList  # descending, multiplicity-expanded, length d
    norm: float


def char_restriction(h: HyperbolicInstance, x) -> UniPoly:
    """t -> h(te - x), the characteristic restriction of x."""
    h.check_dim(x)
    return h.restrict_line(tuple(-v for v in x), h.e)


def spectrum(h: HyperbolicInstance, x) -> Spectrum:
    rest = char_restriction(h, x)
    try:
        eigs = real_roots(rest)
    except NotRealRooted as exc:
        raise NotRealRooted(
            f"h(te - x) is not real-rooted for {h!r}; the instance is not "
            f"hyperbolic in direction e on this input ({exc})"
        ) from exc
    norm = max(eigs[0], -eigs[-1]) if eigs else 0.0
    return Spectrum(tuple(eigs), float(norm))


def hyperbolic_traces(h: HyperbolicInstance, vectors) -> tuple:
    """The trace of each vector v, the sum of the roots of h(te - v), read
    off the coefficient ratio -c_(d-1) / c_d of its characteristic
    restriction; every restriction comes from one stacked call
    (h.restrict_e_rows).  Exact vectors give exact traces, and float
    vectors the bits that one restriction per vector would give."""
    for v in vectors:
        h.check_dim(v)
    exact = not any(map(_is_float_vec, vectors))
    rows = h.restrict_e_rows(-np.array(vectors, dtype=object if exact else float))
    return tuple((-rows[:, -2] / rows[:, -1]).tolist())


def subsets_up_to(n: int, size: int) -> list:
    """Bitmasks of the subsets of range(n) with at most ``size`` elements,
    in increasing order."""
    return sorted(sum(1 << i for i in combo)
                  for r in range(size + 1)
                  for combo in itertools.combinations(range(n), r))


def subset_accumulate(masks, items, combine, empty) -> dict:
    """{U: items of U folded into empty by combine, highest element first}
    for masks that ascend and are closed under taking subsets, so that U
    minus its lowest element always comes first."""
    out = {}
    for mask in masks:
        low = mask & -mask
        out[mask] = combine(out[mask ^ low], items[low.bit_length() - 1]) if mask else empty
    return out


def subset_moebius(h: HyperbolicInstance, vectors, vertex) -> tuple:
    """(rows, E) with rows[T] = E sum_{U subset T} (-1)^(|T|-|U|) vertex(w_U)
    for every |T| <= d, keyed by bitmask in increasing order, where
    w_U = sum_{i in U} v_i.

    vertex is stacked: it is called once, on the list of every w_U in
    increasing mask order, and returns (ints, E): one list of ints per w_U,
    all of one length, that are E times its rows.  One in-place subset
    Moebius transform over those ints turns every vertex row into every
    alternating sum, entry by entry.
    """
    masks = subsets_up_to(len(vectors), h.d)
    points = subset_accumulate(masks, vectors, lambda w, v: tuple(map(operator.add, w, v)),
                               (0,) * h.m)
    ints, scale = vertex([points[mask] for mask in masks])
    rows = dict(zip(masks, ints))
    for i in range(len(vectors)):
        bit = 1 << i
        for mask, row in rows.items():
            if mask & bit:
                for k, c in enumerate(rows[mask ^ bit]):
                    row[k] -= c
    return rows, scale


def mixed_derivative_table(h: HyperbolicInstance, vectors) -> tuple:
    """(table, E) with table[T] = E a_T, an int, for every |T| <= d, keyed by
    bitmask in increasing order, where a_T = (prod_{i in T} D_{v_i}) h(e).

    For hyperbolic-rank-<=1 vectors h(xe + sum_i c_i v_i) is multilinear in
    the c_i, so

        h(xe + sum_i c_i v_i) = sum_{|T| <= d} c^T a_T x^(d - |T|)

    and every a_T with |T| > d vanishes.  The E a_T are subset_moebius of the
    vertex values h(e + w_U): a_T is the inclusion-exclusion
    sum_{U subset T} (-1)^(|T|-|U|) h(e + w_U), here shared across T (the
    test suite's reference takes it one T at a time).  The rank condition
    is checked exactly, so the vectors must be rational: t -> h(e + t v_i)
    has degree <= 1 iff v_i has rank <= 1, which is tested at t = 0..d, and
    RankTooHigh is raised for the first vector that fails it.

    It is the signed table's route for every h but a determinant whose
    generators match (gram_minor_table); for Lorentz and the other kinds
    with int coefficients, int vectors give E = 1.
    """
    for v in vectors:
        h.check_dim(v)
    rows, scale = subset_moebius(h, vectors, lambda ws: _integer_rows(
        [[h.value(tuple(map(operator.add, h.e, w)))] for w in ws]))
    table = {mask: row[0] for mask, row in rows.items()}
    for i, v in enumerate(vectors):
        _require_rank_one(h, i, v, table[0], table[1 << i], scale)
    return table, scale


def _require_rank_one(h: HyperbolicInstance, i: int, v, base, slope, scale=1):
    """The exact rank test: RankTooHigh unless t -> scale h(e + t v) is
    base + t slope.  The caller passes the line through its values at t = 0
    and 1, so checking t = 2..d as well shows that this degree-<=d
    polynomial has degree <= 1, which holds iff v has rank <= 1."""
    for t in range(2, h.d + 1):
        if scale * h.value(tuple(b + t * c for b, c in zip(h.e, v))) != base + t * slope:
            raise RankTooHigh(
                f"vector {i} has hyperbolic rank > 1; h is not multilinear along it")


def gram_minor_table(h: DeterminantInstance, generators, scale: int) -> tuple:
    """mixed_derivative_table(h, vectors) for the vectors scale vec(u u^T),
    u in generators, from the generators' Gram matrix: (table, 1).

    With U the generators as columns, h(xe + sum_i c_i scale vec(u_i u_i^T))
    = det(xI + U diag(scale c) U^T), so by Cauchy-Binet a_T = det(M_T) for
    M = scale U^T U, and _exact.principal_minors gives every |T| <= d at
    once.  scale must be a multiple of the denominator of every u_i[a]^2,
    as the lcm of the vectors' denominators is; then scale u_i[a] u_j[a] is
    an int, since q_i q_j divides lcm(q_i^2, q_j^2), and so is M.  M is
    positive semidefinite, so each vector has rank <= 1 and lies in the
    closed cone by construction, and nothing is checked here.
    """
    ints, q = _integer_rows(generators)
    u = np.array(ints, dtype=object).reshape(len(ints), h.mprime)
    gram = (u @ u.T * scale) // (q * q)
    return principal_minors(gram, h.d), 1


def subset_restrictions(h: HyperbolicInstance, vectors, subsets, cache: dict) -> None:
    """Put x -> h(x e + w_U), w_U = sum_{i in U} v_i, into cache for every
    subset U (a sorted tuple) listed in subsets and not cached yet, from one
    stacked h.restrict_e_ints call; each U[:-1] must be listed before U.

    A float vector counts as the rational it is.  With D the lcm of the
    vectors' denominators, the call takes the int points D w_U and gives
    y -> E h(y e + D w_U); with y = D x its coefficient of x^k is D^k r_k,
    so cache[U] = ([D^k r_k], E D^d): ints and one denominator.
    """
    ints, scale = _integer_rows(vectors)
    points = {(): (0,) * h.m}
    for u in subsets:
        if u:
            points[u] = tuple(map(operator.add, points[u[:-1]], ints[u[-1]]))
    todo = [u for u in subsets if u not in cache]
    rows, outer = h.restrict_e_ints([points[u] for u in todo])
    powers = [scale ** k for k in range(h.d + 1)]
    for u, row in zip(todo, rows):
        cache[u] = (list(map(operator.mul, row, powers)), outer * powers[-1])


def derivative_restriction(h: HyperbolicInstance, vectors, indices, cache: dict) -> UniPoly:
    """(prod_{i in S} D_{v_i}) h(x e) as a univariate polynomial in x, over
    Fractions: the inclusion-exclusion
    sum_{U subset S} (-1)^(|S|-|U|) h(x e + w_U) of the cached int
    restrictions (subset_restrictions), summed over ints and divided once.

    The cache, keyed by U and shared across calls on the same vectors,
    holds each restriction once; the subsets of S it lacks are filled by
    one stacked call.  mixedchar.ag_operator_form fills it for every subset
    it asks about before the first call.  The function stays, although
    that caller could sum the ints itself, because hdbench's certify trace
    coverage requires its calls and cache hits; it goes with the declared
    benchmark revision of ROADMAP item 6, once A_S is read off the Gram
    minors.
    """
    s = tuple(sorted(indices))
    subsets = [u for r in range(len(s) + 1) for u in itertools.combinations(s, r)]
    if any(u not in cache for u in subsets):
        subset_restrictions(h, vectors, subsets, cache)
    denom = math.lcm(*(cache[u][1] for u in subsets))
    total = [0] * (h.d + 1)
    for u in subsets:
        row, q = cache[u]
        weight = denom // q if (len(s) - len(u)) % 2 == 0 else -(denom // q)
        for k, c in enumerate(row):
            total[k] += weight * c
    return UniPoly.from_coeffs([Fraction(c, denom) for c in total])
