"""Mixed characteristic polynomials and interlacing families.

Two families are built here, both trees of real-rooted polynomials in which
every node is the sum of its children and sibling sets share a common
interlacing, so some leaf's largest root is bounded by the root node's.

Signed family (independent variables xi_i with means mu_i, variances
tau_i^2, rank-1 cone vectors v_i):

    p_s(x) = (prod_i Pr[xi_i = s_i]) * h(xe + sum (s_i-mu_i) v_i)
                                     * h(xe - sum (s_i-mu_i) v_i)

Subset family (homogeneous SR distribution mu, isotropic rank-1 vectors):

    q_S(x) = mu(S) * h(xe - sum_{i in S} v_i)

Each root-node polynomial equals a differential-operator collapse.  Because
every v_i has hyperbolic rank <= 1, h is multilinear in the auxiliary
z-variables and applying prod_i (1 - 1/2 d^2/dz_i^2) at z=0 reduces to a
signed subset sum:

    signed:  sum_S (-1)^|S| (prod_{i in S} tau_i^2) * A_S(x)^2
    subset:  sum_S (-1)^|S| A_S(x) * g^(S)(x*1)

with A_S(x) = (prod_{i in S} D_{v_i}) h(xe) and g^(S)(x*1) =
sum_{T in supp, T >= S} mu(T) x^(|T|-|S|).  The collapse is exact (higher
z-powers cannot occur), so both routes can be compared coefficient-wise
over Fractions.  The signed collapse (kls_operator_form) is
summed over ints: the restrictions of h along e at the sums of every subset
of at most d of the integer vectors D v_i below, taken in one stacked call
(h.restrict_e_ints; for det, one batched characteristic-polynomial kernel
over the whole stack, ints in and out), one subset Moebius transform
(hyperbolic.subset_moebius) and one division at the end.  It never reads
the table, so it checks the table's root polynomial by an independent
route.  The subset collapse (ag_operator_form) takes its restrictions the
same way, for every subset of a support set in one stacked int call
(hyperbolic.subset_restrictions), and sums each A_S over those ints
(hyperbolic.derivative_restriction) before building its Fractions.

The same multilinearity gives every signed node without enumerating
completions.  With c_i = s_i - mu_i and a_T = (prod_{i in T} D_{v_i}) h(e),

    h(xe + sum_i c_i v_i) = sum_{|T| <= d} c^T a_T x^(d-|T|),

and the free c_i are independent with mean zero, so for a prefix s_1..s_l

    p_prefix(x) = Pr[prefix] * (-1)^d * sum_{F subset free, |F| <= d}
                  tau_F^2 P_F(x) P_F(-x),
    P_F(x) = sum_{A subset prefix, |F|+|A| <= d} c^A a_{F u A} x^(d-|F|-|A|).

The signed family has one lane, over exact rationals (a float is the
rational it is; each variable is scaled to ints once, by RandomVar), and
its data is checked once, where a file is loaded, by building the table of
a_T (KlsInstance.coefficient_table, KlsTable.build) by one of two routes:

* det with generators u_i that match the vectors (v_i = vec(u_i u_i^T),
  checked exactly): a_T = det(G_T) for the Gram matrix G = U^T U
  (Cauchy-Binet), every principal minor with |T| <= d from one batched
  integer elimination per size.  Rank <= 1 and the cone hold by
  construction.
* every other h (Lorentz, elem_sym, custom, det without matching
  generators): hyperbolic.mixed_derivative_table, the inclusion-exclusion
  of the vertex values h(e + w_U), which tests every rank exactly.

Both give the same ints.  The cone is then tested exactly on either
route, from the entries a_i.  Every signed node is read off that table;
no completion is enumerated.  The table is kept over ints (KlsTable).
With D the lcm of the vector entries' denominators, the vectors D v_i are
integral and b_T = D^|T| a_T is the table of a_T for them.  With L chosen so that every
L c_i and L^2 tau_i^2 is an int, the coefficient of x^(d-j) in P_F is
R_F[j] L^|F| / (L D)^j, where R_F[j] sums the ints (L c)^A b_{F u A}; each
term tau_F^2 P_F P_F then carries (L^2 tau^2)^F over (L D)^k, so the
node's coefficient of x^(2d-k) is Pr[prefix] N_k / (L D)^k for an int N_k.

R_F is computed by folding the prefix into the table (kls_fold): with C
the coordinates folded so far and U ranging over the rest,

    G[U][j] = sum_{A subset C, |U|+|A| = j} (L c)^A b_{U u A},

so G is the table itself for C empty, and R_F[j] = G[F][j] once the whole
prefix is folded.  Folding more values into G only adds them to A, so a
prefix can be folded in pieces: the search folds each committed round once
(KlsFamily.commit), and every oracle call of the next round folds just its
block into that G, which spans the uncommitted coordinates alone.  The
oracle then stays in ints: Pr[prefix] and E^2 cancel from the monic
coefficients N_j / (N_0 (L D)^j) (KlsFamily.scaled_top_coeffs).

A leaf is the node of a full assignment.  The fold gives it too, but the
oracle scores it from one int restriction instead (kls_leaf_poly): the int
sum W = L D w, y -> E h(ye + W) (h.restrict_e_ints: the Faddeev-LeVerrier
recurrence for det, the closed form for Lorentz), and N_k by kls_node_sums
of that one row, read with the inner nodes' formula.  Fractions are built
only for the root, by kls_node_poly from the table's own rows, 2d+1 of
them: for the root bound, verify and the barrier chain.

Subset nodes come from a per-instance leaf table (SrInstance.leaf_table),
one read-only array with one scaled leaf row mu(S) h(xe - sum_{i in S} v_i)
per support set, computed once by one route for every instance: the
stacked restriction h.restrict_e_rows, on chunks of LEAF_CHUNK sets, gives
the floats or Fractions of one restriction per set.  Which sets agree with
a prefix is read off the distribution's membership matrix
(SRDistribution.members), which needs no leaf.  A prefix's node is the sum
of the rows whose set agrees with it, added in support order from 0, which
is the order the per-set sum takes, so both give the same values; the
oracle reads a node's top coefficients off that sum, and ag_node_poly
builds the polynomial of the root alone, from every row.  No search writes
to the table.

Both families answer the search through one protocol.  The oracle
scaled_top_coeffs(prefix, k) gives a node's top-k monic coefficients as
(C, q), each family's top coefficients put through the one normaliser
scaled_monic; commit conditions the family on a committed prefix, and that
state lives on the family, one per search: KlsFamily keeps the table with
the prefix folded in, AgFamily the leaf-table rows that agree with it, so
the next round reads only its block's columns, on those rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import _integer_rows
from .errors import EmptyBranch, InvalidParams, ValueNotInSupport
from .graphs import Graph
from .hyperbolic import (
    DeterminantInstance,
    HyperbolicInstance,
    Spectrum,
    derivative_restriction,
    gram_minor_table,
    hyperbolic_traces,
    mixed_derivative_table,
    spectrum,
    subset_accumulate,
    subset_moebius,
    subset_restrictions,
)
from .srdist import (
    SRDistribution,
    effective_resistance_family,
    max_marginal,
    uniform_spanning_tree,
)
from .unipoly import UniPoly, max_real_root, real_roots

LEAF_CHUNK = 256  # support sets per batched leaf pass; bounds its temporaries


@dataclass(frozen=True)
class RandomVar:
    """Finite-support random variable, a float taken as the rational it is.
    Its int form is worked out once, on construction, and the sum check,
    mean, variance and KlsInstance.integer_data all read it."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probability lengths differ")
        if not self.support:
            raise ValueError("empty support")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support values must be distinct")
        if any(not p > 0 for p in self.probs):
            raise ValueError("probabilities must be positive")
        weights, q, *_ = self.int_form
        if sum(weights) != q:
            raise ValueError(f"probabilities sum to {Fraction(sum(weights), q)}")

    @staticmethod
    @functools.cache
    def rademacher() -> "RandomVar":
        """The one shared +-1 coin, so its int form is worked out once."""
        return RandomVar((Fraction(1), Fraction(-1)), (Fraction(1, 2), Fraction(1, 2)))

    @functools.cached_property
    def int_form(self) -> tuple:
        """(P, q, M, C, V, b) for the int support S = b s and probabilities
        P = q p over the lcms b and q of their denominators: the int mean
        M = sum P S (the mean is M / (b q)), the centered ints C = q S - M
        (s - mu = C / (b q)) and the spread V = sum P C^2 (the variance is
        V / (b^2 q^3)).  The probabilities sum to sum P / q."""
        (support,), b = _integer_rows([self.support])
        (weights,), q = _integer_rows([self.probs])
        mean = sum(map(operator.mul, support, weights))
        centered = tuple(q * x - mean for x in support)
        spread = sum(map(operator.mul, weights, (c * c for c in centered)))
        return tuple(weights), q, mean, centered, spread, b

    @property
    def mean(self) -> Fraction:
        _, q, mean, _, _, b = self.int_form
        return Fraction(mean, b * q)

    @property
    def variance(self) -> Fraction:
        _, q, _, _, spread, b = self.int_form
        return Fraction(spread, b * b * q ** 3)


@dataclass(frozen=True)
class KlsInstance:
    """Signed-discrepancy instance: hyperbolic h, rank-1 cone vectors, variables.

    The signed lane is exact from end to end, a float entry taken as the
    rational it is: files load their data as rationals, and loading builds
    the coefficient table, where the rank and the cone are checked exactly
    or hold by construction (KlsTable.build); build itself checks only the
    shapes.  The traces, tau^2 and sigma are computed on first use, and the
    search never reads them.  The traces take one stacked restriction, and
    tau^2 comes from the variables alone (RandomVar.variance).  sigma's
    variance mix is summed over ints without reading the traces or the
    coefficient table, so it costs one stacked int restriction and one
    exact characteristic polynomial, the mix's.
    """

    h: HyperbolicInstance
    vectors: tuple
    variables: tuple
    generators: tuple | None = None  # u_i with v_i = vec(u_i u_i^T): the Gram route's data

    @staticmethod
    def build(h: HyperbolicInstance, vectors, variables, generators=None) -> "KlsInstance":
        vectors = tuple(tuple(v) for v in vectors)
        variables = tuple(variables)
        if len(vectors) != len(variables):
            raise ValueError("need one random variable per vector")
        if not vectors:
            raise ValueError("need at least one vector")
        for v in vectors:
            h.check_dim(v)
        if generators is not None:
            generators = tuple(tuple(u) for u in generators)
        return KlsInstance(h, vectors, variables, generators)

    @functools.cached_property
    def traces(self) -> tuple:
        """The hyperbolic traces of the vectors (hyperbolic_traces, one
        stacked restriction): Fractions for exact vectors, floats else."""
        return hyperbolic_traces(self.h, self.vectors)

    @functools.cached_property
    def variance_mix(self) -> Spectrum:
        """The spectrum of the variance mix sum tau_i^2 tr[v_i] v_i, summed
        over ints.

        With D, L, the int vectors D v_i and L^2 tau_i^2 from integer_data,
        one stacked h.restrict_e_ints call on the D v_i gives rows whose top
        two coefficients are E a_0 = E h(e) and E D a_i, for a_i =
        D_{v_i} h(e) and tr[v_i] = a_i / a_0.  So sum_i (L^2 tau_i^2)
        (E D a_i) (D v_i) is the mix times L^2 D^2 E a_0, and one division
        per coordinate gives the mix's Fractions.
        """
        h = self.h
        vec_scale, var_scale, vectors, _, variances = self.integer_data
        rows, _ = h.restrict_e_ints(vectors)
        acc = [0] * h.m
        for v, weight, row in zip(vectors, variances, rows):
            weight *= row[h.d - 1]
            if weight:
                acc = [a + weight * x for a, x in zip(acc, v)]
        denom = (vec_scale * var_scale) ** 2 * rows[0][h.d]
        return spectrum(h, tuple(Fraction(a, denom) for a in acc))

    @functools.cached_property
    def sigma(self) -> float:
        """sqrt(||sum tau_i^2 tr[v_i] v_i||_h), the variance mix's norm."""
        return math.sqrt(max(float(self.variance_mix.norm), 0.0))

    @property
    def n(self) -> int:
        return len(self.vectors)

    def scaled(self, factor) -> "KlsInstance":
        """Instance with every vector multiplied by factor > 0, and the same
        variables; the result carries no generators."""
        vecs = tuple(tuple(factor * c for c in v) for v in self.vectors)
        return KlsInstance.build(self.h, vecs, self.variables)

    @functools.cached_property
    def tau_squares(self) -> tuple:
        """tau_i^2 = Var xi_i per variable, as Fractions (RandomVar.variance)."""
        return tuple(var.variance for var in self.variables)

    @functools.cached_property
    def generators_match(self) -> bool:
        """Whether generators holds one u_i of ints and Fractions per vector
        with v_i = vec(u_i u_i^T) exactly, over a determinant h: the data of
        KlsTable.build's Gram route, and the check a loaded file's generators
        must pass.  A float u_i does not match: its products are rounded, so
        its exact Gram matrix need not be that of the vectors."""
        h, gens = self.h, self.generators
        return (gens is not None and isinstance(h, DeterminantInstance) and len(gens) == self.n
                and all(len(u) == h.mprime and all(isinstance(x, (int, Fraction)) for x in u)
                        and h.vec_outer(u) == v for u, v in zip(gens, self.vectors)))

    @functools.cached_property
    def coefficient_table(self) -> "KlsTable":
        """The integer coefficient table (KlsTable.build), built on first
        use; raises RankTooHigh or InvalidParams for a vector of rank > 1 or
        outside the closed cone."""
        return KlsTable.build(self)

    @functools.cached_property
    def integer_data(self) -> tuple:
        """(D, L, vectors, centered, variances) for the vectors and
        variables, a float entry taken as the rational it is.

        D is the lcm of the vector entries' denominators and vectors holds
        the int vectors D v_i; L makes every L (s - mu_i) and L^2 tau_i^2 an
        int, centered[i] maps each support value s to L (s - mu_i), and
        variances[i] is L^2 tau_i^2.

        Every variable's numbers come from its int form
        (RandomVar.int_form): the centered value is C / (b q) and tau^2 =
        V / (b^2 q^3).  L0 clears every centered value; L = L0 m, with m
        clearing every L0^2 tau_i^2, makes L^2 tau_i^2 an int too.
        """
        ints, vec_scale = _integer_rows(self.vectors)
        offsets, spreads = [], []  # (C, b q) and (V, b^2 q^3) per variable
        for var in self.variables:
            _, q, _, centered, spread, b = var.int_form
            offsets.append((centered, b * q))
            spreads.append((spread, b * b * q ** 3))
        base = math.lcm(*(den // math.gcd(c, den) for centered, den in offsets for c in centered))
        var_scale = base * math.lcm(*(den // math.gcd(base * base * v, den) for v, den in spreads))
        return (vec_scale, var_scale, tuple(map(tuple, ints)),
                tuple({s: var_scale * c // den for s, c in zip(var.support, centered)}
                      for var, (centered, den) in zip(self.variables, offsets)),
                tuple(var_scale * var_scale * v // den for v, den in spreads))

    def centered_ints(self, assignment) -> tuple:
        """W = L D sum_i (s_i - mu_i) v_i, an int vector (integer_data)."""
        _, _, vectors, centered, _ = self.integer_data
        acc = [0] * self.h.m
        for v, cent, s in zip(vectors, centered, assignment):
            c = _centered_value(cent, s)
            if c:
                acc = [a + c * x for a, x in zip(acc, v)]
        return tuple(acc)

    def centered_sum(self, assignment) -> tuple:
        """w = sum_i (s_i - mu_i) v_i: centered_ints over L D."""
        vec_scale, var_scale, *_ = self.integer_data
        denom = vec_scale * var_scale
        return tuple(Fraction(x, denom) for x in self.centered_ints(assignment))


def _centered_value(cent: dict, s) -> int:
    """L (s - mu_i) for a value s of variable i, from its map centered[i]
    (KlsInstance.integer_data); a value outside the support raises."""
    try:
        return cent[s]
    except KeyError:
        raise ValueNotInSupport(f"value {s!r} not in support {tuple(cent)!r}") from None


@dataclass(frozen=True)
class SrInstance:
    """Subset-selection instance: SR distribution plus isotropic rank-1 vectors.

    eps1, eps2 and the leaf table are computed on first use, so loading a
    file computes no marginal and no restriction; the search reads only the
    table.  build checks only the shapes, not the vectors' rank, cone or sum.
    """

    h: HyperbolicInstance
    mu: SRDistribution
    vectors: tuple

    @staticmethod
    def build(h: HyperbolicInstance, mu: SRDistribution, vectors) -> "SrInstance":
        vectors = tuple(tuple(v) for v in vectors)
        if len(vectors) != mu.n:
            raise ValueError("need one vector per ground-set element")
        for v in vectors:
            h.check_dim(v)
        return SrInstance(h, mu, vectors)

    @functools.cached_property
    def eps1(self) -> float:
        """Largest single-element marginal."""
        return float(max_marginal(self.mu))

    @functools.cached_property
    def eps2(self) -> float:
        """Largest hyperbolic trace of a vector."""
        return max(map(float, hyperbolic_traces(self.h, self.vectors)))

    @functools.cached_property
    def leaf_table(self) -> np.ndarray:
        """The leaves of the subset family as one read-only array, one row
        per support set in support order: rows[r] holds the d + 1 ascending
        coefficients of mu(S) * h(xe - sum_{i in S} v_i), float64 for float
        vectors (mu.float_probs) and Fractions for exact ones
        (mu.fractions).  Each set's vectors are summed by _set_sums, the
        sum AgFamily.leaf_norm takes, and each row is scaled by mu(S)
        coefficient by coefficient, as restrict_line and a per-set sum
        would do one set at a time.
        Which rows agree with a committed prefix is kept on the search's
        family (AgFamily), never here."""
        sets, vecs = self.mu.sets, np.array(self.vectors)
        if vecs.dtype == np.float64:
            probs = self.mu.float_probs
        else:  # exact vectors, summed as objects by _set_sums
            probs = np.array(self.mu.fractions(), dtype=object)
        chunks = []
        for lo in range(0, len(sets), LEAF_CHUNK):
            chunk = sets[lo:lo + LEAF_CHUNK]
            leaves = self.h.restrict_e_rows(-_set_sums(vecs, chunk))
            chunks.append(probs[lo:lo + len(chunk), None] * leaves)
        rows = np.concatenate(chunks)
        rows.setflags(write=False)
        return rows

    @staticmethod
    def from_graph(graph: Graph, exact: bool = False) -> "SrInstance":
        """Uniform spanning trees paired with effective-resistance vectors.

        With ``exact=True`` the (float) basis is lifted to exact rationals
        before the outer products, so each vector is exactly rank-1 and the
        operator identities hold coefficient-wise over Fractions.
        """
        mu = uniform_spanning_tree(graph)
        fam = effective_resistance_family(graph)
        if not exact:
            return SrInstance.build(fam.h, mu, fam.vectors)
        rows = [[Fraction(x) for x in row] for row in fam.basis]
        vectors = []
        for u, v in graph.edges:
            w = [row[u] - row[v] for row in rows]
            vectors.append(fam.h.vec_outer(tuple(w)))
        return SrInstance.build(fam.h, mu, tuple(vectors))

    @property
    def n(self) -> int:
        return self.mu.n


def _set_sums(vectors, sets: np.ndarray) -> np.ndarray:
    """sum_{i in S} v_i for each row S of sets, a row each: the vectors
    added in element order from 0, as float64 for float vectors and as
    exact objects else."""
    vecs = np.asarray(vectors)
    if vecs.dtype != np.float64:
        vecs = vecs.astype(object, copy=False)
    w = np.zeros((len(sets), vecs.shape[1]), dtype=vecs.dtype)
    for col in sets.T:
        w = w + vecs[col]
    return w


# ---------------------------------------------------------------------------
# Node polynomials (conditional sums over completions).
# ---------------------------------------------------------------------------

def kls_leaf_poly(inst: KlsInstance, assignment) -> tuple:
    """h(xe + w) h(xe - w) for the centered signed sum w, without the
    probability prefactor, as ints (N, E^2): the coefficient of x^(2d-k) is
    N[k] / (E^2 (L D)^k).

    h is homogeneous, so with W = L D w (KlsInstance.centered_ints) and R[j]
    the coefficient of y^(d-j) in y -> E h(ye + W) (one h.restrict_e_ints),
    P(x) = h(xe + w) has R[j] / (E (L D)^j) at x^(d-j), and h(xe - w) =
    (-1)^d P(-x).  So N is kls_node_sums of the one row R, as for a node
    whose fold has the empty free set alone: a full assignment's.
    """
    (row,), outer = inst.h.restrict_e_ints([inst.centered_ints(assignment)])
    return kls_node_sums({0: 1}, {0: row[::-1]}, 2 * inst.h.d), outer * outer


@dataclass(frozen=True, eq=False)
class KlsTable:
    """The signed family's coefficient table over ints (module docstring).

    entries[T] = E D^|T| a_T for every |T| <= d, keyed by bitmask in
    increasing order; centered[i] maps each support value s of variable i
    to L (s - mu_i), and variances[i] is L^2 tau_i^2.  E, the lcm of the
    denominators of the table of the D v_i, is 1 unless h itself has
    non-integer coefficients.  scale is L D, and denominator is E^2.
    """

    entries: dict
    centered: tuple
    variances: tuple
    scale: int
    denominator: int
    d: int

    @staticmethod
    def build(inst: KlsInstance) -> "KlsTable":
        """The table of the integer vectors D v_i of inst.integer_data, by
        one of two routes (module docstring): gram_minor_table for a
        determinant whose generators match (inst.generators_match), where
        rank <= 1 and the cone hold by construction; mixed_derivative_table
        for every other h, which tests every rank exactly and raises
        RankTooHigh.  Both give the same ints.

        Then the cone is tested exactly, on either route.  A vector v of
        rank <= 1 has one eigenvalue that may be nonzero, D_v h(e) / h(e),
        and h(e) > 0, so v lies in the closed cone iff its entry a_{i} =
        D_v h(e) is >= 0; InvalidParams is raised for the first vector that
        fails.
        """
        vec_scale, var_scale, vectors, centered, variances = inst.integer_data
        if inst.generators_match:
            entries, outer = gram_minor_table(inst.h, inst.generators, vec_scale)
        else:
            entries, outer = mixed_derivative_table(inst.h, vectors)
        for i in range(inst.n):
            if entries[1 << i] < 0:
                raise InvalidParams(f"vector {i} lies outside the closed cone")
        return KlsTable(
            entries,
            centered,
            variances,
            var_scale * vec_scale,
            outer * outer,
            inst.h.d,
        )

    @functools.cached_property
    def rows(self) -> dict:
        """The table as the rows of the empty prefix: rows[T] = [b_T]."""
        return {mask: [b] for mask, b in self.entries.items() if b}

    @functools.cached_property
    def weights(self) -> dict:
        """weights[F] = (L^2 tau^2)^F for every mask of the table."""
        return subset_accumulate(self.entries, self.variances, operator.mul, 1)


def kls_fold(table: KlsTable, rows: dict, lo: int, values) -> dict:
    """Substitute values for the coordinates lo, lo + 1, ... of folded rows.

    rows[U][t] = G[U][|U| + t], where G[U][j] sums (L c)^A b_{U u A} over
    the A of the coordinates below lo with |U| + |A| = j, and U ranges over
    the coordinates from lo up.  The result is the same for the coordinates
    from lo + len(values) up, so folding a prefix in pieces equals folding it
    at once, and folding no values returns rows itself.
    """
    if lo + len(values) > len(table.centered):
        raise ValueError("prefix longer than the variable list")
    if not values:
        return rows
    factors = [_centered_value(cent, s) for s, cent in zip(values, table.centered[lo:])]
    prods = [1]  # prods[a] = (L c)^a over the block's bits a
    for f in factors:
        prods += [p * f for p in prods]
    shifts = [a.bit_count() for a in range(len(prods))]
    block = (len(prods) - 1) << lo
    width = table.d + 1
    out: dict = {}
    for mask, row in rows.items():
        a = (mask & block) >> lo
        p = prods[a]
        if p:
            free = mask ^ (mask & block)
            acc = out.get(free)
            if acc is None:
                acc = out[free] = [0] * (width - free.bit_count())
            if len(row) == 1:  # one entry: |U| = d, or a row of the table itself
                acc[shifts[a]] += p * row[0]
            else:
                for t, v in enumerate(row, shifts[a]):
                    acc[t] += p * v
    return out


def kls_node_sums(weights: dict, rows: dict, top: int) -> list:
    """N_0..N_top of the node whose prefix is folded into rows, for the
    table's weights (KlsTable.weights).

    N_k = sum_F (L^2 tau^2)^F sum_{j+j'=k} (-1)^j' R_F[j] R_F[j'], with
    R_F[j] = rows[F][j - |F|].  Each term and its mirror cancel for odd k
    (the node is even in x), so only even k are summed, and there
    (-1)^j' = (-1)^j.
    """
    sums = [0] * (top + 1)
    for free, row in rows.items():
        w = weights[free]
        if not w:
            continue
        r = free.bit_count()
        if r % 2:
            w = -w
        last = len(row) - 1
        if not last:  # |F| = d: the row is b_F alone
            if 2 * r <= top:
                sums[2 * r] += w * row[0] * row[0]
            continue
        for u in range(0, min(top - 2 * r, 2 * last) + 1, 2):
            half = u // 2
            acc = 0
            for t in range(max(0, u - last), half):
                prod = row[t] * row[u - t]
                acc += -prod if t % 2 else prod
            mid = row[half] * row[half]
            sums[2 * r + u] += w * (2 * acc + (-mid if half % 2 else mid))
    return sums


def kls_node_poly(inst: KlsInstance) -> UniPoly:
    """The root polynomial, read off inst.coefficient_table: the coefficient
    of x^(2d-k) is N_k / (E^2 (L D)^k), with N_k the kls_node_sums of the
    table's own rows (the empty prefix, which folds nothing and has
    probability 1).

    The cost is linear in the table; no completion is enumerated and no
    line restriction is taken.  This is the signed lane's one Fraction
    route, read by the root bound, verify and the barrier chain; the
    search's oracle reads every node's N_k as ints
    (KlsFamily.scaled_top_coeffs).
    """
    table = inst.coefficient_table
    d = table.d
    sums = kls_node_sums(table.weights, table.rows, 2 * d)
    return UniPoly.from_coeffs([Fraction(sums[k], table.denominator * table.scale ** k)
                                for k in range(2 * d, -1, -1)])


def kls_operator_form(inst: KlsInstance) -> UniPoly:
    """The multilinear collapse of prod (1 - 1/2 d^2/dz_i^2) (h(xe+sum z_i tau_i v_i))^2.

    Equals kls_node_poly(inst) coefficient-wise; evaluated through the exact
    signed subset sum sum_S (-1)^|S| tau_S^2 A_S^2 rather than a symbolic
    multivariate expansion, over ints.  The restriction route: with D, L and
    the int vectors D v_i of inst.integer_data, one stacked call of
    h.restrict_e_ints takes the restrictions x -> E h(xe + sum_{i in U} D v_i)
    for every |U| <= d at once, as ints, and subset_moebius turns them into
    A'_S = E D^|S| A_S as int coefficient lists (A_S vanishes for |S| > d, a
    product of more than d derivatives of a degree-d form).  Then

        collapse = sum_S (-1)^|S| (L^2 tau^2)^S (L D)^(2(d-|S|)) A'_S^2
                   / (E^2 (L D)^(2d)),

    with one division per coefficient, at the end.  It reads neither the
    coefficient table nor its check, so it stays an independent route to
    the root polynomial (kls_node_poly).
    """
    vec_scale, var_scale, vectors, _, variances = inst.integer_data
    h, d = inst.h, inst.h.d
    rows, outer = subset_moebius(h, vectors, h.restrict_e_ints)
    step = (var_scale * vec_scale) ** 2
    total = [0] * (2 * d + 1)
    for mask, weight in subset_accumulate(rows, variances, operator.mul, 1).items():
        row = rows[mask]
        if not weight or not any(row):
            continue
        r = mask.bit_count()
        weight *= step ** (d - r)
        if r % 2:
            weight = -weight
        for j, a in enumerate(row):
            if a:
                for k, b in enumerate(row, j):
                    total[k] += weight * a * b
    denom = outer * outer * step ** d
    return UniPoly.from_coeffs([Fraction(c, denom) for c in total])


def _leaf_sum(rows: np.ndarray, partial) -> np.ndarray:
    """The leaf-table rows of a prefix's agreeing sets, added in support
    order from 0."""
    if not len(rows):
        raise EmptyBranch(f"no support set extends prefix {partial!r}")
    # cumsum adds row by row; + 0 gives the 0.0 that a sum started at 0
    # leaves where cumsum keeps a -0.0, and leaves Fractions exact.
    return np.cumsum(rows, axis=0)[-1] + 0


def ag_node_poly(inst: SrInstance) -> UniPoly:
    """The root polynomial: every leaf-table row, added in support order
    from 0, as the oracle adds the rows of a node's agreeing sets."""
    return UniPoly.from_coeffs(_leaf_sum(inst.leaf_table, ()).tolist())


def ag_operator_form(inst: SrInstance) -> UniPoly:
    """Signed subset collapse sum_S (-1)^|S| A_S(x) g^(S)(x 1).

    Only subsets of support sets contribute (g^(S) vanishes otherwise).
    Every support set has d_mu elements (a row of SRDistribution.sets), so
    g^(S) is the one monomial (sum_{T >= S} mu(T)) x^(d_mu - |S|); the sums
    are taken over the int weights, and the collapse is divided by the
    denominator once.  Each
    A_S comes from derivative_restriction, whose cache one stacked int
    restriction fills first with x -> h(x e + w_U) for every subset U of a
    support set (subset_restrictions).  derivative_restriction stays only
    because hdbench's certify trace coverage requires its calls and cache
    hits; it goes with the declared benchmark revision of ROADMAP item 6.
    """
    weights: dict = {}  # subset -> q times the sum of mu(T) over T >= subset, an int
    for elems, w in zip(inst.mu.sets.tolist(), inst.mu.weights):  # elements ascending
        for r in range(len(elems) + 1):
            for subset in itertools.combinations(elems, r):
                weights[subset] = weights.get(subset, 0) + w
    subsets = sorted(weights, key=lambda s: (len(s), s))
    cache: dict = {}
    subset_restrictions(inst.h, inst.vectors, subsets, cache)
    acc = [0] * (inst.h.d + inst.mu.d_mu + 1)
    for subset in subsets:
        weight = weights[subset] if len(subset) % 2 == 0 else -weights[subset]
        a_s = derivative_restriction(inst.h, inst.vectors, subset, cache)
        for k, c in enumerate(a_s.coeffs, inst.mu.d_mu - len(subset)):
            acc[k] += weight * c
    return UniPoly.from_coeffs([Fraction(c, inst.mu.denominator) for c in acc])


def ag_substitution_identity(inst: SrInstance) -> tuple:
    """Both sides of x^d_mu E[h(x^2 e - sum_{i in T} v_i)] = x^d * collapse.

    Returns (lhs, rhs) as polynomials in x for coefficient-wise comparison.
    """
    lhs = ag_node_poly(inst).compose_xsquare().shift_degree(inst.mu.d_mu)
    rhs = ag_operator_form(inst).shift_degree(inst.h.d)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Family adapters consumed by the search algorithms.
# ---------------------------------------------------------------------------

def scaled_monic(top, scale: int = 1) -> tuple:
    """The oracle's answer (C, q), c_j = C_j / q^j, for descending top
    coefficients a_0..a_k.  Ints stand for a_j / scale^j: C_j = a_j a_0^(j-1)
    and q = a_0 scale.  Fractions are first scaled to ints by the lcm of
    their denominators, with scale 1.  Floats give c_j = a_j / a_0, q = 1.
    """
    lead = top[0]
    if isinstance(lead, float):
        return tuple(a / lead for a in top[1:]), 1
    if isinstance(lead, Fraction):
        (top,), _ = _integer_rows([top])
        lead = top[0]
    return tuple(a * lead ** (j - 1) for j, a in enumerate(top[1:], 1)), lead * scale


class _SearchFamily:
    """What the blocked search reads of a family (n, branch_sets, degree),
    and the family's state conditioned on a committed prefix (_condition),
    from which the oracle reads every prefix that extends it."""

    _committed = None  # (prefix, its state), set by commit

    def __init__(self, inst, branch_sets: list, degree: int):
        self.inst, self.n, self.branch_sets, self.degree = inst, inst.n, branch_sets, degree

    def commit(self, assignment) -> None:
        """Condition the state on a committed prefix once, so that the
        oracle reads only the uncommitted coordinates of its extensions."""
        assignment = tuple(assignment)
        done, state = self._base(assignment)
        self._committed = (assignment, self._condition(state, len(done), assignment[len(done):]))

    def _base(self, prefix: tuple) -> tuple:
        """The committed prefix and its state if prefix extends it, else the
        empty prefix and the unconditioned state."""
        if self._committed and prefix[:len(self._committed[0])] == self._committed[0]:
            return self._committed
        return (), self._unconditioned


class KlsFamily(_SearchFamily):
    """Search-facing view of the signed family.  Its state is the
    coefficient table with a committed prefix folded in (kls_fold), so each
    oracle call of the next round folds just its block."""

    def __init__(self, inst: KlsInstance):
        super().__init__(inst, [tuple(var.support) for var in inst.variables], 2 * inst.h.d)

    @property
    def _unconditioned(self) -> dict:
        return self.inst.coefficient_table.rows

    def _condition(self, rows: dict, lo: int, values) -> dict:
        return kls_fold(self.inst.coefficient_table, rows, lo, values)

    def scaled_top_coeffs(self, prefix, k: int) -> tuple:
        """Top-k monic coefficients of a node as ints (C, q) with
        c_j = C_j / q^j.

        An inner node's N_j come from kls_node_sums of its fold, and a
        leaf's from its one int restriction (kls_leaf_poly).  Either way,
        with s = L D, c_j = N_j / (N_0 s^j): Pr[prefix] and E^2 cancel, and
        N_0 = (E h(e))^2 > 0 for the node's own E, so scaled_monic of
        N_0..N_k with scale s gives the answer.
        """
        prefix = tuple(prefix)
        table = self.inst.coefficient_table
        if len(prefix) == self.n:
            sums = kls_leaf_poly(self.inst, prefix)[0]
        else:
            done, rows = self._base(prefix)
            sums = kls_node_sums(table.weights, self._condition(rows, len(done), prefix[len(done):]), k)
        return scaled_monic(sums[:k + 1], table.scale)

    def feasible(self, prefix) -> bool:
        return True

    def root_max_root(self) -> float:
        """The root node's largest root, read off the coefficient table
        (kls_node_poly), built and checked when the file is loaded."""
        return max_real_root(kls_node_poly(self.inst))

    def leaf_norm(self, assignment) -> float:
        w = self.inst.centered_sum(assignment)
        return spectrum(self.inst.h, w).norm


class AgFamily(_SearchFamily):
    """Search-facing view of the subset family (0/1 branch values).  Its
    state is the leaf-table rows that agree with a committed prefix and
    their packed codes per length; it also keeps the last prefix asked and
    its rows, which feasible and then the oracle read."""

    def __init__(self, inst: SrInstance):
        super().__init__(inst, [(0, 1)] * inst.n, inst.h.d)
        self._last = (None, None)  # the last prefix asked and its rows

    @functools.cached_property
    def _unconditioned(self) -> tuple:
        """Every support set's row index, and no codes yet."""
        return np.arange(len(self.inst.mu.sets)), {}

    def _condition(self, state: tuple, lo: int, bits) -> tuple:
        """The rows of state whose columns lo, lo + 1, ... agree with bits,
        as a new state.  The columns are packed into one code per row, bit i
        for column lo + i, once per length: a round asks for one only."""
        rows, codes = state
        packed = codes.get(len(bits))
        if packed is None:
            weights = np.array([1 << i for i in range(len(bits))],
                               dtype=np.int64 if len(bits) < 64 else object)
            packed = codes[len(bits)] = self.inst.mu.members[rows, lo:lo + len(bits)] @ weights
        target = sum(1 << i for i, bit in enumerate(bits) if bit)
        return rows[packed == target], {}

    def agreeing(self, prefix) -> np.ndarray:
        """Indices, in support order, of the support sets that agree with a
        0/1 membership prefix.  The returned array is shared, so callers
        must not modify it."""
        key = tuple(prefix)
        if self._last[0] != key:
            done, state = self._base(key)
            self._last = (key, self._condition(state, len(done), key[len(done):])[0])
        return self._last[1]

    def scaled_top_coeffs(self, prefix, k: int) -> tuple:
        """Top-k monic coefficients of a node: the agreeing leaf-table rows
        added as ag_node_poly adds them, and scaled_monic of the top k + 1
        of the sum (ints for exact rows, floats with q = 1 for float ones)."""
        total = _leaf_sum(self.inst.leaf_table[self.agreeing(prefix)], prefix)
        return scaled_monic(total[::-1][:k + 1].tolist())

    def feasible(self, prefix) -> bool:
        return len(self.agreeing(prefix)) > 0

    def root_max_root(self) -> float:
        return max_real_root(ag_node_poly(self.inst))

    def leaf_norm(self, assignment) -> float:
        elems = np.flatnonzero(np.asarray(assignment, dtype=bool))
        w = _set_sums(self.inst.vectors, elems[None])[0]
        return spectrum(self.inst.h, tuple(w.tolist())).norm
