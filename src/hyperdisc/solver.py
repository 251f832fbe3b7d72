"""Largest-root estimation and the blocked coefficient-oracle search.

The search approximates the minimizing leaf of an interlacing family
without expanding most of it.  Newton's identities turn the top-k monic
coefficients c_1..c_k of a node polynomial into the k-th power sum p_k of
its roots; for even k,
lambda_1 <= p_k^(1/k) <= deg^(1/k) * max|lambda|, so p_k^(1/k) scores a
node to within deg^(1/k) whenever the spectrum is symmetric or nonnegative
(both families here are).  Greedy block-by-block minimization of that score
then lands on a leaf whose exact recomputed norm is certified post hoc
against (1 + delta) times the root-node bound.

Coefficients come from the family's node polynomial, and both families
read it off a per-instance table (see mixedchar): a signed inner node is
summed from the mixed-derivative coefficient table, so no completion is
enumerated, and a subset node from the leaf table, so no leaf is restricted
twice; the table is conditioned on each round's commit (AgFamily.commit).

Exact coefficients stay ints.  The oracle answers (C, q) with monic
coefficients c_j = C_j / q^j, and because p_j has weight j in the c_i,
Newton's recurrence run on the C_j gives P_k = p_k q^k.  One division
P_k / q^k, which rounds correctly, turns it into the same float the
Fraction route gives.  Signed inner nodes come as ints straight off the
folded table, with the committed rounds folded in once per round
(KlsFamily.commit).  Signed leaves are summed over ints too
(mixedchar.kls_leaf_poly), but reach the oracle as the 2d+1 Fractions of
node_poly, as do exact subset nodes; integer_top_coeffs scales those back
to ints by the lcm of their denominators.  Float nodes keep q = 1.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# hdbench/test_bench_trace.py::test_tracer_restores_every_binding reads this binding.
from ._exact import _integer_rows, char_poly_exact
from .errors import CertificationFailed, InvalidParams, OddK, OracleFailure, TooLarge
from .mixedchar import KlsInstance
from .scalars import CERTIFY_SLACK_TOL
from .unipoly import UniPoly

MAX_BRUTE_BRANCHES = 1 << 16


def power_sum(k: int, coeffs):
    """k-th power sum of the roots of a monic polynomial from its top
    coefficients c_1..c_k (descending degree), by Newton's identities

        p_j = -(c_1 p_{j-1} + c_2 p_{j-2} + ... + c_{j-1} p_1 + j c_j),

    in O(k^2) work.
    """
    p = [0] * (k + 1)
    for j in range(1, k + 1):
        acc = 0
        for i in range(1, j):
            acc = acc + coeffs[i - 1] * p[j - i]
        p[j] = -(acc + j * coeffs[j - 1])
    return p[k]


def max_root_estimate(deg: int, k: int, coeffs, scale=1) -> float:
    """(p_k)^(1/k) from the top-k monic coefficients c_j = coeffs[j-1] / scale^j.

    Even k keeps p_k = sum lambda_i^k nonnegative for every real spectrum,
    giving lambda_1 <= estimate <= deg^(1/k) max|lambda_i| unconditionally.
    Newton's recurrence is homogeneous (p_j has weight j in the c_i), so on
    the scaled coefficients it gives P_k = p_k scale^k, and the one division
    P_k / scale^k rounds p_k correctly: ints give the float of the exact
    Fraction route.
    """
    if k % 2 != 0:
        raise OddK("largest-root estimation needs an even power-sum index")
    if k < 2 or k > deg:
        raise ValueError(f"need an even k with 2 <= k <= degree, got k={k} deg={deg}")
    if len(coeffs) < k:
        raise ValueError("need the top k coefficients")
    try:
        pk = float(power_sum(k, coeffs) / scale ** k)
    except OverflowError as exc:
        raise TooLarge(f"the power sum p_{k} lies past the binary64 range") from exc
    return max(pk, 0.0) ** (1.0 / k)


def monic_top_coeffs(poly: UniPoly, k: int) -> tuple:
    lead = poly.leading
    deg = poly.degree
    out = []
    for j in range(1, k + 1):
        idx = deg - j
        c = poly.coeffs[idx] if idx >= 0 else 0
        out.append(c / lead)
    return tuple(out)


def integer_top_coeffs(poly: UniPoly, k: int) -> tuple:
    """monic_top_coeffs of an exact polynomial as ints (C, q) with
    c_j = C_j / q^j: with a_i the top coefficients times the lcm of their
    denominators, q = a_0 and C_j = a_j a_0^(j-1)."""
    deg = poly.degree
    (ints,), _ = _integer_rows([[poly.coeffs[deg - j] if deg - j >= 0 else 0
                                 for j in range(k + 1)]])
    lead = ints[0]
    return tuple(ints[j] * lead ** (j - 1) for j in range(1, k + 1)), lead


def maxcoeff_enum(family, k: int, prefix) -> tuple:
    """Top-k monic coefficients of the family's node polynomial, as
    (coeffs, scale) with c_j = coeffs[j-1] / scale^j.

    Signed inner nodes come as ints off the folded coefficient table
    (KlsFamily.scaled_top_coeffs), so no Fraction is built.  Every other
    node is read off node_poly: subset nodes off the leaf table, signed
    leaves by their int restriction (kls_node_poly).  Exact ones are then
    scaled to ints as well; float ones keep scale 1.
    """
    scaled = family.scaled_top_coeffs(prefix, k)
    if scaled is not None:
        return scaled
    poly = family.node_poly(prefix)
    if isinstance(poly.leading, Fraction):
        return integer_top_coeffs(poly, k)
    return monic_top_coeffs(poly, k), 1


# ---------------------------------------------------------------------------
# Blocked search.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    delta: float
    block: int | None = None
    k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidParams(f"delta must be finite and > 0, got {self.delta}")
        if self.block is not None and self.block < 1:
            raise InvalidParams(f"block must be >= 1, got {self.block}")
        if self.k is not None and (self.k < 2 or self.k % 2):
            raise InvalidParams(f"k must be even and >= 2, got {self.k}")

    def resolve(self, n: int, degree: int) -> tuple:
        """Concrete (M, k) for an n-variable family of given degree.

        Defaults: M = ceil(sqrt(n)); k = ceil(2 M ln(degree) / delta)
        rounded up to even.  Either k is then clamped to the largest even
        k <= degree (the power-sum index cannot exceed the degree).  The
        default's raw quotient is clamped to the degree before ceil, which
        leaves k as it was and keeps a tiny delta's quotient, inf, from
        reaching ceil.
        """
        m_block = self.block if self.block is not None else max(1, math.ceil(math.sqrt(n)))
        if self.k is not None:
            k = self.k
        else:
            k = math.ceil(min(2 * m_block * math.log(max(degree, 2)) / self.delta, degree))
            k += k % 2
        if degree < 2:
            return m_block, 1  # linear nodes: the top coefficient is the root
        k = max(2, min(k, degree - (degree % 2)))
        return m_block, k


@dataclass(frozen=True)
class SearchResult:
    assignment: tuple
    estimate: float
    certified: float
    bound: float
    oracle_calls: int
    seed: int

    def to_json(self) -> dict:
        """Wire format: the fields the CLI prints."""
        return {
            "assignment": [f"{s.numerator}/{s.denominator}" if isinstance(s, Fraction)
                           else s for s in self.assignment],
            "estimate": self.estimate,
            "certified": self.certified,
            "bound": self.bound,
            "oracle_calls": self.oracle_calls,
            "seed": self.seed,
        }


def kadison_singer_search(family, cfg: SolverConfig) -> SearchResult:
    """Blocked greedy minimization of the largest-root estimate.

    Walks ceil(n/M) rounds; each round brute-forces all value tuples for the
    next M coordinates, scores each by max_root_estimate on oracle
    coefficients, and keeps the minimizer (ties resolve to the first tuple
    in lexicographic support order).  The returned assignment is certified
    post hoc by an exact spectral norm, which must stay within (1 + delta)
    of the root-node largest root; violations raise, never pass silently.
    """
    n = family.n
    degree = family.degree
    m_block, k = cfg.resolve(n, degree)

    assignment: tuple = ()
    oracle_calls = 0
    last_estimate = math.inf
    for lo in range(0, n, m_block):
        hi = min(lo + m_block, n)
        best = None
        for combo in itertools.product(*family.branch_sets[lo:hi]):
            prefix = assignment + combo
            if not family.feasible(prefix):
                continue
            try:
                coeffs, scale = maxcoeff_enum(family, k, prefix)
                oracle_calls += 1
                if degree >= 2:
                    est = max_root_estimate(degree, k, coeffs, scale)
                else:
                    est = -float(coeffs[0] / scale)  # monic linear node: root is -c1
            except (OddK, TooLarge):
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise OracleFailure(f"oracle failed on prefix {prefix!r}: {exc}") from exc
            if best is None or est < best[0]:
                best = (est, combo)
        if best is None:
            raise OracleFailure(f"no feasible tuple for block [{lo}, {hi})")
        last_estimate = best[0]
        assignment = assignment + best[1]
        if hi < n:
            family.commit(assignment)

    root_max = family.root_max_root()
    certified = family.leaf_norm(assignment)
    bound = (1.0 + cfg.delta) * root_max
    if certified > bound + CERTIFY_SLACK_TOL * max(1.0, abs(bound)):
        raise CertificationFailed(certified, bound)
    return SearchResult(assignment, float(last_estimate), float(certified),
                        float(bound), oracle_calls, cfg.seed)


# ---------------------------------------------------------------------------
# Exact brute force and the random-coloring baseline.
# ---------------------------------------------------------------------------

def brute_force(inst, kind: str) -> tuple:
    """Exhaustive minimization of the discrepancy norm.

    Signed instances range over all support tuples of the centered sum;
    subset instances over the distribution's support sets.  Ties resolve to
    the first assignment in lexicographic support order.
    """
    if kind == "kls":
        count = math.prod(len(var.support) for var in inst.variables)
        if count > MAX_BRUTE_BRANCHES:
            raise TooLarge(f"{count} assignments exceed {MAX_BRUTE_BRANCHES}")
        vecs = np.array([[float(c) for c in v] for v in inst.vectors])
        # values[i, j] = float(s_j - mu_i) for the j-th support value of
        # variable i; picks[a] holds assignment a's support indices, in
        # lexicographic support order.
        sizes = [len(var.support) for var in inst.variables]
        values = np.zeros((inst.n, max(sizes)))
        for i, var in enumerate(inst.variables):
            values[i, :sizes[i]] = [float(s - var.mean) for s in var.support]
        picks = np.indices(sizes).reshape(inst.n, -1).T
        centered = values[np.arange(inst.n), picks]
        norms = inst.h.norms(centered @ vecs)
        best = int(np.argmin(norms))
        assignment = tuple(var.support[j] for var, j in zip(inst.variables, picks[best]))
        return assignment, float(norms[best])
    if kind == "ag":
        vecs = np.array([[float(c) for c in v] for v in inst.vectors])
        rows = []
        membership = []
        for elems, _ in inst.mu.support:
            indicator = np.zeros(inst.n)
            for e in elems:
                indicator[e] = 1.0
            membership.append(tuple(int(b) for b in indicator))
            rows.append(indicator @ vecs)
        norms = inst.h.norms(np.array(rows))
        best = int(np.argmin(norms))
        return membership[best], float(norms[best])
    raise ValueError("kind must be 'kls' or 'ag'")


@dataclass(frozen=True)
class BaselineSummary:
    """The order statistics bench prints of the random assignments' norms."""

    minimum: float
    median: float
    maximum: float


def random_baseline(inst, trials: int, seed: int = 0) -> BaselineSummary:
    """I.i.d. random assignments: the matrix-Chernoff-style comparison point."""
    vecs = np.array([[float(c) for c in v] for v in inst.vectors])
    rows = np.zeros((trials, inst.n))
    if isinstance(inst, KlsInstance):
        means = [float(var.mean) for var in inst.variables]
        cum = []
        for var in inst.variables:
            probs = [float(p) for p in var.probs]
            cum.append(np.cumsum(probs))
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            for i, var in enumerate(inst.variables):
                u = rng.random()
                j = int(np.searchsorted(cum[i], u))
                j = min(j, len(var.support) - 1)
                rows[t, i] = float(var.support[j]) - means[i]
    else:
        probs = np.cumsum([float(p) for _, p in inst.mu.support])
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            j = int(np.searchsorted(probs, rng.random()))
            j = min(j, len(inst.mu.support) - 1)
            for e in inst.mu.support[j][0]:
                rows[t, e] = 1.0
    arr = np.sort(inst.h.norms(rows @ vecs))
    return BaselineSummary(float(arr[0]), float(np.quantile(arr, 0.5)), float(arr[-1]))
