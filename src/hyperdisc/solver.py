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

Every node reaches the oracle the same way, through the family's
scaled_top_coeffs, which reads it off a per-instance table (see
mixedchar); the family, never the instance, holds what each round's
commit conditions.  A signed inner node is summed from the mixed-derivative
coefficient table with the committed rounds folded in once per round, so
no completion is enumerated, and a signed leaf comes from its one int
restriction (mixedchar.kls_leaf_poly); a subset node is the sum of the
leaf-table rows that agree with it, so no leaf is restricted twice.  Brute
force and the random baseline read the subset distribution's membership
matrix and binary64 probabilities (SRDistribution.members, float_probs)
and build no leaf.

Exact coefficients stay ints.  The oracle answers (C, q) with monic
coefficients c_j = C_j / q^j (mixedchar.scaled_monic), and because p_j has
weight j in the c_i, Newton's recurrence run on the C_j gives
P_k = p_k q^k.  One division P_k / q^k, which rounds correctly, turns it
into the same float the Fraction route gives.  Signed nodes are ints from
the start, exact subset nodes are Fractions scaled to ints by the lcm of
their denominators, and float nodes keep q = 1.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# hdbench/test_bench_trace.py::test_tracer_restores_every_binding reads this binding.
from ._exact import char_poly_exact
from .errors import CertificationFailed, InvalidParams, OddK, OracleFailure, TooLarge
from .mixedchar import KlsInstance
from .scalars import CERTIFY_SLACK_TOL

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


def maxcoeff_enum(family, k: int, prefix) -> tuple:
    """Top-k monic coefficients of the family's node polynomial, as
    (coeffs, scale) with c_j = coeffs[j-1] / scale^j
    (family.scaled_top_coeffs)."""
    return family.scaled_top_coeffs(prefix, k)


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
    in lexicographic support order).  The root-node largest root is taken
    before the first round: it reads only the root node, whatever is
    committed, so a root node that is not real-rooted raises before any
    oracle call.  The returned assignment is certified post hoc by an exact
    spectral norm, which must stay within (1 + delta) of that root;
    violations raise, never pass silently.
    """
    n = family.n
    degree = family.degree
    m_block, k = cfg.resolve(n, degree)

    root_max = family.root_max_root()
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
        indicators = inst.mu.members.astype(float)
        # One indicator @ vecs per set: a stacked product may add in another order.
        norms = inst.h.norms(np.array([indicator @ vecs for indicator in indicators]))
        best = int(np.argmin(norms))
        return tuple(inst.mu.members[best].astype(int).tolist()), float(norms[best])
    raise ValueError("kind must be 'kls' or 'ag'")


@dataclass(frozen=True)
class BaselineSummary:
    """The order statistics bench prints of the random assignments' norms."""

    minimum: float
    median: float
    maximum: float


def random_baseline(inst, trials: int, seed: int = 0) -> BaselineSummary:
    """I.i.d. random assignments: the matrix-Chernoff-style comparison point.

    Each draw u takes the first value whose cumulative probability (a float
    cumsum) is >= u, clamped to the last value; every variable's centered
    float values are computed once."""
    vecs = np.array([[float(c) for c in v] for v in inst.vectors])
    rows = np.zeros((trials, inst.n))
    if isinstance(inst, KlsInstance):
        draws = []
        for var in inst.variables:
            mean = float(var.mean)
            draws.append((np.cumsum([float(p) for p in var.probs]).tolist(),
                          [float(s) - mean for s in var.support]))
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            rows[t] = [values[min(bisect_left(cum, rng.random()), len(values) - 1)]
                       for cum, values in draws]
    else:
        cum = np.cumsum(inst.mu.float_probs).tolist()
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            rows[t] = inst.mu.members[min(bisect_left(cum, rng.random()), len(cum) - 1)]
    arr = np.sort(inst.h.norms(rows @ vecs))
    return BaselineSummary(float(arr[0]), float(np.quantile(arr, 0.5)), float(arr[-1]))
