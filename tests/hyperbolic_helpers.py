"""The slow references for two exact shipping routes of hyperdisc.hyperbolic
and mixedchar: a float closed-cone verdict from the spectrum, for
KlsTable.build's exact cone test, and the inclusion-exclusion mixed
derivative one subset at a time, for mixed_derivative_table."""

import itertools
import operator
from dataclasses import dataclass

from hyperdisc.hyperbolic import _require_rank_one, spectrum

# l_min > CONE_TOL is interior and l_min >= -CONE_TOL boundary, relative to
# max(1, |l_max|, |l_min|).
CONE_TOL = 1e-9


@dataclass(frozen=True)
class ConeVerdict:
    status: str  # "interior" | "boundary" | "outside"
    witness: float  # smallest hyperbolic eigenvalue


def cone_membership(h, x) -> ConeVerdict:
    """Float closed-cone verdict from the hyperbolic eigenvalues of x."""
    sp = spectrum(h, x)
    lam_min = sp.eigenvalues[-1] if sp.eigenvalues else 0.0
    gate = CONE_TOL * max(1.0, abs(sp.eigenvalues[0]) if sp.eigenvalues else 1.0, abs(lam_min))
    if lam_min > gate:
        status = "interior"
    elif lam_min >= -gate:
        status = "boundary"
    else:
        status = "outside"
    return ConeVerdict(status, float(lam_min))


def rank1_product_derivative(h, indices, vectors, x):
    """(prod_{i in S} D_{v_i}) h(x) for hyperbolic-rank-<=1 rational directions.

    Because h is multilinear along rank-1 directions, the mixed derivative
    collapses to inclusion-exclusion over vertex sums:
    sum_{U subset S} (-1)^{|S|-|U|} h(x + sum_{i in U} v_i), which is exact.
    The rank of each v_i, i in S, is checked exactly first, by the test
    mixed_derivative_table uses.
    """
    h.check_dim(x)
    s = list(indices)
    base = h.value(h.e)
    for i in s:
        slope = h.value(tuple(map(operator.add, h.e, vectors[i]))) - base
        _require_rank_one(h, i, vectors[i], base, slope)
    total = None
    for r in range(len(s) + 1):
        for combo in itertools.combinations(s, r):
            pt = list(x)
            for i in combo:
                for idx in range(h.m):
                    pt[idx] = pt[idx] + vectors[i][idx]
            val = h.value(tuple(pt))
            signed = val if (len(s) - r) % 2 == 0 else -val
            total = signed if total is None else total + signed
    return total
