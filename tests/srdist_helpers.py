"""The generating polynomial of an SR distribution, and the marginal
formula over it as a MultiPoly: the Fraction reference for
srdist.marginal_via_formula, which runs over ints."""

from fractions import Fraction

from hyperdisc.realstable import MultiPoly
from hyperdisc.srdist import _observed_set
from multipoly_helpers import add, partial, scale


def generating_polynomial(mu) -> MultiPoly:
    """g(z) = sum_S mu(S) z^S."""
    terms = {}
    for elems, prob in mu.support:
        exps = [0] * mu.n
        for e in elems:
            exps[e] = 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + prob
    return MultiPoly(mu.n, terms)


def marginal_via_multipoly(mu, s, k, x0) -> Fraction:
    """Pr[T cap K = S]: d/dz_i for i in S and (1 - x0 d/dz_i) for the rest
    of K, applied to g in sorted order of K over Fractions, read at x0 1
    and times x0^(|S| - d)."""
    x0 = Fraction(x0)
    observed = _observed_set(k, mu.n)
    target = frozenset(s)
    assert target <= observed
    p = generating_polynomial(mu)
    for i in sorted(observed):
        dp = partial(p, i)
        p = dp if i in target else add(p, scale(dp, -x0))
    by_degree = {}
    for exps, c in p.terms.items():
        deg = sum(exps)
        by_degree[deg] = by_degree.get(deg, 0) + c
    shift = len(target) - mu.d_mu
    return sum((c * x0 ** (deg + shift) for deg, c in by_degree.items()), Fraction(0))
