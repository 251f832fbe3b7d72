"""MultiPoly algebra as free functions, and the explicit polynomials of the
barrier argument built with it: the references the tests hold the shipping
routes to.

hyperdisc.realstable.MultiPoly keeps only what a command reads (its terms,
degree checks and eval).  Sums, products, partial derivatives, line
restrictions and the operator update (1 - c d^2/dz_i^2) act on it here, so
they work on any MultiPoly, the shipping h.poly of a custom instance among
them.
"""

from fractions import Fraction

from hyperdisc.barrier import _taus
from hyperdisc.hyperbolic import derivative_restriction
from hyperdisc.realstable import MultiPoly
from hyperdisc.unipoly import UniPoly
from unipoly_helpers import ZERO, poly_add, poly_mul


def monomial(exps, c=1) -> MultiPoly:
    return MultiPoly(len(exps), {tuple(exps): c})


def add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    assert p.nvars == q.nvars
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + c
    return MultiPoly(p.nvars, out)


def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    assert p.nvars == q.nvars
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(p.nvars, out)


def scale(p: MultiPoly, c) -> MultiPoly:
    return MultiPoly(p.nvars, {e: c * v for e, v in p.terms.items()})


def partial(p: MultiPoly, i: int) -> MultiPoly:
    """d/dz_i p."""
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
    return MultiPoly(p.nvars, out)


def restrict_line(p: MultiPoly, a, b) -> UniPoly:
    """The univariate restriction t -> p(a t + b)."""
    acc = ZERO
    for e, c in p.terms.items():
        term = UniPoly.from_coeffs([c])
        for i, k in enumerate(e):
            lin = UniPoly.from_coeffs([b[i], a[i]])
            for _ in range(k):
                term = poly_mul(term, lin)
        acc = poly_add(acc, term)
    return acc


def one_minus_c_d2(p: MultiPoly, i: int, c) -> MultiPoly:
    """(1 - c d^2/dz_i^2) p, the operator update of the barrier argument."""
    return add(p, scale(partial(partial(p, i), i), -c))


def linear_restriction_multipoly(h, vectors) -> MultiPoly:
    """h(xe + sum_i z_i v_i) as a polynomial in (x, z_1..z_n).

    Requires every v_i to have hyperbolic rank <= 1 so that the multilinear
    expansion sum_U z^U A_U(x) is complete.  The coefficients are Fractions,
    each float A_U coefficient taken as the rational it is.
    """
    n = len(vectors)
    cache: dict = {}
    terms = {}
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        for power, coeff in enumerate(derivative_restriction(h, vectors, subset, cache).coeffs):
            exps = [0] * (n + 1)
            exps[0] = power
            for i in subset:
                exps[i + 1] = 1
            terms[tuple(exps)] = Fraction(coeff)
    return MultiPoly(n + 1, terms)


def kls_square_zpoly(inst) -> MultiPoly:
    """(h(xe + sum z_i tau_i v_i))^2 as a MultiPoly in (x, z_1..z_n), with
    barrier's tau_i.

    Variable 0 is x and variable i + 1 is z_i, so the operator update is
    one_minus_c_d2(p, i + 1, 1/2) and Phi^i at pt is
    partial(p, i + 1).eval(v) / p.eval(v) with v = (pt.x,) + pt.z.
    """
    scaled = [tuple(t * float(c) for c in v) for t, v in zip(_taus(inst), inst.vectors)]
    p = linear_restriction_multipoly(inst.h, scaled)
    return mul(p, p)
