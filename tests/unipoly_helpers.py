"""Polynomials the tests build from known roots, and c p; the exact
reference route, Yun's square-free decomposition and the Sturm chain over
Fractions, which the int routes in hyperdisc.unipoly must match; and
one-row Newton interpolation in UniPoly arithmetic, which the stacked
interpolate must match bit for bit."""

import itertools
from fractions import Fraction

from hyperdisc.unipoly import (UniPoly, _cauchy_bound, _deriv, _isolate_roots, _sign, _strip,
                               _variations, _variations_at, as_one_type,
                               square_free_decomposition)


def from_roots(roots) -> UniPoly:
    """The monic polynomial prod_r (x - r), over the roots' own arithmetic."""
    p = UniPoly.constant(1)
    for r in roots:
        p = p * UniPoly.from_coeffs([-r, 1])
    return p


def monic_top_coeffs(poly: UniPoly, k: int) -> tuple:
    """c_1..c_k of poly divided by its leading coefficient, in descending
    degree, 0 past the constant term: the reference for the oracle's (C, q)."""
    deg, lead = poly.degree, poly.coeffs[-1]
    return tuple((poly.coeffs[deg - j] if deg - j >= 0 else 0) / lead for j in range(1, k + 1))


def sign_at_without_powers(c: list, t) -> int:
    """A broken _sign_at that drops the powers of t's denominator, so it
    reads the sign of c at t's numerator: Sturm counts that contradict each
    other, for the root isolation's level cap."""
    acc = 0
    for x in reversed(c):
        acc = acc * t.numerator + x
    return (acc > 0) - (acc < 0)


def scale(p: UniPoly, c) -> UniPoly:
    """c p, coefficient by coefficient."""
    return UniPoly.from_coeffs([c * x for x in p.coeffs])


def newton_reference(nodes) -> UniPoly:
    """The polynomial through the points (x, y) of nodes: Newton divided
    differences, then poly + c_i basis_i added in UniPoly arithmetic, one
    step at a time, each step trimmed by from_coeffs."""
    values = as_one_type([x for x, _ in nodes] + [y for _, y in nodes])
    xs, table = values[:len(nodes)], values[len(nodes):]
    coeffs = [table[0]]
    for level in range(1, len(table)):
        for i in range(len(table) - level):
            table[i] = (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
        coeffs.append(table[0])
    poly, basis = UniPoly.zero(), UniPoly.constant(1)
    for x, c in zip(xs, coeffs):
        poly = poly + scale(basis, c)
        basis = basis * UniPoly.from_coeffs([-x, 1])
    return poly


def _normalize_sign_free(c: list) -> list:
    """Divide by |leading| so remainder-sequence coefficients stay tame."""
    if not c:
        return c
    lead = abs(c[-1])
    return [x / lead for x in c]


def _poly_divmod(a: list, b: list) -> tuple:
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and _strip(r):
        shift = len(r) - 1 - db
        c = r[-1] / lb
        q[shift] = c
        for i in range(len(b)):
            r[shift + i] -= c * b[i]
        r.pop()
        _strip(r)
    return _strip(q), _strip(r)


def _poly_gcd(a: list, b: list) -> list:
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
        b = _normalize_sign_free(_strip(b))
    if not a:
        return []
    return [x / a[-1] for x in a]  # monic


def _exact_div(a: list, b: list) -> list:
    q, r = _poly_divmod(a, b)
    if r:
        raise ArithmeticError("exact polynomial division left a remainder")
    return q


def fraction_square_free_decomposition(c: list) -> list:
    """Yun's algorithm over Fractions: [(factor, multiplicity)], factors monic."""
    c = _strip([Fraction(x) for x in c])
    if len(c) <= 1:
        return []
    c = [x / c[-1] for x in c]
    dp = _deriv(c)
    a = _poly_gcd(c, dp)
    if len(a) == 1:
        return [(c, 1)]
    b = _exact_div(c, a)
    d = [x - y for x, y in
         zip(_exact_div(dp, a) + [Fraction(0)] * len(b), _deriv(b) + [Fraction(0)] * len(b))]
    d = _strip(d)
    out = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _exact_div(b, a)
        cpart = _exact_div(d, a) if d else []
        nb = _deriv(b)
        n = max(len(cpart), len(nb))
        d = _strip([(cpart[j] if j < len(cpart) else Fraction(0)) -
                    (nb[j] if j < len(nb) else Fraction(0)) for j in range(n)])
        i += 1
    return out


def fraction_sturm_chain(c: list) -> list:
    """The Sturm chain over Fractions: c, c', then each negated remainder
    divided by its |leading coefficient|."""
    chain = [list(c), _deriv(c)]
    while len(chain[-1]) > 1:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        r = _normalize_sign_free(_strip(r))
        if not r:
            break
        chain.append([-x for x in r])
    if chain[-1] == []:
        chain.pop()
    return chain


def _roots_above(factors, x: Fraction) -> int:
    """N(x), the real roots above x counted with multiplicity, from Yun's
    factors: each factor's Sturm count over (x, +inf), times its
    multiplicity."""
    return sum(m * (_variations_at(chain, x) - _variations([_sign(c[-1]) for c in chain]))
               for _, m, chain in factors)


def _pair_interlaces(p: UniPoly, q: UniPoly) -> bool:
    """Whether p and q, of one degree with positive leading coefficients,
    are real-rooted with a common interlacing: |N_p(x) - N_q(x)| <= 1 for
    every real x.  N_p - N_q changes only at the roots r_1 < ... < r_m of
    pq, and N is constant on [r_i, r_(i+1)), so the counts are read below
    the Cauchy bound of pq's square-free part and at the upper end b of
    each of its isolating intervals (a, b], which lies in [r_i, r_(i+1)),
    or past r_m."""
    fp = square_free_decomposition(p.coeffs)
    fq = square_free_decomposition(q.coeffs)
    exact = [UniPoly.from_coeffs([Fraction(c) for c in f.coeffs]) for f in (p, q)]
    part = UniPoly.constant(1)
    for c, _, _ in square_free_decomposition((exact[0] * exact[1]).coeffs):
        part = part * UniPoly.from_coeffs(c)
    (sq, _, chain), = square_free_decomposition(part.coeffs)
    points = [-_cauchy_bound(sq)] + sorted(b for _, b in _isolate_roots(sq, chain))
    if _roots_above(fp, points[0]) != p.degree or _roots_above(fq, points[0]) != q.degree:
        return False  # a root off the real line
    return all(abs(_roots_above(fp, x) - _roots_above(fq, x)) <= 1 for x in points)


def has_common_interlacing(polys) -> bool:
    """Real-rooted polynomials of one degree with positive leading
    coefficients have a common interlacing iff every pair has one
    (Chudnovsky-Seymour), decided exactly (_pair_interlaces); one
    polynomial has one iff it is real-rooted.  A binary64 coefficient is
    the rational it is."""
    assert len({p.degree for p in polys}) == 1 and all(p.coeffs[-1] > 0 for p in polys)
    pairs = list(itertools.combinations(polys, 2)) or [(polys[0], polys[0])]
    return all(_pair_interlaces(p, q) for p, q in pairs)
