"""Dense univariate polynomials with exact real-root certification.

Coefficients are stored in ascending degree order, all Fractions (exact)
or all floats (binary64): a polynomial built from any float holds floats,
and one built from ints and Fractions holds Fractions.  Root extraction
takes the companion eigenvalues, polishes each root on its own, and falls
back to exact Sturm bisection when the residual test disagrees;
real-rootedness verdicts are always certified by an exact Sturm count (any
binary64 coefficient vector is a rational vector, so the exact route is
available for floats too).

The exact route runs over Python ints.  One loop of primitive
pseudo-remainders (Collins 1967, Brown and Traub 1971) gives the Sturm
chains and the gcds of Yun's square-free decomposition, whose divisions
stay exact by Gauss's lemma; the input's chain ends in Yun's first gcd.
Each factor is a nonzero multiple of its rational counterpart, so the
monic factors, signs and Sturm counts are the rational ones.  Only the
bisection points n/d are Fractions; a sign there is that of c(n/d) d^deg.

One Horner rule (``_horner``) evaluates every polynomial here, over
Python floats: the residual-monotone Newton polish (``_polish``) and the
residual test.  The polish works on one root at a time; the Sturm route
polishes its bisection midpoints with it, from each monic factor's
floats.  numpy serves only the companion eigenvalues and their
imaginary-part test.  The one Newton interpolator (``interpolate``)
lives here too; it takes a stack of value rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from ._exact import _integer_rows
from .errors import DuplicateNode, HyperdiscError, NotRealRooted, TooLarge, ZeroPolynomial
from .scalars import BISECT_WIDTH_TOL, BRACKET_SLACK_TOL, ROOT_IMAG_TOL, ROOT_RESIDUAL_TOL

# Multiplicity-expanded real roots, non-increasing order.
RootList = tuple

_NEWTON_POLISH_ITERS = 12


def as_one_type(values: list) -> list:
    """The values as floats if any is a float, else as Fractions."""
    if any(isinstance(v, float) for v in values):
        return [float(v) for v in values]
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values]


def _horner(c: Sequence, t):
    """c(t) by Horner's rule (ascending coefficients), in the arithmetic of c
    and t: exact over Fractions, binary64 over floats.  The int start gives
    the bits of a 0.0 start and the value of a Fraction(0) start."""
    acc = 0
    for x in reversed(c):
        acc = acc * t + x
    return acc


@dataclass(frozen=True)
class UniPoly:
    """Polynomial sum(coeffs[i] * x^i); trailing zeros are stripped."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "UniPoly":
        seq = as_one_type(list(coeffs))
        while seq and seq[-1] == 0:
            seq.pop()
        return UniPoly(tuple(seq))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def compose_xsquare(self) -> "UniPoly":
        """p(x^2): coefficients spread onto even degrees."""
        out = [0] * (2 * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return UniPoly.from_coeffs(out)

    def shift_degree(self, k: int) -> "UniPoly":
        """p(x) * x^k."""
        if self.is_zero:
            return self
        return UniPoly.from_coeffs([0] * k + list(self.coeffs))

    def to_float(self) -> "UniPoly":
        return UniPoly.from_coeffs([float(c) for c in self.coeffs])


# ---------------------------------------------------------------------------
# Exact machinery over Python ints (dense ascending coefficient lists).
# ---------------------------------------------------------------------------

def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _deriv(c: list) -> list:
    return [i * x for i, x in enumerate(c)][1:]


def _primitive(c: list) -> list:
    """c divided by its content, the positive gcd of its coefficients."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _pseudo_remainder(a: list, b: list) -> list:
    """|lc(b)|^k times the remainder of a by b, for the k division steps.

    Each step multiplies the running remainder by |lc(b)| before it cancels
    the leading term, so every coefficient stays an int and the result has
    the signs of the remainder over Fractions.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    mult = abs(lb)
    while _strip(r) and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        q = r[-1] if lb > 0 else -r[-1]
        # The leading terms cancel, so zip stops short of them.
        r = [mult * x for x in r[:shift]] + [mult * x - q * y for x, y in zip(r[shift:], b[:-1])]
    return r


def _remainder_sequence(a: list, b: list) -> list:
    """Int a, b, then each negated primitive pseudo-remainder up to a constant
    or a zero remainder; the last entry is gcd(a, b) up to content and sign."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _primitive(_pseudo_remainder(seq[-2], seq[-1]))
        if not r:
            break
        seq.append([-x for x in r])
    return seq if b else [a]


def _quotient(a: list, b: list) -> list:
    """a / b for int polynomials with b primitive and b | a over the
    rationals: by Gauss's lemma the quotient has int coefficients, so every
    step divides exactly."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for shift in reversed(range(len(q))):
        c = q[shift] = r[shift + db] // lb
        for i, x in enumerate(b):
            r[shift + i] -= c * x
    return q


def _difference(a: list, b: list) -> list:
    return _strip([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _sturm_chain(c: list) -> list:
    """The Sturm chain of int c of degree >= 1, by primitive pseudo-remainders.

    Each entry is a positive multiple of c's rational chain (c, c', then
    each negated remainder over its |leading coefficient|), so every sign
    and count is that chain's; -c's chain is the negated one."""
    return _remainder_sequence(c, _deriv(c))


def square_free_decomposition(c: list) -> list:
    """Yun's algorithm: [(factor, multiplicity, Sturm chain)], factors ints.

    The exact coefficients (a float is the rational it is) are scaled to
    ints once.  The input's Sturm chain ends in gcd(c, c'), so a square-free
    input is its own factor with that chain; any other input gets a chain
    per factor.  Each factor is a nonzero multiple, of either sign, of the
    one Yun's recurrence has over the rationals from the monic input, so
    the monic factors are the same.
    """
    c = _strip([Fraction(x) for x in c])
    if len(c) <= 1:
        return []
    (c,), _ = _integer_rows([c])
    c = _primitive(c)
    chain = _sturm_chain(c)
    a = _primitive(chain[-1])
    if len(a) == 1:
        return [(c, 1, chain)]
    b = _quotient(c, a)
    d = _difference(_quotient(chain[1], a), _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _primitive(_remainder_sequence(b, d)[-1])
        if len(a) > 1:
            out.append((a, i, _sturm_chain(a)))
        b = _quotient(b, a)
        d = _difference(_quotient(d, a), _deriv(b))
        i += 1
    return out


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sign_at(c: list, t: Fraction) -> int:
    """The sign of int c at t = n/d, d > 0: of c(n/d) d^deg by homogeneous Horner."""
    n, d = t.numerator, t.denominator
    acc, power = 0, 1
    for x in reversed(c):
        acc, power = acc * n + x * power, power * d
    return _sign(acc)


def _variations_at(chain: list, t: Fraction) -> int:
    return _variations([_sign_at(poly, t) for poly in chain])


def sturm_count_all_real(chain: list) -> int:
    """Number of distinct real roots of the square-free exact polynomial whose
    Sturm chain (_sturm_chain) is given."""
    at_plus = [_sign(p[-1]) for p in chain]
    at_minus = [_sign(p[-1]) * (-1 if (len(p) - 1) % 2 else 1) for p in chain]
    return _variations(at_minus) - _variations(at_plus)


def _cauchy_bound(c: list) -> Fraction:
    return 1 + Fraction(max(abs(x) for x in c[:-1]), abs(c[-1]))


def _level_cap(c: list) -> int:
    """Bisection levels, and halvings of a flank, that no square-free int c
    of degree n > 1 needs: with tau the bit length of the largest |c_i|,
    the Cauchy bound spans 2B <= 2^(tau + 2), and Mignotte's bound keeps its
    roots more than n^(-(n+2)/2) (sqrt(n+1) 2^tau)^(1-n) apart; this is
    log2 of their ratio, rounded up generously."""
    n, tau = len(c) - 1, max(abs(x) for x in c).bit_length()
    return tau + 2 + (n + 2) * n.bit_length() + (n - 1) * (tau + (n + 1).bit_length())


def _isolate_roots(c: list, chain: list) -> list:
    """Disjoint intervals (a, b] each holding one root of square-free int c.

    The Fraction ends start at the Cauchy bound, and every test reads int
    signs of c and its chain.  Exact rational midpoints hit by chance are
    returned as degenerate intervals (r, r].  Bisection past _level_cap
    means the sign counts contradict each other, which raises.
    """
    bound, cap = _cauchy_bound(c), _level_cap(c)
    stuck = HyperdiscError(f"root isolation of degree {len(c) - 1} passed its cap of {cap} levels")
    total = _variations_at(chain, -bound) - _variations_at(chain, bound)
    work = [(-bound, bound, total, 0)]
    done = []
    while work:
        a, b, cnt, level = work.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            done.append((a, b))
            continue
        if level == cap:
            raise stuck
        mid = (a + b) / 2
        if _sign_at(c, mid) == 0:
            done.append((mid, mid))
            # Shrink the flanks until they capture the cnt-1 remaining roots.
            eps = (b - a) / (4 * cnt)
            for _ in range(cap):
                left = _variations_at(chain, a) - _variations_at(chain, mid - eps)
                right = _variations_at(chain, mid + eps) - _variations_at(chain, b)
                if left + right == cnt - 1:
                    break
                eps /= 2
            else:
                raise stuck
            work.append((a, mid - eps, left, level + 1))
            work.append((mid + eps, b, right, level + 1))
            continue
        vm = _variations_at(chain, mid)
        left = _variations_at(chain, a) - vm
        work.append((a, mid, left, level + 1))
        work.append((mid, b, cnt - left, level + 1))
    return done


def _polish(c: Sequence, dc: Sequence, r: float) -> float:
    """Polish one approximate real root r of c (derivative dc) by Newton steps.

    A step is kept only when it strictly lowers |c(r)|, and a rejected step is
    halved up to 8 times; this keeps the polish harmless at near-multiple
    roots where the raw Newton step blows up (c' ~ 0 between a tight
    conjugate pair).  A pass depends only on r and c(r), so the first pass
    that keeps no step ends the polish: every later pass would repeat it.
    """
    pr = _horner(c, r)
    for _ in range(_NEWTON_POLISH_ITERS):
        dp = _horner(dc, r)
        step = pr / dp if dp != 0 else 0.0
        if not 0.0 < abs(step) <= 1.0 + abs(r):  # also false on inf and nan
            return r
        for _ in range(8):
            trial = r - step
            pt = _horner(c, trial)
            if abs(pt) < abs(pr):
                r, pr = trial, pt
                break
            step *= 0.5
        else:
            return r
    return r


def _refine_root(c: list, a: Fraction, b: Fraction) -> float:
    """Sign bisection to BISECT_WIDTH_TOL width, then float Newton from the midpoint.

    c is an int factor of either sign, and the polish takes the monic
    factor's floats as x / c[-1], which int division rounds correctly.
    The interval (a, b] holds exactly one (simple) root and c(a) != 0:
    _isolate_roots starts at -bound, which the strict Cauchy bound keeps off
    every root, and sets a left end only to a midpoint that is not a root
    or to mid + eps, which its flank search keeps off every root; the loop
    below moves ``a`` only to a point where c has the sign of c(a).
    """
    if a == b:
        return float(a)
    if _sign_at(c, b) == 0:
        return float(b)
    sa = _sign_at(c, a)
    for _ in range(30):
        if float(b - a) <= BISECT_WIDTH_TOL * max(1.0, abs(float(a)), abs(float(b))):
            break
        mid = (a + b) / 2
        sm = _sign_at(c, mid)
        if sm == 0:
            return float(mid)
        if sm == sa:
            a = mid
        else:
            b = mid
    r = _polish([x / c[-1] for x in c], [x / c[-1] for x in _deriv(c)], float((a + b) / 2))
    if float(a) - BRACKET_SLACK_TOL <= r <= float(b) + BRACKET_SLACK_TOL:
        return r
    return float((a + b) / 2)


def _certified_factors(p: UniPoly) -> list:
    """[(factor, multiplicity, Sturm chain)] of p's exact coefficients by Yun's
    algorithm; raises NotRealRooted unless the Sturm count of every factor
    reaches its degree."""
    factors = square_free_decomposition(p.coeffs)
    for factor, _, chain in factors:
        deg = len(factor) - 1
        cnt = sturm_count_all_real(chain)
        if cnt < deg:
            raise NotRealRooted(
                f"exact Sturm count {cnt} < factor degree {deg}; polynomial is not real-rooted"
            )
    return factors


def _exact_real_roots(p: UniPoly) -> tuple:
    """All real roots with multiplicity via Yun + Sturm; certifies the count."""
    roots = []
    for factor, mult, chain in _certified_factors(p):
        for a, b in _isolate_roots(factor, chain):
            r = _refine_root(factor, a, b)
            roots.extend([r] * mult)
    return tuple(sorted(roots, reverse=True))


# ---------------------------------------------------------------------------
# Public root operations.
# ---------------------------------------------------------------------------

def real_roots(p: UniPoly) -> RootList:
    """All real roots of p with multiplicity, sorted non-increasing.

    Primary path: companion-matrix eigenvalues with Newton polish, tried
    when every |Im r| <= ROOT_IMAG_TOL * max(1, |r|) and accepted when every
    root r satisfies |p(r)| <= ROOT_RESIDUAL_TOL * max|c| * max(1, |r|)^deg.
    On disagreement the exact route takes over: Yun's square-free factors
    and their Sturm chains over ints, isolation by exact Sturm counts, and a
    float polish from each monic factor.  It raises :class:`NotRealRooted`
    when the certified count falls short.  A coefficient past the binary64
    range, or a float one that is inf or nan, raises :class:`TooLarge`.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    deg = p.degree
    if deg == 0:
        return ()
    try:
        c = [float(x) for x in p.coeffs]
    except OverflowError as exc:
        raise TooLarge("a polynomial coefficient lies past the binary64 range") from exc
    if not all(map(math.isfinite, c)):
        raise TooLarge("a polynomial coefficient is not a finite binary64 value")
    # Exact zero roots come from trailing zero coefficients.
    nzero = 0
    while nzero <= deg and c[nzero] == 0.0:
        nzero += 1
    zeros = [0.0] * nzero
    if nzero == deg:
        return tuple(zeros)
    cred = c[nzero:]
    roots = np.roots(cred[::-1])  # companion-matrix eigenvalues
    if np.all(np.abs(roots.imag) <= ROOT_IMAG_TOL * np.maximum(1.0, np.abs(roots))):
        dc = _deriv(cred)
        tol = ROOT_RESIDUAL_TOL * max(abs(x) for x in cred)
        cand = [_polish(cred, dc, r) for r in sorted(roots.real.tolist(), reverse=True)]
        if all(abs(_horner(cred, r)) <= tol * max(1.0, abs(r)) ** (deg - nzero) for r in cand):
            return tuple(sorted(cand + zeros, reverse=True))
    reduced = UniPoly.from_coeffs(list(p.coeffs)[nzero:])
    return tuple(sorted(list(_exact_real_roots(reduced)) + zeros, reverse=True))


def is_real_rooted(p: UniPoly) -> bool:
    """Certified real-rootedness: the exact Sturm count of every Yun factor
    reaches its degree.  Binary64 coefficients are taken as the rationals
    they are, so the verdict is exact for floats too."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no real-rootedness verdict")
    try:
        _certified_factors(p)
    except NotRealRooted:
        return False
    return True


def max_real_root(p: UniPoly) -> float:
    return real_roots(p)[0]


def _newton(xs: list, ys: np.ndarray) -> list:
    """interpolate for rows of one kind: ys holds one row of values per
    polynomial, float64 with float xs or object Fractions with Fraction xs.

    basis_i = prod_{j < i} (x - x_j) is kept as one ascending list and
    multiplied by x - x_i in the dense product's steps: each nonzero entry
    a, in ascending order, adds a (-x_i) and then a onto entries that start
    at int 0.
    One row alone adds c_i basis_i to its sum for i = 0, 1, ..., the sum
    trimmed of its trailing zeros and padded with 0 by the next add.  Here
    every row's sum starts at 0 and spans every column.  That adds the same:
    basis_i is monic, so a nonzero c_i makes the sum's top entry c_i, which
    is not trimmed, and a zero c_i gives a term of zeros, which the row pads
    away; a sum is -0.0 only if both addends are, so no entry of the sum is
    -0.0, and adding a term of zeros leaves it as adding 0 does.  Each row's
    length is one past its last nonzero c_i.
    """
    count, size = ys.shape
    table = ys.copy()
    coeffs = [table[:, 0].copy()]  # f[x_0], f[x_0, x_1], ... per row
    for level in range(1, size):
        span = np.array([xs[i + level] - xs[i] for i in range(size - level)], dtype=ys.dtype)
        table[:, :size - level] = (table[:, 1:size - level + 1] - table[:, :size - level]) / span
        coeffs.append(table[:, 0].copy())
    poly = np.zeros_like(ys)
    basis = [1]
    for i, c in enumerate(coeffs):
        poly[:, :i + 1] += c[:, None] * np.array(basis, dtype=ys.dtype)
        step = [0] * (i + 2)
        for k, a in enumerate(basis):
            if a != 0:
                step[k] += a * -xs[i]
                step[k + 1] += a
        basis = as_one_type(step)
    nonzero = np.array(coeffs).T != 0
    lens = np.where(nonzero.any(axis=1), size - np.argmax(nonzero[:, ::-1], axis=1), 0)
    return [UniPoly(tuple(row[:n].tolist())) for row, n in zip(poly, lens)]


def interpolate(xs: Sequence, rows) -> list:
    """For each row of values, the unique polynomial of degree < len(xs)
    through the points (xs[k], row[k]), in row order.

    Newton divided differences, over floats for a row with a float among its
    values or xs and exactly over Fractions otherwise.  The rows of each kind
    are interpolated together, a row per polynomial and a column per node,
    through the operations one row alone takes, in the same order, so each
    gets the polynomial it would get alone, bit for bit, signed zeros
    included (see _newton).
    """
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise DuplicateNode("interpolation abscissae must be pairwise distinct")
    typed = [as_one_type(xs + list(row)) for row in rows]
    out = [None] * len(typed)
    for dtype in (float, object):
        picked = [r for r, vals in enumerate(typed) if (type(vals[0]) is float) == (dtype is float)]
        if picked:
            ys = np.array([typed[r][len(xs):] for r in picked], dtype=dtype)
            for r, poly in zip(picked, _newton(typed[picked[0]][:len(xs)], ys)):
                out[r] = poly
    return out
