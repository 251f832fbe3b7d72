"""Univariate polynomial layer: evaluation, roots, certification, interpolation."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import unipoly
from hyperdisc.errors import DuplicateNode, NotRealRooted, TooLarge, ZeroPolynomial
from hyperdisc.cli import _resolve_graph
from hyperdisc.graphs import named_graph
from hyperdisc.hyperbolic import char_restriction, determinant, hyperbolic_traces, lorentz
from hyperdisc.instances import gen_kls_det, gen_kls_lorentz
from hyperdisc.mixedchar import AgFamily, KlsFamily, SrInstance
from hyperdisc.unipoly import (
    UniPoly,
    interpolate,
    is_real_rooted,
    max_real_root,
    real_roots,
    square_free_decomposition,
    sturm_count_all_real,
)
from test_cli import SR_SEARCH_GRAPHS
from unipoly_helpers import (fraction_square_free_decomposition, fraction_sturm_chain, from_roots,
                             newton_reference)

X2_3X_2 = UniPoly.from_coeffs([2, -3, 1])  # (x-1)(x-2)


def test_eval_constant_term():
    assert X2_3X_2(0) == 2


def test_eval_at_root():
    assert X2_3X_2(1) == 0


def test_eval_zero_polynomial():
    assert UniPoly.zero()(7) == 0


def test_real_roots_quadratic():
    roots = real_roots(X2_3X_2)
    assert roots == pytest.approx((2.0, 1.0))


def test_real_roots_double_root():
    p = UniPoly.from_coeffs([1, -2, 1])  # (x-1)^2
    roots = real_roots(p)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.0, abs=1e-6)
    assert roots[1] == pytest.approx(1.0, abs=1e-6)


def test_real_roots_biquadratic():
    p = UniPoly.from_coeffs([4, 0, -5, 0, 1])  # (x^2-1)(x^2-4)
    assert real_roots(p) == pytest.approx((2.0, 1.0, -1.0, -2.0))


def test_real_roots_rejects_complex_pair():
    with pytest.raises(NotRealRooted):
        real_roots(UniPoly.from_coeffs([1, 0, 1]))


def test_real_roots_zero_poly_raises():
    with pytest.raises(ZeroPolynomial):
        real_roots(UniPoly.zero())


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_real_roots_rejects_a_non_finite_coefficient(bad):
    with pytest.raises(TooLarge):
        real_roots(UniPoly.from_coeffs([1.0, bad, 1.0]))


def test_real_roots_monomial_multiplicity():
    assert real_roots(UniPoly.from_coeffs([0, 0, 0, 5])) == (0.0, 0.0, 0.0)


def test_is_real_rooted_examples():
    assert is_real_rooted(X2_3X_2) is True
    assert is_real_rooted(UniPoly.from_coeffs([1, 0, 1])) is False
    assert is_real_rooted(UniPoly.from_coeffs([1, 2, 2])) is False  # 2t^2+2t+1


def test_is_real_rooted_is_exact_on_floats():
    # t^2 + 2^-80 has the complex pair +-2^-40 i: the binary64 coefficients
    # are exact rationals, so no float tolerance may call the pair real.
    assert is_real_rooted(UniPoly.from_coeffs([2.0 ** -80, 0.0, 1.0])) is False
    assert is_real_rooted(UniPoly.from_coeffs([-(2.0 ** -80), 0.0, 1.0])) is True


def test_is_real_rooted_zero_raises():
    with pytest.raises(ZeroPolynomial):
        is_real_rooted(UniPoly.zero())


def test_is_real_rooted_exact_on_rationals():
    # Double root is still real-rooted; the verdict on Fractions is exact.
    p = UniPoly.from_coeffs([Fraction(1), Fraction(-2), Fraction(1)])
    assert all(type(c) is Fraction for c in p.coeffs)
    assert is_real_rooted(p) is True


def test_interpolate_quadratic():
    (p,) = interpolate([0, 1, 2], [[2, 0, 0]])
    assert p.coeffs == (Fraction(2), Fraction(-3), Fraction(1))


def test_interpolate_constant():
    (p,) = interpolate([0], [[Fraction(5, 3)]])
    assert p.coeffs == (Fraction(5, 3),)


def test_interpolate_odd_symmetry():
    (p,) = interpolate([0, 1, -1], [[0, 1, -1]])
    assert p.coeffs == (Fraction(1),) or p.coeffs == (Fraction(0), Fraction(1))
    assert p(Fraction(7)) == 7


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DuplicateNode):
        interpolate([1, 1], [[2, 3]])


# Values whose divided differences hit every case of the trim: zeros of
# both signs, small ints (low-degree rows whose top coefficients cancel to
# 0), and floats of every size, whose sums round.
_INTERP_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                           st.floats(-1e6, 1e6, allow_nan=False),
                           st.floats(-1e-6, 1e-6, allow_nan=False))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_stacked_interpolate_equals_one_row_at_a_time(data):
    size = data.draw(st.integers(1, 6))
    xs = data.draw(st.sampled_from([list(range(size)), [i - size // 2 for i in range(size)],
                                    [2 * i + 1 for i in range(size)]]))
    rows = data.draw(st.lists(st.lists(_INTERP_FLOATS, min_size=size, max_size=size),
                              min_size=1, max_size=6))
    # Rows of a polynomial of lower degree: the top differences vanish.
    low = data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=size))
    rows.append([float(sum(c * x ** k for k, c in enumerate(low))) for x in xs])
    exact = [[Fraction(int(v * 8), 3) for v in row] for row in rows]
    got = interpolate(xs, rows + exact)
    for row, poly in zip(rows, got):
        want = newton_reference(list(zip(xs, row)))
        assert all(type(c) is float for c in poly.coeffs)
        assert [c.hex() for c in poly.coeffs] == [c.hex() for c in want.coeffs], (xs, row)
    for row, poly in zip(exact, got[len(rows):]):
        want = newton_reference(list(zip(xs, row)))
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert poly.coeffs == want.coeffs, (xs, row)
    # A float among the abscissae makes every row a float row.
    fxs = [float(x) for x in xs]
    for row, poly in zip(exact, interpolate(fxs, exact)):
        want = newton_reference(list(zip(fxs, row)))
        assert [c.hex() for c in poly.coeffs] == [c.hex() for c in want.coeffs]


def test_square_free_decomposition():
    # (x-1)^2 (x+2)
    p = from_roots([1, 1, -2])
    parts = square_free_decomposition(list(p.coeffs))
    mults = sorted(m for _, m in parts)
    assert mults == [1, 2]


def test_sturm_count():
    chain = unipoly._sturm_chain
    assert sturm_count_all_real(chain([Fraction(-2), Fraction(0), Fraction(1)])) == 2  # x^2-2
    assert sturm_count_all_real(chain([Fraction(1), Fraction(0), Fraction(1)])) == 0  # x^2+1


def test_roundtrip_interpolation_rational():
    rng = random.Random(7)
    for _ in range(25):
        deg = rng.randint(1, 12)
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
        p = from_roots(roots)
        xs = [Fraction(i) for i in range(deg + 1)]
        (q,) = interpolate(xs, [[p(x) for x in xs]])
        assert q.coeffs == p.coeffs


def test_roundtrip_interpolation_float():
    rng = random.Random(8)
    for _ in range(15):
        deg = rng.randint(1, 10)
        roots = [rng.uniform(-3, 3) for _ in range(deg)]
        p = from_roots(roots)
        off = deg // 2  # symmetric integer nodes keep the system well conditioned
        xs = [float(i - off) for i in range(deg + 1)]
        (q,) = interpolate(xs, [[p(x) for x in xs]])
        scale = max(abs(c) for c in p.coeffs)
        for a, b in zip(q.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-10 * scale


def test_product_root_multiset_union():
    rng = random.Random(9)
    for _ in range(20):
        r1 = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        r2 = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        p = from_roots(r1)
        q = from_roots(r2)
        got = real_roots(p * q)
        expect = sorted(r1 + r2, reverse=True)
        # Repeated roots across the two factors are only sqrt(eps)-accurate.
        assert got == pytest.approx(tuple(float(v) for v in expect), abs=5e-7)


def test_is_real_rooted_agrees_with_random_products():
    rng = random.Random(10)
    for _ in range(300):
        deg = rng.randint(1, 6)
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(deg)]
        p = from_roots(roots)
        assert is_real_rooted(p) is True
    for _ in range(100):
        # Positive-definite quadratic times a real-rooted tail.
        b = rng.randint(-5, 5)
        c = rng.randint(1, 9) + b * b  # discriminant 4b^2-4c < 0
        quad = UniPoly.from_coeffs([c, 2 * b, 1])
        tail = from_roots([rng.randint(-4, 4)])
        assert is_real_rooted(quad * tail) is False


def test_max_real_root():
    assert max_real_root(X2_3X_2) == pytest.approx(2.0)


def test_newton_polish_improves_roots():
    coeffs = [2.0, -3.0, 1.0]  # (x-1)(x-2)
    dcoeffs = [-3.0, 2.0]
    assert unipoly._polish(coeffs, dcoeffs, 0.9) == pytest.approx(1.0, abs=1e-12)
    assert unipoly._polish(coeffs, dcoeffs, 2.2) == pytest.approx(2.0, abs=1e-12)


def test_newton_polish_stops_when_no_root_moves(monkeypatch):
    # A pass depends only on the root and its residual, so the first pass
    # that keeps no step ends that root's polish: one evaluation of p, then
    # p' and the kept trial, then p' and eight rejected trials.  A loop that
    # ran on would take 1 + 2 + 11 * 9 = 102 evaluations.
    calls = []
    per_root = []
    horner, polish = unipoly._horner, unipoly._polish

    def counting(c, t):
        calls.append(t)
        return horner(c, t)

    def per_root_count(c, dc, r):
        before = len(calls)
        out = polish(c, dc, r)
        per_root.append(len(calls) - before)
        return out

    monkeypatch.setattr(unipoly, "_horner", counting)
    monkeypatch.setattr(unipoly, "_polish", per_root_count)
    expect = [0.5, -1.5, 2.5, 3.25, -0.75, 1.1]
    roots = real_roots(from_roots(expect))
    assert roots == pytest.approx(sorted(expect, reverse=True), abs=1e-9)
    assert len(per_root) == 6
    assert max(per_root) <= 1 + 2 + 9
    assert len(calls) == sum(per_root) + 6  # the residual gate reads each root once


# Small coefficients and starting points, where a full Newton step often
# overshoots and would raise |p|.
_POLISH_COEFF = st.floats(-10, 10, allow_nan=False)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(coeffs=st.lists(_POLISH_COEFF, min_size=2, max_size=9).filter(lambda c: c[-1] != 0),
       r=st.floats(-4, 4, allow_nan=False),
       huge=st.floats(1e200, 1e300), tiny=st.floats(1e-300, 1e-200),
       roots=st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6),
                                st.floats(-9, 9, allow_nan=False)), min_size=1, max_size=7))
def test_polish_never_raises_the_residual(coeffs, r, huge, tiny, roots):
    dc = [i * c for i, c in enumerate(coeffs)][1:]
    out = unipoly._polish(coeffs, dc, r)
    assert type(out) is float
    assert abs(unipoly._horner(coeffs, out)) <= abs(unipoly._horner(coeffs, r))
    # p'(0) = 0 on an even polynomial: no step, r comes back unchanged.
    even = [c if i % 2 == 0 else 0.0 for i, c in enumerate(coeffs)]
    assert unipoly._polish(even, [i * c for i, c in enumerate(even)][1:], 0.0) == 0.0
    # huge + tiny x: the step huge / tiny overflows to inf, so r stays.
    assert unipoly._polish([huge, tiny], [tiny], r) == r
    # Both routes return Python floats, not numpy scalars.
    for p in (from_roots(roots), from_roots(roots + roots[:1] * 3)):
        try:
            got = real_roots(p)
        except NotRealRooted:  # float products of near-equal roots may round off the real line
            continue
        assert all(type(x) is float for x in got)


def _root_bits_batch() -> list:
    """Seeded polynomials of every kind whose roots the commands print."""
    polys = []
    for seed in range(3):
        for variables in ("rademacher", "mixed"):
            for inst in (gen_kls_det(6, 3, seed, variables), gen_kls_det(8, 4, seed, variables),
                         gen_kls_lorentz(6, 4, seed, variables),
                         gen_kls_lorentz(8, 5, seed, variables)):
                polys.append(KlsFamily(inst).node_poly(()))
                leaf = tuple(var.support[0] for var in inst.variables)
                polys.append(char_restriction(inst.h, inst.centered_sum(leaf)))
    for graph in ("k4", "k5", "diamond"):
        polys.append(AgFamily(SrInstance.from_graph(named_graph(graph))).node_poly(()))
    rng = random.Random(0)
    for _ in range(40):  # float products with a cluster of two or three roots
        centre = rng.uniform(-3, 3)
        roots = [centre + rng.uniform(-1, 1) * 10.0 ** -rng.randint(2, 4)
                 for _ in range(rng.randint(2, 3))]
        polys.append(from_roots(roots + [rng.uniform(-5, 5)
                                                 for _ in range(rng.randint(0, 3))]))
    for _ in range(20):  # exact products with roots of multiplicity up to 4
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        polys.append(from_roots([r for r in roots for _ in range(rng.randint(1, 4))]
                                        + [Fraction(rng.randint(-9, 9))]))
    return polys


# sha256 of the batch's roots as float.hex(), recorded before the polish
# went from one numpy loop over every root to one scalar loop per root.  A
# change that moves any root by one bit must re-pin it in its own commit.
ROOT_BITS_SHA256 = "41f849e45b877dc85e1f978682d9eec7ea458afb9cf8755ceadb32a52697697e"


def test_root_bits_are_pinned(monkeypatch):
    sturm = []
    exact = unipoly._exact_real_roots
    monkeypatch.setattr(unipoly, "_exact_real_roots", lambda p: sturm.append(p) or exact(p))
    polys = _root_bits_batch()
    text = ";".join(",".join(r.hex() for r in real_roots(p)) for p in polys)
    assert len(polys) == 111 and len(sturm) == 12  # both routes are pinned
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_BITS_SHA256


def test_compose_xsquare():
    p = UniPoly.from_coeffs([Fraction(-1), Fraction(1)])  # x - 1
    assert p.compose_xsquare().coeffs == (Fraction(-1), Fraction(0), Fraction(1))


def test_clustered_roots_pass_the_companion_route(monkeypatch):
    # Exact rational poly with a tight cluster: (x-1)(x-1-1/2^20)(x+3).
    # The polished companion roots pass the residual gate; Sturm is not needed.
    monkeypatch.setattr(unipoly, "_exact_real_roots", lambda p: pytest.fail("Sturm route taken"))
    eps = Fraction(1, 2 ** 20)
    p = from_roots([Fraction(1), 1 + eps, Fraction(-3)])
    roots = real_roots(p)
    assert len(roots) == 3
    assert roots[2] == pytest.approx(-3.0, abs=1e-9)
    assert abs(roots[0] - roots[1]) == pytest.approx(float(eps), rel=0.2)


def test_exact_route_builds_one_sturm_chain_per_factor(monkeypatch):
    # (x-1)^2 (x+2)(x-3): square-free factors (x+2)(x-3) and x-1.
    chains = []
    build = unipoly._sturm_chain
    monkeypatch.setattr(unipoly, "_sturm_chain", lambda c: chains.append(c) or build(c))
    p = from_roots([Fraction(1), Fraction(1), Fraction(-2), Fraction(3)])
    roots = unipoly._exact_real_roots(p)
    assert len(chains) == 2
    assert roots == pytest.approx((3.0, 1.0, 1.0, -2.0))


_EXACT = st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12))
_FLOAT = st.floats(-1e6, 1e6, allow_nan=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(exact=st.lists(_EXACT, min_size=1, max_size=6),
       mixed=st.lists(st.one_of(_EXACT, _FLOAT), min_size=1, max_size=6)
       .filter(lambda cs: any(isinstance(c, float) for c in cs) and any(cs)),
       ys=st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
       vec=st.lists(_EXACT, min_size=3, max_size=3))
def test_a_coefficient_type_is_its_arithmetic(exact, mixed, ys, vec):
    def stripped(cs):
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    # Ints and Fractions give Fractions; any float makes every coefficient
    # the float of its value.  The zero polynomial holds no coefficient, so
    # it has no type: the filters keep q and r nonzero.
    p = UniPoly.from_coeffs(exact)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == stripped(Fraction(c) for c in exact)
    q = UniPoly.from_coeffs(mixed)
    assert all(type(c) is float for c in q.coeffs)
    assert [(c, math.copysign(1, c)) for c in q.coeffs] == \
        [(float(c), math.copysign(1, float(c))) for c in stripped(mixed)]
    # Exact with float is the float result of converting first.
    for got, want in ((p + q, p.to_float() + q), (q + p, q + p.to_float()),
                      (p * q, p.to_float() * q), (q * p, q * p.to_float())):
        assert all(type(c) is float for c in got.coeffs)
        assert got.coeffs == want.coeffs
    # Interpolation through int nodes, and the trace of an exact vector, stay exact.
    (r,) = interpolate(range(len(ys)), [ys])
    assert all(type(c) is Fraction for c in r.coeffs)
    assert [r(x) for x in range(len(ys))] == ys
    assert type(r(len(ys))) is Fraction
    d2, l3 = determinant(2), lorentz(3)
    for h, trace in ((d2, Fraction(vec[0]) + vec[2]), (l3, 2 * Fraction(vec[2]))):
        got = hyperbolic_traces(h, [tuple(vec)])[0]
        assert type(got) is Fraction and got == trace


_DYADIC = st.builds(Fraction, st.integers(-48, 48), st.sampled_from((1, 2, 4, 8)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(_DYADIC, min_size=1, max_size=6), st.data())
def test_exact_roots_of_dyadic_products_with_repeats(roots, data):
    # Dyadic roots land on bisection midpoints, and repeats exercise Yun's
    # factors; every isolating interval (a, b] keeps its open left end off
    # the roots, which is what lets _refine_root read the sign of c(a).
    roots = roots + data.draw(st.lists(st.sampled_from(roots), max_size=4))
    p = from_roots(roots)
    got = unipoly._exact_real_roots(p)
    expect = tuple(float(r) for r in sorted(roots, reverse=True))
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
    for factor, _ in square_free_decomposition(list(p.coeffs)):
        chain = unipoly._sturm_chain(factor)
        intervals = unipoly._isolate_roots(factor, chain)
        assert len(intervals) == len(factor) - 1
        for a, b in intervals:
            if a == b:
                assert unipoly._horner(factor, a) == 0
                continue
            assert unipoly._horner(factor, a) != 0
            assert (unipoly._variations_at(chain, a) - unipoly._variations_at(chain, b)) == 1


def _assert_int_route_is_the_fraction_route(coeffs: list) -> None:
    """Yun over ints gives the Fraction route's monic factors and
    multiplicities, and each int Sturm chain entry is a positive multiple of
    the Fraction chain's."""
    factors = square_free_decomposition(coeffs)
    assert factors == fraction_square_free_decomposition(coeffs)
    assert all(type(x) is Fraction for factor, _ in factors for x in factor)
    for factor, _ in factors:
        chain, reference = unipoly._sturm_chain(factor), fraction_sturm_chain(factor)
        assert len(chain) == len(reference)
        for got, want in zip(chain, reference):
            assert all(type(x) is int for x in got)
            ratio = got[-1] / want[-1]
            assert ratio > 0 and [Fraction(x) for x in got] == [ratio * y for y in want]


_ROOT = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(roots=st.lists(st.tuples(_ROOT, st.integers(1, 3)), max_size=4),
       pairs=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6), st.integers(1, 2)),
                      max_size=2),
       lead=st.fractions(-5, 5, max_denominator=4).filter(bool),
       float_roots=st.lists(st.floats(-9, 9, allow_nan=False), max_size=5),
       sparse=st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), max_size=7))
def test_int_yun_and_sturm_are_the_fraction_route(roots, pairs, lead, float_roots, sparse):
    # Repeated rational roots, complex pairs x^2 + 2bx + b^2 + c (roots
    # -b +- i sqrt(c)), some squared, and a rational leading coefficient;
    # then the same polynomial rounded to binary64, and a float product.
    # Sparse int polynomials, and their even compositions p(x^2), give
    # remainder sequences whose degrees drop by more than one, where a
    # pseudo-remainder takes an odd number of steps.
    p = UniPoly.constant(lead) * from_roots([r for r, m in roots for _ in range(m)])
    for b, c, m in pairs:
        for _ in range(m):
            p = p * UniPoly.from_coeffs([b * b + c, 2 * b, 1])
    for coeffs in (p.coeffs, [float(c) for c in p.coeffs],
                   from_roots(float_roots + float_roots[:1] * 2).coeffs,
                   sparse, UniPoly.from_coeffs(sparse).compose_xsquare().coeffs):
        _assert_int_route_is_the_fraction_route(list(coeffs))


def test_int_yun_and_sturm_on_the_named_cases():
    fifth, one = Fraction(1, 5), Fraction(1)
    for coeffs in (list(from_roots([fifth, one, one, one]).coeffs),
                   list(from_roots([Fraction(5), Fraction(7, 2)]).coeffs),
                   [2.0 ** -80, 0.0, 1.0], [-(2.0 ** -80), 0.0, 1.0]):
        _assert_int_route_is_the_fraction_route(coeffs)
    assert square_free_decomposition(from_roots([fifth, one, one, one]).coeffs) == \
        [([-fifth, one], 1), ([-one, one], 3)]


def _certificate(p: UniPoly):
    """The certified factors and multiplicities, or the NotRealRooted text."""
    try:
        return [(factor, mult) for factor, mult, _ in unipoly._certified_factors(p)]
    except NotRealRooted as exc:
        return str(exc)


@pytest.mark.parametrize("spec", SR_SEARCH_GRAPHS)
def test_sr_root_certificates_are_the_fraction_route(monkeypatch, spec):
    p = AgFamily(SrInstance.from_graph(_resolve_graph(spec))).node_poly(())
    _assert_int_route_is_the_fraction_route(list(p.coeffs))
    got = _certificate(p)
    monkeypatch.setattr(unipoly, "square_free_decomposition", fraction_square_free_decomposition)
    monkeypatch.setattr(unipoly, "_sturm_chain", fraction_sturm_chain)
    assert got == _certificate(p)
