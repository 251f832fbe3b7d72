"""Spectral calculus over the four hyperbolic instance kinds."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc._exact import det_exact
from hyperdisc.barrier import _taus
from hyperdisc.errors import DimensionMismatch, NotRealRooted, RankTooHigh
from hyperdisc.hyperbolic import (
    DeterminantInstance,
    ElemSymInstance,
    RealStableInstance,
    char_restriction,
    derivative_restriction,
    determinant,
    hyperbolic_traces,
    lorentz,
    spectrum,
)
from hyperdisc.instances import gen_kls_det, gen_kls_lorentz
from hyperdisc.realstable import MultiPoly
from hyperdisc.unipoly import max_real_root
from hyperbolic_helpers import ConeVerdict, cone_membership, rank1_product_derivative
from subset_helpers import as_rationals, fraction_derivative_restriction
from unipoly_helpers import poly_mul

L3 = lorentz(3)
D2 = determinant(2)


def _vec(h, a) -> tuple:
    """The vector of the symmetric matrix a: its upper triangle, row by row."""
    return tuple(a[i][j] for i in range(h.mprime) for j in range(i, h.mprime))


def _dv(h, v, x):
    """(D_v h)(x), read off the restriction t -> h(x + t v) as barrier.phi does."""
    coeffs = h.restrict_line(tuple(x), tuple(v)).coeffs
    return coeffs[1] if len(coeffs) > 1 else 0


def _trace_via_derivative(h, v, alpha):
    """alpha * D_v h(alpha e) / h(alpha e), which equals the trace of v."""
    point = tuple(alpha * c for c in h.e)
    return alpha * _dv(h, v, point) / h.value(point)


def test_restrict_line_lorentz():
    p = L3.restrict_line((-3, -4, -1), L3.e)
    assert p.coeffs == (Fraction(-24), Fraction(-2), Fraction(1))  # (t-1)^2 - 25


def test_restrict_line_determinant_diagonal():
    base = tuple(-v for v in _vec(D2, [[2, 0], [0, 3]]))
    p = D2.restrict_line(base, D2.e)
    assert p.coeffs == (Fraction(6), Fraction(-5), Fraction(1))  # (t-2)(t-3)


def test_restrict_line_elem_sym():
    h = ElemSymInstance(3, 2)
    p = h.restrict_line((-1, 0, 0), h.e)
    assert p.coeffs == (Fraction(0), Fraction(-2), Fraction(3))  # 3t^2 - 2t


def test_restrict_line_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        L3.restrict_line((1, 2), L3.e)


def test_spectrum_lorentz():
    sp = spectrum(L3, (3, 4, 1))
    assert sp.eigenvalues == pytest.approx((6.0, -4.0))
    assert sp.norm == pytest.approx(6.0)
    assert hyperbolic_traces(L3, [(3, 4, 1)])[0] == 2 == pytest.approx(sum(sp.eigenvalues))
    assert all(lam != pytest.approx(0.0) for lam in sp.eigenvalues)  # rank 2


def test_spectrum_determinant_diagonal():
    x = _vec(D2, [[2, 0], [0, 3]])
    sp = spectrum(D2, x)
    assert sp.eigenvalues == pytest.approx((3.0, 2.0))
    assert sp.norm == pytest.approx(3.0)
    assert hyperbolic_traces(D2, [x])[0] == 5 == pytest.approx(sum(sp.eigenvalues))
    assert all(lam != pytest.approx(0.0) for lam in sp.eigenvalues)  # rank 2


def test_spectrum_at_direction_is_all_ones():
    for h in (L3, D2, ElemSymInstance(4, 3)):
        sp = spectrum(h, h.e)
        assert sp.eigenvalues == pytest.approx((1.0,) * h.d)
        assert hyperbolic_traces(h, [h.e])[0] == h.d == pytest.approx(sum(sp.eigenvalues))
        assert all(lam != pytest.approx(0.0) for lam in sp.eigenvalues)  # rank d


def test_cone_membership():
    assert cone_membership(L3, L3.e).status == "interior"
    assert cone_membership(L3, (3, 4, 5)).status == "boundary"
    verdict = cone_membership(L3, (3, 4, 1))
    assert isinstance(verdict, ConeVerdict)
    assert verdict.status == "outside"
    assert verdict.witness == pytest.approx(-4.0)


def test_directional_derivative_scalar():
    h = determinant(1)  # h(x) = x
    assert _dv(h, (1,), (5,)) == 1
    assert _dv(h, (1,), (Fraction(-7),)) == 1


def test_directional_derivative_rank_one():
    v = D2.vec_outer((1, 1))
    assert _dv(D2, v, D2.e) == 2  # d/dt det(I + t uu^T) = tr(uu^T)


def test_directional_derivative_lorentz():
    assert _dv(L3, L3.e, (0, 0, 5)) == 10  # d/dt (5+t)^2 at 0


def test_trace_via_derivative_examples():
    for h, v, alpha, trace in ((L3, L3.e, 1, 2), (D2, D2.vec_outer((1, 1)), 1, 2),
                               (L3, (3, 4, 5), 2, 10)):
        assert _trace_via_derivative(h, v, alpha) == trace == hyperbolic_traces(h, [v])[0]


def test_trace_via_derivative_alpha_independent():
    rng = random.Random(3)
    for h in (L3, D2, ElemSymInstance(4, 2)):
        for _ in range(5):
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(h.m))
            vals = [_trace_via_derivative(h, v, a) for a in (1, -1, 2, -2, 3)]
            assert all(val == hyperbolic_traces(h, [v])[0] for val in vals)
            assert float(vals[0]) == pytest.approx(sum(spectrum(h, v).eigenvalues), abs=1e-8)


def test_exact_trace_matches_spectrum():
    rng = random.Random(5)
    for _ in range(10):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        assert float(hyperbolic_traces(L3, [v])[0]) == pytest.approx(sum(spectrum(L3, v).eigenvalues))


def test_rank1_product_derivative_empty_set():
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert rank1_product_derivative(L3, (), (), x) == L3.value(x)


def test_rank1_product_derivative_scalar():
    h = determinant(1)
    assert rank1_product_derivative(h, (0,), ((Fraction(1),),), (Fraction(9),)) == 1


def test_rank1_product_derivative_vanishes_beyond_degree():
    h = determinant(1)
    vs = ((Fraction(1),), (Fraction(1),))
    assert rank1_product_derivative(h, (0, 1), vs, (Fraction(4),)) == 0


def test_rank1_product_derivative_rejects_high_rank():
    v_full = _vec(D2, [[1, 0], [0, 1]])  # identity has rank 2
    with pytest.raises(RankTooHigh):
        rank1_product_derivative(D2, (0,), (v_full,), D2.e)


def test_inclusion_exclusion_matches_iterated_derivative():
    # Along v_i = vec(u_i u_i^T), D_{v_S} det(X) = (-1)^|S| det([[X, U_S], [U_S^T, 0]])
    # with U_S the columns u_i, i in S (the coefficient of prod t_i in
    # det(X + U_S diag(t) U_S^T)); an exact route independent of inclusion-exclusion.
    rng = random.Random(11)
    h = determinant(3)
    us = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3)]
    vs = [h.vec_outer(u) for u in us]
    x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(h.m))
    for size in range(0, 4):
        idx = tuple(range(size))
        got = rank1_product_derivative(h, idx, vs, x)
        bordered = [row + [us[i][r] for i in idx] for r, row in enumerate(h.mat(x))]
        bordered += [list(us[i]) + [0] * size for i in idx]
        assert got == (-1) ** size * det_exact(bordered)


def test_eigenvalue_homogeneity():
    rng = random.Random(13)
    for h in (L3, D2):
        for _ in range(6):
            x = tuple(float(rng.randint(-4, 4)) for _ in range(h.m))
            base = spectrum(h, x).eigenvalues
            for c in (2.0, 0.5):
                scaled = spectrum(h, tuple(c * v for v in x)).eigenvalues
                assert scaled == pytest.approx(tuple(c * l for l in base), abs=1e-7)
            neg = spectrum(h, tuple(-v for v in x)).eigenvalues
            assert neg == pytest.approx(tuple(sorted((-l for l in base), reverse=True)), abs=1e-7)


HOMOGENEITY_INSTANCES = [determinant(2), determinant(3), lorentz(3), lorentz(4),
                         ElemSymInstance(4, 2), ElemSymInstance(4, 3)]
_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@pytest.mark.parametrize("h", HOMOGENEITY_INSTANCES, ids=lambda h: f"{h.kind}-m{h.m}-d{h.d}")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_spectrum_homogeneity_on_exact_input(h, data):
    # h has degree d, so h(t e - c x) = c^d h((t/c) e - x): the eigenvalues
    # of c x are c times those of x, in reverse order for c < 0, and the
    # norm scales by |c|.
    x = tuple(data.draw(st.lists(_RATIONAL, min_size=h.m, max_size=h.m)))
    c = data.draw(_RATIONAL.filter(bool))
    base, scaled = spectrum(h, x), spectrum(h, tuple(c * v for v in x))
    expect = sorted((float(c) * lam for lam in base.eigenvalues), reverse=True)
    tol = 1e-7 * max(1.0, abs(float(c)) * base.norm)
    assert scaled.eigenvalues == pytest.approx(expect, abs=tol)
    assert scaled.norm == pytest.approx(abs(float(c)) * base.norm, abs=tol)


def test_norm_equals_max_root_of_symmetric_product():
    # ||sum s_i v_i||_h is the top root of h(xe - w) h(xe + w).
    rng = random.Random(17)
    h = determinant(3)
    vs = [h.vec_outer(tuple(rng.randint(-2, 2) for _ in range(3))) for _ in range(4)]
    for _ in range(6):
        signs = [rng.choice((-1, 1)) for _ in vs]
        w = tuple(sum(s * v[i] for s, v in zip(signs, vs)) for i in range(h.m))
        prod = poly_mul(h.restrict_line(tuple(-c for c in w), h.e), h.restrict_line(w, h.e))
        top = max_real_root(prod.to_float())
        assert top == pytest.approx(spectrum(h, w).norm, abs=1e-7)


def _random_interior_point(h, rng):
    if h.kind == "lorentz":
        w = [rng.uniform(-2, 2) for _ in range(h.m - 1)]
        t = (sum(x * x for x in w)) ** 0.5 + rng.uniform(0.3, 2.0)
        return tuple(w + [t])
    if h.kind == "determinant":
        b = [[rng.uniform(-1, 1) for _ in range(h.mprime)] for _ in range(h.mprime)]
        a = [[sum(b[r][k] * b[c][k] for k in range(h.mprime)) + (0.25 if r == c else 0.0)
              for c in range(h.mprime)] for r in range(h.mprime)]
        return _vec(h, a)
    raise NotImplementedError


def _random_cone_direction(h, rng):
    if h.kind == "lorentz":
        w = [rng.uniform(-1, 1) for _ in range(h.m - 1)]
        return tuple(w + [(sum(x * x for x in w)) ** 0.5])
    if h.kind == "determinant":
        u = tuple(rng.uniform(-1, 1) for _ in range(h.mprime))
        return h.vec_outer(u)
    raise NotImplementedError


def test_ratio_h_over_dvh_concave_on_interior():
    rng = random.Random(19)
    for h in (lorentz(4), determinant(2)):
        for _ in range(8):
            a = _random_interior_point(h, rng)
            b = _random_interior_point(h, rng)
            v = _random_cone_direction(h, rng)
            mid = tuple((p + q) / 2 for p, q in zip(a, b))
            da, db, dmid = (_dv(h, v, pt) for pt in (a, b, mid))
            if min(abs(da), abs(db), abs(dmid)) < 1e-9:
                continue
            lhs = h.value(mid) / dmid
            rhs = h.value(a) / da / 2 + h.value(b) / db / 2
            assert lhs >= rhs - 1e-8 * max(1.0, abs(lhs))


def test_derivative_ratio_monotone_along_cone():
    rng = random.Random(23)
    for h in (lorentz(4), determinant(2)):
        for _ in range(8):
            m_vec = _random_cone_direction(h, rng)
            v = _random_cone_direction(h, rng)
            alpha = rng.uniform(0.5, 3.0)
            base = tuple(alpha * c for c in h.e)
            shifted = tuple(p + q for p, q in zip(base, m_vec))
            lhs = _dv(h, v, shifted) / h.value(shifted)
            rhs = _dv(h, v, base) / h.value(base)
            assert lhs <= rhs + 1e-8 * max(1.0, abs(rhs))


def test_majorized_by_direction_stays_in_cone():
    # If every eigenvalue of u is <= 1 then e - u is in the closed cone.
    rng = random.Random(29)
    for h in (L3, determinant(3)):
        for _ in range(8):
            x = tuple(rng.uniform(-1, 1) for _ in range(h.m))
            top = spectrum(h, x).eigenvalues[0]
            if top <= 0:
                continue
            shrink = top * rng.uniform(1.0, 2.0)
            u = tuple(c / shrink for c in x)
            e_minus_u = tuple(a - b for a, b in zip(h.e, u))
            assert cone_membership(h, e_minus_u).status != "outside"


def test_custom_instance_from_spanning_tree_polynomial():
    p = MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})  # spanning trees of K3
    h = RealStableInstance(p, (1, 1, 1))
    assert h.d == 2
    sp = spectrum(h, h.e)
    assert sp.eigenvalues == pytest.approx((1.0, 1.0))
    # Rank-1 boundary direction: an edge indicator has a single nonzero
    # eigenvalue for this quadratic.
    assert spectrum(h, (1, 0, 0)).eigenvalues[1:] == pytest.approx((0.0,))


@pytest.mark.parametrize("h", [
    determinant(1), determinant(3), determinant(4), lorentz(2), lorentz(5),
    ElemSymInstance(4, 2), ElemSymInstance(3, 3),
    RealStableInstance(MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}), (1, 1, 1)),
], ids=lambda h: f"{h.kind}-m{h.m}")
def test_norms_agree_with_spectrum_row_by_row(h):
    # The closed forms (det, lorentz) match each row's spectrum to rounding;
    # the other kinds read the spectrum itself, so they are equal.
    rng = np.random.default_rng(h.m)
    rows = rng.uniform(-3, 3, size=(40, h.m))
    rows[0] = 0.0
    rows[1] = h.e
    norms = h.norms(rows)
    assert norms.shape == (len(rows),)
    for row, norm in zip(rows, norms):
        expect = spectrum(h, tuple(row)).norm
        if h.kind in ("determinant", "lorentz"):
            assert norm == pytest.approx(expect, rel=1e-12)
        else:
            assert norm == expect


@pytest.mark.parametrize("h", [lorentz(2), lorentz(3), lorentz(5)], ids=["m2", "m3", "m5"])
def test_lorentz_norms_past_the_square_root_of_binary64(h):
    rng = np.random.default_rng(h.m)
    rows = rng.uniform(-3, 3, size=(12, h.m))
    big = np.zeros(len(rows), dtype=bool)
    big[[1, 4, 7]] = True
    rows[1, 0] = -3e300
    rows[4, :-1] = 1e200
    rows[7, 0], rows[7, -1] = 2e154, -1e300
    with np.errstate(all="raise"):
        norms = h.norms(rows)
    # Every row whose squares stay finite keeps the plain sum's bits.
    small = rows[~big]
    plain = np.abs(small[:, -1]) + np.sqrt(np.sum(small[:, :-1] ** 2, axis=1))
    assert [x.hex() for x in norms[~big]] == [x.hex() for x in plain]
    for row, norm in zip(rows[big], norms[big]):
        space = [Fraction(x) for x in row[:-1]]
        scale = max(abs(x) for x in space)
        length = float(scale) * float(sum((x / scale) ** 2 for x in space)) ** 0.5
        assert np.isfinite(norm)
        assert norm == pytest.approx(abs(row[-1]) + length, rel=1e-15)


# ---------------------------------------------------------------------------
# The stacked restriction along e against one restrict_line per row.
# ---------------------------------------------------------------------------

STACK_INSTANCES = [
    determinant(1), determinant(2), determinant(3), determinant(4), lorentz(2), lorentz(4),
    ElemSymInstance(4, 2), ElemSymInstance(3, 3),
    RealStableInstance(MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}), (1, 2, 1)),
]

# Signed zeros, small dyadics (repeated eigenvalues stay exact) and any float.
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]),
                   st.floats(-4, 4, allow_subnormal=False))


def _rank_one(h, a: float, us: list) -> list:
    """A vector of hyperbolic rank <= 1 built from a and us."""
    if isinstance(h, DeterminantInstance):
        return list(h.vec_outer(us[:h.d]))
    if h.kind == "lorentz":
        return [a] + [0.0] * (h.m - 2) + [a]  # on the light cone
    return [a] + [0.0] * (h.m - 1)  # one coordinate of a multilinear form


@st.composite
def _float_row(draw, h) -> list:
    shape = draw(st.sampled_from(["entries", "multiple of e", "rank one", "e plus rank one"]))
    if shape == "entries":
        return [draw(_ENTRY) for _ in range(h.m)]
    c = draw(_ENTRY)
    if shape == "multiple of e":  # one eigenvalue, d times
        return [c * x for x in h.e]
    one = _rank_one(h, draw(_ENTRY), [draw(_ENTRY) for _ in range(h.m)])
    if shape == "rank one":
        return one
    return [c * x + y for x, y in zip(h.e, one)]  # c repeated d - 1 times


def _hex(coeffs) -> list:
    return [float.hex(float(c)) for c in coeffs]


@pytest.mark.parametrize("h", STACK_INSTANCES, ids=lambda h: f"{h.kind}-m{h.m}-d{h.d}")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_restrict_e_rows_equals_restrict_line_row_by_row(h, data):
    rows = data.draw(st.lists(_float_row(h), min_size=1, max_size=5))
    # Float stack: the same binary64 values, -0.0 and 0.0 told apart.
    got = h.restrict_e_rows(np.array(rows, dtype=float))
    assert got.dtype == np.float64 and got.shape == (len(rows), h.d + 1)
    for row, coeffs in zip(rows, got):
        assert _hex(coeffs) == _hex(h.restrict_line(tuple(row), h.e).coeffs), row
        if isinstance(h, DeterminantInstance):
            # The expansion that restrict_line took before it read this
            # route: np.poly of the negated eigenvalues.
            eigs = np.linalg.eigvalsh(np.array(h.mat(row), dtype=float))
            assert _hex(coeffs) == _hex(np.poly(-eigs)[::-1]), row
    # Exact stack: each float as the rational it is, plus a third.
    exact = [[Fraction(x) + Fraction(i % 2, 3) for i, x in enumerate(row)] for row in rows]
    got = h.restrict_e_rows(np.array(exact, dtype=object))
    assert got.dtype == object and got.shape == (len(rows), h.d + 1)
    for row, coeffs in zip(exact, got):
        assert all(isinstance(c, Fraction) for c in coeffs)
        assert tuple(coeffs) == h.restrict_line(tuple(row), h.e).coeffs, row


@pytest.mark.parametrize("size", range(2, 9))
def test_stacked_det_and_eigvalsh_equal_one_call_per_matrix(size):
    # values, restrict_e_rows and hyperbolic_traces keep each point's bits
    # only because numpy's stacked det and eigvalsh give every matrix the
    # bits of its own call; a numpy that breaks this is named here.
    rng = np.random.default_rng(size)
    mats = rng.standard_normal((300, size, size))
    mats = mats + mats.transpose(0, 2, 1)
    mats[::3] = np.round(mats[::3])  # small ints: repeated and zero eigenvalues
    mats[1::3, 0] = mats[1::3, :, 0] = 0.0  # singular
    dets, eigs = np.linalg.det(mats), np.linalg.eigvalsh(mats)
    for mat, det, eig in zip(mats, dets, eigs):
        assert float.hex(float(det)) == float.hex(float(np.linalg.det(mat)))
        assert _hex(eig) == _hex(np.linalg.eigvalsh(mat))


@pytest.mark.parametrize("h", STACK_INSTANCES, ids=lambda h: f"{h.kind}-m{h.m}-d{h.d}")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_values_equal_value_point_by_point(h, data):
    rows = data.draw(st.lists(_float_row(h), min_size=1, max_size=6))
    want = [float.hex(h.value(tuple(row))) for row in rows]
    # A float stack, as barrier's probes pass it, and a list of float tuples,
    # as the interpolated restriction passes it.
    for points in (np.array(rows, dtype=float), [tuple(row) for row in rows]):
        got = h.values(points)
        assert all(type(v) is float for v in got)
        assert [float.hex(v) for v in got] == want, rows
    # Exact points, and float points with a Fraction among them, take value().
    exact = [tuple(Fraction(x) + Fraction(i % 2, 3) for i, x in enumerate(row)) for row in rows]
    assert h.values(exact) == [h.value(p) for p in exact]
    assert all(type(v) is Fraction for v in h.values(exact))
    mixed = [(Fraction(1, 3),) + tuple(row[1:]) for row in rows]
    assert [repr(v) for v in h.values(mixed)] == [repr(h.value(p)) for p in mixed]


@pytest.mark.parametrize("h", STACK_INSTANCES, ids=lambda h: f"{h.kind}-m{h.m}-d{h.d}")
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_traces_equal_one_restriction_per_vector(h, data):
    rows = data.draw(st.lists(_float_row(h), min_size=1, max_size=5))

    def one(v):  # the coefficient ratio of one characteristic restriction
        coeffs = char_restriction(h, v).coeffs
        return -coeffs[-2] / coeffs[-1]

    got = hyperbolic_traces(h, [tuple(row) for row in rows])
    assert [float.hex(t) for t in got] == [float.hex(one(tuple(row))) for row in rows]
    exact = [tuple(Fraction(x) + Fraction(i % 2, 3) for i, x in enumerate(row)) for row in rows]
    got = hyperbolic_traces(h, exact)
    assert all(type(t) is Fraction for t in got)
    assert got == tuple(one(v) for v in exact)


_HALF_E2 = RealStableInstance(MultiPoly(3, {(1, 1, 0): Fraction(1, 2), (1, 0, 1): Fraction(1, 2),
                                            (0, 1, 1): Fraction(1, 2)}), (1, 1, 1))


@pytest.mark.parametrize("h", STACK_INSTANCES + [_HALF_E2],
                         ids=[f"{h.kind}-m{h.m}-d{h.d}" for h in STACK_INSTANCES] + ["half-e2"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_restrict_e_ints_equals_restrict_line_row_by_row(h, data):
    # One row (a signed leaf) and stacks (the operator form) alike.
    bases = data.draw(st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=h.m,
                                        max_size=h.m).map(tuple), min_size=1, max_size=5))
    rows, outer = h.restrict_e_ints(bases)
    assert outer == (2 if h is _HALF_E2 else 1) and len(rows) == len(bases)
    for base, row in zip(bases, rows):
        assert all(type(c) is int for c in row) and len(row) == h.d + 1
        assert tuple(Fraction(c, outer) for c in row) == h.restrict_line(base, h.e).coeffs, base


def test_custom_instance_rejects_inhomogeneous():
    p = MultiPoly(2, {(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        RealStableInstance(p, (1, 1))


def test_custom_instance_rejects_nonpositive_direction():
    p = MultiPoly(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        RealStableInstance(p, (1, 0))


def test_not_real_rooted_surfaces_construction_bugs():
    # x1^2 + x2^2 is not hyperbolic in any direction; build the instance with
    # validation bypassed and make sure the spectral layer refuses it loudly.
    inst = object.__new__(RealStableInstance)
    inst.poly = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    inst.m = 2
    inst.d = 2
    inst.e = (1, 1)
    with pytest.raises(NotRealRooted):
        spectrum(inst, (1, -1))


def test_derivative_restriction_polynomial():
    # (D_v h)(x e) for h = det_2, v = vec(uu^T): derivative of det(xI + t uu^T).
    u = (1, 1)
    v = D2.vec_outer(u)
    cache = {}
    poly = derivative_restriction(D2, [v], (0,), cache)
    # det(xI + t uu^T) = x^2 + 2tx, so D_v h(xe) = 2x.
    assert poly.coeffs == (Fraction(0), Fraction(2))
    # One restriction per subset U of S, kept for the next call.
    assert sorted(cache) == [(), (0,)]
    assert derivative_restriction(D2, [v], (0,), cache) == poly


def _linear_restriction_inputs():
    """(h, vectors) as linear_restriction_multipoly receives them in the
    tests: exact det vectors, and kls_square_zpoly's tau_i v_i of instances
    scaled by 1/sigma, whose entries are floats."""
    rng = random.Random(12)
    h3 = determinant(3)
    yield D2, [D2.vec_outer((Fraction(1), Fraction(0))), D2.vec_outer((Fraction(1), Fraction(1)))]
    yield h3, [h3.vec_outer(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)))
               for _ in range(3)]
    for inst in (gen_kls_det(3, 2, 0, "mixed"), gen_kls_det(4, 3, 1, "rademacher"),
                 gen_kls_lorentz(3, 3, 0, "mixed")):
        inst = inst.scaled(1.0 / inst.sigma)
        yield inst.h, [tuple(t * float(c) for c in v) for t, v in zip(_taus(inst), inst.vectors)]


def test_derivative_restriction_equals_the_fraction_route():
    # With an empty cache, as the reference routes call it; a float vector
    # is the rational it is.
    for h, vectors in _linear_restriction_inputs():
        exact = as_rationals(vectors)
        for r in range(len(vectors) + 1):
            for subset in itertools.combinations(range(len(vectors)), r):
                got = derivative_restriction(h, vectors, subset, {})
                assert all(type(c) is Fraction for c in got.coeffs)
                assert got == fraction_derivative_restriction(h, exact, subset, {}), subset

