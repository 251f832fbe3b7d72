"""det_exact and char_poly_exact against test-local references, and the
stacked char_polys against char_poly_exact.

The determinant is compared with the permutation expansion, and the
characteristic polynomial with det(tI - B) taken at n+1 integer points by
that expansion and interpolated.  Matrices are rational with denominators
other than 1, and include zero pivots and singular matrices.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdisc._exact import char_poly_exact, char_polys, det_exact

ENTRIES = st.sampled_from([Fraction(0)] * 4 + [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(1, 3),
    Fraction(5, 6), Fraction(-7, 4), Fraction(12, 5), 3, -2,
])


@st.composite
def _matrices(draw):
    """Square matrices of size 0-6; a repeated or scaled row makes some
    singular, and the zero-heavy entries give zero pivots."""
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(ENTRIES)
        rows[j] = [factor * x for x in rows[i]]
    return rows


def _det_by_permutations(rows) -> Fraction:
    """sum over permutations p of sign(p) * prod_i rows[i][p(i)], with the
    partial products grouped by the set of columns the first rows took."""
    n = len(rows)
    partial = {0: Fraction(1)}  # columns taken by rows 0..i-1 -> signed sum
    for row in rows:
        grown = {}
        for used, acc in partial.items():
            for j, x in enumerate(row):
                if not used >> j & 1 and x != 0:
                    # Each taken column right of j is one more inversion.
                    sign = -1 if (used >> j).bit_count() % 2 else 1
                    key = used | 1 << j
                    grown[key] = grown.get(key, 0) + sign * acc * x
        partial = grown
    return partial.get((1 << n) - 1, Fraction(0))


def _lagrange(points) -> list:
    """Ascending coefficients of the polynomial through (t, y) points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (ti, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (tj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis  # multiply by t ...
                for k in range(len(basis) - 1):
                    basis[k] -= tj * basis[k + 1]  # ... minus tj
                denom *= ti - tj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_matrices())
def test_det_exact_equals_the_permutation_expansion(rows):
    got = det_exact(rows)
    assert type(got) is Fraction
    assert got == _det_by_permutations(rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrices())
def test_char_poly_exact_equals_interpolated_determinants(rows):
    n = len(rows)
    points = []
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - x for j, x in enumerate(row)]
                   for i, row in enumerate(rows)]
        points.append((Fraction(t), _det_by_permutations(shifted)))
    got = char_poly_exact(rows)
    assert all(type(c) is Fraction for c in got)
    assert got == _lagrange(points)


def test_det_exact_pivots_past_a_zero_column_head():
    rows = [[0, Fraction(1, 2), 1], [Fraction(2, 3), 0, 0], [1, 1, Fraction(1, 4)]]
    assert det_exact(rows) == _det_by_permutations(rows)
    assert det_exact([[0, 1], [0, 2]]) == 0
    assert det_exact([]) == 1


INT_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))


@st.composite
def _int_stacks(draw):
    """(n, matrices): no, one or several n x n int matrices, n = 1-6, each
    drawn entrywise or zero, singular (a row the difference of two others,
    or zero at n = 1) or rank one; entries reach past 2^63."""
    n = draw(st.integers(1, 6))
    count = draw(st.sampled_from([0, 1, draw(st.integers(2, 8))]))
    vec = st.lists(INT_ENTRIES, min_size=n, max_size=n)
    mats = []
    for _ in range(count):
        shape = draw(st.sampled_from(["entries", "zero", "singular", "rank one"]))
        if shape == "zero":
            rows = [[0] * n for _ in range(n)]
        elif shape == "rank one":
            u, v = draw(vec), draw(vec)
            rows = [[x * y for y in v] for x in u]
        else:
            rows = [draw(vec) for _ in range(n)]
            if shape == "singular":
                rows[-1] = [a - b for a, b in zip(rows[0], rows[1])] if n > 2 else [0] * n
        mats.append(rows)
    return n, mats


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_int_stacks())
@example((3, [[[2 ** 64, -1, 0], [5, 2 ** 63, 7], [0, -(2 ** 70), 1]], [[0] * 3] * 3]))
def test_char_polys_equals_char_poly_exact_row_by_row(case):
    n, mats = case
    got = char_polys(np.array(mats, dtype=object).reshape(len(mats), n, n))
    assert got.shape == (len(mats), n + 1)
    for rows, coeffs in zip(mats, got.tolist()):
        assert all(type(c) is int for c in coeffs)
        assert list(map(Fraction, coeffs)) == char_poly_exact(rows), rows
