"""det_exact and char_poly_exact against test-local references.

The determinant is compared with the permutation expansion, and the
characteristic polynomial with det(tI - B) taken at n+1 integer points by
that expansion and interpolated.  Matrices are rational with denominators
other than 1, and include zero pivots and singular matrices.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc._exact import char_poly_exact, det_exact

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
