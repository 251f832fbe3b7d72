"""Exact linear algebra over rational matrices, computed with Python ints.

Each matrix is scaled once by the lcm D of its entries' denominators; the
elimination and the Faddeev-LeVerrier recurrence then run over ints, and
each result is divided by its power of D once, at the end.  Entries may be
ints or Fractions; the results are Fractions.  numpy handles the float lane.

Two routes batch a stack of int matrices in numpy object arrays, one
object matmul or elementwise step per stage over the whole stack:
principal_minors (Bareiss over every k x k principal submatrix, ints in,
ints out) and char_polys (Faddeev-LeVerrier, ints in, ints out; the
caller scales the stack and divides).  The Faddeev-LeVerrier recurrence
over lists, char_poly_ints (ints in, ints out; char_poly_exact scales and
divides around it), stays the route for one matrix, since the search
scores one signed leaf at a time: one int restriction of det along
e took 40/60/85 us through a stack of one against 15/34/73 us by
char_poly_ints, at n = 2/3/4 (Python 3.11, one Xeon core).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def _integer_rows(rows: list) -> tuple:
    """(D * rows as lists of ints, D) for the lcm D of the entries'
    denominators; a float entry counts as the rational it is."""
    try:
        scale = math.lcm(*(x.denominator for row in rows for x in row))
    except AttributeError:  # a float has no denominator
        rows = [[Fraction(x) if isinstance(x, float) else x for x in row] for row in rows]
        scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def det_exact(rows: list) -> Fraction:
    """Determinant by Bareiss fraction-free elimination with row pivoting.

    Every division in the elimination is exact (Bareiss 1968), so the
    entries stay ints; det(rows) = det(D * rows) / D^n.
    """
    n = len(rows)
    a, scale = _integer_rows(rows)
    sign, prev = 1, 1
    for col in range(n - 1):
        if a[col][col] == 0:
            pivot = next((r for r in range(col + 1, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        pivot_value = top[col]
        for r in range(col + 1, n):
            row = a[r]
            lead = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * pivot_value - lead * top[c]) // prev
        prev = pivot_value
    det = sign * a[n - 1][n - 1] if n else 1
    return Fraction(det, scale ** n)


def char_poly_exact(rows: list) -> list:
    """Coefficients of det(tI - B), ascending in t, via Faddeev-LeVerrier.

    Works for general (non-symmetric) square matrices.  The recurrence runs
    on the integer matrix D * B (char_poly_ints), whose characteristic
    coefficients are D^k c_k.
    """
    b, scale = _integer_rows(rows)
    n = len(b)
    return [Fraction(c, scale ** (n - i)) for i, c in enumerate(char_poly_ints(b))]


def char_poly_ints(b: list) -> list:
    """Ascending int coefficients of det(tI - B) for a square int matrix B,
    by the fraction-free Faddeev-LeVerrier recurrence
    M_k = B (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k: the c_k of an int
    matrix are ints, so the division is exact.  Only the trace of M_n is
    read, so the last step sums the products that make up its diagonal."""
    n = len(b)
    coeffs_desc = [1]  # c_k for k = 0..n
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs_desc[-1]
        if k < n:
            m = _matmul(b, m)
            trace = sum(m[i][i] for i in range(n))
        else:
            trace = sum(b[i][j] * m[j][i] for i in range(n) for j in range(n))
        coeffs_desc.append(-trace // k)
    # det(tI - B) = t^n + c_1 t^{n-1} + ... + c_n
    return coeffs_desc[::-1]


def char_polys(stack: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(tI - B) for every matrix B of an
    (N, n, n) object stack of Python ints: an (N, n + 1) object array of
    ints, row r for stack[r].

    char_poly_ints's recurrence, run on the whole stack at once: one object
    matmul per k < n, and the diagonal of the last product alone.
    """
    count, n = len(stack), stack.shape[-1]
    diag = np.arange(n)
    desc = np.empty((count, n + 1), dtype=object)  # desc[:, k] = c_k
    desc[:, 0] = 1
    m = np.zeros((count, n, n), dtype=object)
    for k in range(1, n + 1):
        m[:, diag, diag] += desc[:, k - 1, None]
        if k < n:
            m = stack @ m
            trace = m[:, diag, diag].sum(axis=1)
        else:
            trace = (stack * m.transpose(0, 2, 1)).sum(axis=(1, 2))
        desc[:, k] = -trace // k
    return desc[:, ::-1]


def _matmul(a: list, b: list) -> list:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for k in range(n):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            for j in range(n):
                row[j] += x * bk[j]
    return out


def principal_minors(rows, size: int) -> dict:
    """{T: det(A_T)} for every set T of at most ``size`` indices, keyed by
    bitmask in increasing order, for a positive semidefinite int matrix A.

    One fraction-free (Bareiss) elimination per size k runs on the stack of
    every k x k principal submatrix at once, over Python ints in an object
    array, without pivoting.  Each pivot is a leading principal minor of
    its submatrix, and a PSD matrix whose leading block is singular is
    singular itself, so a zero pivot means det 0: that submatrix is zeroed
    and its pivot taken as 1.
    """
    a = np.array(rows, dtype=object)
    minors = {0: 1}  # the empty set: det 1
    for k in range(1, min(size, len(a)) + 1):
        sets = list(itertools.combinations(range(len(a)), k))
        idx = np.array(sets, dtype=np.intp)
        sub = a[idx[:, :, None], idx[:, None, :]]
        prev = 1
        for col in range(k - 1):
            pivot = sub[:, col, col].copy()
            dead = pivot == 0
            if dead.any():
                sub[dead] = 0
                pivot[dead] = 1
            pivot = pivot[:, None, None]
            rest = slice(col + 1, None)
            sub[:, rest, rest] = (sub[:, rest, rest] * pivot
                                  - sub[:, rest, col:col + 1] * sub[:, col:col + 1, rest]) // prev
            prev = pivot
        minors.update(zip((sum(1 << i for i in t) for t in sets), sub[:, k - 1, k - 1].tolist()))
    return dict(sorted(minors.items()))
