"""Small exact linear-algebra helpers over Fraction matrices.

Desk-scale only (matrices up to ~8x8); numpy handles the float lane.
"""

from __future__ import annotations

from fractions import Fraction


def det_exact(rows: list) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def char_poly_exact(rows: list) -> list:
    """Coefficients of det(tI - B), ascending in t, via Faddeev-LeVerrier.

    Works for general (non-symmetric) square matrices; exact over Fractions.
    """
    n = len(rows)
    b = [[Fraction(x) for x in row] for row in rows]
    coeffs_desc = [Fraction(1)]  # c_0 = 1, then c_1..c_n
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = B (M_{k-1} + c_{k-1} I)
        shifted = [row[:] for row in m]
        for i in range(n):
            shifted[i][i] += coeffs_desc[-1]
        m = _matmul(b, shifted)
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs_desc.append(ck)
    # det(tI - B) = t^n + c_1 t^{n-1} + ... + c_n
    return list(reversed(coeffs_desc))


def _matmul(a: list, b: list) -> list:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(n):
            x = ai[k]
            if x == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(n):
                row[j] += x * bk[j]
    return out
