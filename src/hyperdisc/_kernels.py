"""Hot float kernels, JIT-compiled when numba is available.

The exact-rational lane works on ``fractions.Fraction`` objects and cannot
be jitted; these kernels back the binary64 lane only (batch Horner
evaluation, Newton root polishing, the power-sum recurrence scored once per
tuple inside the blocked search).

Set ``HYPERDISC_NO_NUMBA=1`` to force the pure-numpy fallback path; the
module exposes ``USING_NUMBA`` so callers can tell which path is live.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("HYPERDISC_NO_NUMBA", "") == "1"

USING_NUMBA = False
if not _DISABLED:
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USING_NUMBA = False

if not USING_NUMBA:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def horner_many(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate one polynomial (ascending coefficients) at many points."""
    n = coeffs.shape[0]
    out = np.empty(xs.shape[0])
    for j in range(xs.shape[0]):
        x = xs[j]
        acc = 0.0
        for i in range(n - 1, -1, -1):
            acc = acc * x + coeffs[i]
        out[j] = acc
    return out


@njit(cache=True)
def newton_polish(coeffs: np.ndarray, dcoeffs: np.ndarray, roots: np.ndarray,
                  iters: int) -> np.ndarray:
    """Polish approximate real roots with residual-monotone Newton steps.

    A step is only kept when it strictly decreases |p|; this keeps the
    polish harmless at near-multiple roots where the raw Newton step blows
    up (p' ~ 0 between a tight conjugate pair).
    """
    n = coeffs.shape[0]
    dn = dcoeffs.shape[0]
    out = roots.copy()
    for j in range(out.shape[0]):
        r = out[j]
        p0 = 0.0
        for i in range(n - 1, -1, -1):
            p0 = p0 * r + coeffs[i]
        for _ in range(iters):
            if p0 == 0.0:
                break
            dp = 0.0
            for i in range(dn - 1, -1, -1):
                dp = dp * r + dcoeffs[i]
            if dp == 0.0:
                break
            step = p0 / dp
            if not np.isfinite(step) or abs(step) > 1.0 + abs(r):
                break
            improved = False
            for _ in range(8):
                r2 = r - step
                p2 = 0.0
                for i in range(n - 1, -1, -1):
                    p2 = p2 * r2 + coeffs[i]
                if abs(p2) < abs(p0):
                    r = r2
                    p0 = p2
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        out[j] = r
    return out


@njit(cache=True)
def power_sum_from_top_coeffs(top: np.ndarray, k: int) -> float:
    """k-th power sum of the roots from the top-k monic coefficients.

    ``top[j-1]`` is the coefficient of x^(deg-j).  Signed elementary
    symmetrics come from Vieta, then the Newton recurrence
    p_j = e_1 p_{j-1} - e_2 p_{j-2} + ... + (-1)^(j-1) j e_j.
    """
    e = np.empty(k + 1)
    e[0] = 1.0
    sign = -1.0
    for j in range(1, k + 1):
        e[j] = sign * top[j - 1]
        sign = -sign
    p = np.empty(k + 1)
    p[0] = 0.0
    for j in range(1, k + 1):
        acc = 0.0
        sgn = 1.0
        for i in range(1, j):
            acc += sgn * e[i] * p[j - i]
            sgn = -sgn
        acc += sgn * j * e[j]
        p[j] = acc
    return p[k]


@njit(cache=True)
def power_sums_batch(tops: np.ndarray, k: int) -> np.ndarray:
    """Row-wise ``power_sum_from_top_coeffs`` for a batch of coefficient rows."""
    out = np.empty(tops.shape[0])
    for r in range(tops.shape[0]):
        out[r] = power_sum_from_top_coeffs(tops[r], k)
    return out


def horner_many_numpy(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Reference numpy implementation of :func:`horner_many`."""
    acc = np.zeros_like(xs)
    for c in coeffs[::-1]:
        acc = acc * xs + c
    return acc


def newton_polish_numpy(coeffs: np.ndarray, dcoeffs: np.ndarray,
                        roots: np.ndarray, iters: int) -> np.ndarray:
    """Vectorized residual-monotone Newton polish (fallback lane)."""
    r = np.array(roots, dtype=float, copy=True)
    pr = horner_many_numpy(coeffs, r)
    for _ in range(iters):
        dp = horner_many_numpy(dcoeffs, r)
        step = np.zeros_like(r)
        safe = dp != 0
        step[safe] = pr[safe] / dp[safe]
        step[~np.isfinite(step) | (np.abs(step) > 1.0 + np.abs(r))] = 0.0
        active = step != 0
        if not np.any(active):
            break
        for _ in range(8):
            trial = r - step
            pt = horner_many_numpy(coeffs, trial)
            better = (np.abs(pt) < np.abs(pr)) & active
            r[better] = trial[better]
            pr[better] = pt[better]
            active &= ~better
            step[active] *= 0.5
            if not np.any(active):
                break
    return r


def power_sums_batch_numpy(tops: np.ndarray, k: int) -> np.ndarray:
    """Reference numpy implementation of :func:`power_sums_batch`."""
    rows = tops.shape[0]
    signs = np.array([(-1.0) ** j for j in range(1, k + 1)])
    e = np.empty((rows, k + 1))
    e[:, 0] = 1.0
    e[:, 1:] = tops[:, :k] * signs
    p = np.zeros((rows, k + 1))
    for j in range(1, k + 1):
        acc = np.zeros(rows)
        sgn = 1.0
        for i in range(1, j):
            acc += sgn * e[:, i] * p[:, j - i]
            sgn = -sgn
        acc += sgn * j * e[:, j]
        p[:, j] = acc
    return p[:, k]


if not USING_NUMBA:
    # The scalar loops above are only fast once jitted; the fallback lane
    # routes the batch entry points to their vectorized numpy versions.
    horner_many = horner_many_numpy
    newton_polish = newton_polish_numpy
    power_sums_batch = power_sums_batch_numpy
