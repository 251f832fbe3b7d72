"""Hyperbolic-polynomial spectral discrepancy toolkit.

Computes hyperbolic spectra (eigenvalues and norm) and exact traces, builds
interlacing families and mixed characteristic polynomials, verifies the
operator identities and barrier root bounds numerically, and runs the
blocked coefficient-oracle search against brute-force baselines.  A value's
own type is its arithmetic: Fractions are exact and floats are binary64;
the signed family is exact and the subset family's files hold floats.
Exact values are computed over Python ints with one division at the end,
so the blocked search also runs at sizes where brute force refuses to
enumerate.
"""

__version__ = "0.1.0"
