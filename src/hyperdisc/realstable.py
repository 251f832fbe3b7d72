"""The one multivariate polynomial type.

MultiPoly is a sparse map from exponent vectors to coefficients: the
polynomial of a ``custom`` hyperbolic instance, which RealStableInstance
checks and evaluates and serialize writes out.  No command needs its
algebra (sums, products, partial derivatives, line restrictions); the test
suite keeps that as free functions on MultiPoly (tests/multipoly_helpers.py),
for the explicit polynomial of the barrier argument and the stability
oracle.

Real stability (no zero with every coordinate in the open upper half
plane) is assumed of these polynomials, not tested at run time; the test
suite carries a seeded refutation search for it.
"""

from __future__ import annotations

from .unipoly import as_one_type


class MultiPoly:
    """Map from exponent vectors to coefficients; zero terms are dropped.

    As in UniPoly, the coefficients are all floats if any is given as a
    float and all Fractions otherwise."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {tuple(exps): c
                      for exps, c in zip(terms, as_one_type(list(terms.values()))) if c != 0}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def eval(self, point):
        acc = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            acc = acc + v
        return acc
