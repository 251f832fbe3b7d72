"""The one multivariate polynomial type.

MultiPoly is a sparse map from exponent vectors to coefficients.  Every
multivariate object in the package is one: the generating polynomial of an
SR distribution (srdist), the polynomial of a ``custom`` hyperbolic
instance, and h(xe + sum z_i v_i) and its square in the barrier argument
(mixedchar, barrier).  Operators such as (1 - c d^2/dz_i^2) act on it directly
(``one_minus_c_d2``, ``partial``), and values are taken with ``eval`` at
the point of interest rather than by expanding a shifted copy.

Real stability (no zero with every coordinate in the open upper half
plane) is assumed of these polynomials, not tested at run time; the test
suite carries a seeded refutation search for it.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .unipoly import UniPoly, as_one_type


class MultiPoly:
    """Map from exponent vectors to coefficients; zero terms are dropped.

    As in UniPoly, the coefficients are all floats if any is given as a
    float and all Fractions otherwise."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {tuple(exps): c
                      for exps, c in zip(terms, as_one_type(list(terms.values()))) if c != 0}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def monomial(exps, c=1) -> "MultiPoly":
        return MultiPoly(len(exps), {tuple(exps): c})

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    # -- calculus -----------------------------------------------------------
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

    def partial(self, i: int) -> "MultiPoly":
        if not (0 <= i < self.nvars):
            raise IndexOutOfRange(f"variable {i} out of range")
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[i]
        return MultiPoly(self.nvars, out)

    def eval(self, point):
        acc = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            acc = acc + v
        return acc

    def restrict_line(self, a, b) -> UniPoly:
        """Univariate restriction t -> p(a t + b)."""
        acc = UniPoly.zero()
        for e, c in self.terms.items():
            term = UniPoly.constant(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                lin = UniPoly.from_coeffs([b[i], a[i]])
                for _ in range(k):
                    term = term * lin
            acc = acc + term
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = sorted(self.terms.items())
        return f"MultiPoly({self.nvars}, {items!r})"


def one_minus_c_d2(p: MultiPoly, i: int, c) -> MultiPoly:
    if c < 0:
        raise ValueError("the (1 - c d^2) operator requires c >= 0")
    return p - p.partial(i).partial(i).scale(c)
