"""Polynomials the tests build from known roots."""

from hyperdisc.unipoly import UniPoly


def from_roots(roots) -> UniPoly:
    """The monic polynomial prod_r (x - r), over the roots' own arithmetic."""
    p = UniPoly.constant(1)
    for r in roots:
        p = p * UniPoly.from_coeffs([-r, 1])
    return p
