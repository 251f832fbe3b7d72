"""The signed family's Fraction routes, the references for the int routes of
hyperdisc.mixedchar."""

import itertools
import math
from fractions import Fraction

from hyperdisc.unipoly import UniPoly
from unipoly_helpers import scale


def fraction_centered_sum(inst, assignment) -> tuple:
    """w = sum_i (s_i - mu_i) v_i over Fractions, with RandomVar.mean."""
    w = [Fraction(0)] * inst.h.m
    for v, var, s in zip(inst.vectors, inst.variables, assignment):
        for idx in range(inst.h.m):
            w[idx] += (s - var.mean) * v[idx]
    return tuple(w)


def fraction_leaf_poly(inst, assignment) -> UniPoly:
    """h(xe + w) h(xe - w) as the product of two Fraction restrictions along e."""
    w = fraction_centered_sum(inst, assignment)
    plus = inst.h.restrict_line(w, inst.h.e)
    minus = inst.h.restrict_line(tuple(-c for c in w), inst.h.e)
    return plus * minus


def fraction_node_poly(inst, partial=()) -> UniPoly:
    """Every completion's fraction_leaf_poly, scaled by the probability of its
    assignment and summed over Fractions."""
    acc = UniPoly.zero()
    rest = inst.variables[len(partial):]
    for completion in itertools.product(*[var.support for var in rest]):
        assignment = tuple(partial) + completion
        weight = math.prod(var.probs[var.support.index(s)]
                           for s, var in zip(assignment, inst.variables))
        acc = acc + scale(fraction_leaf_poly(inst, assignment), weight)
    return acc


def fraction_variance(var) -> Fraction:
    """Var xi = sum_s Pr[s] (s - mu)^2 over Fractions, with RandomVar.mean."""
    return sum(p * (s - var.mean) * (s - var.mean) for s, p in zip(var.support, var.probs))


def fraction_integer_data(inst) -> tuple:
    """(L, centered, variances, probs) of KlsInstance.integer_data from
    RandomVar.mean and fraction_variance over Fractions: L0 is the lcm of the centered
    values' denominators, and L = L0 times the lcm of the denominators of
    every L0^2 tau_i^2."""
    centered = [{s: s - var.mean for s in var.support} for var in inst.variables]
    base = math.lcm(*(c.denominator for cent in centered for c in cent.values()))
    scale = base * math.lcm(*((base * base * fraction_variance(var)).denominator
                              for var in inst.variables))
    probs = []
    for var in inst.variables:
        q = math.lcm(*(Fraction(p).denominator for p in var.probs))
        probs.append({s: _as_int(q * p) for s, p in zip(var.support, var.probs)})
    return (scale,
            tuple({s: _as_int(scale * c) for s, c in cent.items()} for cent in centered),
            tuple(_as_int(scale * scale * fraction_variance(var)) for var in inst.variables),
            tuple(probs))


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1, x
    return x.numerator
