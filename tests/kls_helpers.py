"""The signed family's Fraction routes, the references for the int routes of
hyperdisc.mixedchar, and its inner nodes off the coefficient table, which
the search reads only through its oracle."""

import itertools
import math
import weakref
from fractions import Fraction

from hyperdisc.hyperbolic import char_restriction
from hyperdisc.mixedchar import kls_fold, kls_node_sums
from hyperdisc.unipoly import UniPoly
from unipoly_helpers import ZERO, poly_add, poly_mul, scale


def fraction_mean(var) -> Fraction:
    """E xi = sum_s Pr[s] s over Fractions, a float taken as the rational it
    is."""
    return sum(Fraction(p) * Fraction(s) for s, p in zip(var.support, var.probs))


def fraction_centered_sum(inst, assignment) -> tuple:
    """w = sum_i (s_i - mu_i) v_i over Fractions, with fraction_mean."""
    w = [Fraction(0)] * inst.h.m
    for v, var, s in zip(inst.vectors, inst.variables, assignment):
        mean = fraction_mean(var)
        for idx in range(inst.h.m):
            w[idx] += (s - mean) * v[idx]
    return tuple(w)


def fraction_leaf_poly(inst, assignment) -> UniPoly:
    """h(xe + w) h(xe - w) as the product of two Fraction restrictions along e."""
    w = fraction_centered_sum(inst, assignment)
    plus = inst.h.restrict_line(w, inst.h.e)
    minus = inst.h.restrict_line(tuple(-c for c in w), inst.h.e)
    return poly_mul(plus, minus)


# instance -> {assignment: its fraction_leaf_poly}, kept while the instance
# lives: the tests sum the same leaves under many prefixes.
_LEAVES = weakref.WeakKeyDictionary()


def fraction_node_poly(inst, partial=()) -> UniPoly:
    """Every completion's fraction_leaf_poly, scaled by the probability of its
    assignment and summed over Fractions.  Each leaf is computed once per
    instance (equal instances share their leaves)."""
    leaves = _LEAVES.setdefault(inst, {})
    acc = ZERO
    rest = inst.variables[len(partial):]
    for completion in itertools.product(*[var.support for var in rest]):
        assignment = tuple(partial) + completion
        leaf = leaves.get(assignment)
        if leaf is None:
            leaf = leaves[assignment] = fraction_leaf_poly(inst, assignment)
        weight = math.prod(var.probs[var.support.index(s)]
                           for s, var in zip(assignment, inst.variables))
        acc = poly_add(acc, scale(leaf, weight))
    return acc


def kls_prefix_node(inst, partial) -> UniPoly:
    """A prefix's node off the coefficient table: Pr[prefix] N_k / (E^2 (L D)^k)
    at x^(2d-k), N_k the kls_node_sums of the prefix folded in (kls_fold)."""
    table = inst.coefficient_table
    rows = kls_fold(table, table.rows, 0, tuple(partial))
    sums = kls_node_sums(table.weights, rows, 2 * table.d)
    weight = math.prod((Fraction(var.probs[var.support.index(s)])
                        for s, var in zip(partial, inst.variables)), start=Fraction(1))
    return UniPoly.from_coeffs([weight * Fraction(sums[k], table.denominator * table.scale ** k)
                                for k in range(2 * table.d, -1, -1)])


def fraction_variance(var) -> Fraction:
    """Var xi = sum_s Pr[s] (s - mu)^2 over Fractions, with fraction_mean."""
    mean = fraction_mean(var)
    return sum(Fraction(p) * (Fraction(s) - mean) ** 2 for s, p in zip(var.support, var.probs))


def trace_reference(h, v):
    """The coefficient ratio of one characteristic restriction of v."""
    coeffs = char_restriction(h, v).coeffs
    return -coeffs[-2] / coeffs[-1]


def mix_reference(inst, traces) -> tuple:
    """sum tau_i^2 tr[v_i] v_i, one coordinate at a time from Fraction(0)."""
    mix = [Fraction(0)] * inst.h.m
    for v, var, tr in zip(inst.vectors, inst.variables, traces):
        weight = fraction_variance(var) * tr
        for idx in range(inst.h.m):
            mix[idx] = mix[idx] + weight * v[idx]
    return tuple(mix)


def fraction_integer_data(inst) -> tuple:
    """(L, centered, variances) of KlsInstance.integer_data from
    fraction_mean and fraction_variance over Fractions: L0 is the lcm of the
    centered values' denominators, and L = L0 times the lcm of the
    denominators of every L0^2 tau_i^2."""
    centered = [{s: s - fraction_mean(var) for s in var.support} for var in inst.variables]
    base = math.lcm(*(c.denominator for cent in centered for c in cent.values()))
    scale = base * math.lcm(*((base * base * fraction_variance(var)).denominator
                              for var in inst.variables))
    return (scale,
            tuple({s: _as_int(scale * c) for s, c in cent.items()} for cent in centered),
            tuple(_as_int(scale * scale * fraction_variance(var)) for var in inst.variables))


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1, x
    return x.numerator
