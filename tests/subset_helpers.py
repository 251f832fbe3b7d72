"""The subset operator form's Fraction route, the reference for the int
routes of hyperdisc.hyperbolic.derivative_restriction and
hyperdisc.mixedchar.ag_operator_form: one restriction along e per subset,
inclusion-exclusion over UniPolys; and the subset family's inner nodes,
which the search reads only through its oracle."""

import itertools
from fractions import Fraction

from hyperdisc.mixedchar import _leaf_sum
from hyperdisc.unipoly import UniPoly
from srdist_helpers import pairs
from unipoly_helpers import ZERO, poly_add, poly_mul, scale


def fraction_derivative_restriction(h, vectors, indices, cache: dict) -> UniPoly:
    """(prod_{i in S} D_{v_i}) h(x e): the restrictions x -> h(x e + w_U),
    each taken once into cache by h.restrict_line, added with signs
    (-1)^(|S|-|U|).  Exact vectors give Fractions."""
    s = tuple(sorted(indices))

    def restriction_for(combo: tuple) -> UniPoly:
        if combo not in cache:
            base = [0] * h.m
            for i in combo:
                for idx in range(h.m):
                    base[idx] = base[idx] + vectors[i][idx]
            cache[combo] = h.restrict_line(tuple(base), h.e)
        return cache[combo]

    total = ZERO
    for r in range(len(s) + 1):
        for combo in itertools.combinations(s, r):
            rest = restriction_for(combo)
            total = poly_add(total, rest if (len(s) - r) % 2 == 0 else scale(rest, -1))
    return total


def fraction_operator_form(inst) -> UniPoly:
    """sum_S (-1)^|S| A_S(x) g^(S)(x 1) over the subsets S of support sets,
    g^(S) = (sum_{T >= S} mu(T)) x^(d_mu - |S|), one UniPoly product and
    sum per subset."""
    weights: dict = {}
    for elems, prob in pairs(inst.mu):
        items = sorted(elems)
        for r in range(len(items) + 1):
            for subset in itertools.combinations(items, r):
                weights[subset] = weights.get(subset, 0) + prob
    cache: dict = {}
    acc = ZERO
    for subset in sorted(weights, key=lambda s: (len(s), s)):
        g_s = UniPoly.from_coeffs([0] * (inst.mu.d_mu - len(subset)) + [weights[subset]])
        term = poly_mul(fraction_derivative_restriction(inst.h, inst.vectors, subset, cache), g_s)
        acc = poly_add(acc, term if len(subset) % 2 == 0 else scale(term, -1))
    return acc


def subset_sum(inst, elements) -> tuple:
    """sum_{i in S} v_i one coordinate at a time from Fraction(0): the
    per-set reference for the leaf table's and leaf_norm's set sums."""
    w = [Fraction(0)] * inst.h.m
    for i in elements:
        for idx in range(inst.h.m):
            w[idx] = w[idx] + inst.vectors[i][idx]
    return tuple(w)


def as_rationals(vectors) -> list:
    """The vectors with every float taken as the rational it is."""
    return [tuple(map(Fraction, v)) for v in vectors]


def ag_prefix_node(inst, partial) -> UniPoly:
    """The node of a 0/1 membership prefix: the leaf-table rows of the
    support sets that agree with it on every prefix column, added in support
    order from 0 (_leaf_sum).  The empty prefix gives ag_node_poly's root."""
    bits = [bool(b) for b in partial]
    hits = [r for r, row in enumerate(inst.mu.members.tolist()) if row[:len(bits)] == bits]
    return UniPoly.from_coeffs(_leaf_sum(inst.leaf_table[hits], partial).tolist())
