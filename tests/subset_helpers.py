"""The subset operator form's Fraction route, the reference for the int
routes of hyperdisc.hyperbolic.derivative_restriction and
hyperdisc.mixedchar.ag_operator_form: one restriction along e per subset,
inclusion-exclusion over UniPolys."""

import itertools
from fractions import Fraction

from hyperdisc.unipoly import UniPoly


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

    total = UniPoly.zero()
    for r in range(len(s) + 1):
        for combo in itertools.combinations(s, r):
            rest = restriction_for(combo)
            total = total + (rest if (len(s) - r) % 2 == 0 else -rest)
    return total


def fraction_operator_form(inst) -> UniPoly:
    """sum_S (-1)^|S| A_S(x) g^(S)(x 1) over the subsets S of support sets,
    g^(S) = (sum_{T >= S} mu(T)) x^(d_mu - |S|), one UniPoly product and
    sum per subset."""
    weights: dict = {}
    for elems, prob in inst.mu.support:
        items = sorted(elems)
        for r in range(len(items) + 1):
            for subset in itertools.combinations(items, r):
                weights[subset] = weights.get(subset, 0) + prob
    cache: dict = {}
    acc = UniPoly.zero()
    for subset in sorted(weights, key=lambda s: (len(s), s)):
        g_s = UniPoly.from_coeffs([0] * (inst.mu.d_mu - len(subset)) + [weights[subset]])
        term = fraction_derivative_restriction(inst.h, inst.vectors, subset, cache) * g_s
        acc = acc + (term if len(subset) % 2 == 0 else -term)
    return acc


def as_rationals(vectors) -> list:
    """The vectors with every float taken as the rational it is."""
    return [tuple(map(Fraction, v)) for v in vectors]
