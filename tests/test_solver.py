"""Newton identities, root estimation, coefficient oracles, blocked search."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperdisc.errors import OddK, TooLarge, ValueNotInSupport
from hyperdisc.graphs import complete_graph
from hyperdisc.hyperbolic import determinant
from hyperdisc.instances import gen_kls_det, gen_kls_lorentz, random_connected_graph
from hyperdisc.mixedchar import AgFamily, KlsFamily, KlsInstance, RandomVar, SrInstance, scaled_monic
from hyperdisc.solver import (
    SolverConfig,
    brute_force,
    kadison_singer_search,
    max_root_estimate,
    maxcoeff_enum,
    power_sum,
    random_baseline,
)
from hyperdisc.unipoly import UniPoly
from srdist_helpers import from_support, pairs
from subset_helpers import subset_sum
from unipoly_helpers import from_roots, monic_top_coeffs

D1 = determinant(1)
RADEMACHER = RandomVar.rademacher()


def _scalar_instance(n):
    return KlsInstance.build(D1, [(Fraction(1),)] * n, [RADEMACHER] * n)


# The tests below check power_sum's conversion, from the elementary
# symmetric functions (the monic coefficients, up to sign) to power sums.

def test_elem_to_power_cubes():
    assert power_sum(3, (-6, 11, -6)) == 36  # (x-1)(x-2)(x-3): 1^3 + 2^3 + 3^3


def test_elem_to_power_symmetric():
    assert power_sum(2, (0, -5)) == 10  # roots {1,-1,2,-2}


def test_elem_to_power_first():
    assert power_sum(1, (-3,)) == 3  # x - 3


def test_elem_to_power_matches_direct_sums():
    rng = random.Random(79)
    for _ in range(20):
        roots = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        poly = from_roots(roots)
        k = rng.randint(1, len(roots))
        assert power_sum(k, monic_top_coeffs(poly, k)) == sum(r ** k for r in roots)


def test_power_sum_keeps_the_bits_of_the_signed_recurrence():
    # Newton's recurrence on e_j = (-1)^j c_j, with its alternating signs,
    # negates every term of the one on the c_j exactly, so the floats agree.
    rng = random.Random(83)
    for _ in range(500):
        k = rng.randint(1, 10)
        coeffs = [rng.uniform(-9, 9) for _ in range(k)]
        elems = [(-1) ** j * c for j, c in enumerate(coeffs, start=1)]
        p = [0.0] * (k + 1)
        for j in range(1, k + 1):
            acc, sign = 0.0, 1
            for i in range(1, j):
                acc = acc + sign * elems[i - 1] * p[j - i]
                sign = -sign
            p[j] = acc + sign * j * elems[j - 1]
        assert power_sum(k, coeffs) == p[k]


def test_max_root_estimate_biquadratic():
    est = max_root_estimate(4, 2, (0, -5, 0, 4))
    assert est == pytest.approx(math.sqrt(10), abs=1e-12)
    assert 2 <= est <= 4 ** 0.5 * 2


def test_max_root_estimate_equal_roots():
    c = 3
    n = 5
    poly = from_roots([c] * n)
    est = max_root_estimate(n, 2, monic_top_coeffs(poly, 2))
    assert est == pytest.approx(c * math.sqrt(n))


def test_max_root_estimate_shifted_quadratic():
    est = max_root_estimate(2, 2, (-3, 2))
    assert est == pytest.approx(math.sqrt(5))


def test_max_root_estimate_rejects_odd_k():
    with pytest.raises(OddK):
        max_root_estimate(4, 3, (0, -5, 0))


def test_max_root_estimate_bracket_invariant():
    rng = random.Random(83)
    for _ in range(60):
        half = rng.randint(1, 6)
        upper = sorted((rng.uniform(0.1, 4) for _ in range(half)), reverse=True)
        roots = upper + [-r for r in upper]
        deg = len(roots)
        poly = from_roots(roots)
        lam1 = max(roots)
        for k in range(2, deg + 1, 2):
            est = max_root_estimate(deg, k, monic_top_coeffs(poly, k))
            assert lam1 - 1e-7 <= est <= deg ** (1 / k) * lam1 + 1e-7


def test_max_root_estimate_float_equals_fraction_route():
    # Small dyadic coefficients keep every step of the float recurrence
    # exact, so the float lane must reproduce the Fraction route bit for bit.
    rng = random.Random(89)
    for _ in range(200):
        k = rng.choice((2, 4, 6))
        deg = k + rng.randint(0, 3)
        exact = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
                      for _ in range(k))
        floats = tuple(float(c) for c in exact)
        assert max_root_estimate(deg, k, floats) == max_root_estimate(deg, k, exact)


def _monic(scaled):
    """The monic coefficients c_j = C_j / q^j of an oracle answer (C, q)."""
    coeffs, scale = scaled
    return tuple(Fraction(c) / Fraction(scale) ** j for j, c in enumerate(coeffs, start=1))


def test_integer_top_coeffs_equal_the_monic_coefficients():
    rng = random.Random(97)
    for _ in range(300):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 7)))
        poly = UniPoly.from_coeffs(coeffs)
        k = rng.randint(1, deg + 2)
        ints, scale = scaled_monic([poly.coeffs[deg - j] if deg - j >= 0 else 0
                                    for j in range(k + 1)])
        assert all(type(c) is int for c in ints) and type(scale) is int
        monic = monic_top_coeffs(poly, k)
        assert _monic((ints, scale)) == monic
        if k % 2 == 0 and k <= deg:
            assert max_root_estimate(deg, k, ints, scale) == max_root_estimate(deg, k, monic)


def test_scaled_monic_reads_ints_over_their_scale_and_floats_as_they_are():
    # 2 x^2 + (3 / 7) x + 5 / 7^2: c_1 = 3 / 14 and c_2 = 5 / 98.
    ints, scale = scaled_monic([2, 3, 5], 7)
    assert (ints, scale) == ((3, 10), 14) and _monic((ints, scale)) == (Fraction(3, 14), Fraction(5, 98))
    assert scaled_monic([2.0, 3.0, 5.0]) == ((1.5, 2.5), 1)


def test_maxcoeff_enum_toy():
    fam = KlsFamily(_scalar_instance(1))
    coeffs, scale = maxcoeff_enum(fam, 2, ())
    assert all(type(c) is int for c in coeffs) and type(scale) is int and scale > 0
    assert _monic((coeffs, scale)) == (Fraction(0), Fraction(-1))


def test_maxcoeff_enum_leaf():
    fam = KlsFamily(_scalar_instance(1))
    assert _monic(maxcoeff_enum(fam, 2, (Fraction(1),))) == (Fraction(0), Fraction(-1))


def test_search_single_variable():
    fam = KlsFamily(_scalar_instance(1))
    result = kadison_singer_search(fam, SolverConfig(delta=0.5))
    assert result.assignment in ((Fraction(1),), (Fraction(-1),))
    assert result.certified == pytest.approx(1.0)
    assert result.certified <= (1 + 0.5) * fam.root_max_root() + 1e-9


def test_search_matches_brute_on_toys():
    inst = _scalar_instance(4)
    fam = KlsFamily(inst)
    result = kadison_singer_search(fam, SolverConfig(delta=0.5))
    _, best = brute_force(inst, "kls")
    assert result.certified >= best - 1e-12
    assert result.certified <= (1 + 0.5) * fam.root_max_root() + 1e-9


def test_search_det_instance():
    inst = gen_kls_det(4, 2, seed=11, variables="rademacher")
    fam = KlsFamily(inst)
    result = kadison_singer_search(fam, SolverConfig(delta=0.5))
    assert result.certified <= (1 + 0.5) * fam.root_max_root() + 1e-9
    assert result.certified <= 4 * (1 + 0.5) * inst.sigma + 1e-9
    assert result.oracle_calls > 0


def test_search_raises_the_oracle_error_itself(monkeypatch):
    # No wrapper turns an oracle's error into OracleFailure: the search
    # raises the family's own exception.
    fam = KlsFamily(gen_kls_det(4, 2, seed=11, variables="rademacher"))

    def refuse(prefix, k):
        raise ValueNotInSupport(f"value {prefix[-1]!r} not in support")

    monkeypatch.setattr(fam, "scaled_top_coeffs", refuse)
    with pytest.raises(ValueNotInSupport):
        kadison_singer_search(fam, SolverConfig(delta=0.5))


def test_search_point_mass_subset_family():
    mu = from_support(2, [((0,), Fraction(1))])
    inst = SrInstance.build(D1, mu, [(Fraction(1),), (Fraction(0),)])
    result = kadison_singer_search(AgFamily(inst), SolverConfig(delta=0.25))
    assert result.assignment == (1, 0)


def test_search_spanning_tree_family():
    inst = SrInstance.from_graph(complete_graph(3))
    fam = AgFamily(inst)
    result = kadison_singer_search(fam, SolverConfig(delta=0.5))
    _, best = brute_force(inst, "ag")
    assert result.certified >= best - 1e-9
    assert result.certified <= (1 + 0.5) * fam.root_max_root() + 1e-9


def test_brute_force_cancellation():
    inst = _scalar_instance(2)
    assignment, value = brute_force(inst, "kls")
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sorted(assignment) == [Fraction(-1), Fraction(1)]


def test_brute_force_spanning_trees():
    inst = SrInstance.from_graph(complete_graph(3))
    assignment, value = brute_force(inst, "ag")
    assert sum(assignment) == 2  # a spanning tree of K3 has two edges
    norms = []
    for elems, _ in pairs(inst.mu):
        w = subset_sum(inst, elems)
        from hyperdisc.hyperbolic import spectrum
        norms.append(spectrum(inst.h, w).norm)
    assert value == pytest.approx(min(norms))


def test_brute_force_guardrail():
    inst = _scalar_instance(17)
    with pytest.raises(TooLarge):
        brute_force(inst, "kls")


def test_random_baseline_deterministic():
    inst = _scalar_instance(2)
    a = random_baseline(inst, trials=200, seed=3)
    b = random_baseline(inst, trials=200, seed=3)
    assert a == b
    assert a.minimum == pytest.approx(0.0, abs=1e-12)
    assert a.maximum == pytest.approx(2.0)


def _random_baseline_reference(inst, trials, seed):
    """(min, median, max) of the baseline norms, with one np.searchsorted and
    one float conversion per draw."""
    vecs = np.array([[float(c) for c in v] for v in inst.vectors])
    rows = np.zeros((trials, inst.n))
    if isinstance(inst, KlsInstance):
        means = [float(var.mean) for var in inst.variables]
        cum = [np.cumsum([float(p) for p in var.probs]) for var in inst.variables]
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            for i, var in enumerate(inst.variables):
                j = min(int(np.searchsorted(cum[i], rng.random())), len(var.support) - 1)
                rows[t, i] = float(var.support[j]) - means[i]
    else:
        support = pairs(inst.mu)
        probs = np.cumsum([float(p) for _, p in support])
        for t in range(trials):
            rng = random.Random(f"baseline:{seed}:{t}")
            j = min(int(np.searchsorted(probs, rng.random())), len(support) - 1)
            for e in support[j][0]:
                rows[t, e] = 1.0
    arr = np.sort(inst.h.norms(rows @ vecs))
    return float(arr[0]), float(np.quantile(arr, 0.5)), float(arr[-1])


def test_random_baseline_equals_the_per_draw_reference():
    instances = [gen(4, size, seed, kind) for gen, size in ((gen_kls_det, 3), (gen_kls_lorentz, 4))
                 for kind in ("rademacher", "biased", "threepoint", "mixed") for seed in (0, 1)]
    instances += [SrInstance.from_graph(g) for g in (complete_graph(4),
                                                     random_connected_graph(6, 8, 1))]
    for inst in instances:
        for seed in (0, 5):
            got = random_baseline(inst, 40, seed)
            want = _random_baseline_reference(inst, 40, seed)
            assert [x.hex() for x in (got.minimum, got.median, got.maximum)] == \
                [x.hex() for x in want]


def test_random_baseline_constant_variables():
    inst = KlsInstance.build(
        D1, [(Fraction(1),)], [RandomVar((Fraction(2),), (Fraction(1),))])
    summary = random_baseline(inst, trials=50, seed=1)
    assert summary.minimum == summary.maximum == pytest.approx(0.0)


def test_search_respects_sigma_bound_on_lorentz():
    inst = gen_kls_lorentz(4, 4, seed=21, variables="rademacher")
    result = kadison_singer_search(KlsFamily(inst), SolverConfig(delta=1.0))
    assert result.certified <= 4 * (1 + 1.0) * inst.sigma + 1e-9


def test_desk_scale_four_deviation_bound():
    # The discrepancy theorem at desk scale: brute force stays under 4 sigma.
    for seed in range(6):
        inst = gen_kls_det(4, 2, seed=seed)
        _, best = brute_force(inst, "kls")
        assert best <= 4 * inst.sigma + 1e-9


def test_desk_scale_subset_bound():
    # Subset theorem at desk scale on a few small graphs.
    for seed in range(3):
        graph = random_connected_graph(4, 5, seed)
        inst = SrInstance.from_graph(graph)
        _, best = brute_force(inst, "ag")
        eps = inst.eps1 + inst.eps2
        assert best <= 4 * eps + 2 * eps * eps + 1e-9


def test_resolve_clamps_the_default_k_before_ceil():
    # Clamping 2 M ln(degree) / delta to the degree before ceil leaves k as
    # it was for every delta whose quotient is finite; a delta whose quotient
    # overflows to inf gets the k of a tiny delta whose quotient does not.
    for degree in range(10):
        for delta in (1e-300, 1e-3, 0.1, 0.5, 1.0, 7.0, 1e3):
            m_block, k = SolverConfig(delta=delta).resolve(16, degree)
            raw = math.ceil(2 * m_block * math.log(max(degree, 2)) / delta)
            raw += raw % 2
            assert k == (1 if degree < 2 else max(2, min(raw, degree - degree % 2)))
        for tiny in (1e-310, 5e-324):
            assert (SolverConfig(delta=tiny).resolve(16, degree)
                    == SolverConfig(delta=1e-300).resolve(16, degree))
