"""Node polynomials, operator-form collapses, interlacing, descent."""

import contextlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.errors import (
    EmptyBranch,
    HyperdiscError,
    InvalidParams,
    RankTooHigh,
    ValueNotInSupport,
)
from hyperdisc.barrier import verify_bound_chain
from hyperdisc.graphs import complete_graph, diamond_graph, named_graph
from hyperdisc import mixedchar
from hyperdisc.hyperbolic import (
    ElemSymInstance,
    HyperbolicInstance,
    RealStableInstance,
    determinant,
    lorentz,
    mixed_derivative_table,
    spectrum,
)
from hyperdisc._exact import det_exact, principal_minors
from hyperdisc.instances import gen_kls_det, gen_kls_lorentz, random_connected_graph
from hyperdisc.mixedchar import (
    AgFamily,
    KlsFamily,
    KlsInstance,
    KlsTable,
    RandomVar,
    SrInstance,
    ag_node_poly,
    ag_operator_form,
    ag_substitution_identity,
    kls_fold,
    kls_leaf_poly,
    kls_node_poly,
    kls_node_sums,
    kls_operator_form,
    scaled_monic,
)
from hyperdisc.realstable import MultiPoly
from hyperdisc.serialize import dumps, instance_from_json, instance_to_json
from hyperdisc.solver import SolverConfig, kadison_singer_search, max_root_estimate
from hyperdisc.srdist import SRDistribution
from hyperdisc.unipoly import UniPoly, is_real_rooted, max_real_root
from hyperbolic_helpers import cone_membership, rank1_product_derivative
from kls_helpers import (fraction_centered_sum, fraction_integer_data, fraction_leaf_poly,
                         fraction_mean, fraction_node_poly, fraction_variance, kls_prefix_node,
                         mix_reference, trace_reference)
from multipoly_helpers import linear_restriction_multipoly
from srdist_helpers import from_support, pairs
from stability_oracle import stability_test
from subset_helpers import ag_prefix_node, fraction_operator_form, subset_sum
from unipoly_helpers import (ZERO, from_roots, has_common_interlacing, monic_top_coeffs, poly_add,
                             scale)

D1 = determinant(1)
RADEMACHER = RandomVar.rademacher()
VARIABLE_KINDS = ("rademacher", "biased", "threepoint", "mixed")


def _scalar_instance(n: int, value=Fraction(1)) -> KlsInstance:
    return KlsInstance.build(D1, [(value,)] * n, [RADEMACHER] * n)


def _det_instance(rng: random.Random, mprime: int, n: int, kinds=("rademacher",)):
    h = determinant(mprime)
    vectors = []
    for _ in range(n):
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(mprime))
        if all(c == 0 for c in u):
            u = (Fraction(1),) + (Fraction(0),) * (mprime - 1)
        vectors.append(h.vec_outer(u))
    variables = []
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "rademacher":
            variables.append(RADEMACHER)
        elif kind == "biased":
            p = Fraction(rng.randint(1, 7), 8)
            variables.append(RandomVar((Fraction(1), Fraction(-1)), (p, 1 - p)))
        else:  # three-point
            a, b, c = Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)
            variables.append(RandomVar((Fraction(-1), Fraction(0), Fraction(2)), (a, b, c)))
    return KlsInstance.build(h, vectors, variables)


_PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (1, 0, 1), (0, 1, 1), (20, 21, 29)]


def _lorentz_instance(rng: random.Random, m: int, n: int) -> KlsInstance:
    h = lorentz(m)
    vectors = []
    for _ in range(n):
        a, b, c = _PYTHAGOREAN[rng.randrange(len(_PYTHAGOREAN))]
        vec = [Fraction(0)] * m
        spots = rng.sample(range(m - 1), 2)
        vec[spots[0]] = Fraction(a)
        vec[spots[1]] = Fraction(b)
        vec[m - 1] = Fraction(c)
        scale = Fraction(1, rng.randint(1, 3))
        vectors.append(tuple(scale * x for x in vec))
    return KlsInstance.build(h, vectors, [RADEMACHER] * n)


def test_kls_node_poly_toy_root():
    inst = _scalar_instance(1)
    assert kls_node_poly(inst).coeffs == (Fraction(-1), Fraction(0), Fraction(1))


def test_kls_node_poly_toy_leaf():
    inst = _scalar_instance(1)
    leaf = kls_prefix_node(inst, (Fraction(1),))
    assert leaf.coeffs == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def test_a_value_outside_its_support_gets_one_message():
    # A leaf's centered sum and the oracle's fold name the variable's support.
    inst = _scalar_instance(2)
    table = inst.coefficient_table
    bad = (Fraction(1), Fraction(3))
    messages = []
    for route in (lambda: inst.centered_ints(bad), lambda: kls_fold(table, table.rows, 0, bad)):
        with pytest.raises(ValueNotInSupport) as exc:
            route()
        messages.append(str(exc.value))
    want = "value Fraction(3, 1) not in support (Fraction(1, 1), Fraction(-1, 1))"
    assert messages == [want, want]


def test_kls_operator_form_toy():
    inst = _scalar_instance(1)
    assert kls_operator_form(inst).coeffs == (Fraction(-1), Fraction(0), Fraction(1))


def test_kls_operator_form_zero_variance():
    inst = KlsInstance.build(
        D1, [(Fraction(1),)],
        [RandomVar((Fraction(5),), (Fraction(1),))])
    assert kls_operator_form(inst).coeffs == (Fraction(0), Fraction(0), Fraction(1))


def test_kls_operator_form_two_variables():
    inst = _scalar_instance(2)
    assert kls_operator_form(inst).coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert kls_node_poly(inst).coeffs == (Fraction(-2), Fraction(0), Fraction(1))


def test_kls_operator_identity_random_instances():
    rng = random.Random(41)
    for trial in range(8):
        if trial % 2 == 0:
            inst = _det_instance(rng, rng.randint(1, 3), rng.randint(1, 4),
                                 kinds=("rademacher", "biased", "three"))
        else:
            inst = _lorentz_instance(rng, rng.randint(3, 5), rng.randint(1, 4))
        assert kls_node_poly(inst).coeffs == kls_operator_form(inst).coeffs


def test_ag_node_poly_toy():
    mu = from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    inst = SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])
    assert ag_node_poly(inst).coeffs == (Fraction(-1, 2), Fraction(1))
    assert ag_prefix_node(inst, (1,)).coeffs == (Fraction(-1, 4), Fraction(1, 2))


def test_ag_node_poly_empty_branch():
    mu = from_support(2, [((0,), Fraction(1))])
    inst = SrInstance.build(D1, mu, [(Fraction(1),), (Fraction(0),)])
    with pytest.raises(EmptyBranch):
        ag_prefix_node(inst, (0,))


def test_ag_operator_form_toy():
    mu = from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    inst = SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])
    assert ag_operator_form(inst).coeffs == (Fraction(-1, 2), Fraction(0), Fraction(1))


def test_ag_operator_form_point_mass_on_empty():
    mu = from_support(1, [((), Fraction(1))])
    inst = SrInstance.build(D1, mu, [(Fraction(1),)])
    assert ag_operator_form(inst).coeffs == (Fraction(0), Fraction(1))  # h(xe) = x


@pytest.mark.parametrize("graph", ["k3", "diamond", "c4", "c5", "k4", "k5"])
def test_operator_form_equals_the_fraction_route(graph):
    inst = SrInstance.from_graph(named_graph(graph), exact=True)
    got = ag_operator_form(inst)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.coeffs == fraction_operator_form(inst).coeffs


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_operator_form_equals_the_fraction_route_on_generated_graphs(data):
    # Trees (one spanning tree: a point mass), sparse to dense graphs, and
    # the point mass on one of a graph's spanning trees.
    v = data.draw(st.integers(3, 5))
    e = data.draw(st.integers(v - 1, v * (v - 1) // 2))
    inst = SrInstance.from_graph(random_connected_graph(v, e, data.draw(st.integers(0, 99))),
                                 exact=True)
    tree = data.draw(st.sampled_from([elems for elems, _ in pairs(inst.mu)]))
    point = SrInstance.build(inst.h, from_support(inst.n, [(tree, Fraction(1))]),
                             inst.vectors)
    for case in (inst, point):
        got = ag_operator_form(case)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.coeffs == fraction_operator_form(case).coeffs, (v, e)


def test_ag_substitution_identity_toy():
    mu = from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    inst = SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])
    lhs, rhs = ag_substitution_identity(inst)
    assert lhs.coeffs == rhs.coeffs == (Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(1))


def test_ag_substitution_identity_spanning_trees():
    for graph in (complete_graph(3), diamond_graph()):
        inst = SrInstance.from_graph(graph, exact=True)
        lhs, rhs = ag_substitution_identity(inst)
        assert lhs.coeffs == rhs.coeffs


def test_linear_restriction_is_real_stable():
    rng = random.Random(47)
    h = determinant(2)
    vectors = [h.vec_outer((Fraction(1), Fraction(0))),
               h.vec_outer((Fraction(1), Fraction(1)))]
    p = linear_restriction_multipoly(h, vectors)
    assert stability_test(p, trials=150, seed=3).passed
    del rng


def test_common_interlacing_pass():
    f1 = from_roots([1, 3])
    f2 = from_roots([2, 4])
    assert has_common_interlacing([f1, f2])


def test_common_interlacing_identical():
    f = from_roots([1, 2])
    assert has_common_interlacing([f, f])


def test_common_interlacing_refuted():
    f1 = UniPoly.from_coeffs([Fraction(1), Fraction(0), Fraction(1)])  # x^2 + 1
    f2 = from_roots([0, 5])
    assert not has_common_interlacing([f1, f2])


def test_common_interlacing_float_lane():
    # Binary64 coefficients are rationals too, so the check stays exact.
    f1 = from_roots([1.0, 3.0])
    f2 = from_roots([2.0, 4.0])
    assert has_common_interlacing([f1, f2])
    bad = UniPoly.from_coeffs([1.0, 0.0, 1.0])
    assert not has_common_interlacing([bad, f2])


@pytest.mark.parametrize("p_roots, q_roots, want", [
    ([1, 2], [3, 4], False),
    ([0, 1 + Fraction(1, 10**6)], [1, 2], True),   # a gap of 1e-6 the right way round
    ([0, 1], [1 + Fraction(1, 10**6), 2], False),  # and the wrong way round
    ([1, 1, 3], [1, 2, 3], True),                  # a double root shared
    ([1, 1, 1], [0, 2, 2], False),                 # counts 3 and 2, then 0 and 2
    ([2, 2], [2, 2], True),
    ([0, 3], [1, 2], True),                        # nested: the interlacer's root in [1, 2]
])
def test_common_interlacing_decides_hand_cases(p_roots, q_roots, want):
    assert has_common_interlacing([from_roots(p_roots), from_roots(q_roots)]) is want
    assert has_common_interlacing([from_roots(q_roots), from_roots(p_roots)]) is want


def test_children_sum_to_parent():
    rng = random.Random(53)
    inst = _det_instance(rng, 2, 3)
    parent = kls_prefix_node(inst, (Fraction(1),))
    kids = [kls_prefix_node(inst, (Fraction(1), s)) for s in (Fraction(1), Fraction(-1))]
    total = poly_add(*kids)
    assert total.coeffs == parent.coeffs


def _descend(fam):
    """Walks from the root to a leaf, each time into the child with the
    smallest largest root, and checks that this root never exceeds the
    parent's: the interlacing-family existence argument.  Returns the leaf's
    assignment and largest root."""
    node_poly = kls_prefix_node if isinstance(fam, KlsFamily) else ag_prefix_node
    prefix = ()
    top = fam.root_max_root()
    for values in fam.branch_sets:
        child_top, value = min((max_real_root(node_poly(fam.inst, prefix + (v,))), v)
                               for v in values if fam.feasible(prefix + (v,)))
        assert child_top <= top + 1e-8 * max(1.0, abs(top))
        prefix, top = prefix + (value,), child_top
    return prefix, top


def test_descend_family_symmetric_toy():
    inst = _scalar_instance(1)
    assignment, top = _descend(KlsFamily(inst))
    assert assignment in ((Fraction(1),), (Fraction(-1),))
    assert top == pytest.approx(1.0)


def test_descend_family_cancelling_pair():
    inst = _scalar_instance(2)
    assignment, top = _descend(KlsFamily(inst))
    # Root polynomial x^2 - 2 has top root sqrt(2); the cancelling leaf wins.
    vals = sorted(assignment)
    assert vals == [Fraction(-1), Fraction(1)]
    assert top == pytest.approx(0.0, abs=1e-9)


def test_descend_family_point_mass():
    mu = from_support(2, [((0,), Fraction(1))])
    inst = SrInstance.build(D1, mu, [(Fraction(1),), (Fraction(0),)])
    assignment, _ = _descend(AgFamily(inst))
    assert assignment == (1, 0)


def test_descend_family_soundness_random():
    rng = random.Random(59)
    for _ in range(4):
        inst = _det_instance(rng, 2, rng.randint(2, 4))
        root_top = max_real_root(kls_node_poly(inst))
        _, top = _descend(KlsFamily(inst))
        assert top <= root_top + 1e-8 * max(1.0, abs(root_top))


def test_real_rootedness_at_every_node():
    rng = random.Random(61)
    inst = _det_instance(rng, 2, 3)
    prefixes = [()]
    for var in inst.variables:
        prefixes = [p + (s,) for p in prefixes for s in var.support] + prefixes
    for prefix in prefixes:
        assert is_real_rooted(kls_prefix_node(inst, prefix))


def test_interlacing_at_internal_nodes():
    rng = random.Random(67)
    inst = _det_instance(rng, 2, 3)
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == inst.n:
            continue
        kids = [kls_prefix_node(inst, prefix + (s,))
                for s in inst.variables[len(prefix)].support]
        assert has_common_interlacing(kids)
        stack.extend(prefix + (s,) for s in inst.variables[len(prefix)].support)


def _kls_children(inst):
    """The children of every internal node of a signed family."""
    for ell in range(inst.n):
        for prefix in itertools.product(*[var.support for var in inst.variables[:ell]]):
            yield prefix, [kls_prefix_node(inst, prefix + (s,))
                           for s in inst.variables[ell].support]


def _ag_children(inst):
    """The non-empty children of every internal node of a subset family."""
    family = AgFamily(inst)
    for ell in range(inst.n):
        for prefix in itertools.product((0, 1), repeat=ell):
            kids = [ag_prefix_node(inst, prefix + (bit,))
                    for bit in (0, 1) if family.feasible(prefix + (bit,))]
            if kids:
                yield prefix, kids


@pytest.mark.parametrize("kind", VARIABLE_KINDS)
@pytest.mark.parametrize("h", ["det", "lorentz"])
def test_signed_children_interlace_at_every_internal_node(h, kind):
    n = 3 if kind == "threepoint" else 4
    inst = gen_kls_det(n, 2, 0, kind) if h == "det" else gen_kls_lorentz(n, 3, 0, kind)
    for prefix, kids in _kls_children(inst):
        assert has_common_interlacing(kids), prefix


@pytest.mark.parametrize("name", ["k3", "k4", "c4", "c5", "diamond"])
def test_exact_subset_children_interlace_at_every_internal_node(name):
    inst = SrInstance.from_graph(named_graph(name), exact=True)
    for prefix, kids in _ag_children(inst):
        assert has_common_interlacing(kids), prefix


# The internal nodes of the float subset families whose children the exact
# check does not certify, each named by its prefix as a bit string.  The
# exact families above certify every node, so these are arithmetic faults
# of the float lane: ROADMAP item 1's targets.
FLOAT_SUBSET_UNCERTIFIED = {
    "k3": set(),
    "k4": {"11", "111", "0101", "1110", "01010", "11100"},
    "c4": {"", "1", "10", "11", "101", "111"},
    "c5": {"", "0", "1", "01", "10", "11", "011", "101", "110", "111",
           "0111", "1011", "1101", "1110", "1111"},
    "diamond": set(),
    "k5": {"111", "1111", "11110", "100011", "111100", "0001001", "1000111", "1111000",
           "00010010", "00100101", "01001001", "10001110", "11110000", "000100101",
           "001001010", "010010011", "100011100", "111100000"},
}


@pytest.mark.parametrize("name", sorted(FLOAT_SUBSET_UNCERTIFIED))
def test_float_subset_children_interlace_except_at_the_pinned_nodes(name):
    inst = SrInstance.from_graph(named_graph(name))
    failed = {"".join(map(str, prefix)) for prefix, kids in _ag_children(inst)
              if not has_common_interlacing(kids)}
    assert failed == FLOAT_SUBSET_UNCERTIFIED[name]


def test_family_adapters():
    inst = _scalar_instance(2)
    fam = KlsFamily(inst)
    assert fam.degree == 2
    assert fam.root_max_root() == pytest.approx(2 ** 0.5)
    assert fam.leaf_norm((Fraction(1), Fraction(-1))) == pytest.approx(0.0, abs=1e-12)

    mu = from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    sr = SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])
    afam = AgFamily(sr)
    assert afam.feasible((1,)) and afam.feasible((0,))
    assert not afam.feasible((1, 1))
    assert afam.leaf_norm((1, 0)) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Node polynomials from the mixed-derivative table against the Fraction sum
# over every completion (kls_helpers.fraction_node_poly).
# ---------------------------------------------------------------------------

def _generated_instances():
    for kind in VARIABLE_KINDS:
        n = 3 if kind == "threepoint" else 4  # 3^n leaves under the root
        yield gen_kls_det(n, 3, 10, kind)
        for seed in (0, 1):
            yield gen_kls_det(n, 2, seed, kind)
            yield gen_kls_lorentz(n, 4, seed, kind)


def _every_prefix(inst):
    for ell in range(inst.n + 1):
        yield from itertools.product(*[var.support for var in inst.variables[:ell]])


def test_table_node_poly_equals_enumeration_at_every_prefix():
    checked = 0
    for inst in _generated_instances():
        for prefix in _every_prefix(inst):
            assert (kls_prefix_node(inst, prefix).coeffs
                    == fraction_node_poly(inst, prefix).coeffs), prefix
            checked += 1
    assert checked > 700


def test_table_entries_are_mixed_derivatives():
    for inst in (gen_kls_det(5, 3, 2, "mixed"), gen_kls_lorentz(5, 4, 2, "mixed")):
        table, scale = mixed_derivative_table(inst.h, inst.vectors)
        assert len(table) == sum(math.comb(inst.n, r) for r in range(inst.h.d + 1))
        for mask, b_t in table.items():
            subset = [i for i in range(inst.n) if mask >> i & 1]
            assert type(b_t) is int
            assert (Fraction(b_t, scale)
                    == rank1_product_derivative(inst.h, subset, inst.vectors, inst.h.e))


def test_table_root_equals_operator_form():
    for inst in _generated_instances():
        assert kls_node_poly(inst).coeffs == kls_operator_form(inst).coeffs


def test_table_rejects_rank_two_vector():
    h = determinant(2)
    vectors = [h.vec_outer((Fraction(1), Fraction(1))), h.e]  # the identity has rank 2
    with pytest.raises(RankTooHigh):
        mixed_derivative_table(h, vectors)
    inst = KlsInstance.build(h, vectors, [RADEMACHER] * 2)
    # The family has no enumerating fallback: its nodes need the table.
    with pytest.raises(RankTooHigh):
        KlsFamily(inst).root_max_root()
    with pytest.raises(RankTooHigh):
        KlsFamily(inst).scaled_top_coeffs((), 2)


# ---------------------------------------------------------------------------
# The table KlsTable.build gives (Gram minors for det with matching
# generators, mixed_derivative_table for every other h) against the
# inclusion-exclusion of mixed_derivative_table over the integer vectors.
# ---------------------------------------------------------------------------

def _assert_table_is_the_reference(inst):
    table = KlsTable.build(inst)
    reference, outer = mixed_derivative_table(inst.h, inst.integer_data[2])
    assert outer == 1 and table.denominator == 1
    assert list(table.entries.items()) == list(reference.items())
    assert all(type(b) is int for b in table.entries.values())


_GENERATOR_ENTRIES = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)),
    st.builds(lambda a, sign: Fraction(sign * a), st.integers(10 ** 5, 10 ** 6),
              st.sampled_from([1, -1])),  # minors past 2^63
)


@st.composite
def _gram_instances(draw):
    """det instances with matching generators: int, rational and large
    entries, zero generators, repeated generators (singular minors), and n
    below d."""
    h = determinant(draw(st.integers(1, 4)))
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        pick = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if pick == "zero":
            u = (Fraction(0),) * h.mprime
        elif pick == "repeat" and gens:
            u = draw(st.sampled_from(gens))
        else:
            u = tuple(draw(st.lists(_GENERATOR_ENTRIES, min_size=h.mprime, max_size=h.mprime)))
        gens.append(u)
    vectors = [h.vec_outer(u) for u in gens]
    return KlsInstance.build(h, vectors, [RADEMACHER] * len(gens), generators=gens)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_gram_instances())
def test_gram_minor_table_equals_mixed_derivative_table(inst):
    assert inst.generators_match
    _assert_table_is_the_reference(inst)


def test_gram_minor_table_named_cases():
    h = determinant(3)
    one, two = (Fraction(1), Fraction(-2), Fraction(1, 3)), (Fraction(2, 5), Fraction(0), Fraction(7))
    big = (Fraction(10 ** 6), Fraction(-3), Fraction(10 ** 5, 7))
    zero = (Fraction(0),) * 3
    for gens in ([one, zero, two], [one, one, two, one], [one, two], [big, one, big, two]):
        inst = KlsInstance.build(h, [h.vec_outer(u) for u in gens], [RADEMACHER] * len(gens),
                                 generators=gens)
        assert inst.generators_match
        _assert_table_is_the_reference(inst)
    # The last case's minors pass 2^63, which no fixed-width int holds.
    assert max(inst.coefficient_table.entries.values()) >= 2 ** 63


def test_float_generators_take_the_inclusion_exclusion_route():
    h = determinant(2)
    vectors = [h.vec_outer((Fraction(1), Fraction(2))), h.vec_outer((Fraction(3), Fraction(-1)))]
    inst = KlsInstance.build(h, vectors, [RADEMACHER] * 2, generators=[(1.0, 2.0), (3.0, -1.0)])
    assert not inst.generators_match  # equal products, but floats have no exact Gram route
    _assert_table_is_the_reference(inst)
    # A rounded product: 0.1 * 0.1 in binary64 is not Fraction(0.1) ** 2.
    h = determinant(1)
    inst = KlsInstance.build(h, [(Fraction(0.1 * 0.1),)], [RADEMACHER], generators=[(0.1,)])
    assert Fraction(0.1 * 0.1) != Fraction(0.1) ** 2 and not inst.generators_match
    _assert_table_is_the_reference(inst)


def test_unmatched_generators_take_the_inclusion_exclusion_route():
    h = determinant(2)
    gens = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(3))]
    vectors = [h.vec_outer(gens[0]), h.e]  # vector 1 has rank 2 and no generator of its own
    inst = KlsInstance.build(h, vectors, [RADEMACHER] * 2, generators=gens)
    assert not inst.generators_match
    with pytest.raises(RankTooHigh, match="vector 1 has hyperbolic rank > 1"):
        inst.coefficient_table
    inst = KlsInstance.build(h, [h.vec_outer(u) for u in gens], [RADEMACHER] * 2,
                             generators=gens[::-1])
    assert not inst.generators_match
    _assert_table_is_the_reference(inst)


@pytest.mark.parametrize("kind", VARIABLE_KINDS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(3, 6), seed=st.integers(0, 10 ** 6))
def test_loaded_lorentz_table_is_the_int_mixed_derivative_table(kind, n, m, seed):
    blob = json.loads(dumps(instance_to_json(gen_kls_lorentz(n, m, seed, kind))))
    inst, _ = instance_from_json(blob)
    _assert_table_is_the_reference(inst)


def test_lorentz_table_checks_rank_before_the_cone():
    h = lorentz(3)
    null = (Fraction(3), Fraction(4), Fraction(5))
    negated = tuple(-c for c in null)
    timelike = (Fraction(0), Fraction(0), Fraction(1))  # h = 1: rank 2
    for vectors, error, message in (
            ([negated, timelike], RankTooHigh, "vector 1 has hyperbolic rank > 1"),
            ([null, negated], InvalidParams, "vector 1 lies outside the closed cone")):
        with pytest.raises(error, match=message):
            KlsInstance.build(h, vectors, [RADEMACHER] * 2).coefficient_table
    with pytest.raises(RankTooHigh, match="vector 1 has hyperbolic rank > 1"):
        mixed_derivative_table(h, [negated, timelike])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 6),
       st.sampled_from([3, 10 ** 7]), st.integers(0, 10 ** 6))
def test_principal_minors_equal_exact_determinants(n, rank, size, top, seed):
    rng = random.Random(seed)
    w = [[rng.randint(-top, top) for _ in range(rank)] for _ in range(n)]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in w] for x in w]  # PSD of rank <= rank
    minors = principal_minors(gram, size)
    masks = sorted(sum(1 << i for i in t) for r in range(min(size, n) + 1)
                   for t in itertools.combinations(range(n), r))
    assert list(minors) == masks
    for mask, value in minors.items():
        t = [i for i in range(n) if mask >> i & 1]
        assert type(value) is int
        assert value == det_exact([[gram[i][j] for j in t] for i in t])


def _int_route_instances():
    """The generated det and Lorentz files (every variable kind), the
    elem_sym and custom spellings of e_2, and custom files with E != 1."""
    yield from _generated_instances()
    yield from _e2_instances()
    yield from _fractional_custom_instances()


def test_leaf_poly_reflection_equals_two_restrictions():
    checked = 0
    for inst in _int_route_instances():
        scale = inst.integer_data[0] * inst.integer_data[1]
        top = 2 * inst.h.d
        for assignment in itertools.islice(itertools.product(
                *[var.support for var in inst.variables]), 6):
            sums, denom = kls_leaf_poly(inst, assignment)
            assert all(type(c) is int for c in sums) and type(denom) is int
            got = tuple(Fraction(sums[k], denom * scale ** k) for k in range(top, -1, -1))
            assert got == fraction_leaf_poly(inst, assignment).coeffs, assignment
            checked += 1
    assert checked > 100


def test_node_poly_equals_the_fraction_route_at_every_prefix():
    checked = 0
    for inst in _int_route_instances():
        for prefix in _every_prefix(inst):
            got = kls_prefix_node(inst, prefix).coeffs
            assert all(type(c) is Fraction for c in got)
            assert got == fraction_node_poly(inst, prefix).coeffs, prefix
            checked += 1
    assert checked > 700


def test_leaf_denominators_of_the_fractional_custom_files():
    # The leaves' E^2 differ within one file; the oracle reads each leaf
    # with its own (KlsFamily.scaled_top_coeffs).
    for inst, expect in zip(_fractional_custom_instances(), [{4}, {1, 4}]):
        assert {kls_leaf_poly(inst, assignment)[1] for assignment in itertools.product(
            *[var.support for var in inst.variables])} == expect


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _rational_variables(draw):
    """Rademacher, biased, three-point, or a variable with rational support
    values.  For the "spread" one, L^2 tau^2 needs more than the lcm of the
    centered values' and the probabilities' denominators: that lcm is 4,
    and 16 tau^2 = 1/2."""
    kind = draw(st.sampled_from(["rademacher", "biased", "threepoint", "rational", "spread"]))
    if kind == "rademacher":
        return RADEMACHER
    if kind == "spread":
        return RandomVar((Fraction(0), Fraction(1, 4), Fraction(-1, 4)),
                         (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    if kind == "biased":
        p = Fraction(draw(st.integers(1, 7)), draw(st.sampled_from([8, 3, 5])))
        p = min(p, Fraction(7, 8))
        return RandomVar((Fraction(1), Fraction(-1)), (p, 1 - p))
    if kind == "threepoint":
        a, b = Fraction(draw(st.integers(1, 3)), 8), Fraction(draw(st.integers(1, 3)), 8)
        return RandomVar((Fraction(-1), Fraction(draw(st.integers(0, 1))), Fraction(2)),
                         (a, 1 - a - b, b))
    values = draw(st.lists(_SMALL_FRACTIONS, min_size=2, max_size=3, unique=True))
    probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)][:len(values)]
    probs[0] += 1 - sum(probs)
    return RandomVar(tuple(values), tuple(probs))


@st.composite
def _rational_kls_instances(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        h = determinant(draw(st.integers(1, 3)))
        vectors = []
        for _ in range(n):
            u = draw(st.lists(_SMALL_FRACTIONS, min_size=h.mprime, max_size=h.mprime)
                     .filter(any))
            vectors.append(h.vec_outer(tuple(u)))
    else:
        h = lorentz(draw(st.integers(3, 4)))
        vectors = []
        for _ in range(n):
            a, b, c = draw(st.sampled_from(_PYTHAGOREAN))
            spots = draw(st.permutations(range(h.m - 1)))[:2]
            scale = draw(st.builds(Fraction, st.integers(1, 3), st.integers(1, 5)))
            vec = [Fraction(0)] * h.m
            vec[spots[0]] = scale * a * draw(st.sampled_from([1, -1]))
            vec[spots[1]] = scale * b * draw(st.sampled_from([1, -1]))
            vec[-1] = scale * c
            vectors.append(tuple(vec))
    variables = [draw(_rational_variables()) for _ in range(n)]
    return KlsInstance.build(h, vectors, variables)


@st.composite
def _signed_rank_one_vectors(draw):
    """h and one to three rank-1 vectors, each of them or its negative: a
    determinant vec(u u^T), or a lorentz boundary vector."""
    if draw(st.booleans()):
        h = determinant(draw(st.integers(1, 3)))
        cone = st.lists(_SMALL_FRACTIONS, min_size=h.mprime, max_size=h.mprime).filter(
            any).map(lambda u: h.vec_outer(tuple(u)))
    else:
        h = lorentz(draw(st.integers(3, 4)))

        def boundary(triple, spots, scale):
            vec = [Fraction(0)] * h.m
            vec[spots[0]], vec[spots[1]], vec[-1] = (scale * c for c in triple)
            return tuple(vec)

        cone = st.builds(boundary, st.sampled_from(_PYTHAGOREAN),
                         st.permutations(range(h.m - 1)),
                         st.builds(Fraction, st.integers(1, 3), st.integers(1, 5)))
    signed = st.tuples(cone, st.sampled_from([1, -1])).map(
        lambda pair: tuple(pair[1] * c for c in pair[0]))
    return h, draw(st.lists(signed, min_size=1, max_size=3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_signed_rank_one_vectors())
def test_exact_cone_verdict_agrees_with_cone_membership(case):
    h, vectors = case
    outside = [i for i, v in enumerate(vectors) if cone_membership(h, v).status == "outside"]
    inst = KlsInstance.build(h, vectors, [RADEMACHER] * len(vectors))
    if not outside:
        assert inst.coefficient_table.entries[0] > 0
        return
    with pytest.raises(InvalidParams, match=f"vector {outside[0]} lies outside the closed cone"):
        inst.coefficient_table


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_rational_kls_instances())
def test_node_poly_equals_the_fraction_route_on_generated_instances(inst):
    for prefix in _every_prefix(inst):
        got = kls_prefix_node(inst, prefix).coeffs
        assert got == fraction_node_poly(inst, prefix).coeffs, prefix


def _assert_integer_data_is_the_fraction_formula(inst):
    vec_scale, var_scale, vectors, centered, variances = inst.integer_data
    assert (var_scale, centered, variances) == fraction_integer_data(inst)
    assert all(type(x) is int for cent in centered for x in cent.values())
    assert all(type(x) is int for x in variances)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_rational_variables(), min_size=1, max_size=4))
def test_integer_data_equals_the_fraction_formula(variables):
    inst = KlsInstance.build(D1, [(Fraction(1),)] * len(variables), variables)
    _assert_integer_data_is_the_fraction_formula(inst)


def test_integer_data_equals_the_fraction_formula_on_the_spread_variable():
    spread = RandomVar((Fraction(0), Fraction(1, 4), Fraction(-1, 4)),
                       (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    biased = RandomVar((Fraction(1), Fraction(-1)), (Fraction(1, 3), Fraction(2, 3)))
    for variables in ([spread], [spread, RADEMACHER], [biased, spread]):
        inst = KlsInstance.build(D1, [(Fraction(1),)] * len(variables), variables)
        _assert_integer_data_is_the_fraction_formula(inst)
    # The centered values' and probabilities' lcm, 4, leaves 16 tau^2 = 1/2.
    assert KlsInstance.build(D1, [(Fraction(1),)], [spread]).integer_data[1] == 8
    for inst in _int_route_instances():
        _assert_integer_data_is_the_fraction_formula(inst)


_SUPPORT_VALUES = st.one_of(_SMALL_FRACTIONS, st.integers(-5, 5),
                            st.floats(-4, 4, allow_nan=False, allow_infinity=False))


@st.composite
def _variable_data(draw):
    """(support, probs) with distinct support values (as rationals) and
    positive probabilities, each a Fraction or its nearest float; the
    probabilities sum to 1 as rationals, or, some of the time, not."""
    support = draw(st.lists(_SUPPORT_VALUES, min_size=1, max_size=4, unique_by=Fraction))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    total = sum(weights) + draw(st.sampled_from([0, 0, 0, 1]))
    probs = [Fraction(w, total) for w in weights]
    probs = [float(p) if draw(st.booleans()) else p for p in probs]
    return tuple(support), tuple(probs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_variable_data())
def test_random_var_int_form_gives_the_fraction_formulas(data):
    # A float probability or support value counts as the rational it is.
    support, probs = data
    total = sum(map(Fraction, probs))
    if total != 1:
        with pytest.raises(ValueError, match=f"^probabilities sum to {total}$"):
            RandomVar(support, probs)
        return
    var = RandomVar(support, probs)
    weights, q, *_ = var.int_form
    assert all(type(w) is int for w in weights) and sum(weights) == q
    assert [Fraction(w, q) for w in weights] == list(map(Fraction, probs))
    assert type(var.mean) is Fraction and var.mean == fraction_mean(var)
    assert type(var.variance) is Fraction and var.variance == fraction_variance(var)


def test_rademacher_is_one_shared_variable():
    assert RandomVar.rademacher() is RandomVar.rademacher()
    inst = gen_kls_det(6, 3, 0, "rademacher")
    assert all(var is RandomVar.rademacher() for var in inst.variables)


def test_scaled_copy_reads_tau_squares_off_its_variables():
    for inst in (gen_kls_det(4, 3, 0, "mixed"), gen_kls_lorentz(5, 4, 1, "mixed")):
        inst.tau_squares
        copy = inst.scaled(1.0 / inst.sigma)
        assert "tau_squares" not in vars(copy)
        assert copy.tau_squares == inst.tau_squares
        assert copy.tau_squares == tuple(map(fraction_variance, inst.variables))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_rational_kls_instances())
def test_integer_table_node_equals_enumeration_on_generated_instances(inst):
    table = inst.coefficient_table
    assert all(type(b) is int for b in table.entries.values())
    for prefix in _every_prefix(inst):
        got = kls_prefix_node(inst, prefix).coeffs
        assert all(type(c) is Fraction for c in got)
        assert got == fraction_node_poly(inst, prefix).coeffs, prefix


@st.composite
def _signed_route_instances(draw):
    """A _rational_kls_instances draw on det m' = 2-3 or lorentz, with some
    vectors replaced by the zero vector (so A_S = 0 for every S holding one)
    and some variables by a point mass (so tau_S = 0)."""
    inst = draw(_rational_kls_instances().filter(lambda inst: inst.h.d >= 2))
    zero = tuple(Fraction(0) for _ in range(inst.h.m))
    vectors = [zero if draw(st.integers(0, 3)) == 0 else v for v in inst.vectors]
    variables = [RandomVar((draw(_SMALL_FRACTIONS),), (Fraction(1),))
                 if draw(st.integers(0, 3)) == 0 else var for var in inst.variables]
    return KlsInstance.build(inst.h, vectors, variables)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_signed_route_instances())
def test_three_signed_routes_agree_on_generated_instances(inst):
    # The integer restriction route, the table and the Fraction sum over
    # every completion give the same root polynomial, coefficient by
    # coefficient, as Fractions.
    got = kls_operator_form(inst).coeffs
    assert all(type(c) is Fraction for c in got)
    assert got == kls_node_poly(inst).coeffs
    assert got == fraction_node_poly(inst).coeffs


def _per_vertex_operator_form(inst) -> UniPoly:
    """kls_operator_form with each vertex restricted by its own restrict_line
    call, as the base class's restrict_e_ints does: the route before the one
    stacked call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(inst.h), "restrict_e_ints", HyperbolicInstance.restrict_e_ints)
        return kls_operator_form(inst)


@pytest.mark.parametrize("kind", VARIABLE_KINDS)
def test_stacked_operator_form_equals_the_per_vertex_route_on_generated_files(kind):
    insts = [gen_kls_det(8, 4, 0, kind), gen_kls_det(7, 3, 1, kind), gen_kls_det(5, 2, 2, kind),
             gen_kls_lorentz(6, 4, 0, kind), gen_kls_lorentz(5, 3, 1, kind)]
    for inst in insts + list(_e2_instances()):
        loaded = "coefficient_table" in vars(inst)  # loading a file builds it
        got = kls_operator_form(inst).coeffs
        # An independent route: the coefficient table is not built for it.
        assert ("coefficient_table" in vars(inst)) == loaded
        assert all(type(c) is Fraction for c in got)
        assert got == _per_vertex_operator_form(inst).coeffs
        assert got == kls_node_poly(inst).coeffs


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_signed_route_instances())
def test_stacked_operator_form_equals_the_per_vertex_route_on_drawn_instances(inst):
    assert kls_operator_form(inst).coeffs == _per_vertex_operator_form(inst).coeffs


def test_integer_table_clears_the_coefficients_of_h():
    # h = x1 x2 / 2 takes non-integer values at integer points, so the table
    # of the integer vectors needs its own denominator.
    h = RealStableInstance(MultiPoly(2, {(1, 1): Fraction(1, 2)}), (Fraction(1), Fraction(1)))
    biased = RandomVar((Fraction(1), Fraction(-1)), (Fraction(1, 3), Fraction(2, 3)))
    inst = KlsInstance.build(h, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(2, 3)),
                                 (Fraction(3), Fraction(0))], [biased, RADEMACHER, biased])
    table = inst.coefficient_table
    assert table.denominator == 4
    for prefix in _every_prefix(inst):
        assert kls_prefix_node(inst, prefix).coeffs == fraction_node_poly(inst, prefix).coeffs


class _EnumeratedFamily(KlsFamily):
    """Every node, and so every oracle answer and the root bound, by the
    Fraction sum over its completions (fraction_node_poly)."""

    def scaled_top_coeffs(self, prefix, k):
        return scaled_monic(fraction_node_poly(self.inst, tuple(prefix)).coeffs[::-1][:k + 1])

    def root_max_root(self):
        return max_real_root(fraction_node_poly(self.inst))


def test_search_same_with_table_and_enumeration():
    for inst in (gen_kls_det(6, 3, 0, "mixed"), gen_kls_det(5, 2, 3, "rademacher"),
                 gen_kls_lorentz(5, 4, 1, "mixed")):
        cfg = SolverConfig(delta=0.5)
        fast = kadison_singer_search(KlsFamily(inst), cfg)
        slow = kadison_singer_search(_EnumeratedFamily(inst), cfg)
        assert fast == slow


# ---------------------------------------------------------------------------
# The fold of committed rounds and the integer oracle, against the Fraction
# routes.
# ---------------------------------------------------------------------------

def _e2_instances():
    """The elem_sym and custom spellings of e_2 in three variables that
    tests/test_cli.py solves from hand-written files."""
    half = "1/2"
    payload = {"vectors": [[half, 0, 0], [0, half, 0], [0, 0, half], [half, 0, 0]],
               "variables": [{"support": [1, -1], "probs": [half, half]}] * 4}
    terms = [[[1, 1, 0], 1], [[1, 0, 1], 1], [[0, 1, 1], 1]]
    for h in ({"kind": "elem_sym", "n": 3, "k": 2},
              {"kind": "custom", "nvars": 3, "e": [1, 1, 1],
               "poly": {"nvars": 3, "terms": terms}}):
        yield instance_from_json({"schema": "hyperdisc-instance/1", "kind": "kls",
                                  "backend": "rational", "payload": {**payload, "h": h}})[0]


def _fractional_custom_instances():
    """Two custom files in three variables whose h has non-integer
    coefficients, with the denominator E of y -> E h(ye + W) at the leaves'
    int sums W: e_2 / 2, where E = 2 at every W, and
    x1 x2 / 2 + x1 x3 / 2 + x2 x3, where E is 2 when W_2 + W_3 is odd and 1
    when it is even (the support 1, -2 gives both parities, even first)."""
    half, third = "1/2", "1/3"
    e2 = [[[1, 1, 0], half], [[1, 0, 1], half], [[0, 1, 1], half]]
    mixed = [[[1, 1, 0], half], [[1, 0, 1], half], [[0, 1, 1], 1]]
    biased = {"support": [1, -1], "probs": [third, "2/3"]}
    rademacher = {"support": [1, -1], "probs": [half, half]}
    for terms, vectors, variables in [
            (e2, [[half, 0, 0], [0, third, 0], [0, 0, 2], [1, 0, 0]], [biased] * 4),
            (mixed, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [rademacher, {"support": [1, -2], "probs": ["2/3", third]}, rademacher])]:
        payload = {"h": {"kind": "custom", "nvars": 3, "e": [1, 1, 1],
                         "poly": {"nvars": 3, "terms": terms}},
                   "vectors": vectors, "variables": variables}
        yield instance_from_json({"schema": "hyperdisc-instance/1", "kind": "kls",
                                  "backend": "rational", "payload": payload})[0]


def _fold_instances():
    yield from _generated_instances()
    yield from _e2_instances()


def _unfolded_numerators(inst, table, partial) -> list:
    """N_0..N_2d by the unfolded loop over the whole table: every entry is
    split into its prefix and free parts on each call."""
    d = inst.h.d
    fixed = (1 << len(partial)) - 1
    factor = ([cent[s] for s, cent in zip(partial, table.centered)]
              + list(table.variances[len(partial):]))
    products = {}
    for mask in table.entries:
        low = mask & -mask
        products[mask] = products[mask ^ low] * factor[low.bit_length() - 1] if mask else 1
    rows: dict = {}
    for mask, b_t in table.entries.items():
        free = mask & ~fixed
        row = rows.setdefault(free, [0] * (d + 1))
        row[mask.bit_count()] += products[mask & fixed] * b_t
    sums = [0] * (2 * d + 1)
    for free, row in rows.items():
        for j, cj in enumerate(row):
            for jj, cjj in enumerate(row):
                prod = products[free] * cj * cjj
                sums[j + jj] += prod if jj % 2 == 0 else -prod
    return sums


def _enumerated_numerators(inst, table, partial) -> list:
    """N_k read back from the Fraction sum over every completion: the
    coefficient of x^(2d-k) in fraction_node_poly is
    Pr[prefix] N_k / (E^2 (L D)^k)."""
    coeffs = fraction_node_poly(inst, partial).coeffs
    prob = math.prod(var.probs[var.support.index(s)] for s, var in zip(partial, inst.variables))
    out = []
    for k in range(2 * inst.h.d + 1):
        n_k = coeffs[2 * inst.h.d - k] * table.denominator * table.scale ** k / prob
        assert n_k.denominator == 1
        out.append(int(n_k))
    return out


def _folded_sums(table, partial, split) -> list:
    """N_0..N_2d with the first split values committed, then the rest as a
    block; the commit itself is folded in two pieces."""
    head = split // 2
    committed = kls_fold(table, kls_fold(table, table.rows, 0, partial[:head]), head,
                         partial[head:split])
    return kls_node_sums(table.weights, kls_fold(table, committed, split, partial[split:]),
                         2 * table.d)


def test_folded_sums_equal_the_unfolded_and_enumerated_numerators_at_every_split():
    checked = 0
    for inst in _fold_instances():
        table = inst.coefficient_table
        for prefix in _every_prefix(inst):
            expect = _unfolded_numerators(inst, table, prefix)
            assert expect == _enumerated_numerators(inst, table, prefix)
            for split in range(len(prefix) + 1):
                assert _folded_sums(table, prefix, split) == expect, (prefix, split)
                checked += 1
    assert checked > 2000


def test_folded_sums_equal_the_unfolded_numerators_past_the_guardrail():
    # 2^5 3^5 completions, too many for the Fraction reference; the unfolded
    # loop still runs.
    inst = gen_kls_det(10, 3, 1, "mixed")
    table = inst.coefficient_table
    rng = random.Random(5)
    for _ in range(12):
        prefix = tuple(rng.choice(var.support) for var in inst.variables[:rng.randint(0, 10)])
        split = rng.randint(0, len(prefix))
        assert _folded_sums(table, prefix, split) == _unfolded_numerators(inst, table, prefix)


class _RecordingKlsFamily(KlsFamily):
    """Keeps every integer oracle answer with the prefix it scored."""

    def __init__(self, inst):
        super().__init__(inst)
        self.answers = []

    def scaled_top_coeffs(self, prefix, k):
        scaled = super().scaled_top_coeffs(prefix, k)
        self.answers.append((tuple(prefix), k, scaled))
        return scaled


def _assert_integer_oracle_matches_fractions(inst, blocks=(1, 2, 3)) -> int:
    """Searches inst at several block sizes; every integer answer must give
    the monic coefficients of fraction_node_poly exactly, and the estimate
    under float ==.  Returns the number of answers checked."""
    checked = 0
    for block in blocks:
        family = _RecordingKlsFamily(inst)
        cfg = SolverConfig(delta=0.5, block=block)
        result = kadison_singer_search(family, cfg)
        slow = kadison_singer_search(_EnumeratedFamily(inst), cfg)
        assert result == slow
        for prefix, k, (coeffs, scale) in family.answers:
            assert all(type(c) is int for c in coeffs) and type(scale) is int and scale > 0
            exact = monic_top_coeffs(fraction_node_poly(inst, prefix), k)
            assert tuple(Fraction(c, scale ** j) for j, c in enumerate(coeffs, 1)) == exact
            assert (max_root_estimate(family.degree, k, coeffs, scale)
                    == max_root_estimate(family.degree, k, exact)), prefix
            checked += 1
    return checked


def test_integer_estimate_equals_the_fraction_route_at_every_visited_prefix():
    checked = sum(_assert_integer_oracle_matches_fractions(inst) for inst in _fold_instances())
    assert checked > 300


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_rational_kls_instances())
def test_integer_estimate_equals_the_fraction_route_on_generated_instances(inst):
    _assert_integer_oracle_matches_fractions(inst, blocks=(1, 2))


def test_leaf_scores_equal_the_fraction_route_at_every_leaf_and_k():
    # A full assignment is scored off its one int restriction
    # (kls_leaf_poly) with the inner nodes' formula, for every even k.
    checked = 0
    for inst in _generated_instances():
        family = KlsFamily(inst)
        for leaf in itertools.product(*[var.support for var in inst.variables]):
            poly = fraction_node_poly(inst, leaf)
            for k in range(2, family.degree + 1, 2):
                coeffs, scale = family.scaled_top_coeffs(leaf, k)
                exact = monic_top_coeffs(poly, k)
                assert tuple(Fraction(c, scale ** j) for j, c in enumerate(coeffs, 1)) == exact
                assert (max_root_estimate(family.degree, k, coeffs, scale)
                        == max_root_estimate(family.degree, k, exact)), (leaf, k)
                checked += 1
    assert checked > 900


def test_centered_sum_over_ints_equals_the_fraction_sum():
    for inst in _fold_instances():
        for assignment in itertools.islice(itertools.product(
                *[var.support for var in inst.variables]), 20):
            assert inst.centered_sum(assignment) == fraction_centered_sum(inst, assignment)


def test_folding_no_values_returns_the_rows_themselves():
    # The root node and a commit that adds nothing copy no row.
    inst = gen_kls_det(5, 2, 1, "mixed")
    table = inst.coefficient_table
    assert kls_fold(table, table.rows, 0, ()) is table.rows
    head = tuple(var.support[0] for var in inst.variables[:3])
    committed = kls_fold(table, table.rows, 0, head)
    assert kls_fold(table, committed, 3, ()) is committed
    with pytest.raises(ValueError):
        kls_fold(table, committed, inst.n + 1, ())


def test_commit_that_does_not_extend_the_last_one_refolds():
    inst = gen_kls_det(5, 2, 1, "mixed")
    family = KlsFamily(inst)
    first = tuple(var.support[0] for var in inst.variables)
    other = tuple(var.support[-1] for var in inst.variables)
    family.commit(first[:3])
    for prefix in (first[:4], other[:2], other[:4], ()):
        fresh = KlsFamily(inst).scaled_top_coeffs(prefix, 4)
        assert family.scaled_top_coeffs(prefix, 4) == fresh
    family.commit(other[:2])
    assert family.scaled_top_coeffs(first[:4], 4) == KlsFamily(inst).scaled_top_coeffs(first[:4], 4)
    with pytest.raises(ValueNotInSupport):
        family.scaled_top_coeffs(other[:2] + (Fraction(7),), 4)


# ---------------------------------------------------------------------------
# Subset family: the leaf table against one restriction per support set.
# ---------------------------------------------------------------------------

def _graph(spec: str):
    if spec.startswith("random:"):
        _, nv, ne, seed = spec.split(":")
        return random_connected_graph(int(nv), int(ne), int(seed))
    return named_graph(spec)


def _per_set_leaves(inst) -> list:
    """mu(S) * h(xe - sum_{i in S} v_i), one restriction per support set."""
    return [scale(inst.h.restrict_line(tuple(-c for c in subset_sum(inst, elems)), inst.h.e), prob)
            for elems, prob in pairs(inst.mu)]


def _per_set_node(inst, leaves, prefix):
    """The leaves of the sets that agree with the prefix, added in support
    order from 0; None when no set agrees (the set rule of feasibility)."""
    acc, found = ZERO, False
    for (elems, _), leaf in zip(pairs(inst.mu), leaves):
        if all((i in elems) == bool(bit) for i, bit in enumerate(prefix)):
            acc, found = poly_add(acc, leaf), True
    return acc if found else None


class _RecordingFamily(AgFamily):
    """Remembers every prefix the search tests or scores."""

    def __init__(self, inst):
        super().__init__(inst)
        self.prefixes = []

    def feasible(self, prefix):
        self.prefixes.append(tuple(prefix))
        return super().feasible(prefix)

    def scaled_top_coeffs(self, prefix, k):
        self.prefixes.append(tuple(prefix))
        return super().scaled_top_coeffs(prefix, k)

    def root_max_root(self):
        """No root bound, so the search runs its rounds on every graph,
        sparse ones whose root node is not real-rooted among them."""
        return math.inf


def _prefixes(inst, seed, count: int = 20) -> list:
    """The prefixes a blocked search visits, then random ones: prefixes of a
    support set's membership vector and arbitrary 0/1 tuples."""
    family = _RecordingFamily(inst)
    # The rounds run on every graph; a leaf whose norm cannot be certified
    # raises after them.
    with contextlib.suppress(HyperdiscError):
        kadison_singer_search(family, SolverConfig(delta=0.5))
    rng = random.Random(seed)
    out = [()] + family.prefixes
    for _ in range(count):
        elems = rng.choice(pairs(inst.mu))[0]
        ell = rng.randrange(inst.n + 1)
        out.append(tuple(int(i in elems) for i in range(ell)))
        out.append(tuple(rng.randrange(2) for _ in range(rng.randrange(inst.n + 1))))
    return list(dict.fromkeys(out))


def _assert_table_matches_per_set_sum(inst, prefixes):
    leaves = _per_set_leaves(inst)
    family = AgFamily(inst)
    for prefix in prefixes:
        expect = _per_set_node(inst, leaves, prefix)
        assert family.feasible(prefix) == (expect is not None), prefix
        if expect is None:
            with pytest.raises(EmptyBranch):
                ag_prefix_node(inst, prefix)
            continue
        got = ag_prefix_node(inst, prefix)
        # Float ==, so each coefficient is the same binary64 value.
        assert ([type(c) for c in got.coeffs], got.coeffs) == \
            ([type(c) for c in expect.coeffs], expect.coeffs), prefix


@pytest.mark.parametrize("spec", ["c4", "c5", "k4", "k5", "diamond", "random:6:9:0",
                                  "random:8:12:2"])
def test_set_sums_equal_the_per_set_sum(spec):
    # The leaf table and leaf_norm sum a set's vectors by one column loop:
    # each row has the bits of the per-set sum for float vectors, and its
    # Fractions for exact ones.
    for exact in (False, True):
        inst = SrInstance.from_graph(_graph(spec), exact=exact)
        sums = mixedchar._set_sums(inst.vectors, inst.mu.sets)
        for row, elems in zip(sums.tolist(), inst.mu.sets.tolist()):
            want = subset_sum(inst, elems)
            if exact:
                assert row == list(want) and all(type(c) is Fraction for c in row), elems
            else:
                assert list(map(float.hex, row)) == list(map(float.hex, want)), elems
        family = AgFamily(inst)
        for elems in inst.mu.sets.tolist()[:3]:
            leaf = tuple(int(i in elems) for i in range(inst.n))
            assert _norm_or_error(family.leaf_norm, leaf) == \
                _norm_or_error(lambda _: spectrum(inst.h, subset_sum(inst, elems)).norm, leaf)


def _norm_or_error(norm, leaf):
    """norm(leaf), or the type of the HyperdiscError it raises."""
    try:
        return norm(leaf)
    except HyperdiscError as exc:
        return type(exc)


@pytest.mark.parametrize("spec", ["c4", "k4", "k5", "diamond", "random:7:14:1",
                                  "random:9:16:1"])
def test_ag_node_poly_equals_the_per_set_sum(spec):
    inst = SrInstance.from_graph(_graph(spec))
    assert inst.leaf_table.dtype == np.float64  # float vectors, float rows
    _assert_table_matches_per_set_sum(inst, _prefixes(inst, spec))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 6), st.integers(0, 10**6))
def test_ag_node_poly_equals_the_per_set_sum_on_generated_graphs(nv, extra, seed):
    max_edges = nv * (nv - 1) // 2
    graph = random_connected_graph(nv, min(nv - 1 + extra, max_edges), seed)
    inst = SrInstance.from_graph(graph)
    _assert_table_matches_per_set_sum(inst, _prefixes(inst, seed, count=8))


@pytest.mark.parametrize("name", ["k3", "c4", "diamond"])
def test_exact_ag_node_poly_equals_the_per_set_sum(name):
    inst = SrInstance.from_graph(named_graph(name), exact=True)
    assert inst.leaf_table.dtype == object  # Fractions, from the one leaf route
    prefixes = [p for ell in range(inst.n + 1) for p in itertools.product((0, 1), repeat=ell)]
    _assert_table_matches_per_set_sum(inst, prefixes)
    assert all(isinstance(c, Fraction) for c in ag_node_poly(inst).coeffs)


def test_blocked_search_builds_the_leaf_table_once(monkeypatch):
    # k5 has 125 trees, one LEAF_CHUNK, so one build is one stacked restriction.
    builds = []
    inst = SrInstance.from_graph(complete_graph(5))
    cls = type(inst.h)
    real = cls.restrict_e_rows
    monkeypatch.setattr(cls, "restrict_e_rows",
                        lambda self, bases: builds.append(len(bases)) or real(self, bases))
    result = kadison_singer_search(AgFamily(inst), SolverConfig(delta=0.5))
    assert result.oracle_calls > 1
    # The one-row calls are restrict_line's, for the spectrum of the leaf.
    assert [n for n in builds if n > 1] == [len(pairs(inst.mu))]


def _full_scan(members, prefix) -> np.ndarray:
    """The rows whose set agrees with a prefix, by comparing every row of the
    membership matrix on every prefix column (the route before the table
    was conditioned on the commit)."""
    bits = np.asarray(prefix, dtype=bool)
    return np.flatnonzero((members[:, :len(bits)] == bits).all(axis=1))


def _exact_bits(coeffs) -> list:
    """Each coefficient by value and type: a float as its hex, a Fraction as
    itself."""
    return [c.hex() if isinstance(c, float) else (type(c), c) for c in coeffs]


def _monic_answer(answer) -> tuple:
    """The monic coefficients of an oracle answer (C, q): Fractions
    C_j / q^j for int C, the floats themselves for float C (q = 1)."""
    coeffs, scale = answer
    if all(type(c) is int for c in coeffs):
        return tuple(Fraction(c, scale ** j) for j, c in enumerate(coeffs, 1))
    assert scale == 1
    return coeffs


def _assert_conditioned_route_matches_full_scan(inst, block: int, seed: int):
    """Walk the rounds of a blocked search, committing a random feasible
    tuple each round, and check every tuple of every round, the leaf and
    the root against the full scan: the agreeing rows, and the oracle's
    answer against the monic top coefficients of ag_prefix_node at k = 2 and
    the search's k, bit for bit.  Then commit a prefix that does not extend
    the last commit and check again."""
    table = inst.leaf_table
    family = AgFamily(inst)
    ks = {2, SolverConfig(delta=0.5).resolve(inst.n, family.degree)[1]}
    rng = random.Random(seed)

    def check(prefix):
        expect = _full_scan(inst.mu.members, prefix)
        assert family.feasible(prefix) == (len(expect) > 0), prefix
        assert np.array_equal(family.agreeing(prefix), expect), prefix
        if not len(expect):
            with pytest.raises(EmptyBranch):
                ag_prefix_node(inst, prefix)
            with pytest.raises(EmptyBranch):
                family.scaled_top_coeffs(prefix, 2)
            return False
        node = ag_prefix_node(inst, prefix)
        want = UniPoly.from_coeffs((np.cumsum(table[expect], axis=0)[-1] + 0).tolist())
        assert _exact_bits(node.coeffs) == _exact_bits(want.coeffs), prefix
        for k in ks:
            got = _monic_answer(family.scaled_top_coeffs(prefix, k))
            assert _exact_bits(got) == _exact_bits(monic_top_coeffs(node, k)), (prefix, k)
        return True

    def rounds(assignment):
        for lo in range(len(assignment), inst.n, block):
            combos = itertools.product((0, 1), repeat=min(block, inst.n - lo))
            feasible = [combo for combo in combos if check(assignment + combo)]
            assignment += rng.choice(feasible)
            if len(assignment) < inst.n:
                family.commit(assignment)
        check(assignment)
        return assignment

    leaf = rounds(())
    check(())
    # A commit that does not extend the last one: a feasible prefix of
    # another support set, which leaves the search's prefixes uncommitted.
    others = [elems for elems, _ in pairs(inst.mu)
              if tuple(int(i in elems) for i in range(inst.n)) != leaf]
    if others:
        elems = rng.choice(others)
        start = tuple(int(i in elems) for i in range(rng.randrange(inst.n)))
        family.commit(start)
        for ell in range(inst.n + 1):
            check(leaf[:ell])
        rounds(start)
        check(())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("spec", ["c4", "k4", "k5", "diamond", "random:6:8:0", "random:7:9:1",
                                  "random:6:10:2"])
def test_conditioned_leaf_table_equals_the_full_scan(spec, exact):
    inst = SrInstance.from_graph(_graph(spec), exact=exact)
    assert inst.leaf_table.dtype == (object if exact else np.float64)
    for block, seed in [(1, 0), (2, 1), (3, 2)]:
        _assert_conditioned_route_matches_full_scan(inst, block, seed)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(3, 7), st.integers(0, 7), st.integers(0, 10**6), st.integers(1, 4))
def test_conditioned_leaf_table_equals_the_full_scan_on_generated_graphs(nv, extra, seed, block):
    max_edges = nv * (nv - 1) // 2
    inst = SrInstance.from_graph(random_connected_graph(nv, min(nv - 1 + extra, max_edges), seed))
    _assert_conditioned_route_matches_full_scan(inst, block, seed)


def test_a_round_after_a_commit_reads_only_the_committed_rows():
    inst = SrInstance.from_graph(_graph("random:9:16:1"))
    members = inst.mu.members
    commit = (1, 0, 1)
    committed = _full_scan(members, commit)
    assert 0 < len(committed) < len(members) // 4
    combos = list(itertools.product((0, 1), repeat=3))
    want = {combo: _full_scan(members, commit + combo) for combo in combos}
    # The same instance over a writable copy of the membership matrix,
    # whose rows outside the commit are flipped after it: the rounds that
    # extend the commit must not read them.
    mu = SRDistribution(inst.mu.n, inst.mu.sets, inst.mu.weights, inst.mu.denominator)
    mu.__dict__["members"] = members.copy()  # the cached slot
    copy = SrInstance(inst.h, mu, inst.vectors)
    family = AgFamily(copy)
    family.commit(commit)
    outside = np.setdiff1d(np.arange(len(members)), committed)
    mu.members[outside] = ~mu.members[outside]
    for combo in combos:
        assert np.array_equal(family.agreeing(commit + combo), want[combo]), combo


@pytest.mark.parametrize("spec, exact", [("k4", False), ("k5", False), ("diamond", True)])
def test_a_search_leaves_the_instance_as_it_was(spec, exact):
    # The search's state lives on its family: after a blocked search the
    # instance's leaf table holds the same read-only arrays, and a fresh
    # family answers every prefix, and the barrier chain reports, as before.
    inst = SrInstance.from_graph(_graph(spec), exact=exact)
    table = inst.leaf_table
    members, rows = inst.mu.members.copy(), table.copy()
    prefixes = [p for ell in range(min(inst.n, 6) + 1) for p in itertools.product((0, 1), repeat=ell)]
    degree = AgFamily(inst).degree

    def answers():
        # repr, so a float answer is compared bit for bit, -0.0 included.
        family = AgFamily(inst)
        return [repr(family.feasible(p) and family.scaled_top_coeffs(p, degree)) for p in prefixes]

    before, report = answers(), verify_bound_chain(inst).to_json()
    family = _RecordingFamily(inst)
    with contextlib.suppress(HyperdiscError):
        kadison_singer_search(family, SolverConfig(delta=0.5, block=2))
    assert len(family.prefixes) > inst.n
    assert inst.leaf_table is table
    assert np.array_equal(inst.mu.members, members)
    assert _exact_bits(table.ravel()) == _exact_bits(rows.ravel())
    assert not inst.mu.members.flags.writeable and not table.flags.writeable
    with pytest.raises(ValueError):
        inst.mu.members[0, 0] = not inst.mu.members[0, 0]
    assert answers() == before
    assert verify_bound_chain(inst).to_json() == report


# ---------------------------------------------------------------------------
# Stacked traces and the variance mix over ints, against one restriction
# per vector and the Fraction sum.
# ---------------------------------------------------------------------------

def _elem_sym_instances():
    """Seeded e_k instances, k = 2..4: each vector has one nonzero
    coordinate, so it has rank <= 1 for the multilinear e_k."""
    rng = random.Random(43)
    for n, k in ((4, 2), (5, 3), (6, 4)):
        h = ElemSymInstance(n, k)
        vectors = []
        for _ in range(n + 1):
            vec = [Fraction(0)] * n
            vec[rng.randrange(n)] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            vectors.append(tuple(vec))
        variables = [rng.choice([RADEMACHER, RandomVar((Fraction(1), Fraction(-1)),
                                                       (Fraction(1, 4), Fraction(3, 4)))])
                     for _ in vectors]
        yield KlsInstance.build(h, vectors, variables)


def _variance_mix_instances():
    """Exact instances of every kind sigma meets: the generated det (with
    generators) and Lorentz files with every variable kind, at n = 1 too,
    where a det restriction takes the one-base recurrence; det without
    generators; the elem_sym and custom files (E != 1 among them); and
    seeded e_k instances."""
    yield from _int_route_instances()
    yield from _elem_sym_instances()
    for kind in VARIABLE_KINDS:
        for mprime in (1, 2, 3):
            yield gen_kls_det(1, mprime, 5, kind)
        yield gen_kls_lorentz(1, 3, 5, kind)
    rng = random.Random(7)
    for mprime, n in ((1, 1), (2, 1), (1, 3), (2, 3), (3, 4)):
        yield _det_instance(rng, mprime, n, ("rademacher", "biased", "threepoint"))


def test_variance_mix_over_ints_equals_the_trace_route(monkeypatch):
    handed, traced = [], []
    real = mixedchar.spectrum
    traces_of = mixedchar.hyperbolic_traces
    monkeypatch.setattr(mixedchar, "spectrum", lambda h, x: handed.append(x) or real(h, x))
    monkeypatch.setattr(mixedchar, "hyperbolic_traces",
                        lambda h, vectors: traced.append(len(vectors)) or traces_of(h, vectors))
    checked = 0
    for inst in _variance_mix_instances():
        traces = tuple(trace_reference(inst.h, v) for v in inst.vectors)
        want = mix_reference(inst, traces)
        # One integer route for every exact instance, whether its table is
        # built (a loaded file's) or not (gen's), with generators or
        # without: each hands spectrum the Fractions of the trace sum, and
        # none reads the traces or builds a table.
        fresh = [KlsInstance.build(inst.h, inst.vectors, inst.variables, gens)
                 for gens in dict.fromkeys((inst.generators, None))]
        tabled = KlsInstance.build(inst.h, inst.vectors, inst.variables, inst.generators)
        tabled.coefficient_table
        handed.clear()
        traced.clear()
        for other in (*fresh, tabled):
            other.variance_mix
            assert "traces" not in other.__dict__
        assert traced == []
        assert all("coefficient_table" not in other.__dict__ for other in fresh)
        assert handed == [want] * (len(fresh) + 1)
        assert all(type(c) is Fraction for c in handed[0])
        assert all(type(t) is Fraction for t in inst.traces)
        assert inst.traces == traces
        assert inst.variance_mix == real(inst.h, want)
        checked += 1
    assert checked > 40


def test_eps2_equals_one_restriction_per_vector():
    for graph in (complete_graph(4), diamond_graph(), named_graph("c5"),
                  random_connected_graph(7, 9, 0)):
        for exact in (False, True):
            inst = SrInstance.from_graph(graph, exact=exact)
            want = max(float(trace_reference(inst.h, v)) for v in inst.vectors)
            assert float.hex(inst.eps2) == float.hex(want)
