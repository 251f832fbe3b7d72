"""Multivariate container, closure ops, and the stability oracle's own checks."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperdisc.errors import IndexOutOfRange, ZeroPolynomial
from hyperdisc.graphs import complete_graph, diamond_graph, named_graph, path_graph
from hyperdisc.hyperbolic import determinant
from hyperdisc.mixedchar import linear_restriction_multipoly
from hyperdisc.realstable import MultiPoly, one_minus_c_d2
from hyperdisc.srdist import uniform_spanning_tree
from hyperdisc.unipoly import is_real_rooted
from srdist_helpers import generating_polynomial
from stability_oracle import stability_test


def _spanning_tree_polynomial(graph) -> MultiPoly:
    """Generating polynomial of the uniform spanning-tree distribution."""
    return generating_polynomial(uniform_spanning_tree(graph))


def _elementary_symmetric(n: int, k: int) -> MultiPoly:
    return MultiPoly(n, {tuple(int(i in c) for i in range(n)): 1
                         for c in itertools.combinations(range(n), k)})


def test_stability_product_of_variables():
    p = MultiPoly.monomial((1, 1))  # x1 x2
    assert stability_test(p, trials=200, seed=1).passed


def test_stability_refutes_sum_of_squares():
    p = MultiPoly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
    verdict = stability_test(p, trials=200, seed=1)
    assert not verdict.passed
    # The witness is an exact certificate: re-check it.
    line = p.restrict_line(verdict.witness_a, verdict.witness_b)
    assert line.is_zero or not is_real_rooted(line)


def test_stability_linear_positive():
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 1})  # z1 + z2
    assert stability_test(p, trials=100, seed=3).passed


def test_stability_zero_poly_raises():
    with pytest.raises(ZeroPolynomial):
        stability_test(MultiPoly.zero(2))


def test_stability_known_witness_line():
    p = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    line = p.restrict_line((1, 1), (0, 1))  # 2t^2 + 2t + 1
    assert line.coeffs == (Fraction(1), Fraction(2), Fraction(2))
    assert not is_real_rooted(line)


def test_closure_one_minus_c_d2():
    z2 = MultiPoly(1, {(2,): 1})
    out = one_minus_c_d2(z2, 0, Fraction(1, 2))
    assert out.terms == {(2,): 1, (0,): -1}


def test_closure_product():
    p = MultiPoly(2, {(1, 0): 1, (0, 0): 1})
    q = MultiPoly(2, {(0, 1): 1, (0, 0): 1})
    out = p * q
    assert out.terms == {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}


def test_closure_negative_c_rejected():
    with pytest.raises(ValueError):
        one_minus_c_d2(MultiPoly.monomial((2,)), 0, -1)


def test_partial_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        MultiPoly.monomial((1, 1)).partial(5)


def test_spanning_tree_polynomial_k3():
    p = _spanning_tree_polynomial(complete_graph(3))
    third = Fraction(1, 3)
    assert p.terms == {(1, 1, 0): third, (1, 0, 1): third, (0, 1, 1): third}


def test_spanning_tree_polynomial_diamond_exact_monomials():
    # 4-vertex 5-edge graph with edges 1=ab 2=ac 3=bd 4=cd 5=bc.
    p = _spanning_tree_polynomial(diamond_graph())
    expect = {
        (0, 1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 0, 1, 0), (1, 1, 1, 0, 0),
        (0, 1, 1, 0, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1), (1, 0, 1, 0, 1),
    }
    assert set(p.terms) == expect
    assert all(c == Fraction(1, 8) for c in p.terms.values())
    assert diamond_graph().spanning_tree_count_matrix_tree() == 8


def test_matrix_tree_agrees_with_enumeration():
    rng = random.Random(4)
    for g in [complete_graph(3), complete_graph(4), diamond_graph(), path_graph(4),
              named_graph("c5")]:
        assert len(g.spanning_trees()) == g.spanning_tree_count_matrix_tree()
    del rng


def test_fixtures_pass_stability():
    cases = [
        _spanning_tree_polynomial(complete_graph(3)),
        _spanning_tree_polynomial(diamond_graph()),
        _elementary_symmetric(4, 2),
    ]
    for p in cases:
        assert stability_test(p, trials=150, seed=7).passed


def test_closure_preserves_stability_on_fixtures():
    p = _spanning_tree_polynomial(complete_graph(3))
    q = _elementary_symmetric(3, 1)
    assert stability_test(p * q, trials=100, seed=5).passed
    assert stability_test(one_minus_c_d2(p, 1, Fraction(1, 2)), trials=100, seed=5).passed


def test_degree_bookkeeping():
    p = _spanning_tree_polynomial(complete_graph(3))
    q = _elementary_symmetric(3, 2)
    assert (p * q).total_degree() == p.total_degree() + q.total_degree()
    r = one_minus_c_d2(p * q, 0, Fraction(1, 2))
    assert r.total_degree() <= (p * q).total_degree()


def test_psd_mixture_determinant_stability():
    # det(x I + sum_i z_i u_i u_i^T), a determinant of a PSD mixture, is real
    # stable; linear_restriction_multipoly builds it from the rank-1 vectors.
    rng = random.Random(12)
    h = determinant(3)
    vectors = [h.vec_outer(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)))
               for _ in range(3)]
    p = linear_restriction_multipoly(h, vectors)
    assert not p.is_zero
    assert stability_test(p, trials=120, seed=13).passed


def test_multivariate_matching_is_not_real_stable():
    # The multivariate matching polynomial of a single edge, x1 x2 - w^2, is a
    # Lorentz form; the all-ones line collapses it to the zero polynomial, an
    # exact refutation.
    p = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 2): -1})
    verdict = stability_test(p, trials=300, seed=2)
    assert not verdict.passed
