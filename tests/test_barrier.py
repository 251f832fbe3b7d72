"""Barrier functions, above-roots checks, and the certificate chain."""

import math
import random
from fractions import Fraction

import pytest

from hyperdisc.errors import ChainViolated, NotAboveRoots
from hyperdisc.barrier import (
    BarrierPoint,
    above_roots,
    construction_point,
    kls_square_zpoly,
    phi,
    polynomial_value,
    verify_bound_chain,
)
from hyperdisc.graphs import complete_graph, diamond_graph
from hyperdisc.hyperbolic import determinant, lorentz
from hyperdisc.mixedchar import KlsInstance, RandomVar, SrInstance
from hyperdisc.realstable import one_minus_c_d2
from hyperdisc.srdist import SRDistribution

D1 = determinant(1)
RADEMACHER = RandomVar.rademacher()


def _scalar_instance(n=1) -> KlsInstance:
    return KlsInstance.build(D1, [(Fraction(1),)] * n, [RADEMACHER] * n)


def _toy_sr_instance() -> SrInstance:
    mu = SRDistribution.from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    return SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])


def test_phi_scalar_closed_form():
    # For h(x) = x, n=1, tau=1, tr=1: Phi^1(alpha, z) = 2 / (alpha + z).
    inst = _scalar_instance()
    pt = BarrierPoint(4.0, (-2.0,), 2.0)
    assert phi(inst, "kls", 0, pt) == pytest.approx(2.0 / (4.0 - 2.0))


def test_phi_ag_toy():
    # Phi^1 = (1/2)/(alpha - t) + (1/2)/(alpha - t) for the half-half toy.
    inst = _toy_sr_instance()
    pt = construction_point(inst, "ag")
    expect = 0.5 / (pt.x - pt.t) + 0.5 / (pt.x - pt.t)
    assert phi(inst, "ag", 0, pt) == pytest.approx(expect)


def test_phi_zero_vector_contributes_nothing():
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(1), Fraction(0))), (Fraction(0),) * h.m],
        [RADEMACHER, RADEMACHER])
    pt = construction_point(inst, "kls")
    assert phi(inst, "kls", 1, pt) == pytest.approx(0.0)


def test_phi_requires_above_roots():
    inst = _scalar_instance()
    below = BarrierPoint(0.0, (-4.0,), 2.0)
    with pytest.raises(NotAboveRoots):
        phi(inst, "kls", 0, below)


def test_above_roots_structured_margin():
    inst = _scalar_instance()  # ||tau^2 tr v||_h = 1
    pt = construction_point(inst, "kls")
    verdict = above_roots(inst, "kls", pt)
    assert verdict.above
    assert verdict.structured_margin == pytest.approx(4.0 - 2.0 * 1.0)


def test_above_roots_rejects_boundary():
    inst = _toy_sr_instance()
    pt = BarrierPoint(2.0, (-2.0, -2.0), 2.0)  # alpha = t
    verdict = above_roots(inst, "ag", pt)
    assert not verdict.above


def test_phi_matches_log_derivative():
    # Phi^i is the z_i log-derivative of P; compare with finite differences.
    rng = random.Random(71)
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(1), Fraction(0))), h.vec_outer((Fraction(1), Fraction(1)))],
        [RADEMACHER, RADEMACHER])
    pt = construction_point(inst, "kls")
    eps = 1e-6
    for i in range(inst.n):
        analytic = phi(inst, "kls", i, pt, check=False)
        up = math.log(polynomial_value(inst, "kls", pt.shift(i, eps)))
        down = math.log(polynomial_value(inst, "kls", pt.shift(i, -eps)))
        numeric = (up - down) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-8)
    del rng


def _phi_differences(inst, i, j, pt, step):
    """Phi^i at pt and its central first and second differences along z_j."""
    minus, center, plus = (phi(inst, "kls", i, pt.shift(j, dz)) for dz in (-step, 0.0, step))
    return center, (plus - minus) / (2 * step), (plus - 2 * center + minus) / step ** 2


def test_phi_sign_checks_scalar():
    # Phi = 2/(4+z) along z_0: value 1, slope -1/2, curvature 1/2 at z = -2.
    inst = _scalar_instance()
    pt = construction_point(inst, "kls")
    value, first, second = _phi_differences(inst, 0, 0, pt, 1e-3)
    assert value == pytest.approx(1.0)
    assert first == pytest.approx(-0.5, rel=1e-4)
    assert second == pytest.approx(0.5, rel=1e-3)
    # Above the roots every Phi^i is nonnegative, nonincreasing and convex
    # along every z_j.
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(1), Fraction(0))), h.vec_outer((Fraction(1), Fraction(1)))],
        [RADEMACHER, RADEMACHER])
    inst = inst.scaled(1.0 / inst.sigma)
    pt = construction_point(inst, "kls")
    for i in range(inst.n):
        for j in range(inst.n):
            value, first, second = _phi_differences(inst, i, j, pt, 1e-3)
            tol = 1e-6 * abs(value) + 1e-10
            assert value >= -tol and first <= tol and second >= -tol


def test_verify_bound_chain_scalar_kls():
    report = verify_bound_chain(_scalar_instance(), "kls")
    assert report.passed
    names = [s.step for s in report.steps]
    assert "collapsed_max_root" in names
    final = report.steps[-1]
    assert final.quantity == pytest.approx(1.0)  # top root of x^2 - 1
    assert final.bound == 4.0


def test_verify_bound_chain_normalizes_sigma():
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(2), Fraction(0))), h.vec_outer((Fraction(1), Fraction(2)))],
        [RADEMACHER, RADEMACHER])
    assert inst.sigma != pytest.approx(1.0)
    report = verify_bound_chain(inst, "kls")
    assert report.passed
    assert report.sigma == pytest.approx(1.0)


def test_verify_bound_chain_ag_toy():
    report = verify_bound_chain(_toy_sr_instance(), "ag")
    assert report.passed
    eps = 0.5 + 0.5
    final = report.steps[-1]
    assert final.bound == pytest.approx(4 * eps + 2 * eps * eps)
    assert final.quantity == pytest.approx(0.5)  # root of x - 1/2


def test_verify_bound_chain_ag_spanning_trees():
    for graph in (complete_graph(3), diamond_graph()):
        inst = SrInstance.from_graph(graph)
        report = verify_bound_chain(inst, "ag")
        assert report.passed


def test_verify_bound_chain_degenerate_sigma():
    inst = KlsInstance.build(
        D1, [(Fraction(1),)],
        [RandomVar((Fraction(1),), (Fraction(1),))])  # variance 0
    with pytest.raises(ChainViolated):
        verify_bound_chain(inst, "kls")


def test_report_json_shape():
    report = verify_bound_chain(_scalar_instance(), "kls")
    blob = report.to_json()
    assert blob["kind"] == "kls"
    assert blob["passed"] is True
    assert all({"step", "quantity", "bound", "margin", "passed"} <= set(s) for s in blob["steps"])


def _zphi(p, i, pt):
    """Phi^i of an explicit polynomial in (x, z_1..z_n) at pt."""
    at = (pt.x,) + pt.z
    return p.partial(i + 1).eval(at) / p.eval(at)


def test_operator_update_shifts_barrier():
    # Phi^j of (1 - 1/2 d^2/dz_i^2) P at pt + delta_i 1_i stays below
    # Phi^j of P at pt, whenever the update condition holds there.
    rng = random.Random(73)
    h = determinant(2)
    for _ in range(4):
        us = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(2)) for _ in range(3)]
        us = [u if any(u) else (Fraction(1), Fraction(0)) for u in us]
        inst = KlsInstance.build(h, [h.vec_outer(u) for u in us], [RADEMACHER] * 3)
        if inst.sigma <= 0:
            continue
        inst = inst.scaled(1.0 / inst.sigma)
        pt = construction_point(inst, "kls")
        zp = kls_square_zpoly(inst)  # variable 0 is x, variable i + 1 is z_i
        taus = [math.sqrt(float(v.variance)) for v in inst.variables]
        for i in range(inst.n):
            delta_i = pt.t * taus[i] * float(inst.traces[i])
            if delta_i <= 1e-12:
                continue
            phi_i = _zphi(zp, i, pt)
            if phi_i / delta_i + phi_i * phi_i / 2 > 1:
                continue  # update condition fails; lemma silent
            updated = one_minus_c_d2(zp, i + 1, Fraction(1, 2))
            shifted = pt.shift(i, delta_i)
            for j in range(inst.n):
                before = _zphi(zp, j, pt)
                after = _zphi(updated, j, shifted)
                assert after <= before + 1e-8


def test_zpoly_matches_direct_value():
    inst = _scalar_instance(2)
    zp = kls_square_zpoly(inst)
    pt = BarrierPoint(3.0, (-0.5, -0.25), 1.0)
    direct = polynomial_value(inst, "kls", pt)
    assert zp.eval((pt.x,) + pt.z) == pytest.approx(direct)
