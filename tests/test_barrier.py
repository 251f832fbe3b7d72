"""Barrier functions, above-roots checks, and the certificate chain."""

import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from hyperdisc import barrier, hyperbolic, mixedchar
from hyperdisc.errors import ChainViolated
from hyperdisc.barrier import (
    ABOVE_ROOTS_PROBES,
    BarrierPoint,
    above_roots,
    construction_point,
    phi,
    verify_bound_chain,
)
from hyperdisc.graphs import complete_graph, diamond_graph, named_graph
from hyperdisc.hyperbolic import (DeterminantInstance, ElemSymInstance, HyperbolicInstance,
                                  LorentzInstance, RealStableInstance, determinant, lorentz)
from hyperdisc.instances import gen_kls_det, gen_kls_lorentz, random_connected_graph
from hyperdisc.mixedchar import KlsInstance, RandomVar, SrInstance
from hyperdisc.realstable import MultiPoly
from kls_helpers import fraction_variance, mix_reference, trace_reference
from multipoly_helpers import kls_square_zpoly, one_minus_c_d2, partial
from srdist_helpers import from_support, pairs
from subset_helpers import as_rationals
from unipoly_helpers import newton_reference

D1 = determinant(1)
RADEMACHER = RandomVar.rademacher()


def _taus(inst) -> list:
    if isinstance(inst, KlsInstance):
        return [math.sqrt(float(fraction_variance(var))) for var in inst.variables]
    return [1.0] * inst.n


def _point_reference(inst, pt: BarrierPoint) -> tuple:
    """w = x e + sum_i z_i tau_i v_i, one coordinate at a time."""
    w = [pt.x * float(c) for c in inst.h.e]
    for z, tau, v in zip(pt.z, _taus(inst), inst.vectors):
        for idx in range(inst.h.m):
            w[idx] += z * tau * float(v[idx])
    return tuple(w)


def _gen_reference(inst, shifted) -> float:
    """g at shifted = x 1 + z, by a support sum."""
    value = 0.0
    for elems, prob in pairs(inst.mu):
        value += math.prod((shifted[e] for e in elems), start=float(prob))
    return value


def _polynomial_value(inst, pt: BarrierPoint) -> float:
    """P at (x, z): the squared restriction for a signed instance, the
    restriction times g for a subset instance, one point at a time."""
    hval = float(inst.h.value(_point_reference(inst, pt)))
    if isinstance(inst, KlsInstance):
        return hval * hval
    return hval * _gen_reference(inst, [pt.x + z for z in pt.z])


def _shift(pt: BarrierPoint, i: int, amount: float) -> BarrierPoint:
    """pt with z_i moved by amount."""
    z = list(pt.z)
    z[i] += amount
    return BarrierPoint(pt.x, tuple(z), pt.t)


def _scalar_instance(n=1) -> KlsInstance:
    return KlsInstance.build(D1, [(Fraction(1),)] * n, [RADEMACHER] * n)


def _toy_sr_instance() -> SrInstance:
    mu = from_support(2, [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    return SrInstance.build(D1, mu, [(Fraction(1, 2),), (Fraction(1, 2),)])


def test_phi_scalar_closed_form():
    # For h(x) = x, n=1, tau=1, tr=1: Phi^1(alpha, z) = 2 / (alpha + z).
    inst = _scalar_instance()
    pt = BarrierPoint(4.0, (-2.0,), 2.0)
    assert phi(inst, pt)[0] == pytest.approx(2.0 / (4.0 - 2.0))


def test_phi_ag_toy():
    # Phi^1 = (1/2)/(alpha - t) + (1/2)/(alpha - t) for the half-half toy.
    inst = _toy_sr_instance()
    pt = construction_point(inst)
    expect = 0.5 / (pt.x - pt.t) + 0.5 / (pt.x - pt.t)
    assert phi(inst, pt)[0] == pytest.approx(expect)


def test_phi_zero_vector_contributes_nothing():
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(1), Fraction(0))), (Fraction(0),) * h.m],
        [RADEMACHER, RADEMACHER])
    pt = construction_point(inst)
    assert phi(inst, pt)[1] == pytest.approx(0.0)


def test_phi_requires_above_roots():
    # Phi means nothing below the roots; the probes flag such a point.
    inst = _scalar_instance()
    below = BarrierPoint(0.0, (-4.0,), 2.0)
    assert above_roots(inst, below) > 0


def test_above_roots_structured_margin():
    inst = _scalar_instance()  # ||tau^2 tr v||_h = 1
    pt = construction_point(inst)
    assert above_roots(inst, pt) == 0
    step = next(s for s in verify_bound_chain(inst).steps if s.step == "above_roots")
    assert step.passed and step.quantity == 0.0
    assert step.margin == pytest.approx(4.0 - 2.0 * 1.0)


def test_above_roots_rejects_boundary():
    inst = _toy_sr_instance()
    pt = BarrierPoint(2.0, (-2.0, -2.0), 2.0)  # alpha = t
    assert above_roots(inst, pt) > 0


def test_phi_matches_log_derivative():
    # Phi^i is the z_i log-derivative of P; compare with finite differences.
    rng = random.Random(71)
    h = determinant(2)
    inst = KlsInstance.build(
        h,
        [h.vec_outer((Fraction(1), Fraction(0))), h.vec_outer((Fraction(1), Fraction(1)))],
        [RADEMACHER, RADEMACHER])
    pt = construction_point(inst)
    eps = 1e-6
    for i in range(inst.n):
        analytic = phi(inst, pt)[i]
        up = math.log(_polynomial_value(inst, _shift(pt, i, eps)))
        down = math.log(_polynomial_value(inst, _shift(pt, i, -eps)))
        numeric = (up - down) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-8)
    del rng


def _phi_differences(inst, i, j, pt, step):
    """Phi^i at pt and its central first and second differences along z_j."""
    minus, center, plus = (phi(inst, _shift(pt, j, dz))[i] for dz in (-step, 0.0, step))
    return center, (plus - minus) / (2 * step), (plus - 2 * center + minus) / step ** 2


def test_phi_sign_checks_scalar():
    # Phi = 2/(4+z) along z_0: value 1, slope -1/2, curvature 1/2 at z = -2.
    inst = _scalar_instance()
    pt = construction_point(inst)
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
    pt = construction_point(inst)
    for i in range(inst.n):
        for j in range(inst.n):
            value, first, second = _phi_differences(inst, i, j, pt, 1e-3)
            tol = 1e-6 * abs(value) + 1e-10
            assert value >= -tol and first <= tol and second >= -tol


def test_verify_bound_chain_scalar_kls():
    report = verify_bound_chain(_scalar_instance())
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
    report = verify_bound_chain(inst)
    assert report.passed
    assert report.sigma == pytest.approx(1.0)


def test_verify_bound_chain_normalizes_sigma_near_one():
    # sigma = 1 + 2e-10 is rescaled like any other sigma, so the chain runs
    # on an instance whose sigma is 1 to within rounding.
    c = 1 + Fraction(1, 5 * 10 ** 9)
    inst = KlsInstance.build(D1, [(c,)], [RADEMACHER])
    assert 1e-10 < inst.sigma - 1.0 < 1e-9
    report = verify_bound_chain(inst)
    assert report.passed
    assert abs(report.sigma - 1.0) <= 4 * sys.float_info.epsilon
    assert report.steps[-1].quantity == pytest.approx(1.0, abs=4 * sys.float_info.epsilon)


def test_verify_bound_chain_ag_toy():
    report = verify_bound_chain(_toy_sr_instance())
    assert report.passed
    eps = 0.5 + 0.5
    final = report.steps[-1]
    assert final.bound == pytest.approx(4 * eps + 2 * eps * eps)
    assert final.quantity == pytest.approx(0.5)  # root of x - 1/2


def test_verify_bound_chain_ag_spanning_trees():
    for graph in (complete_graph(3), diamond_graph()):
        inst = SrInstance.from_graph(graph)
        report = verify_bound_chain(inst)
        assert report.passed


def test_verify_bound_chain_degenerate_sigma():
    inst = KlsInstance.build(
        D1, [(Fraction(1),)],
        [RandomVar((Fraction(1),), (Fraction(1),))])  # variance 0
    with pytest.raises(ChainViolated):
        verify_bound_chain(inst)


def test_report_json_shape():
    report = verify_bound_chain(_scalar_instance())
    blob = report.to_json()
    assert blob["kind"] == "kls"
    assert blob["passed"] is True
    assert all({"step", "quantity", "bound", "margin", "passed"} <= set(s) for s in blob["steps"])
    # Every field is a JSON type, numpy scalars included, in both settings.
    for inst in (_scalar_instance(), gen_kls_det(4, 3, 0, "mixed"),
                 SrInstance.from_graph(named_graph("k4"))):
        report = verify_bound_chain(inst)
        assert all(type(s.passed) is bool for s in report.steps)
        assert json.loads(json.dumps(report.to_json())) == report.to_json()


def _chain_cases():
    for seed in range(5):
        for n, mprime in ((3, 2), (4, 3), (6, 3)):
            yield f"kls-det:{n}:{mprime}:{seed}", gen_kls_det(n, mprime, seed, "mixed")
        for n, m in ((3, 3), (5, 4)):
            yield f"kls-lorentz:{n}:{m}:{seed}", gen_kls_lorentz(n, m, seed, "mixed")
    for name in ("k3", "k4", "diamond"):
        yield f"sr:{name}", SrInstance.from_graph(named_graph(name))


# sha256 of [[step, quantity, bound, margin, passed], ...] per instance; every
# float is compared bit for bit through its repr.  When collapsed_max_root
# became the unscaled root times 1/sigma, its last bit moved on 16 of the
# signed instances, all rescaled (sigma != 1), and only those were
# re-recorded; every other row is as the chain computed it before the signed
# and subset chains shared one step loop.
CHAIN_DIGESTS = {
    "kls-det:3:2:0": "441c3ec67581b1bb629d42cfb1088ff4d85869c81dd264b72fd257ca22970cff",
    "kls-det:4:3:0": "cba329400ed47a9f1823836d8561c0927ddff26721991838f0a6a5764550c7b4",
    "kls-det:6:3:0": "43f9e33283fd97d92038dea23be638412bbe580d941975b338f2985f034cfd03",
    "kls-lorentz:3:3:0": "fce54f64f6a455d2f3c221f5c53640cf0d8d8e6ce7f7f2f51a8f16e8fcb4f983",
    "kls-lorentz:5:4:0": "aab04445edff3229beec1e480fee3e6e9287b97485524ff831b4f0db07b59611",
    "kls-det:3:2:1": "8c27918addb5d25ea74780a5f29d7e3ea7f0dd14190753a0f5fc27f940c2be46",
    "kls-det:4:3:1": "45f3319a786a02cb112d0917392f33a306e61a98b4fbd8a065016b0bd38d189f",
    "kls-det:6:3:1": "e038dbc7003572455dfd29a35bbbc1a5460b2df8b17b7e22174b7f6f632c8490",
    "kls-lorentz:3:3:1": "ca0c7babdcc2aae912ffe2448b6e77fa7ecb6408451fecd32a2a3bded4a93797",
    "kls-lorentz:5:4:1": "74a43c2fc82597b5374d6f97984622af6e4ba97832718b9f7e130891a2fff5e5",
    "kls-det:3:2:2": "2b2b94d795b99f22d2a7311d6b03d29b6592537e3816cfbdae8f07149e4443ff",
    "kls-det:4:3:2": "520639151fa7143975f4ec770b00ff2bc0c1c23bb450f67187f7cd445a3f697f",
    "kls-det:6:3:2": "871a98dc6e8ab8c03e86caecca5d82e76c9367e9e70993008008426462be2e5e",
    "kls-lorentz:3:3:2": "5437192c2e900f99bb81b0d431046f2818b1e707452960c2a05c9d60bd24b7f5",
    "kls-lorentz:5:4:2": "40f577daa8449c155aa5a55b0ba7a50a8c34f5a5ab6310b890efc1323154eaae",
    "kls-det:3:2:3": "5810b2db272c84a198706c28d970301c2dc8a2ada14a4dbe2b2ee2d5245fb122",
    "kls-det:4:3:3": "0e91eeb6d6eda2e188432f8440c07dd52dc62ba1e836b7d7c741e2f419eaa58c",
    "kls-det:6:3:3": "1afa90fcee2673d42d9bd08f24b28dba8d95be61fb57cdb58a568d48fa6ea874",
    "kls-lorentz:3:3:3": "097039fd1c5213a7825cff9a746c138ec784b56c4c93002444ea73c1a7a76556",
    "kls-lorentz:5:4:3": "90ef20fb7192c9d251ad3f3e295603c77a35e2de849423ca26882574d95f71d3",
    "kls-det:3:2:4": "0c336aa19ff9f22c122d75649669a383fe0b4773ad3e8e9bd0fa09120e4f225c",
    "kls-det:4:3:4": "22b857a5111aae8459aa4c9d2eca254f5a7c0ea3a94d41f6202314f680f4d05d",
    "kls-det:6:3:4": "ee9feca2a25802184f4b177692db9c77692f228a7e44d82767f787123a01f40d",
    "kls-lorentz:3:3:4": "8a0d59a6dac21a79762e070e080b75368456d68a1b17f0fec7c4ade7bf52e621",
    "kls-lorentz:5:4:4": "d22ab7f489d1cf83ac45b05046105c300782bbed96066d04a1e41041a468ecc5",
    "sr:k3": "25a4c5ba0ecce10f81b7c5f7f7ad17e27650291430aa7973e8a4ed74479f1696",
    "sr:k4": "c0dda6157b290a3d4008c2ec9b0df435626b1ab9dc74febc129722ca2bfdf6e0",
    "sr:diamond": "4928c29efe70cb39750cfd80f47123b329956b4fecd1cb25871be49f851ba481",
}


def test_chain_steps_are_pinned():
    seen = {}
    for label, inst in _chain_cases():
        rows = [[s.step, s.quantity, s.bound, s.margin, s.passed]
                for s in verify_bound_chain(inst).steps]
        seen[label] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert seen[label] == CHAIN_DIGESTS[label], (label, rows)
    assert seen.keys() == CHAIN_DIGESTS.keys()


def _line_reference(h, base, dirv):
    """t -> h(base + t dirv) alone: Lorentz's closed form and det's route
    along e are restrict_line's; any other line goes through h.value at the
    nodes 0..d, one point at a time, and newton_reference."""
    if isinstance(h, LorentzInstance) or (isinstance(h, DeterminantInstance)
                                          and tuple(dirv) == h.e):
        return h.restrict_line(base, dirv)
    return newton_reference([(t, h.value(tuple(b + t * c for b, c in zip(base, dirv))))
                             for t in range(h.d + 1)])


def _phi_reference(inst, i, pt):
    """Phi^i alone: 2 D_{tau_i v_i} h(w) / h(w) for a signed instance, plus
    d_i g / g summed over the support for a subset instance."""
    signed = isinstance(inst, KlsInstance)
    taus = _taus(inst)
    w = _point_reference(inst, pt)
    coeffs = _line_reference(inst.h, w, tuple(taus[i] * float(c) for c in inst.vectors[i])).coeffs
    dv = float(coeffs[1]) if len(coeffs) > 1 else 0.0
    hval = float(inst.h.value(w))
    if signed:
        return 2.0 * dv / hval
    shifted = [pt.x + z for z in pt.z]
    gval = dg = 0.0
    for elems, prob in pairs(inst.mu):
        prod = float(prob)
        for e in elems:
            prod *= shifted[e]
        gval += prod
        if i in elems:
            rest = float(prob)
            for other in elems:
                if other != i:
                    rest *= shifted[other]
            dg += rest
    return dv / hval + dg / gval


_E2 = {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
_HALF = Fraction(1, 2)
_POINT_MASS = RandomVar((Fraction(-3, 2),), (Fraction(1),))  # variance 0: tau = 0


def _other_kind_cases():
    """The e_2 file's kinds (elem_sym and custom), e_2 with fractional
    coefficients, e_3 on five variables and a det instance, each with a zero
    vector and point-mass variables: tau_i = 0 makes tau_i v_i zeros, of
    both signs where v_i has negative entries (det)."""
    e2 = [(_HALF, 0, 0), (0, _HALF, 0), (0, 0, _HALF), (_HALF, 0, 0), (0, 0, 0)]
    e2_vars = [RADEMACHER] * 4 + [_POINT_MASS]
    for label, h in (("elem_sym:e2", ElemSymInstance(3, 2)),
                     ("custom:e2", RealStableInstance(MultiPoly(3, _E2), (1, 1, 1))),
                     ("custom:half-e2", RealStableInstance(
                         MultiPoly(3, {m: _HALF for m in _E2}), (1, 1, 1)))):
        yield label, KlsInstance.build(h, e2, e2_vars)
    e3 = [tuple(Fraction(k % 4 + 1, 3) if j == k % 5 else 0 for j in range(5)) for k in range(7)]
    yield "elem_sym:e3", KlsInstance.build(ElemSymInstance(5, 3), e3 + [(0,) * 5],
                                           [RADEMACHER] * 5 + [_POINT_MASS] * 3)
    h = determinant(3)
    us = [(1, 0, 0), (1, -1, 0), (0, 2, 1), (1, 1, -1), (0, 0, 0)]
    yield "det:zero-and-point-mass", KlsInstance.build(
        h, [h.vec_outer(tuple(map(Fraction, u))) for u in us],
        [RADEMACHER, _POINT_MASS, RADEMACHER, _POINT_MASS, RADEMACHER])


def _phi_cases():
    yield from _chain_cases()
    yield from _other_kind_cases()


def _float_vector_cases():
    """Instances built with float vectors: tau_i and sigma take each float
    as the rational it is."""
    for inst in (gen_kls_det(4, 3, 0, "mixed"), gen_kls_lorentz(5, 4, 1, "mixed")):
        vectors = [tuple(float(c) for c in v) for v in inst.vectors]
        yield f"{inst.h.kind}:float", KlsInstance.build(inst.h, vectors, inst.variables)


def test_float_vectors_give_the_variance_mix_of_their_rationals(monkeypatch):
    # The float-vector instance hands spectrum the Fractions of the same
    # instance built from Fraction(x) of every entry.
    handed = []
    real = mixedchar.spectrum
    monkeypatch.setattr(mixedchar, "spectrum", lambda h, x: handed.append(x) or real(h, x))
    for label, inst in _float_vector_cases():
        exact = KlsInstance.build(inst.h, as_rationals(inst.vectors), inst.variables)
        handed.clear()
        inst.variance_mix
        exact.variance_mix
        assert len(handed) == 2 and handed[0] == handed[1], label
        assert all(type(c) is Fraction for c in handed[0]), label
        assert inst.tau_squares == exact.tau_squares, label
        assert float.hex(inst.sigma) == float.hex(exact.sigma), label


def test_chain_sums_the_rescaled_variance_mix_in_binary64(monkeypatch):
    # The chain's 1/sigma copy holds float vectors.  The chain sums that
    # copy's mix itself, over its float traces from one stacked
    # restriction, coordinate by coordinate from 0.0, and hands spectrum the
    # bits of that sum; the norm step and the report's sigma read its norm.
    handed = []
    real = barrier.spectrum
    monkeypatch.setattr(barrier, "spectrum", lambda h, x: handed.append(x) or real(h, x))
    checked = 0
    for label, inst in itertools.chain(_phi_cases(), _float_vector_cases()):
        if not isinstance(inst, KlsInstance):
            continue
        scaled = inst.scaled(1.0 / inst.sigma)
        traces = [trace_reference(scaled.h, v) for v in scaled.vectors]
        assert [float.hex(t) for t in scaled.traces] == [float.hex(t) for t in traces], label
        want = mix_reference(scaled, traces)
        handed.clear()
        report = verify_bound_chain(inst)
        assert [list(map(float.hex, x)) for x in handed] == [list(map(float.hex, want))], label
        norm = float(real(scaled.h, want).norm)
        assert report.steps[0].step == "variance_mix_norm", label
        assert float.hex(report.steps[0].quantity) == float.hex(norm), label
        assert float.hex(report.sigma) == float.hex(math.sqrt(max(norm, 0.0))), label
        checked += 1
    assert checked > 25


def test_phi_equals_the_per_index_reference_bit_for_bit():
    rng = random.Random(29)
    for label, inst in itertools.chain(_phi_cases(), _float_vector_cases()):
        if isinstance(inst, KlsInstance):
            inst = inst.scaled(1.0 / inst.sigma)  # as the chain evaluates it
        pt = construction_point(inst)
        shifts = [BarrierPoint(pt.x + rng.uniform(0, 2),
                               tuple(z + rng.uniform(0, 2) for z in pt.z), pt.t) for _ in range(3)]
        for at in [pt] + shifts:
            got = phi(inst, at)
            assert len(got) == inst.n, label
            for i, value in enumerate(got):
                assert value.hex() == _phi_reference(inst, i, at).hex(), (label, i, at)


def test_chain_builds_its_point_once_for_every_phi(monkeypatch):
    # One stacked build holds every probe's w, and phi builds its point once
    # for all n indices.
    built = []
    points = barrier._points
    monkeypatch.setattr(barrier, "_points",
                        lambda inst, pts: built.append(len(pts)) or points(inst, pts))
    for label, inst in _chain_cases():
        built.clear()
        verify_bound_chain(inst)
        assert built == [ABOVE_ROOTS_PROBES + 1, 1], (label, inst.n, built)


def test_each_chain_takes_phi_from_one_evaluation_and_one_interpolation(monkeypatch):
    # Inside phi, a kind that interpolates evaluates every node of every
    # line in one h.values call and interpolates them in one call; Lorentz
    # takes its closed form and neither.
    in_phi, calls = [], []

    def recorded(name, real):
        def call(*args):
            if in_phi:
                calls.append((name, len(args[-1])))
            return real(*args)
        return call

    for cls in (HyperbolicInstance, DeterminantInstance, LorentzInstance):
        monkeypatch.setattr(cls, "values", recorded("values", cls.values))
    monkeypatch.setattr(hyperbolic, "interpolate", recorded("interpolate", hyperbolic.interpolate))
    real_phi = barrier.phi

    def phi_span(inst, pt):
        in_phi.append(True)
        try:
            return real_phi(inst, pt)
        finally:
            in_phi.clear()

    monkeypatch.setattr(barrier, "phi", phi_span)
    for label, inst in _phi_cases():
        calls.clear()
        verify_bound_chain(inst)
        n, d = inst.n, inst.h.d
        want = [] if isinstance(inst.h, LorentzInstance) else \
            [("values", n * (d + 1)), ("interpolate", n)]
        assert calls == want, label


def _probes(pt: BarrierPoint) -> list:
    """pt and the ABOVE_ROOTS_PROBES seeded offsets above_roots draws."""
    span = max(1.0, abs(pt.x))
    probes = [pt]
    for trial in range(1, ABOVE_ROOTS_PROBES + 1):
        rng = random.Random(f"above:0:{trial}")
        z = tuple(zc + rng.uniform(0, span) for zc in pt.z)
        probes.append(BarrierPoint(pt.x + rng.uniform(0, span), z, pt.t))
    return probes


def _above_roots_reference(inst, pt: BarrierPoint) -> int:
    """The probes' failures, one point and one h.value at a time."""
    failures = 0
    for probe in _probes(pt):
        if isinstance(inst, KlsInstance):
            value = float(inst.h.value(_point_reference(inst, probe)))
        else:
            value = _polynomial_value(inst, probe)
        failures += not value > 0
    return failures


def _more_sr_cases():
    for name in ("c4", "c5", "k5", "diamond"):
        yield f"sr:{name}", SrInstance.from_graph(named_graph(name))
    yield "sr:random:7:9:0", SrInstance.from_graph(random_connected_graph(7, 9, 0))
    for name in ("k4", "diamond"):
        yield f"sr-exact:{name}", SrInstance.from_graph(named_graph(name), exact=True)


def test_above_roots_equals_the_per_probe_reference():
    counts = []
    for label, inst in itertools.chain(_chain_cases(), _more_sr_cases()):
        if isinstance(inst, KlsInstance):
            inst = inst.scaled(1.0 / inst.sigma)  # as the chain evaluates it
        pt = construction_point(inst)
        # The point, and points at or below the roots, where probes fail.
        for x in (pt.x, 0.5 * pt.t, 0.0, -pt.x):
            at = BarrierPoint(x, pt.z, pt.t)
            probes = _probes(at)
            stack = barrier._points(inst, probes)
            assert [list(map(float.hex, row)) for row in stack.tolist()] == \
                [list(map(float.hex, _point_reference(inst, probe))) for probe in probes]
            assert [float.hex(v) for v in inst.h.values(stack)] == \
                [float.hex(float(inst.h.value(tuple(row)))) for row in stack.tolist()]
            count = above_roots(inst, at)
            assert count == _above_roots_reference(inst, at), (label, x)
            counts.append(count)
    assert 0 in counts and max(counts) >= ABOVE_ROOTS_PROBES  # both verdicts are checked


def test_subset_phi_equals_the_per_index_reference_on_more_graphs():
    rng = random.Random(31)
    for label, inst in _more_sr_cases():
        pt = construction_point(inst)
        shifts = [BarrierPoint(pt.x + rng.uniform(0, 2),
                               tuple(z + rng.uniform(0, 2) for z in pt.z), pt.t) for _ in range(2)]
        for at in [pt] + shifts:
            got = phi(inst, at)
            assert [v.hex() for v in got] == \
                [_phi_reference(inst, i, at).hex() for i in range(inst.n)], label


def _zphi(p, i, pt):
    """Phi^i of an explicit polynomial in (x, z_1..z_n) at pt."""
    at = (pt.x,) + pt.z
    return partial(p, i + 1).eval(at) / p.eval(at)


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
        pt = construction_point(inst)
        zp = kls_square_zpoly(inst)  # variable 0 is x, variable i + 1 is z_i
        taus = _taus(inst)
        for i in range(inst.n):
            delta_i = pt.t * taus[i] * float(inst.traces[i])
            if delta_i <= 1e-12:
                continue
            phi_i = _zphi(zp, i, pt)
            if phi_i / delta_i + phi_i * phi_i / 2 > 1:
                continue  # update condition fails; lemma silent
            updated = one_minus_c_d2(zp, i + 1, Fraction(1, 2))
            shifted = _shift(pt, i, delta_i)
            for j in range(inst.n):
                before = _zphi(zp, j, pt)
                after = _zphi(updated, j, shifted)
                assert after <= before + 1e-8


def test_zpoly_matches_direct_value():
    inst = _scalar_instance(2)
    zp = kls_square_zpoly(inst)
    pt = BarrierPoint(3.0, (-0.5, -0.25), 1.0)
    direct = _polynomial_value(inst, pt)
    assert zp.eval((pt.x,) + pt.z) == pytest.approx(direct)
    # Phi read off the explicit polynomial equals barrier.phi.
    for inst in (inst, gen_kls_det(3, 2, 0, "mixed"), gen_kls_lorentz(3, 3, 0, "mixed")):
        inst = inst.scaled(1.0 / inst.sigma)
        pt = construction_point(inst)
        zp = kls_square_zpoly(inst)
        assert zp.eval((pt.x,) + pt.z) == pytest.approx(_polynomial_value(inst, pt))
        for i, value in enumerate(phi(inst, pt)):
            assert _zphi(zp, i, pt) == pytest.approx(value, rel=1e-9, abs=1e-12)
