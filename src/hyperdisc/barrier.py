"""Barrier functions and the root-bound certificate chain.

For a multivariate polynomial P and a point above all of its roots, the
barrier function in direction i is Phi^i = (d/dz_i P) / P.  The chain
verified here mirrors the root-bound argument driving both discrepancy
theorems:

* signed instances, normalized so sigma = 1: at the point (alpha, -delta)
  with alpha = 2t = 4 and delta_i = t tau_i tr[v_i], each Phi^i is bounded
  by 2 tau_i tr[v_i] / (alpha - t), the two operator-update conditions
  Phi < sqrt(2) and (1/delta_i) Phi + Phi^2/2 <= 1 hold, and the collapsed
  univariate polynomial has no root above 4;

* subset instances with eps = eps1 + eps2: at (alpha, -t 1) with
  alpha = 2t = sqrt(4 eps + 2 eps^2), each Phi^i is bounded by
  eps / (alpha - t), the same two conditions hold, and the mixed
  characteristic polynomial has no root above 4 eps + 2 eps^2.

Phi is evaluated analytically from directional derivatives (never by
differentiating an expanded multivariate polynomial).  The explicit
polynomial P in (x, z) is only materialized, as a realstable.MultiPoly
(kls_square_zpoly), for the operator-update regression test, where
(1 - 1/2 d^2/dz_i^2) must be applied literally (realstable.one_minus_c_d2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ChainViolated, NotAboveRoots
from .hyperbolic import spectrum
from .mixedchar import (
    KlsInstance,
    SrInstance,
    ag_node_poly,
    kls_operator_form,
    linear_restriction_multipoly,
)
from .realstable import MultiPoly
from .scalars import CHAIN_STEP_TOL, POINT_MATCH_TOL, SIGMA_ONE_TOL, SQRT2_STEP_TOL, VARIANCE_MIX_TOL
from .unipoly import max_real_root

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BarrierPoint:
    """Evaluation point (x, z) plus the construction parameter t."""

    x: float
    z: tuple
    t: float

    def shift(self, i: int, amount: float) -> "BarrierPoint":
        z = list(self.z)
        z[i] += amount
        return BarrierPoint(self.x, tuple(z), self.t)


def _taus(inst: KlsInstance) -> list:
    return [math.sqrt(float(var.variance)) for var in inst.variables]


def construction_point(inst, kind: str) -> BarrierPoint:
    """The canonical above-roots point each chain is evaluated at."""
    if kind == "kls":
        t = 2.0
        taus = _taus(inst)
        delta = [t * tau * float(tr) for tau, tr in zip(taus, inst.traces)]
        return BarrierPoint(4.0, tuple(-d for d in delta), t)
    if kind == "ag":
        eps = inst.eps1 + inst.eps2
        alpha = math.sqrt(4 * eps + 2 * eps * eps)
        t = alpha / 2
        return BarrierPoint(alpha, (-t,) * inst.n, t)
    raise ValueError("kind must be 'kls' or 'ag'")


def _kls_point_vector(inst: KlsInstance, pt: BarrierPoint) -> tuple:
    taus = _taus(inst)
    w = [pt.x * float(c) for c in inst.h.e]
    for z, tau, v in zip(pt.z, taus, inst.vectors):
        for idx in range(inst.h.m):
            w[idx] += z * tau * float(v[idx])
    return tuple(w)


def _ag_point_vector(inst: SrInstance, pt: BarrierPoint) -> tuple:
    w = [pt.x * float(c) for c in inst.h.e]
    for z, v in zip(pt.z, inst.vectors):
        for idx in range(inst.h.m):
            w[idx] += z * float(v[idx])
    return tuple(w)


def _ag_gen_value_and_partials(inst: SrInstance, pt: BarrierPoint):
    """g(x 1 + z) and its partial derivatives at the point, by support sums."""
    shifted = [pt.x + z for z in pt.z]
    value = 0.0
    partials = [0.0] * inst.n
    for elems, prob in inst.mu.support:
        prod = float(prob)
        for e in elems:
            prod *= shifted[e]
        value += prod
        for e in elems:
            rest = float(prob)
            for other in elems:
                if other != e:
                    rest *= shifted[other]
            partials[e] += rest
    return value, partials


def polynomial_value(inst, kind: str, pt: BarrierPoint) -> float:
    """P at (x, z): squared restriction for kls, restriction times g for ag."""
    if kind == "kls":
        hval = float(inst.h.value(_kls_point_vector(inst, pt)))
        return hval * hval
    hval = float(inst.h.value(_ag_point_vector(inst, pt)))
    gval, _ = _ag_gen_value_and_partials(inst, pt)
    return hval * gval


def _probe_value(inst, kind: str, pt: BarrierPoint) -> float:
    """Signed probe: the square in the kls P hides sign crossings, so the
    positivity probes look at the underlying restriction factor instead."""
    if kind == "kls":
        return float(inst.h.value(_kls_point_vector(inst, pt)))
    return polynomial_value(inst, kind, pt)


@dataclass(frozen=True)
class AboveRootsVerdict:
    above: bool
    structured_margin: float | None
    probe_failures: int
    probes: int

    def __bool__(self) -> bool:
        return self.above


def above_roots(inst, kind: str, pt: BarrierPoint, probes: int = 24,
                seed: int = 0) -> AboveRootsVerdict:
    """Check that pt lies above all roots of P.

    Uses the structured criterion at canonical points (alpha - t lambda_1 of
    the variance mix > 0 for kls; alpha > t for ag) plus seeded positivity
    probes P(pt + r) > 0 over nonnegative offsets r.
    """
    structured: float | None = None
    if kind == "kls":
        taus = _taus(inst)
        delta = [pt.t * tau * float(tr) for tau, tr in zip(taus, inst.traces)]
        if all(abs(z + d) <= POINT_MATCH_TOL * max(1.0, abs(d)) for z, d in zip(pt.z, delta)):
            mix = [0.0] * inst.h.m
            for var, tr, v in zip(inst.variables, inst.traces, inst.vectors):
                weight = float(var.variance) * float(tr)
                for idx in range(inst.h.m):
                    mix[idx] += weight * float(v[idx])
            lam1 = spectrum(inst.h, tuple(mix)).eigenvalues[0]
            structured = pt.x - pt.t * lam1
    else:
        if all(abs(z + pt.t) <= POINT_MATCH_TOL * max(1.0, pt.t) for z in pt.z):
            structured = pt.x - pt.t
    if structured is not None and structured <= 0:
        return AboveRootsVerdict(False, float(structured), 0, 0)

    span = max(1.0, abs(pt.x))
    failures = 0
    for trial in range(probes + 1):
        if trial == 0:
            offset = BarrierPoint(pt.x, pt.z, pt.t)
        else:
            rng = random.Random(f"above:{seed}:{trial}")
            z = tuple(zc + rng.uniform(0, span) for zc in pt.z)
            offset = BarrierPoint(pt.x + rng.uniform(0, span), z, pt.t)
        if not _probe_value(inst, kind, offset) > 0:
            failures += 1
    above = failures == 0 and (structured is None or structured > 0)
    return AboveRootsVerdict(bool(above),
                             None if structured is None else float(structured),
                             failures, probes + 1)


def _directional_derivative(h, x, v):
    """(D_v h)(x): the degree-1 coefficient of the restriction t -> h(x + t v)."""
    coeffs = h.restrict_line(x, v).coeffs
    return coeffs[1] if len(coeffs) > 1 else 0


def phi(inst, kind: str, i: int, pt: BarrierPoint, check: bool = True) -> float:
    """Barrier function Phi^i at pt, from directional derivatives.

    kls: 2 D_{tau_i v_i} h(w) / h(w) at w = x e + sum z_j tau_j v_j;
    ag:  D_{v_i} h(w) / h(w) + (d_i g / g)(x 1 + z).
    """
    if check and not above_roots(inst, kind, pt, probes=8):
        raise NotAboveRoots(f"point {pt!r} is not above the roots")
    if kind == "kls":
        taus = _taus(inst)
        w = _kls_point_vector(inst, pt)
        direction = tuple(taus[i] * float(c) for c in inst.vectors[i])
        dv = _directional_derivative(inst.h, w, direction)
        return 2.0 * float(dv) / float(inst.h.value(w))
    w = _ag_point_vector(inst, pt)
    dv = _directional_derivative(inst.h, w, tuple(float(c) for c in inst.vectors[i]))
    hterm = float(dv) / float(inst.h.value(w))
    gval, gparts = _ag_gen_value_and_partials(inst, pt)
    return hterm + gparts[i] / gval


# ---------------------------------------------------------------------------
# The certificate chain.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    step: str
    quantity: float
    bound: float
    margin: float
    passed: bool

    def to_json(self) -> dict:
        return {"step": self.step, "quantity": self.quantity, "bound": self.bound,
                "margin": self.margin, "passed": self.passed}


@dataclass(frozen=True)
class ChainReport:
    kind: str
    steps: tuple
    passed: bool
    sigma: float | None = None
    eps: float | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "passed": self.passed,
               "steps": [s.to_json() for s in self.steps]}
        if self.sigma is not None:
            out["sigma"] = self.sigma
        if self.eps is not None:
            out["eps"] = self.eps
        return out


def _step(name: str, quantity: float, bound: float, tol: float) -> ChainStep:
    margin = bound - quantity
    return ChainStep(name, float(quantity), float(bound), float(margin),
                     quantity <= bound + tol)


def verify_bound_chain(inst, kind: str) -> ChainReport:
    """Numerically verify the barrier chain (a)-(c) for an instance.

    Precondition violations (degenerate sigma or eps, variance mix not below
    the direction) raise ChainViolated; genuine inequality failures land in
    the report with passed=False.
    """
    if kind == "kls":
        return _verify_kls_chain(inst)
    if kind == "ag":
        return _verify_ag_chain(inst)
    raise ValueError("kind must be 'kls' or 'ag'")


def _verify_kls_chain(inst: KlsInstance) -> ChainReport:
    if not inst.sigma > 0:
        raise ChainViolated("sigma_positive", "all variance-trace weights vanish")
    if abs(inst.sigma - 1.0) > SIGMA_ONE_TOL:
        inst = inst.scaled(1.0 / inst.sigma)
    steps = []
    mix_norm = inst.sigma2
    if mix_norm > 1.0 + VARIANCE_MIX_TOL:
        raise ChainViolated("variance_mix_below_direction",
                            f"||sum tau^2 tr v||_h = {mix_norm}")
    steps.append(_step("variance_mix_norm", mix_norm, 1.0, VARIANCE_MIX_TOL))
    pt = construction_point(inst, "kls")
    verdict = above_roots(inst, "kls", pt, probes=16)
    steps.append(ChainStep("above_roots", float(verdict.probe_failures), 0.0,
                           float(verdict.structured_margin or 0.0), bool(verdict)))
    taus = _taus(inst)
    alpha_minus_t = pt.x - pt.t
    for i in range(inst.n):
        delta_i = pt.t * taus[i] * float(inst.traces[i])
        if delta_i <= 0:
            continue  # variable contributes no operator update
        value = phi(inst, "kls", i, pt, check=False)
        bound = 2 * taus[i] * float(inst.traces[i]) / alpha_minus_t
        steps.append(_step(f"phi_bound[{i}]", value, bound, CHAIN_STEP_TOL))
        steps.append(_step(f"phi_below_sqrt2[{i}]", value, SQRT2, SQRT2_STEP_TOL))
        steps.append(_step(f"update_condition[{i}]",
                           value / delta_i + value * value / 2, 1.0, CHAIN_STEP_TOL))
    collapsed = kls_operator_form(inst).to_float()
    top = max_real_root(collapsed)
    steps.append(_step("collapsed_max_root", top, 4.0, CHAIN_STEP_TOL))
    return ChainReport("kls", tuple(steps), all(s.passed for s in steps),
                       sigma=inst.sigma)


def _verify_ag_chain(inst: SrInstance) -> ChainReport:
    eps = inst.eps1 + inst.eps2
    if not eps > 0:
        raise ChainViolated("eps_positive", "eps1 + eps2 must be positive")
    steps = []
    pt = construction_point(inst, "ag")
    verdict = above_roots(inst, "ag", pt, probes=16)
    steps.append(ChainStep("above_roots", float(verdict.probe_failures), 0.0,
                           float(verdict.structured_margin or 0.0), bool(verdict)))
    alpha_minus_t = pt.x - pt.t
    for i in range(inst.n):
        value = phi(inst, "ag", i, pt, check=False)
        steps.append(_step(f"phi_bound[{i}]", value, eps / alpha_minus_t, CHAIN_STEP_TOL))
        steps.append(_step(f"phi_below_sqrt2[{i}]", value, SQRT2, SQRT2_STEP_TOL))
        steps.append(_step(f"update_condition[{i}]",
                           value / pt.t + value * value / 2, 1.0, CHAIN_STEP_TOL))
    mixed = ag_node_poly(inst).to_float()
    top = max_real_root(mixed)
    steps.append(_step("mixed_char_max_root", top, 4 * eps + 2 * eps * eps, CHAIN_STEP_TOL))
    return ChainReport("ag", tuple(steps), all(s.passed for s in steps), eps=eps)


# ---------------------------------------------------------------------------
# Explicit polynomial route, used to regression-test the operator update.
# ---------------------------------------------------------------------------

def kls_square_zpoly(inst: KlsInstance) -> MultiPoly:
    """(h(xe + sum z_i tau_i v_i))^2 as a MultiPoly in (x, z_1..z_n).

    Variable 0 is x and variable i + 1 is z_i, so the operator update is
    one_minus_c_d2(p, i + 1, 1/2) and Phi^i at pt is
    p.partial(i + 1).eval(v) / p.eval(v) with v = (pt.x,) + pt.z.
    """
    taus = _taus(inst)
    scaled = [tuple(t * float(c) for c in v) for t, v in zip(taus, inst.vectors)]
    p = linear_restriction_multipoly(inst.h, scaled)
    return p * p
