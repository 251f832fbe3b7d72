"""Barrier functions and the root-bound certificate chain.

For a multivariate polynomial P and a point above all of its roots, the
barrier function in direction i is Phi^i = (d/dz_i P) / P.  The chain
verified here mirrors the root-bound argument driving both discrepancy
theorems:

* signed instances, normalized so sigma = 1: at the point (alpha, -delta)
  with alpha = 2t = 4 and delta_i = t tau_i tr[v_i], each Phi^i is bounded
  by 2 tau_i tr[v_i] / (alpha - t), the two operator-update conditions
  Phi < sqrt(2) and (1/delta_i) Phi + Phi^2/2 <= 1 hold, and the collapsed
  univariate polynomial has no root above 4 (see below);

* subset instances with eps = eps1 + eps2: at (alpha, -t 1) with
  alpha = 2t = sqrt(4 eps + 2 eps^2), each Phi^i is bounded by
  eps / (alpha - t), the same two conditions hold, and the mixed
  characteristic polynomial has no root above 4 eps + 2 eps^2.

The instance's type alone picks the setting (a KlsInstance is signed,
anything else is a subset instance).  Both share the point w = x e +
sum z_i tau_i v_i, with tau_i = 1 for subset elements, and one step loop
over (delta_i, Phi^i bound).  The above_roots step records the failures of
seeded positivity probes of P above the point as its quantity and the
structured margin (alpha - t lambda_1 of the variance mix for signed,
alpha - t for subset instances) as its margin.

Every signed instance is normalized by scaling every vector by
c = 1/sigma, sigma = 1 included, but its collapsed polynomial is never
rebuilt.  Scaling the vectors by c scales each A_S(x) = (prod_{i in S}
D_{v_i}) h(xe) = a_S x^(d-|S|) by c^|S|, so the collapse
sum_S (-1)^|S| tau_S^2 A_S^2 becomes P_c(x) = c^(2d) P_1(x/c), and its
largest root is exactly c times that of P_1.  The chain therefore takes the
largest root of the unscaled instance's exact root polynomial
(mixedchar.kls_table_node_poly, read off the coefficient table that loading
builds) and multiplies it by 1/sigma once; Phi, the probes and the variance
mix are evaluated on the scaled instance, whose variance_mix spectrum gives
both the norm step and lambda_1.

The chain evaluates its point once: phi returns every Phi^i from one w,
one h(w), one set of tau_i and (subset) one g with its gradient, each Phi^i
adding only its directional derivative of h; the probes read P's value
alone.  Phi is never taken by differentiating an expanded multivariate
polynomial.  The explicit polynomial P in (x, z) is only materialized, as a
realstable.MultiPoly (kls_square_zpoly), for the operator-update regression
test, where (1 - 1/2 d^2/dz_i^2) must be applied literally
(realstable.one_minus_c_d2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ChainViolated
from .mixedchar import (
    KlsInstance,
    SrInstance,
    ag_node_poly,
    kls_table_node_poly,
    linear_restriction_multipoly,
)
from .realstable import MultiPoly
from .scalars import CHAIN_STEP_TOL, SQRT2_STEP_TOL, VARIANCE_MIX_TOL
from .unipoly import max_real_root

SQRT2 = math.sqrt(2.0)
ABOVE_ROOTS_PROBES = 16  # seeded offsets above_roots probes, besides the point itself


@dataclass(frozen=True)
class BarrierPoint:
    """Evaluation point (x, z) plus the construction parameter t."""

    x: float
    z: tuple
    t: float


def _taus(inst) -> list:
    """tau_i = sqrt(Var x_i) for a signed instance, 1.0 for every subset element."""
    if isinstance(inst, KlsInstance):
        return [math.sqrt(float(var.variance)) for var in inst.variables]
    return [1.0] * inst.n


def construction_point(inst) -> BarrierPoint:
    """The canonical above-roots point each chain is evaluated at."""
    if isinstance(inst, KlsInstance):
        t = 2.0
        delta = [t * tau * float(tr) for tau, tr in zip(_taus(inst), inst.traces)]
        return BarrierPoint(4.0, tuple(-d for d in delta), t)
    eps = inst.eps1 + inst.eps2
    alpha = math.sqrt(4 * eps + 2 * eps * eps)
    t = alpha / 2
    return BarrierPoint(alpha, (-t,) * inst.n, t)


def _point_vector(inst, pt: BarrierPoint) -> tuple:
    """w = x e + sum_i z_i tau_i v_i."""
    w = [pt.x * float(c) for c in inst.h.e]
    for z, tau, v in zip(pt.z, _taus(inst), inst.vectors):
        for idx in range(inst.h.m):
            w[idx] += z * tau * float(v[idx])
    return tuple(w)


def _ag_gen_value(inst: SrInstance, shifted) -> float:
    """g at the point shifted = x 1 + z, by a support sum."""
    value = 0.0
    for elems, prob in inst.mu.support:
        value += math.prod((shifted[e] for e in elems), start=float(prob))
    return value


def polynomial_value(inst, pt: BarrierPoint) -> float:
    """P at (x, z): the squared restriction for a signed instance, the
    restriction times g for a subset instance."""
    hval = float(inst.h.value(_point_vector(inst, pt)))
    if isinstance(inst, KlsInstance):
        return hval * hval
    return hval * _ag_gen_value(inst, [pt.x + z for z in pt.z])


def above_roots(inst, pt: BarrierPoint) -> int:
    """Positivity probes of P at pt + r over nonnegative offsets r.

    Probes pt itself and ABOVE_ROOTS_PROBES seeded offsets, and returns how
    many of them are not positive; 0 is evidence that pt lies above all
    roots of P, anything else refutes it.  A signed probe reads the
    restriction h(w) itself: the square in the signed P hides sign crossings.
    """
    span = max(1.0, abs(pt.x))
    failures = 0
    for trial in range(ABOVE_ROOTS_PROBES + 1):
        probe = pt
        if trial:
            rng = random.Random(f"above:0:{trial}")
            z = tuple(zc + rng.uniform(0, span) for zc in pt.z)
            probe = BarrierPoint(pt.x + rng.uniform(0, span), z, pt.t)
        if isinstance(inst, KlsInstance):
            value = float(inst.h.value(_point_vector(inst, probe)))
        else:
            value = polynomial_value(inst, probe)
        if not value > 0:
            failures += 1
    return failures


def phi(inst, pt: BarrierPoint) -> tuple:
    """Every Phi^i at pt, in index order, from one evaluation of the point:

    signed: 2 D_{tau_i v_i} h(w) / h(w);
    subset: D_{v_i} h(w) / h(w) + (d_i g / g)(x 1 + z);
    at w = x e + sum z_j tau_j v_j, where D_u h(w) is the degree-1
    coefficient of t -> h(w + t u).  Phi is meaningful only above the roots
    of P (see above_roots); it is not checked here.
    """
    w = _point_vector(inst, pt)
    hval = float(inst.h.value(w))
    dvs = []
    for tau, v in zip(_taus(inst), inst.vectors):
        coeffs = inst.h.restrict_line(w, tuple(tau * float(c) for c in v)).coeffs
        dvs.append(float(coeffs[1] if len(coeffs) > 1 else 0))
    if isinstance(inst, KlsInstance):
        return tuple(2.0 * dv / hval for dv in dvs)
    shifted = [pt.x + z for z in pt.z]
    gval = _ag_gen_value(inst, shifted)
    grad = [0.0] * inst.n
    for elems, prob in inst.mu.support:
        for e in elems:
            grad[e] += math.prod((shifted[o] for o in elems if o != e), start=float(prob))
    return tuple(dv / hval + dg / gval for dv, dg in zip(dvs, grad))


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
                     bool(quantity <= bound + tol))


def verify_bound_chain(inst) -> ChainReport:
    """Numerically verify the barrier chain (a)-(c) for an instance.

    Precondition violations (degenerate sigma or eps, variance mix not below
    the direction) raise ChainViolated; genuine inequality failures land in
    the report with passed=False.  A signed instance must hold exact
    (rational) vectors, as every loaded file does: its collapsed root is read
    off its coefficient table.
    """
    signed = isinstance(inst, KlsInstance)
    steps = []
    if signed:
        if not inst.sigma > 0:
            raise ChainViolated("sigma_positive", "all variance-trace weights vanish")
        root = kls_table_node_poly(inst)
        root_scale = 1.0 / inst.sigma
        inst = inst.scaled(root_scale)
        mix_norm = inst.sigma2
        if mix_norm > 1.0 + VARIANCE_MIX_TOL:
            raise ChainViolated("variance_mix_below_direction",
                                f"||sum tau^2 tr v||_h = {mix_norm}")
        steps.append(_step("variance_mix_norm", mix_norm, 1.0, VARIANCE_MIX_TOL))
        pt = construction_point(inst)
        margin = pt.x - pt.t * inst.variance_mix.eigenvalues[0]
        bounds = [2 * tau * float(tr) / (pt.x - pt.t) for tau, tr in zip(_taus(inst), inst.traces)]
    else:
        eps = inst.eps1 + inst.eps2
        if not eps > 0:
            raise ChainViolated("eps_positive", "eps1 + eps2 must be positive")
        pt = construction_point(inst)
        margin = pt.x - pt.t
        bounds = [eps / (pt.x - pt.t)] * inst.n
    failures = above_roots(inst, pt)
    steps.append(ChainStep("above_roots", float(failures), 0.0, float(margin),
                           bool(failures == 0 and margin > 0)))
    # The point sits at z_i = -delta_i, delta_i being the shift the operator
    # update (1 - 1/2 d^2/dz_i^2) moves z_i by.
    for i, (z_i, bound, value) in enumerate(zip(pt.z, bounds, phi(inst, pt))):
        delta_i = -z_i
        if delta_i <= 0:
            continue  # variable contributes no operator update
        steps.append(_step(f"phi_bound[{i}]", value, bound, CHAIN_STEP_TOL))
        steps.append(_step(f"phi_below_sqrt2[{i}]", value, SQRT2, SQRT2_STEP_TOL))
        steps.append(_step(f"update_condition[{i}]",
                           value / delta_i + value * value / 2, 1.0, CHAIN_STEP_TOL))
    if signed:
        top = max_real_root(root.to_float()) * root_scale
        steps.append(_step("collapsed_max_root", top, 4.0, CHAIN_STEP_TOL))
        return ChainReport("kls", tuple(steps), all(s.passed for s in steps), sigma=inst.sigma)
    top = max_real_root(ag_node_poly(inst).to_float())
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
