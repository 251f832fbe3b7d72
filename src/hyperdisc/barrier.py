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
(mixedchar.kls_node_poly, read off the coefficient table that loading
builds, or that this first call builds) and multiplies it by 1/sigma once.
sigma does not read the table: its variance mix is summed over ints from
one stacked int restriction of the vectors (KlsInstance.variance_mix).
Phi, the probes and the variance mix are evaluated on the scaled instance,
whose float traces come from one stacked restriction and whose
variance_mix spectrum gives both the norm step and lambda_1.

The chain builds each point once, in float stacks that keep the bits of
one point at a time: the probes' w in one stack (_points), evaluated by one
h.values call (one stacked determinant for det, columns summed for
Lorentz), with g over every probe from the support's sets; phi's w alone,
one h(w), one set of tau_i and (subset) one g with its gradient from the
same sets.  Each Phi^i adds only its directional derivative of h, the
degree-1 coefficient of the line t -> h(w + t tau_i v_i), and one
h.restrict_lines call gives every line: Lorentz's closed form per line,
and for the kinds that interpolate, all n (d + 1) nodes in one h.values
call and one stacked interpolate, which gives each line the bits of its
own.  tau_i comes from the variables' int data (KlsInstance.tau_squares).
Each stacked kernel adds in the per-point order: vectors in index order,
set products in element order, and set terms in support order.  Phi is
never taken by differentiating an expanded multivariate polynomial.  The
explicit polynomial P in (x, z), to which the operator update
(1 - 1/2 d^2/dz_i^2) applies literally, is built only by the test suite
(tests/multipoly_helpers.py), which ties its values and barriers to phi.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ChainViolated, TooLarge
from .mixedchar import (
    KlsInstance,
    SrInstance,
    ag_node_poly,
    kls_node_poly,
)
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
    """tau_i = sqrt(Var x_i) for a signed instance (KlsInstance.tau_squares),
    1.0 for every subset element."""
    if isinstance(inst, KlsInstance):
        return [math.sqrt(float(tau2)) for tau2 in inst.tau_squares]
    return [1.0] * inst.n


def construction_point(inst) -> BarrierPoint:
    """The canonical above-roots point each chain is evaluated at.  A shift
    t tau_i tr[v_i], or an alpha from eps = eps1 + eps2, past the binary64
    range raises TooLarge before any point is built from it."""
    if isinstance(inst, KlsInstance):
        t = 2.0
        delta = [t * tau * float(tr) for tau, tr in zip(_taus(inst), inst.traces)]
        if not all(map(math.isfinite, delta)):
            raise TooLarge("a trace t tau_i tr[v_i] is not a finite binary64 value")
        return BarrierPoint(4.0, tuple(-d for d in delta), t)
    eps = inst.eps1 + inst.eps2
    alpha = math.sqrt(4 * eps + 2 * eps * eps)
    if not math.isfinite(alpha):
        raise TooLarge(f"the barrier point sqrt(4 eps + 2 eps^2) at eps = eps1 + eps2 = {eps} "
                       "is not a finite binary64 value")
    t = alpha / 2
    return BarrierPoint(alpha, (-t,) * inst.n, t)


def _points(inst, pts) -> np.ndarray:
    """w = x e + sum_i z_i tau_i v_i for each point, one float row per point:
    x e first, then the vectors added in index order, each as the products
    (z_i tau_i) v_i, so every row holds the bits of a per-point sum."""
    x = np.array([pt.x for pt in pts])
    z = np.array([pt.z for pt in pts]).reshape(len(pts), inst.n)
    w = x[:, None] * np.array(inst.h.e, dtype=float)
    for zs, tau, v in zip(z.T, _taus(inst), np.array(inst.vectors, dtype=float)):
        w = w + (zs * tau)[:, None] * v
    return w


def _gen_values(inst: SrInstance, shifted: np.ndarray) -> np.ndarray:
    """g = sum_S mu(S) prod_{e in S} shifted[e] for each row of shifted
    (points x 1 + z): each term multiplies mu(S) by the set's elements in
    order, and the terms are added in support order from 0."""
    terms = np.broadcast_to(inst.mu.float_probs, (len(shifted), len(inst.mu.sets)))
    for col in inst.mu.sets.T:
        terms = terms * shifted[:, col]
    # cumsum adds term by term; + 0 gives the 0.0 a sum started at 0 leaves.
    return np.cumsum(terms, axis=1)[:, -1] + 0


def above_roots(inst, pt: BarrierPoint) -> int:
    """Positivity probes of P at pt + r over nonnegative offsets r.

    Probes pt itself and ABOVE_ROOTS_PROBES seeded offsets, and returns how
    many of them are not positive; 0 is evidence that pt lies above all
    roots of P, anything else refutes it.  A signed probe reads the
    restriction h(w) itself: the square in the signed P hides sign crossings.
    Every probe's w is built in one stack and evaluated by one h.values.
    """
    span = max(1.0, abs(pt.x))
    probes = [pt]
    for trial in range(1, ABOVE_ROOTS_PROBES + 1):
        rng = random.Random(f"above:0:{trial}")
        z = tuple(zc + rng.uniform(0, span) for zc in pt.z)
        probes.append(BarrierPoint(pt.x + rng.uniform(0, span), z, pt.t))
    values = np.array(inst.h.values(_points(inst, probes)), dtype=float)
    if not isinstance(inst, KlsInstance):
        shifted = np.array([[probe.x + z for z in probe.z] for probe in probes])
        values = values * _gen_values(inst, shifted)
    return int(np.count_nonzero(~(values > 0)))


def phi(inst, pt: BarrierPoint) -> tuple:
    """Every Phi^i at pt, in index order, from one evaluation of the point:

    signed: 2 D_{tau_i v_i} h(w) / h(w);
    subset: D_{v_i} h(w) / h(w) + (d_i g / g)(x 1 + z);
    at w = x e + sum z_j tau_j v_j, where D_u h(w) is the degree-1
    coefficient of t -> h(w + t u), every line from one h.restrict_lines
    call.  Phi is meaningful only above the roots of P (see above_roots);
    it is not checked here.  The gradient of g takes each set's term
    without one element at a time, mu(S) times the others in order, and
    adds it to that element in support order.
    """
    w = tuple(_points(inst, [pt])[0].tolist())
    hval = float(inst.h.value(w))
    dirs = [tuple(tau * float(c) for c in v) for tau, v in zip(_taus(inst), inst.vectors)]
    dvs = [float(line.coeffs[1] if len(line.coeffs) > 1 else 0)
           for line in inst.h.restrict_lines(w, dirs)]
    if isinstance(inst, KlsInstance):
        return tuple(2.0 * dv / hval for dv in dvs)
    shifted = np.array([pt.x + z for z in pt.z])
    gval = float(_gen_values(inst, shifted[None])[0])
    sets = inst.mu.sets
    cols = shifted[sets]
    probs = inst.mu.float_probs
    terms = np.empty(sets.shape)
    for j in range(sets.shape[1]):
        term = probs
        for k in range(sets.shape[1]):
            if k != j:
                term = term * cols[:, k]
        terms[:, j] = term
    grad = np.zeros(inst.n)
    np.add.at(grad, sets, terms)  # row by row: each element's terms in support order
    return tuple(dv / hval + dg / gval for dv, dg in zip(dvs, grad.tolist()))


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
        root = kls_node_poly(inst)
        if not inst.sigma > 0:
            raise ChainViolated("sigma_positive", "all variance-trace weights vanish")
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
