"""Trace coverage: on tiny decks, every per-layer counter sees the work the
workload is predicted to do, and none sees work it must not do.

A wrapper that misses a ``from ... import`` binding (``char_poly_exact`` is
bound in both ``hyperbolic`` and ``solver``, ``real_roots`` in several
modules) shows up here as a zero.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracing import Tracer, unit_of  # noqa: E402
from workloads import Op, kls, search, sr, verify  # noqa: E402

TINY = {
    "kls-search": (search(kls("kls-det", 3, 2, "mixed", 0))
                   + search(kls("kls-lorentz", 3, 3, "rademacher", 0))
                   + [Op(("bench", "--kind", "kls-det", "--n", "3", "--mprime", "2",
                          "--count", "1", "--trials", "10", "--seed", "0"))]),
    "sr-search": search(sr("k4")) + search(sr("c5")),
    "certify": ([Op(("verify", "--suite", "all", "--seed", "0"))]
                + verify(kls("kls-det", 3, 2, "mixed", 0))
                + verify(kls("kls-lorentz", 3, 3, "rademacher", 0))
                + verify(sr("k4"))),
}

# Counters that must be non-zero, per workload.
BUSY = {
    "kls-search": [
        "exact.char_poly_exact.calls", "exact.char_poly_exact.self_s",
        "hyperbolic.restrict_line.calls.determinant.rational",
        "hyperbolic.restrict_line.calls.lorentz.rational",
        "hyperbolic.spectrum.calls", "unipoly.real_roots.calls",
        "mixedchar.kls_node_poly.calls", "mixedchar.kls_leaf_poly.calls",
        "mixedchar.KlsInstance.centered_sum.self_s",
        "solver.oracle.calls", "solver.oracle.s", "solver.root_bound.s",
        "solver.certify.s", "solver.brute_force.s", "solver.random_baseline.s",
        "serialize.load.s", "serialize.dumps.s",
    ],
    "sr-search": [
        "hyperbolic.restrict_line.calls.determinant.float",
        "hyperbolic.spectrum.calls", "unipoly.real_roots.calls",
        "unipoly.real_roots.sturm_share", "unipoly.real_roots.not_real_rooted",
        "mixedchar.ag_node_poly.calls", "mixedchar.AgFamily.feasible.self_s",
        "solver.oracle.calls", "solver.root_bound.s", "solver.certify.s",
        "srdist.uniform_spanning_tree.s", "serialize.load.s", "serialize.dumps.s",
    ],
    "certify": [
        "exact.char_poly_exact.calls", "exact.det_exact.calls",
        "hyperbolic.restrict_line.calls.determinant.rational",
        "hyperbolic.restrict_line.calls.lorentz.float",
        "hyperbolic.restrict_line.interp_share",
        "hyperbolic.derivative_restriction.calls",
        "hyperbolic.derivative_restriction.cache_hit_ratio",
        "unipoly.real_roots.calls", "unipoly.interpolate.calls",
        "mixedchar.kls_node_poly.calls", "mixedchar.kls_operator_form.calls",
        "mixedchar.ag_node_poly.calls",
        "barrier.verify_bound_chain.s", "barrier.phi.calls", "barrier.above_roots.s",
        "srdist.uniform_spanning_tree.s", "srdist.marginal_via_formula.calls",
        "srdist.marginal_via_enum.self_s", "serialize.load.s", "serialize.dumps.s",
    ],
}

# Counters that must stay at zero, per workload.
IDLE = {
    "kls-search": ["barrier.verify_bound_chain.s", "mixedchar.ag_node_poly.calls"],
    "sr-search": ["exact.char_poly_exact.calls", "mixedchar.kls_node_poly.calls"],
    "certify": ["solver.oracle.calls", "solver.root_bound.s"],
}


@pytest.fixture(scope="module")
def reference():
    return json.loads((HERE / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_trace_coverage(workload, tmp_path, reference):
    tracer = Tracer()
    deck = TINY[workload]
    results, setup_failures, overhead = harness.traced_pass(
        deck, harness.warm_ops(deck), tmp_path, reference, tracer)
    assert setup_failures == []
    assert overhead > 0
    metrics = tracer.layer_metrics()
    assert [name for name in BUSY[workload] if not metrics[name] > 0] == []
    assert [name for name in IDLE[workload] if metrics[name] != 0] == []
    if workload == "sr-search":
        failed = [r.op.key for _, r in results if r.failure]
        assert "solve sr-ust:c5 --method blocked" in failed


def test_tracer_restores_every_binding():
    from hyperdisc import hyperbolic, mixedchar, solver, unipoly

    before = (hyperbolic.real_roots, mixedchar.real_roots, solver.char_poly_exact,
              hyperbolic.DeterminantInstance.restrict_line, unipoly.real_roots)
    tracer = Tracer()
    with tracer.installed():
        assert hyperbolic.real_roots is not before[0]
        assert mixedchar.real_roots is hyperbolic.real_roots
        assert solver.char_poly_exact is not before[2]
    after = (hyperbolic.real_roots, mixedchar.real_roots, solver.char_poly_exact,
             hyperbolic.DeterminantInstance.restrict_line, unipoly.real_roots)
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    stats = tracer.aggregate()
    outer, inner = stats[("outer", "")], stats[("inner", "")]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert inner["self_s"] == pytest.approx(inner["s"])


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    measured = {name: unit_of(name) for name in Tracer().layer_metrics()}
    assert declared == measured
