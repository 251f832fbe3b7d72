"""Span tracer that wraps hyperdisc's layers from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper, the way
a monkeypatch would: every binding of the function in a loaded
``hyperdisc`` module is swapped, so ``from .unipoly import real_roots`` in
``hyperbolic`` and ``mixedchar`` is caught as well as ``unipoly.real_roots``.
Methods are swapped on their class.  Leaving the context restores every
binding.

Each call records a span (name, tag, parent, start, end, exception) in
flat arrays; `Tracer.aggregate()` turns them into calls, inclusive and self
time per span name, and `layer_metrics()` into the per-layer metrics named
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

from hyperdisc import _exact, barrier, hyperbolic, mixedchar, serialize, solver, srdist, unipoly


def _is_float_vec(x) -> bool:
    return any(isinstance(v, float) for v in x)


def _restrict_tag(h, base, dirv) -> str:
    backend = "float" if _is_float_vec(base) or _is_float_vec(dirv) else "rational"
    route = "e" if tuple(dirv) == tuple(h.e) else "interp"
    return f"{h.kind}.{backend}.{route}"


# (span name, owner, attribute, tag function or None).  The owner is a module
# for functions and a class for methods.
TARGETS = (
    ("exact.char_poly_exact", _exact, "char_poly_exact", None),
    ("exact.det_exact", _exact, "det_exact", None),
    ("hyperbolic.restrict_line", hyperbolic.DeterminantInstance, "restrict_line", _restrict_tag),
    ("hyperbolic.restrict_line", hyperbolic.LorentzInstance, "restrict_line", _restrict_tag),
    ("hyperbolic.restrict_line", hyperbolic.ElemSymInstance, "restrict_line", _restrict_tag),
    ("hyperbolic.restrict_line", hyperbolic.RealStableInstance, "restrict_line", _restrict_tag),
    ("hyperbolic.derivative_restriction", hyperbolic, "derivative_restriction", None),
    ("hyperbolic.spectrum", hyperbolic, "spectrum", None),
    ("unipoly.real_roots", unipoly, "real_roots", None),
    ("unipoly.square_free_decomposition", unipoly, "square_free_decomposition", None),
    ("unipoly.is_real_rooted", unipoly, "is_real_rooted", None),
    ("unipoly.interpolate", unipoly, "interpolate", None),
    ("mixedchar.kls_node_poly", mixedchar, "kls_node_poly", None),
    ("mixedchar.kls_leaf_poly", mixedchar, "kls_leaf_poly", None),
    ("mixedchar.KlsInstance.centered_sum", mixedchar.KlsInstance, "centered_sum", None),
    ("mixedchar.kls_operator_form", mixedchar, "kls_operator_form", None),
    ("mixedchar.ag_node_poly", mixedchar, "ag_node_poly", None),
    ("mixedchar.AgFamily.feasible", mixedchar.AgFamily, "feasible", None),
    ("solver.oracle", solver, "maxcoeff_enum", None),
    ("solver.root_bound", mixedchar.KlsFamily, "root_max_root", None),
    ("solver.root_bound", mixedchar.AgFamily, "root_max_root", None),
    ("solver.certify", mixedchar.KlsFamily, "leaf_norm", None),
    ("solver.certify", mixedchar.AgFamily, "leaf_norm", None),
    ("solver.brute_force", solver, "brute_force", None),
    ("solver.random_baseline", solver, "random_baseline", None),
    ("barrier.verify_bound_chain", barrier, "verify_bound_chain", None),
    ("barrier.phi", barrier, "phi", None),
    ("barrier.above_roots", barrier, "above_roots", None),
    ("srdist.uniform_spanning_tree", srdist, "uniform_spanning_tree", None),
    ("srdist.marginal_via_formula", srdist, "marginal_via_formula", None),
    ("srdist.marginal_via_enum", srdist, "marginal_via_enum", None),
    ("serialize.load", serialize, "instance_from_json", None),
    ("serialize.dumps", serialize, "dumps", None),
)

RESTRICT_PAIRS = ("determinant.rational", "determinant.float",
                  "lorentz.rational", "lorentz.float")

# Which end-to-end metric, on which workload, each layer's metrics should
# move; written into every traced results file.
PREDICTIONS = {
    "exact.": "wall_s on kls-search and certify; char_poly_exact has no calls on sr-search",
    "hyperbolic.restrict_line.": "wall_s on every workload",
    "hyperbolic.derivative_restriction.": "wall_s on certify",
    "hyperbolic.spectrum.": "wall_s on every workload",
    "unipoly.real_roots.": "failed ops and op_gmean_ms on sr-search",
    "mixedchar.kls_": "wall_s on kls-search (kls_operator_form: certify)",
    "mixedchar.KlsInstance.": "wall_s on kls-search",
    "mixedchar.ag_node_poly.": "wall_s on sr-search",
    "mixedchar.AgFamily.": "wall_s on sr-search",
    "solver.": "wall_s on kls-search; solver.oracle has no calls on certify",
    "barrier.": "wall_s on certify",
    "srdist.uniform_spanning_tree.": "setup_s on sr-search",
    "srdist.marginal_": "wall_s on certify",
    "serialize.": "setup_s and op_gmean_ms on sr-search",
}


def unit_of(metric: str) -> str:
    parts = metric.split(".")
    if "calls" in parts or parts[-1] == "not_real_rooted":
        return "count"
    if parts[-1].endswith(("_share", "_ratio")):
        return "ratio"
    return "s"


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("i")
        self._stack: list = []
        self.cache_lookups = 0
        self.cache_misses = 0

    def _intern(self, text: str) -> int:
        idx = self._name_ids.get(text)
        if idx is None:
            idx = self._name_ids[text] = len(self.names)
            self.names.append(text)
        return idx

    def open(self, name: str, tag: str = "") -> int:
        sid = len(self.start)
        self.name.append(self._intern(name))
        self.tag.append(self._intern(tag))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(-1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int, error: str | None = None):
        self.end[sid] = perf_counter()
        self._stack.pop()
        if error is not None:
            self.error[sid] = self._intern(error)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        sid = self.open(name, tag)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.close(sid, error)

    def _wrap(self, name: str, fn, tag_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name, tag_of(*args, **kwargs) if tag_of else "")
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(sid, error)

        return wrapper

    def _count_cache(self, fn):
        """derivative_restriction: 2^|S| lookups, misses = growth of the cache."""
        tracer = self

        @functools.wraps(fn)
        def counted(h, vectors, indices, cache=None):
            lookups = 1 << len(tuple(indices))
            before = len(cache) if cache is not None else 0
            try:
                return fn(h, vectors, indices, cache)
            finally:
                tracer.cache_lookups += lookups
                tracer.cache_misses += (len(cache) - before) if cache is not None else lookups

        return counted

    @contextmanager
    def installed(self):
        """Swap every binding of every target for its wrapper; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hyperdisc" or n.startswith("hyperdisc."))]
        saved = []
        try:
            for name, owner, attr, tag_of in TARGETS:
                original = owner.__dict__[attr]
                inner = original
                if name == "hyperbolic.derivative_restriction":
                    inner = self._count_cache(original)
                wrapper = self._wrap(name, inner, tag_of)
                if isinstance(owner, type):
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per (name, tag): calls, inclusive seconds, self seconds, errors.

        Self time is a span's duration minus the durations of its direct
        child spans; calls run one at a time, so children never overlap.
        """
        count = len(self.start)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        stats: dict = {}
        for sid in range(count):
            key = (self.names[self.name[sid]], self.names[self.tag[sid]])
            entry = stats.get(key)
            if entry is None:
                entry = stats[key] = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}}
            dur = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[sid]
            if self.error[sid] >= 0:
                err = self.names[self.error[sid]]
                entry["errors"][err] = entry["errors"].get(err, 0) + 1
        return stats

    def sturm_fallbacks(self) -> int:
        """real_roots spans with a square_free_decomposition span nested in them."""
        roots = self._name_ids.get("unipoly.real_roots")
        yun = self._name_ids.get("unipoly.square_free_decomposition")
        if roots is None or yun is None:
            return 0
        hit = set()
        for sid in range(len(self.start)):
            if self.name[sid] != yun:
                continue
            p = self.parent[sid]
            while p >= 0 and self.name[p] != roots:
                p = self.parent[p]
            if p >= 0:
                hit.add(p)
        return len(hit)

    def layer_metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json, keyed by name."""
        stats = self.aggregate()

        def total(name: str, field: str, tag_prefix: str = "") -> float:
            return sum(v[field] for (n, t), v in stats.items()
                       if n == name and t.startswith(tag_prefix))

        def errors(name: str, kind: str) -> int:
            return sum(v["errors"].get(kind, 0) for (n, _), v in stats.items() if n == name)

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {}
        for name in ("exact.char_poly_exact", "exact.det_exact",
                     "hyperbolic.derivative_restriction",
                     "hyperbolic.spectrum", "unipoly.real_roots", "unipoly.is_real_rooted",
                     "unipoly.interpolate", "mixedchar.kls_node_poly", "mixedchar.kls_leaf_poly",
                     "mixedchar.kls_operator_form", "mixedchar.ag_node_poly",
                     "barrier.phi", "srdist.marginal_via_formula", "solver.oracle"):
            out[f"{name}.calls"] = total(name, "calls")
        for name in ("exact.char_poly_exact", "exact.det_exact",
                     "hyperbolic.derivative_restriction",
                     "hyperbolic.spectrum", "unipoly.real_roots", "unipoly.is_real_rooted",
                     "unipoly.interpolate", "mixedchar.kls_node_poly", "mixedchar.kls_leaf_poly",
                     "mixedchar.KlsInstance.centered_sum", "mixedchar.kls_operator_form",
                     "mixedchar.ag_node_poly", "mixedchar.AgFamily.feasible",
                     "srdist.marginal_via_formula", "srdist.marginal_via_enum"):
            out[f"{name}.self_s"] = total(name, "self_s")
        for name in ("solver.oracle", "solver.root_bound", "solver.certify", "solver.brute_force",
                     "solver.random_baseline", "barrier.verify_bound_chain", "barrier.above_roots",
                     "srdist.uniform_spanning_tree", "serialize.load", "serialize.dumps"):
            out[f"{name}.s"] = total(name, "s")
        for pair in RESTRICT_PAIRS:
            out[f"hyperbolic.restrict_line.calls.{pair}"] = total(
                "hyperbolic.restrict_line", "calls", pair + ".")
            out[f"hyperbolic.restrict_line.self_s.{pair}"] = total(
                "hyperbolic.restrict_line", "self_s", pair + ".")
        restricts = total("hyperbolic.restrict_line", "calls")
        interp = sum(v["calls"] for (n, t), v in stats.items()
                     if n == "hyperbolic.restrict_line" and t.endswith(".interp"))
        out["hyperbolic.restrict_line.interp_share"] = share(interp, restricts)
        out["hyperbolic.derivative_restriction.cache_hit_ratio"] = share(
            self.cache_lookups - self.cache_misses, self.cache_lookups)
        roots = total("unipoly.real_roots", "calls")
        out["unipoly.real_roots.sturm_share"] = share(self.sturm_fallbacks(), roots)
        out["unipoly.real_roots.not_real_rooted"] = errors("unipoly.real_roots", "NotRealRooted")
        return out

    def write_spans(self, fh):
        """One tab-separated line per span: id, parent, name, tag, start, end, error."""
        fh.write("id\tparent\tname\ttag\tstart\tend\terror\n")
        for sid in range(len(self.start)):
            err = self.names[self.error[sid]] if self.error[sid] >= 0 else ""
            fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}\t"
                     f"{self.names[self.tag[sid]]}\t{self.start[sid]:.9f}\t"
                     f"{self.end[sid]:.9f}\t{err}\n")
