"""Command-line surface: gen | solve | verify | bench.

Exit codes: 0 on success (all checks passing where applicable), 2 when a
solve fails post-hoc certification or a verification suite reports a
failing check, 1 on usage or input errors.  All randomness flows from the
command-level seed through named sub-streams, so identical (command, flags,
seed) invocations write byte-identical output (timing columns in bench are
the one documented exception).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

from .errors import CertificationFailed, HyperdiscError, InvalidParams
from .graphs import Graph, named_graph
from .instances import gen_kls_det, gen_kls_lorentz, random_connected_graph
from .mixedchar import (AgFamily, KlsFamily, SrInstance, ag_substitution_identity, kls_node_poly,
                        kls_operator_form, kls_table_node_poly)
from .serialize import dumps, instance_from_json, instance_to_json
from .solver import SolverConfig, brute_force, kadison_singer_search, random_baseline
from .srdist import marginal_via_enum, marginal_via_formula, uniform_spanning_tree
from .barrier import verify_bound_chain

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED_CHECK = 2


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_graph(spec: str) -> Graph:
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as fh:
                return Graph.from_json(json.load(fh))
        if spec.startswith("random:"):
            _, nv, ne, seed = spec.split(":")
            return random_connected_graph(int(nv), int(ne), int(seed))
        return named_graph(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"bad --graph {spec!r}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    meta = {"seed": args.seed, "kind": args.kind}
    if args.kind == "kls-det":
        inst = gen_kls_det(args.n, args.mprime, args.seed, args.variables)
        meta.update({"n": args.n, "mprime": args.mprime,
                     "variables": args.variables, "sigma": inst.sigma})
        blob = instance_to_json(inst, generator=meta)
    elif args.kind == "kls-lorentz":
        inst = gen_kls_lorentz(args.n, args.m, args.seed, args.variables)
        meta.update({"n": args.n, "m": args.m, "variables": args.variables,
                     "sigma": inst.sigma})
        blob = instance_to_json(inst, generator=meta)
    else:  # sr-ust
        graph = _resolve_graph(args.graph)
        inst = SrInstance.from_graph(graph)
        meta.update({"graph": args.graph, "eps1": inst.eps1, "eps2": inst.eps2})
        blob = instance_to_json(inst, generator=meta, graph=graph)
    _write(dumps(blob), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    with open(args.file) as fh:
        inst, kind = instance_from_json(json.load(fh))
    family = KlsFamily(inst) if kind == "kls" else AgFamily(inst)
    if args.method == "brute":
        assignment, value = brute_force(inst, kind)
        root_max = family.root_max_root()
        result = {
            "assignment": [str(s) for s in assignment],
            "estimate": value,
            "certified": value,
            "bound": root_max,
            "oracle_calls": 0,
            "seed": args.seed,
        }
        _write(dumps(result), args.out)
        return EXIT_OK
    cfg = SolverConfig(delta=args.delta, block=args.block, k=args.k, seed=args.seed)
    try:
        result = kadison_singer_search(family, cfg)
    except CertificationFailed as exc:
        _write(dumps({"error": "certification_failed",
                      "certified": exc.certified, "bound": exc.bound}), args.out)
        return EXIT_FAILED_CHECK
    _write(dumps(result.to_json()), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_identities(seed: int) -> list:
    checks = []
    for i in range(3):
        inst = gen_kls_det(3, 2, seed * 101 + i, "mixed")
        exact = kls_node_poly(inst).coeffs == kls_operator_form(inst).coeffs
        checks.append({"name": f"kls_operator_identity[{i}]", "passed": bool(exact),
                       "margin": 0.0})
    for name in ("k3", "diamond"):
        inst = SrInstance.from_graph(named_graph(name), exact=True)
        lhs, rhs = ag_substitution_identity(inst)
        checks.append({"name": f"sr_substitution_identity[{name}]",
                       "passed": bool(lhs.coeffs == rhs.coeffs), "margin": 0.0})
    return checks


def _suite_marginals(seed: int) -> list:
    checks = []
    for name in ("k3", "diamond"):
        mu = uniform_spanning_tree(named_graph(name))
        ok = True
        for k in range(mu.n + 1):
            for mask in range(1 << k):
                s = {i for i in range(k) if mask >> i & 1}
                expect = marginal_via_enum(mu, s, k)
                for x0 in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
                    if marginal_via_formula(mu, s, k, x0) != expect:
                        ok = False
        checks.append({"name": f"marginal_formula[{name}]", "passed": ok,
                       "margin": 0.0})
    return checks


def _chain_check(name: str, inst) -> dict:
    """One verify check from the barrier chain: passed, and the worst margin."""
    report = verify_bound_chain(inst)
    return {"name": name, "passed": report.passed,
            "margin": min(s.margin for s in report.steps)}


def _suite_barrier(seed: int) -> list:
    checks = [_chain_check(f"kls_bound_chain[{i}]", gen_kls_det(3, 2, seed * 77 + i, "rademacher"))
              for i in range(3)]
    checks += [_chain_check(f"sr_bound_chain[{name}]", SrInstance.from_graph(named_graph(name)))
               for name in ("k3", "k4")]
    return checks


def _verify_file(path: str) -> list:
    with open(path) as fh:
        inst, kind = instance_from_json(json.load(fh))
    checks = []
    if kind == "kls":
        # Two independent exact routes to the root polynomial: the table,
        # which gives the root at any size (tests tie it to the enumerating
        # kls_node_poly), and the integer restriction route of the operator
        # form.  The chain below reads its collapsed root off the same table.
        same = kls_table_node_poly(inst).coeffs == kls_operator_form(inst).coeffs
        checks.append({"name": "kls_operator_identity", "passed": bool(same),
                       "margin": 0.0})
    checks.append(_chain_check(f"{kind}_bound_chain", inst))
    return checks


def cmd_verify(args) -> int:
    if not args.file and not args.suite:
        raise InvalidParams("verify needs an instance file or --suite")
    checks = []
    if args.file:
        checks.extend(_verify_file(args.file))
    if args.suite:
        suites = {
            "identities": [_suite_identities],
            "marginals": [_suite_marginals],
            "barrier": [_suite_barrier],
            "all": [_suite_identities, _suite_marginals, _suite_barrier],
        }
        for fn in suites[args.suite]:
            checks.extend(fn(args.seed))
    blob = {"checks": checks, "passed": all(c["passed"] for c in checks)}
    _write(dumps(blob), args.out)
    return EXIT_OK if blob["passed"] else EXIT_FAILED_CHECK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_COLUMNS = [
    "kind", "seed", "n", "scale_param", "brute", "blocked", "bound",
    "baseline_min", "baseline_median", "baseline_max", "t_brute", "t_blocked",
]


def cmd_bench(args) -> int:
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        if args.kind == "kls-det":
            inst = gen_kls_det(args.n, args.mprime, seed, args.variables)
            kind = "kls"
            scale_param = inst.sigma
        elif args.kind == "kls-lorentz":
            inst = gen_kls_lorentz(args.n, args.m, seed, args.variables)
            kind = "kls"
            scale_param = inst.sigma
        else:  # sr-ust
            graph = random_connected_graph(args.n, min(args.n + 1, args.n * (args.n - 1) // 2), seed)
            inst = SrInstance.from_graph(graph)
            kind = "ag"
            scale_param = inst.eps1 + inst.eps2
        family = KlsFamily(inst) if kind == "kls" else AgFamily(inst)
        t0 = time.perf_counter()
        _, brute_val = brute_force(inst, kind)
        t_brute = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = kadison_singer_search(family, SolverConfig(delta=args.delta, seed=seed))
        t_blocked = time.perf_counter() - t0
        if args.trials > 0:
            baseline = random_baseline(inst, args.trials, seed)
            base_min, base_med, base_max = baseline.minimum, baseline.median, baseline.maximum
        else:
            base_min = base_med = base_max = ""
        rows.append({
            "kind": args.kind, "seed": seed, "n": inst.n,
            "scale_param": scale_param, "brute": brute_val,
            "blocked": result.certified, "bound": result.bound,
            "baseline_min": base_min, "baseline_median": base_med,
            "baseline_max": base_max,
            "t_brute": round(t_brute, 6), "t_blocked": round(t_blocked, 6),
        })
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _write(buf.getvalue(), args.out)
    else:
        _write(dumps({"columns": BENCH_COLUMNS, "rows": rows}), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def size(text: str) -> int:
    """An int option that sizes an allocation or a loop; below 0 or above
    sys.maxsize it is a usage error, not an empty run, an overflow or a loop
    that never ends."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it
    (each call gets a fresh namespace), and building it costs about a
    millisecond, which small solves would otherwise pay on every main."""
    parser = argparse.ArgumentParser(
        prog="hyperdisc",
        description="Hyperbolic spectral discrepancy: instances, search, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    p_gen.add_argument("--kind", required=True,
                       choices=["kls-det", "kls-lorentz", "sr-ust"])
    p_gen.add_argument("--n", type=size, default=4)
    p_gen.add_argument("--mprime", type=size, default=2)
    p_gen.add_argument("--m", type=size, default=3)
    p_gen.add_argument("--graph", default="k3",
                       help="named graph, random:V:E:SEED, or @file.json")
    p_gen.add_argument("--variables", default="mixed",
                       choices=["mixed", "rademacher", "biased", "threepoint"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run brute force or the blocked search")
    p_solve.add_argument("file")
    p_solve.add_argument("--method", default="blocked", choices=["brute", "blocked"])
    p_solve.add_argument("--delta", type=float, default=0.5)
    p_solve.add_argument("--block", type=size, default=None)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run invariant suites or check a file")
    p_verify.add_argument("file", nargs="?", default=None)
    p_verify.add_argument("--suite", default=None,
                          choices=["identities", "marginals", "barrier", "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="brute vs blocked vs random baseline")
    p_bench.add_argument("--kind", default="kls-det",
                         choices=["kls-det", "kls-lorentz", "sr-ust"])
    p_bench.add_argument("--count", type=size, default=5)
    p_bench.add_argument("--n", type=size, default=4)
    p_bench.add_argument("--mprime", type=size, default=2)
    p_bench.add_argument("--m", type=size, default=3)
    p_bench.add_argument("--variables", default="rademacher",
                         choices=["mixed", "rademacher", "biased", "threepoint"])
    p_bench.add_argument("--delta", type=float, default=0.5)
    p_bench.add_argument("--trials", type=size, default=200)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--format", default="json", choices=["json", "csv"])
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and "error:" already
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (HyperdiscError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
