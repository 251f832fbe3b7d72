#!/usr/bin/env python3
"""hyperdisc benchmark: kls-search, sr-search and certify workloads.

    python3 hdbench/run.py --workload kls-search --seed 0 --seconds 30 --trace 0

Drives ``gen``, ``solve``, ``verify`` and ``bench`` in-process through
``hyperdisc.cli.main`` from the source tree next to this directory: one
caller, one op at a time, BLAS pinned to one thread.  Every op's output is
checked (see harness.py); failed ops are counted and named, never raised.

``--trace 0`` sets up nine times, then makes the whole passes over the
workload's ops that fill about ``--seconds`` (workloads.passes), and
reports the end-to-end metrics of BENCHMARK.json.  Their timings are
divided by the run's slowdown, measured by a calibration loop run between
ops (harness.calibrate), so that runs on a core shared with other work
compare; the raw timings are in the results file.  ``--trace 1`` runs one pass with every op executed untraced and then
traced (tracing.py) and reports the per-layer metrics.  Each run writes
``hdbench/results/<workload>-seed<N>-trace<T>.json`` with run metadata; the
last stdout line is the JSON summary.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# No pass starts after this many times --seconds, whatever the machine's load.
DEADLINE_FACTOR = 3
# Gated end-to-end metrics (BENCHMARK.json); the summary holds the rest.
END_TO_END = {"wall_s": "s", "op_gmean_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported by name in the results file and on stdout, not gated.
REPORTED = {"raw_wall_s": "s", "raw_setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
            "fail_share": "ratio", "gap_to_brute": "ratio", "slowdown": "ratio"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metadata(trace_overhead):
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(ROOT),
        "src_lines": src_lines,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads_pinned": all(os.environ.get(v) == "1" for v in BLAS_VARS),
        "trace_overhead": trace_overhead,
        "loop": "closed, one caller, one op at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperdisc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hyperdisc sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads
    from tracing import PREDICTIONS, Tracer, unit_of

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choices: {sorted(workloads.WORKLOADS)}\n")
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    deck = workloads.deck(args.workload, args.seed)
    # The warm-up ops come from a fixed seed, so set-up cost does not vary
    # with the instances a seed draws.
    warm = harness.warm_ops(workloads.deck(args.workload, 0))
    rng = random.Random(f"hdbench-order:{args.workload}:{args.seed}")
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tracer = Tracer()
            results, gen_failures, overhead = harness.traced_pass(deck, warm, workdir, reference,
                                                                   tracer)
            summary = harness.summarize(deck, results)
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in tracer.layer_metrics().items()}
            with gzip.open(results_dir / f"{stem}.spans.tsv.gz", "wt") as fh:
                tracer.write_spans(fh)
        else:
            raw_setups, setups = [], []
            for _ in range(SETUP_REPEATS):
                calibrations = []
                seconds, files, gen_failures = harness.setup(deck, warm, workdir, reference,
                                                             calibrations)
                raw_setups.append(seconds)
                setups.append(seconds * harness.CALIBRATION_S / statistics.fmean(calibrations))
            calibrations = []
            optimum = harness.optima(deck, files)
            results, passes = harness.closed_loop(
                deck, files, reference, optimum, workloads.passes(args.workload, args.seconds),
                DEADLINE_FACTOR * args.seconds, rng, calibrations)
            summary = harness.summarize(deck, results, calibrations)
            overhead = None
            summary["passes"] = passes
            summary["raw_setup_s"] = statistics.median(raw_setups)
            summary["setup_s"] = statistics.median(setups)
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": summary[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = sorted({f"{r.op.key}: {r.failure}" for _, r in results if r.failure})
    correct = not gen_failures and not any(r.incorrect for _, r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(overhead),
        "metrics": metrics,
        "summary": summary,
        "failed_ops": failures,
        "setup_failures": gen_failures,
        "incorrect_ops": sorted({r.op.key for _, r in results if r.incorrect}),
    }
    if args.trace:
        record["predictions"] = PREDICTIONS
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, unit in REPORTED.items():
        if summary.get(name) is not None:
            print(f"{name} {summary[name]:.6g} {unit} (not gated)")
    if overhead is not None:
        print(f"trace_overhead {overhead:.4g}")
    for line in failures + gen_failures:
        print(f"failed: {line}")
    print(json.dumps({"correct": correct, "attempted": summary["samples"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
