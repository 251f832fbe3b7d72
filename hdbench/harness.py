"""Runs a workload's ops in-process through ``hyperdisc.cli.main`` and checks them.

One caller, closed loop: the next op starts only when the previous one has
returned.  Every op's stdout is compared with the digest recorded in
``reference.json`` (for ops that succeeded when it was recorded) and put
through semantic checks; a failing op is counted and the run continues.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from hyperdisc import cli
from hyperdisc.errors import TooLarge
from hyperdisc.serialize import instance_from_json
from hyperdisc.solver import brute_force

from workloads import Op, instances

REL_TOL = 1e-9  # the solver's own certification slack
BENCH_TIMING_COLUMNS = ("t_brute", "t_blocked")
# calibrate() takes this long on an uncontended core of the machine the
# benchmark was tuned on (x86-64, 2 vCPUs, Python 3.11); only the ratio of a
# run's mean calibration time to it enters the normalized metrics.
CALIBRATION_S = 0.0047


@dataclass(frozen=True)
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    raised: str | None


@dataclass(frozen=True)
class OpResult:
    op: Op
    seconds: float
    failure: str | None  # why the op failed, None when it passed
    incorrect: bool  # a regression or a wrong output, not a known failure
    gap: float | None  # blocked certified / brute optimum


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction arithmetic.

    On a core shared with other work (a busy sibling hyperthread) every op
    slows by up to about 1.8x, for stretches of seconds to minutes.  Run
    between ops, this samples the same slowdown; dividing it out leaves the
    time the ops would have taken at the reference speed.  It touches no
    hyperdisc code, so a change to the program cannot move it.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return perf_counter() - start


def invoke(argv) -> Outcome:
    """One CLI op; stdout and stderr are captured, exceptions are caught."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # an escaped traceback is a failed op
        raised = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), raised)


def digest(command: str, stdout: str) -> str:
    """sha256 of stdout; bench's timing columns are dropped first."""
    text = stdout
    if command == "bench":
        blob = json.loads(stdout)
        for row in blob["rows"]:
            for col in BENCH_TIMING_COLUMNS:
                row.pop(col, None)
        text = json.dumps(blob, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _search_bounds(certified: float, bound: float, optimum: float | None) -> str | None:
    if certified > bound + REL_TOL * max(1.0, abs(bound)):
        return f"certified {certified!r} exceeds bound {bound!r}"
    if optimum is not None and certified < optimum - REL_TOL * max(1.0, abs(optimum)):
        return f"certified {certified!r} is below the brute optimum {optimum!r}"
    return None


def semantic_failure(op: Op, blob: dict, optimum: float | None) -> str | None:
    if op.command == "verify":
        return None if blob.get("passed") is True else "verify did not pass"
    if op.command == "bench":
        for row in blob["rows"]:
            why = _search_bounds(row["blocked"], row["bound"], row["brute"])
            if why:
                return why
        return None
    if op.command == "solve" and op.method == "blocked":
        return _search_bounds(blob["certified"], blob["bound"], optimum)
    if op.command == "solve" and optimum is not None:
        if not math.isclose(blob["certified"], optimum, rel_tol=REL_TOL, abs_tol=1e-12):
            return f"brute optimum {blob['certified']!r} differs from {optimum!r}"
    return None


def judge(op: Op, outcome: Outcome, reference: dict, optimum: float | None) -> OpResult:
    expected = reference.get(op.key)
    failure = None
    produced = False
    gap = None
    if outcome.raised is not None:
        failure = f"raised {outcome.raised}"
    elif outcome.code != 0:
        first = outcome.stderr.strip().splitlines()[:1]
        failure = f"exit {outcome.code}" + (f": {first[0]}" if first else "")
    else:
        produced = True
        try:
            blob = json.loads(outcome.stdout)
        except ValueError:
            blob = None
            failure = "stdout is not JSON"
        if blob is not None:
            if expected is not None and digest(op.command, outcome.stdout) != expected:
                failure = "stdout differs from the reference"
            else:
                failure = semantic_failure(op, blob, optimum)
            if (op.method == "blocked" and failure is None and optimum
                    and optimum > 1e-12):
                gap = blob["certified"] / optimum
    incorrect = failure is not None and (produced or expected is not None)
    return OpResult(op, outcome.seconds, failure, incorrect, gap)


def brute_optimum(path: Path) -> float | None:
    """Exhaustive minimum of the instance in ``path``; None if out of reach."""
    with open(path) as fh:
        inst, kind = instance_from_json(json.load(fh))
    try:
        return brute_force(inst, "kls" if kind == "kls" else "ag")[1]
    except TooLarge:  # out of reach for brute force: no optimum to compare
        return None


def generate(deck: list, workdir: Path, reference: dict,
             calibrations: list | None = None) -> tuple:
    """gen every instance file of the deck; returns (files, failures, seconds),
    seconds being the time spent in the gen ops.  A calibration runs before
    each op when ``calibrations`` is given."""
    files = {}
    failures = []
    seconds = 0.0
    for inst in instances(deck):
        if calibrations is not None:
            calibrations.append(calibrate())
        out = invoke(inst.gen_argv)
        seconds += out.seconds
        key = " ".join(inst.gen_argv)
        if out.raised or out.code != 0:
            failures.append(f"{key}: {out.raised or out.stderr.strip()}")
            continue
        if key in reference and digest("gen", out.stdout) != reference[key]:
            failures.append(f"{key}: stdout differs from the reference")
        path = workdir / (hashlib.sha256(inst.key.encode()).hexdigest()[:16] + ".json")
        path.write_text(out.stdout)
        files[inst.key] = str(path)
    return files, failures, seconds


def warm_ops(deck: list) -> list:
    """The first op of each distinct (command, method) in deck order."""
    seen = {}
    for op in deck:
        seen.setdefault((op.command, op.method), op)
    return list(seen.values())


def setup(deck: list, warm: list, workdir: Path, reference: dict,
          calibrations: list | None = None) -> tuple:
    """gen the instance files, then run the ``warm`` ops; returns (seconds,
    files, failures), seconds being the time spent in those ops."""
    files, failures, seconds = generate(deck + warm, workdir, reference, calibrations)
    for op in warm:
        if op.instance is None or op.instance.key in files:
            if calibrations is not None:
                calibrations.append(calibrate())
            seconds += invoke(op.resolve(files)).seconds
    return seconds, files, failures


def optima(deck: list, files: dict) -> dict:
    """Brute optimum of every instance a solve op runs on."""
    solved = {op.instance.key for op in deck if op.command == "solve"}
    return {key: brute_optimum(Path(path)) for key, path in files.items() if key in solved}


def run_op(op: Op, files: dict, reference: dict, optimum: dict) -> OpResult:
    if op.instance is not None and op.instance.key not in files:
        return OpResult(op, 0.0, "instance file was not generated", True, None)
    outcome = invoke(op.resolve(files))
    return judge(op, outcome, reference,
                 optimum.get(op.instance.key) if op.instance is not None else None)


def closed_loop(deck: list, files: dict, reference: dict, optimum: dict,
                passes: int, deadline: float, rng, calibrations: list) -> tuple:
    """``passes`` whole passes over the deck, each in a fresh seeded order, so
    that a seed always runs the same ops and fails the same ones.  No pass
    starts once ``deadline`` seconds have elapsed, which bounds a run on a
    badly contended machine.  A calibration runs before each op and one after
    the last, appended to ``calibrations``.  Returns (results, passes run)."""
    results = []
    start = perf_counter()
    done = 0
    while done < passes and not (done and perf_counter() - start >= deadline):
        order = list(range(len(deck)))
        rng.shuffle(order)
        for i in order:
            calibrations.append(calibrate())
            results.append((i, run_op(deck[i], files, reference, optimum)))
        done += 1
    calibrations.append(calibrate())
    return results, done


def traced_pass(deck: list, warm: list, workdir: Path, reference: dict, tracer) -> tuple:
    """Set up under the tracer, then run each op untraced and traced in turn.

    Returns (traced results, setup failures, trace overhead), the overhead
    being the traced ops' total time over the untraced ops' total time.
    """
    with tracer.installed(), tracer.span("setup"):
        _, files, failures = setup(deck, warm, workdir, reference)
    optimum = optima(deck, files)
    results = []
    untraced = traced = 0.0
    for i, op in enumerate(deck):
        untraced += run_op(op, files, reference, optimum).seconds
        with tracer.installed(), tracer.span("op." + op.command):
            result = run_op(op, files, reference, optimum)
        traced += result.seconds
        results.append((i, result))
    return results, failures, (traced / untraced if untraced else None)


def percentile_with_tail(values: list, pct: int, tail: int = 10):
    """The pct-th percentile if at least ``tail`` values lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[pct - 1]
    return cut if sum(1 for v in values if v > cut) >= tail else None


def summarize(deck: list, results: list, calibrations: list | None = None) -> dict:
    """Figures of a run.

    Each deck op's latency is its mean over the passes that ran.  raw_wall_s
    sums them, so it is the time of one pass however many passes ran;
    op_p50_ms is their median, and op_p90_ms is taken over every sample,
    only where at least ten lie beyond it.  Given the run's calibrations, one
    before each sample and one after the last, wall_s and op_gmean_ms (the
    geometric mean of the per-op latencies) are the same figures with each
    sample first divided by its slowdown against CALIBRATION_S: the mean of
    the calibrations either side of it.  The calibrations and the samples are
    kept, so that the normalization can be checked from the results file.
    """
    def per_op_mean(seconds):
        per_op = {}
        for (i, _), t in zip(results, seconds):
            per_op.setdefault(i, []).append(t)
        return {i: statistics.fmean(v) for i, v in sorted(per_op.items())}

    mean = per_op_mean([r.seconds for _, r in results])
    attempted = len(results)
    failed = sum(1 for _, r in results if r.failure is not None)
    gaps = {}
    for i, r in results:
        if r.gap is not None:
            gaps.setdefault(i, r.gap)
    samples_ms = [r.seconds * 1e3 for _, r in results]
    out = {
        "raw_wall_s": sum(mean.values()),
        "raw_op_gmean_ms": statistics.geometric_mean(mean.values()) * 1e3,
        "op_p50_ms": statistics.median(mean.values()) * 1e3,
        "op_p90_ms": percentile_with_tail(samples_ms, 90),
        "fail_share": failed / attempted,
        "gap_to_brute": statistics.median(gaps.values()) if gaps else None,
        "samples": attempted,
        "failed": failed,
        "ops_per_pass": len(deck),
        "op_mean_ms": [[deck[i].key, t * 1e3] for i, t in mean.items()],
    }
    if calibrations:
        slowdowns = [(a + b) / (2 * CALIBRATION_S)
                     for a, b in zip(calibrations, calibrations[1:])]
        normalized = per_op_mean([r.seconds / f for (_, r), f in zip(results, slowdowns)])
        out["slowdown"] = statistics.fmean(calibrations) / CALIBRATION_S
        out["calibrations_ms"] = [t * 1e3 for t in calibrations]
        out["samples_ms"] = [[i, r.seconds * 1e3] for i, r in results]
        out["wall_s"] = sum(normalized.values())
        out["op_gmean_ms"] = statistics.geometric_mean(normalized.values()) * 1e3
    return out
