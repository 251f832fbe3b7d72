#!/usr/bin/env python3
"""Scaling curve of the signed (kls) blocked search against brute force.

    python3 tools/kls_scaling.py [--out BENCH_kls_scaling.json]

Generates the same instances as ``hyperdisc gen --kind kls-det|kls-lorentz
--variables rademacher --seed 0``: determinant instances with
n in {10, 12, 14, 16, 20, 24, 32} and m' in {3, 4}, and quadratic-form
(lorentz) instances with m = 5 over the same n.  For each it times the
coefficient table build and the blocked search (``solve --method blocked``
defaults, delta = 0.5) separately, in-process with BLAS pinned to one
thread, and records ``certified`` and ``bound``; where brute force fits
under its cap it also records the brute optimum and its time.  Every time
is one run, in seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from hyperdisc.instances import gen_kls_det, gen_kls_lorentz  # noqa: E402
from hyperdisc.mixedchar import KlsFamily  # noqa: E402
from hyperdisc.solver import MAX_BRUTE_BRANCHES, SolverConfig, brute_force, kadison_singer_search  # noqa: E402

SIZES = (10, 12, 14, 16, 20, 24, 32)
DELTA = 0.5


def cases():
    for mprime in (3, 4):
        for n in SIZES:
            yield {"kind": "kls-det", "n": n, "mprime": mprime}, gen_kls_det(n, mprime, 0, "rademacher")
    for n in SIZES:
        yield {"kind": "kls-lorentz", "n": n, "m": 5}, gen_kls_lorentz(n, 5, 0, "rademacher")


def measure(inst) -> dict:
    start = time.perf_counter()
    table = inst.coefficient_table
    built = time.perf_counter()
    result = kadison_singer_search(KlsFamily(inst), SolverConfig(delta=DELTA))
    searched = time.perf_counter()
    row = {"table_entries": len(table.entries), "table_s": built - start,
           "search_s": searched - built, "blocked_s": searched - start,
           "oracle_calls": result.oracle_calls, "certified": result.certified,
           "bound": result.bound, "brute_optimum": None, "brute_s": None}
    if 2 ** inst.n <= MAX_BRUTE_BRANCHES:
        start = time.perf_counter()
        _, optimum = brute_force(inst, "kls")
        row["brute_s"] = time.perf_counter() - start
        row["brute_optimum"] = optimum
    return row


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
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


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "blas_threads_pinned": True,
        "loop": "in-process, one case at a time, one run per case",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_kls_scaling.json"))
    args = parser.parse_args(argv)
    rows = []
    for params, inst in cases():
        row = {**params, **measure(inst)}
        rows.append(row)
        print(json.dumps(row), flush=True)
    blob = {
        "what": "blocked kls search (integer coefficient table + search) against brute "
                "force, Rademacher variables, generator seed 0, delta 0.5",
        "command": "python3 tools/kls_scaling.py",
        "environment": environment(),
        "cases": rows,
    }
    Path(args.out).write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
