#!/usr/bin/env python3
"""Record reference.json: the sha256 of every op's stdout, for the current code.

    python3 hdbench/record_reference.py [--workload NAME ...]

Runs every op that any --seed can draw (see workloads.every_op) once and
stores the digest of each op that succeeds and passes the semantic checks;
ops that fail get no digest and are listed on stderr.  Entries of the
workloads not named are kept; entries no workload can draw are dropped.
Run it only on the commit whose outputs are the reference: the benchmark
treats any later difference as a failed op.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import _git_sha  # noqa: E402  (first: pins BLAS threads before numpy loads)
import harness  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, digests: dict, workdir: Path):
    ops = workloads.every_op(workload)
    files, failures, _ = harness.generate(ops, workdir, {})
    for line in failures:
        sys.stderr.write(f"gen failed: {line}\n")
    for inst in workloads.instances(ops):
        if inst.key in files:
            text = Path(files[inst.key]).read_text()
            digests[" ".join(inst.gen_argv)] = harness.digest("gen", text)
    optimum = harness.optima(ops, files)
    for op in ops:
        if op.instance is not None and op.instance.key not in files:
            continue
        out = harness.invoke(op.resolve(files))
        result = harness.judge(op, out, {}, optimum.get(op.instance.key) if op.instance else None)
        sys.stderr.write(f"{result.seconds:8.3f}s {op.key}"
                         f"{'  FAILED ' + result.failure if result.failure else ''}\n")
        if result.failure is None:
            digests[op.key] = harness.digest(op.command, out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    path = HERE / "reference.json"
    digests = json.loads(path.read_text())["digests"] if path.is_file() else {}
    workdir = HERE / "_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            record(workload, digests, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    current = set()
    for workload in workloads.WORKLOADS:
        ops = workloads.every_op(workload)
        current.update(op.key for op in ops)
        current.update(" ".join(inst.gen_argv) for inst in workloads.instances(ops))
    digests = {k: v for k, v in digests.items() if k in current}
    blob = {"git_sha": _git_sha(ROOT), "pool": workloads.POOL, "digests": digests}
    path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
