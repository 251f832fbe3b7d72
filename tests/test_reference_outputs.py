"""Every op the benchmark can draw reproduces its recorded output.

Runs each op of ``workloads.every_op`` on the three workloads through the
benchmark's own ``harness.generate``, ``invoke`` and ``judge`` against
``hdbench/reference.json``.  It reads ``hdbench/`` and writes only to a
temporary directory.  No op may be incorrect: produce output that differs
from its reference or fails a semantic check.  Only sr-search may fail ops,
the known failures of its float lane (ROADMAP item 1), which have no
reference output.
"""

import json
import sys
from pathlib import Path

import pytest

HDBENCH = Path(__file__).resolve().parent.parent / "hdbench"
sys.path.insert(0, str(HDBENCH))

import harness  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((HDBENCH / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("workload, may_fail", [("kls-search", False), ("sr-search", True),
                                                ("certify", False)])
def test_every_op_matches_the_reference(workload, may_fail, reference, tmp_path):
    ops = workloads.every_op(workload)
    files, gen_failures, _ = harness.generate(ops, tmp_path, reference)
    assert gen_failures == []
    optimum = harness.optima(ops, files)
    results = [harness.judge(op, harness.invoke(op.resolve(files)), reference,
                             optimum.get(op.instance.key) if op.instance else None)
               for op in ops]
    incorrect = [f"{r.op.key}: {r.failure}" for r in results if r.incorrect]
    assert incorrect == []
    if not may_fail:
        assert [f"{r.op.key}: {r.failure}" for r in results if r.failure] == []
