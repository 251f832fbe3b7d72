"""The benchmark's workloads: which CLI ops run, on which generated instances.

A workload is a tuple of slots.  Each slot takes an instance seed drawn
from ``range(POOL)`` by the run's ``--seed`` and yields CLI ops; a slot may
ignore the seed (named graphs, the reproduced failures).  Reference outputs
exist for every op any seed can draw, so every op's stdout is checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL = 16
FILE = "{file}"
# Seconds one pass over each workload's ops takes on an uncontended core of
# the machine the benchmark was tuned on (x86-64, 2 vCPUs; the raw pass time
# divided by the run's slowdown, see harness.calibrate).  A run makes
# passes(workload, seconds) whole passes, so the ops it runs, and the failed
# ones among them, depend on the seed alone, never on the machine's speed.
PASS_SECONDS = {"kls-search": 10.0, "sr-search": 3.0, "certify": 2.7}


@dataclass(frozen=True)
class Instance:
    key: str
    gen_argv: tuple


@dataclass(frozen=True)
class Op:
    argv: tuple  # FILE stands for the instance file
    instance: Instance | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def method(self) -> str | None:
        return self.argv[self.argv.index("--method") + 1] if "--method" in self.argv else None

    @property
    def key(self) -> str:
        """Names the op independently of where its instance file lives."""
        return " ".join(self.instance.key if a == FILE else a for a in self.argv)

    def resolve(self, files: dict) -> list:
        return [files[self.instance.key] if a == FILE else a for a in self.argv]


def kls(kind: str, n: int, size: int, variables: str, seed: int) -> Instance:
    flag = "--mprime" if kind == "kls-det" else "--m"
    return Instance(f"{kind}:n={n}:{flag[2:]}={size}:{variables}:seed={seed}",
                    ("gen", "--kind", kind, "--n", str(n), flag, str(size),
                     "--variables", variables, "--seed", str(seed)))


def sr(graph: str) -> Instance:
    return Instance(f"sr-ust:{graph}", ("gen", "--kind", "sr-ust", "--graph", graph))


def search(inst: Instance) -> list:
    return [Op(("solve", FILE, "--method", m), inst) for m in ("brute", "blocked")]


def verify(inst: Instance) -> list:
    return [Op(("verify", FILE), inst)]


def _slot(make, fixed_seed=None):
    """A slot drawing its instance seed from the run, or pinned to fixed_seed."""
    return lambda s: make(s if fixed_seed is None else fixed_seed)


# Instances with mixed variables are pinned to fixed generator seeds: their
# solve cost varies up to tenfold between seeds (2^a 3^b completions), which
# would swamp the run-to-run comparison.  Rademacher instances, whose cost is
# set by n and the dimension, are drawn by the run's seed.
def _kls_search_slots() -> tuple:
    det = [(6, 3, "rademacher", None), (6, 3, "mixed", 0), (6, 3, "mixed", 1),
           (6, 4, "rademacher", None), (8, 3, "rademacher", None),
           (8, 4, "rademacher", None), (10, 3, "rademacher", None)]
    lor = [(6, 4, "mixed", 0), (6, 5, "mixed", 0), (8, 4, "rademacher", None),
           (8, 5, "rademacher", None), (10, 4, "rademacher", None)]
    slots = [_slot(lambda s, n=n, p=p, v=v: search(kls("kls-det", n, p, v, s)), fixed)
             for n, p, v, fixed in det]
    slots += [_slot(lambda s, n=n, m=m, v=v: search(kls("kls-lorentz", n, m, v, s)), fixed)
              for n, m, v, fixed in lor]
    slots.append(_slot(lambda s: [Op(("bench", "--kind", "kls-det", "--n", "6", "--mprime", "3",
                                      "--count", "1", "--trials", "200", "--seed", str(s)))]))
    return tuple(slots)


# Sparse graphs on which the float lane raises NotRealRooted at the seed
# commit; they stay in the workload and count as failed ops.
REPRODUCED_FAILURES = ("c5", "random:6:7:0", "random:6:7:1", "random:7:9:0",
                       "random:8:10:0", "random:9:16:0")


def _sr_search_slots() -> tuple:
    """Named graphs, the reproduced failures, dense random graphs at graph
    seed 1 (their cost varies threefold between graph seeds) and sparse to
    medium random graphs at a seed drawn by the run."""
    fixed = ("c4", "k4", "k5", "diamond") + REPRODUCED_FAILURES
    fixed += tuple(f"random:{v}:{min(2 * v, 16)}:1" for v in range(6, 10))
    slots = [_slot(lambda s, g=g: search(sr(g))) for g in fixed]
    for v in range(6, 10):
        for e in (v + 1, (3 * v) // 2):
            slots.append(_slot(lambda s, v=v, e=e: search(sr(f"random:{v}:{e}:{s}"))))
    slots.append(_slot(lambda s: [Op(("bench", "--kind", "sr-ust", "--n", "6", "--count", "1",
                                      "--trials", "20", "--seed", str(s)))]))
    return tuple(slots)


def _certify_slots() -> tuple:
    files = [("kls-det", 6, 3, "mixed", 0), ("kls-det", 6, 4, "rademacher", None),
             ("kls-det", 8, 3, "rademacher", None), ("kls-det", 8, 4, "rademacher", None),
             ("kls-lorentz", 6, 4, "mixed", 0), ("kls-lorentz", 8, 5, "rademacher", None)]
    suite = _slot(lambda s: [Op(("verify", "--suite", "all", "--seed", str(s)))])
    slots = [suite, suite]
    slots += [_slot(lambda s, k=k, n=n, p=p, v=v: verify(kls(k, n, p, v, s)), fixed)
              for k, n, p, v, fixed in files]
    slots += [_slot(lambda s, g=g: verify(sr(g))) for g in ("k4", "k5", "diamond")]
    return tuple(slots)


WORKLOADS = {
    "kls-search": _kls_search_slots(),
    "sr-search": _sr_search_slots(),
    "certify": _certify_slots(),
}


def deck(workload: str, seed: int) -> list:
    """The ops of one pass, each slot at an instance seed drawn from --seed."""
    rng = random.Random(f"hdbench:{workload}:{seed}")
    return [op for slot in WORKLOADS[workload] for op in slot(rng.randrange(POOL))]


def passes(workload: str, seconds: float) -> int:
    """Whole passes that fill about ``seconds`` on the tuning machine; at
    least two, so that every op's latency is a mean of two samples."""
    return max(2, round(seconds / PASS_SECONDS[workload]))


def every_op(workload: str) -> list:
    """Every distinct op that some --seed can put in the workload."""
    seen = {}
    for slot in WORKLOADS[workload]:
        for s in range(POOL):
            for op in slot(s):
                seen.setdefault(op.key, op)
    return list(seen.values())


def instances(ops) -> list:
    seen = {}
    for op in ops:
        if op.instance is not None:
            seen.setdefault(op.instance.key, op.instance)
    return list(seen.values())
