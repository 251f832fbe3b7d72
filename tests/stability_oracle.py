"""Seeded refutation search for real stability, the tests' oracle.

A polynomial is real stable when it has no zeros with every coordinate in
the open upper half plane; equivalently, every univariate restriction
p(a t + b) with a > 0 componentwise is nonzero and real-rooted.  The search
is refutation-only: it samples seeded rational lines and certifies any
failure exactly, so a refutation is a proof while a pass is only evidence.
Its own checks are in test_realstable.py.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from hyperdisc.errors import ZeroPolynomial
from hyperdisc.realstable import MultiPoly
from hyperdisc.unipoly import UniPoly, is_real_rooted


@dataclass(frozen=True)
class StabilityVerdict:
    passed: bool
    trials: int
    witness_a: tuple | None = None
    witness_b: tuple | None = None
    witness_restriction: UniPoly | None = None

    def __bool__(self) -> bool:
        return self.passed


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Counter-derived sub-seeds keep trial streams independent of scheduling.
    return random.Random(f"stability:{seed}:{trial}")


def stability_test(p: MultiPoly, trials: int = 1000, seed: int = 0) -> StabilityVerdict:
    """Seeded refutation search for real stability.

    Each trial draws a rational direction a in (0, 4]^n and offset b in
    [-4, 4]^n on a 1/8 grid, restricts p to the line a t + b, and requires
    the restriction to be nonzero and real-rooted (checked exactly).  The
    first failing line is returned as an exact certificate.
    """
    if p.is_zero:
        raise ZeroPolynomial("stability test needs a nonzero polynomial")
    n = p.nvars
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        a = tuple(Fraction(rng.randint(1, 32), 8) for _ in range(n))
        b = tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(n))
        line = p.restrict_line(a, b)
        if line.is_zero or not is_real_rooted(line):
            return StabilityVerdict(False, trial + 1, a, b, line)
    return StabilityVerdict(True, trials)
