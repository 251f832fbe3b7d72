"""Exception types shared across the package."""


class HyperdiscError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(HyperdiscError):
    """An operation required a nonzero polynomial."""


class NotRealRooted(HyperdiscError):
    """A polynomial that must be real-rooted has certified complex roots.

    Raised by root extraction when the exact Sturm count falls short of the
    degree; for spectral computations this signals a construction bug (the
    instance is not hyperbolic in the claimed direction), never a tolerance
    issue that should be patched silently.
    """


class DuplicateNode(HyperdiscError):
    """Interpolation nodes share an abscissa."""


class DimensionMismatch(HyperdiscError):
    """Vector length does not match the ambient dimension."""


class RankTooHigh(HyperdiscError):
    """A vector required to have hyperbolic rank <= 1 does not."""


class IndexOutOfRange(HyperdiscError):
    """An index outside the range it must lie in."""


class DisconnectedGraph(HyperdiscError):
    """Graph operation requires a connected graph."""


class TooLarge(HyperdiscError):
    """Refusing to approximate: a desk-scale enumeration guardrail is
    exceeded, or an exact value lies past the binary64 range, where rounding
    it would give an infinity."""


class ValueNotInSupport(HyperdiscError):
    """Assignment value is not in the variable's support."""


class EmptyBranch(HyperdiscError):
    """No support set extends the given partial assignment."""


class ChainViolated(HyperdiscError):
    """A bound-chain precondition fails for the given instance."""

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        self.detail = detail
        super().__init__(f"bound chain precondition violated at {step!r}" + (f": {detail}" if detail else ""))


class OddK(HyperdiscError):
    """Largest-root estimation requires an even power-sum index."""


class OracleFailure(HyperdiscError):
    """A block of the blocked search has no feasible tuple."""


class CertificationFailed(HyperdiscError):
    """Post-hoc exact certification exceeded the promised bound."""

    def __init__(self, certified: float, bound: float):
        self.certified = certified
        self.bound = bound
        super().__init__(f"certified root {certified!r} exceeds bound {bound!r}")


class InvalidParams(HyperdiscError):
    """Instance generator parameters outside desk guardrails."""
