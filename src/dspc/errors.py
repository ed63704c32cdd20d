"""Exception types shared across the package."""


class DspcError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(DspcError):
    """A structural invariant of a graph, path, or instance does not hold."""


class CycleDetected(DspcError):
    """The input graph is not acyclic."""


class ShapeMismatch(DspcError):
    """A solution does not have one path per demand."""


class ParseError(DspcError):
    """An instance or solution file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LimitExceeded(DspcError):
    """The exact solver used up its budget of dead states or of moves checked without deciding."""


class OracleTooLarge(DspcError):
    """The brute-force oracle's enumeration bound would be exceeded."""


class ContextInvalid(DspcError):
    """A subpath-swap context does not match the solution it is applied to."""


class NoDonorFound(DspcError):
    """No path can donate a subpath; the rerouting preconditions are not met."""


class ProjectionInvalid(DspcError):
    """A solution projected back from a transformed instance failed re-verification."""


class WitnessInvalid(DspcError):
    """A planted witness is not valid for its source problem."""


class ColorMissing(DspcError):
    """A color class of a colored graph is empty."""


class PatternNotCubicBipartite(DspcError):
    """The pattern graph is not 3-regular and bipartite."""
