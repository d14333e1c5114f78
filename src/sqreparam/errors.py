"""Exception hierarchy shared across the package.

Every failure mode callers are expected to branch on gets its own class.
The CLI maps these onto process exit codes, so keep the taxonomy flat and
stable: structural input problems, domain violations, numerical trouble,
and loud internal consistency failures.
"""


class SqreparamError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SqreparamError):
    """Inputs have inconsistent shapes or non-finite entries."""


class NumericalFailure(SqreparamError):
    """A solver exceeded its iteration budget or lost feasibility.

    Deliberately distinct from infeasibility: callers must be able to
    tell "the set is empty" apart from "the computation broke down".
    """


class EmptySet(SqreparamError):
    """An operation was asked about an empty generator set."""


class InfeasiblePolyhedron(SqreparamError):
    """A projection target has no feasible point."""


class UnboundedPolyhedron(SqreparamError):
    """Vertex enumeration was asked about an unbounded polyhedron."""


class TooLarge(SqreparamError):
    """A brute-force oracle refused an input above its size cap."""


class OutOfDomain(SqreparamError):
    """The query point is not in the effective domain."""


class OutOfLiftedDomain(OutOfDomain):
    """The squared point y*y is not in the domain of the polyhedral term."""


class InfeasibleMultiplier(SqreparamError):
    """The supplied multiplier is not consistent with the subdifferential."""


class InconsistencyDetected(SqreparamError):
    """Two routes that must agree disagreed beyond tolerance.

    Raised instead of silently returning a report with a false
    consistency flag; carries the offending report when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotAStationaryPoint(SqreparamError):
    """A query that needs a stationary point got one that is not."""


class NotConvex(SqreparamError):
    """A probe that assumes convexity got a nonconvex problem."""


class NotAMinimizer(SqreparamError):
    """A probe that assumes a global minimizer got a non-minimizing point."""


class InsufficientSamples(SqreparamError):
    """Sampling produced too little usable data to fit anything."""


class InsufficientTrace(SqreparamError):
    """A solver trace is too short or too flat to classify its rate."""


class UnsupportedProblemClass(SqreparamError):
    """The requested solver variant does not cover this problem shape."""


class DivergenceDetected(SqreparamError):
    """A descent method increased the objective; indicates a bug."""


class InvalidRange(SqreparamError):
    """An exponent or rate parameter is outside its admissible range."""


class ParseError(SqreparamError):
    """A problem file is malformed; message carries the field path."""


class ValidationError(SqreparamError):
    """A problem file parsed but fails semantic validation."""
