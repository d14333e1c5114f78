"""Exception hierarchy shared across the package.

A class exists only for a failure that callers branch on, and it carries
the process exit code and the stderr label the CLI reports it with:
`cli.main` catches SqreparamError once and returns ``err.exit_code``.
Four classes set them: SqreparamError (4, a numerical failure unless a
subclass says otherwise), ParseError (2), ValidationError (3, raised as
itself for a point outside a hypothesis of the paper, and the base of
every invalid-input class) and InconsistencyDetected (5).  The parser
re-labels DimensionMismatch and InfeasiblePolyhedron; `solve` prints
InsufficientTrace as an undetermined rate; NumericalFailure tells a
breakdown from an empty set; InsufficientSamples (a scatter too thin to
fit), TooLarge (an oracle's size cap), UnsupportedProblemClass (a shape
no solver variant covers) and InvalidRange (a parameter out of range)
each tell why an input was refused, not merely that it was.
"""


class SqreparamError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4
    label = "numerical failure"


class ParseError(SqreparamError):
    """A problem file is malformed; message carries the field path."""

    exit_code = 2
    label = "parse error"


class ValidationError(SqreparamError):
    """The input is invalid: it parsed, but the operation cannot take it."""

    exit_code = 3
    label = "validation error"


class InconsistencyDetected(SqreparamError):
    """Two routes that must agree disagreed beyond tolerance.

    Raised instead of silently returning a report with a false
    consistency flag; carries the offending report when available.
    """

    exit_code = 5
    label = "inconsistency detected"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericalFailure(SqreparamError):
    """A solver exceeded its iteration budget or lost feasibility.

    Deliberately distinct from infeasibility: callers must be able to
    tell "the set is empty" apart from "the computation broke down".
    """


class InsufficientSamples(SqreparamError):
    """Sampling produced too little usable data to fit anything."""


class InsufficientTrace(SqreparamError):
    """A solver trace is too short or too flat to classify its rate."""


class DimensionMismatch(ValidationError):
    """Inputs have inconsistent shapes or non-finite entries, or a
    generator set is built without a point."""


class InfeasiblePolyhedron(ValidationError):
    """A projection target has no feasible point."""


class TooLarge(ValidationError):
    """A brute-force oracle refused an input: above its size cap, or
    unbounded where it enumerates vertices."""


class UnsupportedProblemClass(ValidationError):
    """The requested solver variant does not cover this problem shape."""


class InvalidRange(ValidationError):
    """An exponent or rate parameter is outside its admissible range."""
