"""Exception types shared across the package."""


class LoopError(Exception):
    """Base class for every error raised by this package."""


class TableValidationError(LoopError):
    """A raw table cannot be accepted as a loop; carries the report."""

    def __init__(self, report, message=None):
        self.report = report
        if message is None:
            kinds = sorted({kind for kind, _ in report.violations})
            message = "table is not a valid loop (%s)" % ", ".join(kinds or ["unknown"])
        super().__init__(message)


class HalfMapError(LoopError):
    """A bijection breaks the half-morphism law.

    Carries the first offending pair (x, y) together with the image of
    x*y and the two admissible products of the images.
    """

    def __init__(self, x, y, image_of_product, forward, backward):
        self.x = x
        self.y = y
        self.image_of_product = image_of_product
        self.forward = forward
        self.backward = backward
        super().__init__(
            "pair (%d, %d): image of the product is %d, admissible values are "
            "%d and %d" % (x, y, image_of_product, forward, backward)
        )


class QuotientError(LoopError):
    """Coset multiplication is not well defined for the given subloop."""


class LoopFileError(LoopError):
    """A .loop file could not be turned into a loop.

    stage is "parse" when the file is structurally unreadable and
    "table" when it reads fine but the table fails loop validation.
    """

    def __init__(self, message, line=None, column=None, stage="parse", report=None):
        self.line = line
        self.column = column
        self.stage = stage
        self.report = report
        where = ""
        if line is not None:
            where = " (line %d%s)" % (line, (", column %d" % column) if column is not None else "")
        super().__init__(message + where)


class TheoremViolation(LoopError):
    """An automorphic Moufang table produced a proper half-automorphism."""


class InternalCheckError(LoopError):
    """A self-check failed; points at table corruption or an implementation bug."""


# The CLI's exit codes (the cli module docstring says when each is used).
# They live here so that the command modules share them without importing cli.
EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141
