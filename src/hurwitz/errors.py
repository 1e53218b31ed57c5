"""Exception types shared across the package.

Everything raised deliberately by this package derives from HurwitzError,
so callers (and the CLI) can catch one type and map it to a diagnostic.
"""


class HurwitzError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(HurwitzError):
    """A text form (factorization, certificate, braid tuple) failed to parse.

    `position` is the 0-based character offset into the parsed text of the
    offending token (the text's length when the text ends too early), or
    None when the error is not tied to a single location.
    """

    def __init__(self, message: str, position: "int | None" = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MoveRangeError(HurwitzError):
    """A Hurwitz move position is out of range for the factorization it is applied to."""


class PreconditionError(HurwitzError):
    """An operation's stated precondition does not hold for the given input."""


class InternalError(HurwitzError):
    """An internal invariant failed.

    Raised when the canonicalization planner reaches a state its own
    construction rules out (a missing path, an odd leftover count).  This is
    never corrected silently: it indicates a bug or a genuinely inequivalent
    input slipping past validation, and must be investigated.
    """
