"""Exception hierarchy with stable error codes for the CLI."""


class LTDiracError(Exception):
    """Base class; every subclass carries a stable string code."""

    code = "error"


class ZeroPolynomial(LTDiracError):
    code = "zero-polynomial"


class DegreeCapExceeded(LTDiracError):
    code = "degree-cap-exceeded"


class NotASubfield(LTDiracError):
    code = "not-a-subfield"


class RamificationMismatch(LTDiracError):
    code = "ramification-mismatch"


class PrecisionTooLow(LTDiracError):
    code = "precision-too-low"


class PrecisionExhausted(LTDiracError):
    code = "precision-exhausted"


class DegreeMismatch(LTDiracError):
    code = "degree-mismatch"


class RNotAboveOne(LTDiracError):
    code = "r-not-above-one"


class Unsupported(LTDiracError):
    code = "unsupported"


class ZeroUnit(LTDiracError):
    code = "zero-unit"


class BadIndices(LTDiracError):
    code = "bad-indices"


class InternalError(LTDiracError):
    """An internal invariant failed: a bug, never a property of the input."""

    code = "internal-error"


class ParseError(LTDiracError):
    code = "parse-error"

    def __init__(self, message, position, expected=()):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)


#: exit status used by the CLI for each error code
EXIT_CODES = {
    "parse-error": 2,
    "unsupported": 3,
    "precision-exhausted": 4,
    "degree-cap-exceeded": 5,
    "internal-error": 6,
}


def exit_code_for(exc):
    if isinstance(exc, LTDiracError):
        return EXIT_CODES.get(exc.code, 1)
    return 1
