"""Exception hierarchy shared by all modules.

Every error carries the CLI exit code it maps to: 1 for syntax problems in
input files, 2 for semantically invalid input or violated preconditions.
Negative verdicts (exit 3) are ordinary return values, not exceptions.
"""

from __future__ import annotations


class DglaError(Exception):
    exit_code = 2


class ParseError(DglaError):
    """Malformed bracket expression or document; knows where it happened."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)

    def within(self, context: str) -> "ParseError":
        """This error with the file or field it happened in put first, as in
        "map.json: target: broken.json: line 2, col 1: ..."; the position
        is kept."""
        err = ParseError(f"{context}: {self}")
        err.line, err.col = self.line, self.col
        return err


class FormatError(DglaError):
    """Structurally bad input document (missing field, wrong type, bad name)."""


class UnknownGenerator(DglaError):
    pass


class MixedDegrees(DglaError):
    pass


class DegreeBoundExceeded(DglaError):
    pass


class DegreeBoundTooSmall(DglaError):
    pass


class NotAChainMap(DglaError):
    pass


class NotSimplyConnected(DglaError):
    pass


class TargetNotFiniteType(DglaError):
    pass


class NotQuasiIso(DglaError):
    pass


class BaseNotAutomorphism(DglaError):
    pass


class NotMinimal(DglaError):
    pass


class NotWordLengthRaising(DglaError):
    pass


class NotUnipotentRelative(DglaError):
    pass


class NotRelativeAutomorphism(DglaError):
    """position: the place (0 or 1) of the refused endo among those compared."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message)


class NotFiltered(DglaError):
    """Endomorphism image of a base generator leaves the base subalgebra."""
