"""Exception hierarchy shared by all modules.

Every error carries the CLI exit code it maps to: 1 for syntax problems in
input files, 2 for semantically invalid input or violated preconditions.
Negative verdicts (exit 3) are ordinary return values, not exceptions.

An error carries its place as data: `where`, a tuple of the file first,
then the fields or flags inside it, as ("map.json", "images[y]").  Whoever
knows a place puts it in front with `within`, which returns the same error,
so subclass data such as a ParseError's position survives.  `str(e)` is the
one renderer: the places, then the message, joined by ": ".  A ParseError
with a position in its text keeps it as its innermost place, "line L, col C".
"""

from __future__ import annotations


class DglaError(Exception):
    exit_code = 2
    where: tuple[str, ...] = ()

    def within(self, *where: str) -> DglaError:
        """This error, with `where` put in front of the places it has."""
        self.where = (*where, *self.where)
        return self

    def __str__(self) -> str:
        return ": ".join((*self.where, super().__str__()))


class ParseError(DglaError):
    """Malformed bracket expression or document; knows where it happened."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line, self.col = line, col
        if line is not None:
            self.where = (f"line {line}, col {col}",)


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
