"""Exception hierarchy.

Every error raised by the toolkit derives from T0KitError so callers
(and the CLI exit-code mapping) can catch one type.
"""


class T0KitError(Exception):
    pass


class NotT0(T0KitError):
    """Two points share every open set."""


class NotAPartialOrder(T0KitError):
    """Relation fails antisymmetry or transitivity."""


class NotATopology(T0KitError):
    """from_opens: a given open is not a subset of the carrier."""


class CapExceeded(T0KitError):
    """A size guard tripped; the message names the guard and the bound."""


class MismatchedSpaces(T0KitError):
    """Map composition or comparison across different carriers."""


class NotContinuous(T0KitError):
    pass


class NotOpen(T0KitError):
    pass


class NotBClosed(T0KitError):
    pass


class EmptyCarrier(T0KitError):
    pass


class EmptyOpen(T0KitError):
    """Minimum selector asked for on the empty open set."""


class NotRepresentable(T0KitError):
    """A symbolic operation left the closed form the algebra can express."""


class BadParams(T0KitError):
    """A parameter out of range or of the wrong type: a catalog
    parameter, a truncation size or sample bound, an unknown cap name
    or point name, a verdict of unknown kind or without its bound, or
    a certificate the symbolic checkers refuse."""


class UnknownSpace(T0KitError):
    """Catalog lookup with a name not in the catalog."""


class ParseError(T0KitError):
    """Space-file syntax or reference error; carries line/column."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            loc = f" ({loc})"
        super().__init__(msg + loc)


class UsageError(T0KitError):
    """Bad CLI invocation."""
