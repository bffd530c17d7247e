"""Errors raised by the language front end."""


class SillError(Exception):
    """Base class for every language-level error."""


class ParseError(SillError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(msg)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"{self.line}:{self.col}: {base}"
        return base


class IllFormed(SillError):
    """A session or functional type breaks a formation rule."""


class UnboundTypeVariable(IllFormed):
    pass


class SillTypeError(SillError):
    """A term or process does not have the claimed type."""


class LinearityError(SillTypeError):
    """A channel is used twice or left unconsumed."""


class IllTyped(SillError):
    """A configuration fact fails to typecheck."""


class InterfaceMismatch(SillError):
    """A configuration typechecks, but not at the claimed interface."""


class CyclicSharing(SillError):
    """Configuration facts share a channel or form a dependency cycle."""
