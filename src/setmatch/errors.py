"""Exception types shared across the package."""


class SetMatchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SetMatchError):
    """Malformed term or pattern text; carries the offset of the fault, in
    characters from the start of the text as written."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        where = f"line {line}, offset {offset}" if line is not None else f"offset {offset}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.offset = offset
        self.line = line


class SignatureError(SetMatchError):
    """Name/arity conflicts, or use of a symbol that was never declared."""


class PositionError(SetMatchError):
    """A position that leads outside the domain of the term it was applied to."""


class PatternSetError(SetMatchError):
    """Invalid pattern collection: empty, duplicated or bare-wildcard entries."""


class SubjectError(SetMatchError):
    """A subject term that does not fit the signature it is evaluated against."""


class FormatError(SetMatchError):
    """Malformed serialized automaton; carries a path into the JSON document."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.reason = message
        self.path = path


class InvariantError(SetMatchError):
    """Internal consistency violation. Indicates a bug, never a user error."""
