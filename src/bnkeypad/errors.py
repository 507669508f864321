"""Exception hierarchy shared across the package.

Every domain failure carries a stable machine-readable ``code``. The CLI
prints it as ``code<TAB>message`` on stderr and maps :class:`UsageError`
to exit status 2 and every other :class:`KeypadError` to exit status 1.
"""

from __future__ import annotations


class KeypadError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "E_INTERNAL"


class UsageError(KeypadError):
    """Bad invocation: unknown flags, missing input files, malformed config."""

    code = "E_USAGE"


class CorpusDecodeError(KeypadError):
    """Corpus bytes are not valid UTF-8."""

    code = "E_DECODE"

    def __init__(self, path: str, byte_offset: int, reason: str = ""):
        self.path = path
        self.byte_offset = byte_offset
        detail = f" ({reason})" if reason else ""
        super().__init__(f"{path}: invalid UTF-8 at byte offset {byte_offset}{detail}")


class IncompleteAlphabetError(KeypadError):
    """Frequency table lacks units the layout builder is required to place."""

    code = "E_INCOMPLETE_ALPHABET"

    def __init__(self, missing):
        self.missing = tuple(missing)
        names = ", ".join(u.display for u in self.missing)
        super().__init__(
            f"frequency table is missing {len(self.missing)} required unit(s): {names}"
        )


class DocumentSyntaxError(KeypadError):
    """A layout or model document cannot be parsed; the message names the line."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class LayoutSyntaxError(DocumentSyntaxError):
    """Layout document cannot be parsed."""

    code = "E_LAYOUT_SYNTAX"


class LayoutInvariantError(KeypadError):
    """Layout violates a structural invariant (duplicate unit, bad role slot)."""

    code = "E_LAYOUT_INVARIANT"


class ModelSyntaxError(DocumentSyntaxError):
    """Ergonomic model file cannot be parsed."""

    code = "E_MODEL_SYNTAX"


class MissingKeyError(KeypadError):
    """A key identifier is absent from the ergonomic model."""

    code = "E_MISSING_KEY"


class EmptyCorpusError(KeypadError):
    """The corpus leaves no typable unit to evaluate."""

    code = "E_EMPTY_CORPUS"


class UntypableUnitError(KeypadError):
    """A unit in the input text has no slot in the layout."""

    code = "E_UNTYPABLE"

    def __init__(self, unit, position: int):
        self.unit = unit
        self.position = position
        super().__init__(f"unit {unit.display} at text position {position} is not in the layout")


class CorruptTraceError(KeypadError):
    """A keystroke trace does not decode against the given layout."""

    code = "E_CORRUPT_TRACE"


class CapacityError(KeypadError):
    """More units than available slots."""

    code = "E_CAPACITY"


class InstanceTooLargeError(KeypadError):
    """Assignment instance exceeds the exhaustive-search guard bound."""

    code = "E_TOO_LARGE"


class IncompleteLayoutError(KeypadError):
    """Objective refers to a unit the layout does not place."""

    code = "E_INCOMPLETE_LAYOUT"
