"""Error hierarchy shared by the library and the CLI, and how their
messages write a number.

The CLI maps these onto exit codes: ParseError -> 1, DomainError -> 2,
UnsupportedError -> 3.
"""


class BehrendError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(BehrendError):
    """Syntax error in an ideal/tower expression; carries the offset."""

    def __init__(self, message, text, position):
        super().__init__(message)
        self.text, self.position = text, position

    def __reduce__(self):  # copy and pickle pass the three arguments back
        return type(self), (str(self), self.text, self.position)

    def diagnostic(self):
        caret = " " * self.position + "^"
        return f"{self}\n  {self.text}\n  {caret}"


class DomainError(BehrendError):
    """Input outside an operation's mathematical domain (e.g. not a fat point)."""


class UnsupportedError(BehrendError):
    """Well-formed input that no implemented engine covers."""


def number_text(n: int) -> str:
    """n, or "<k digits>" when it has k > 30 digits: a message stays short
    however large the number that the input formed, and needs no int-to-str
    conversion of it."""
    if abs(n) < 10**30:
        return str(n)
    digits = int(abs(n).bit_length() * 0.30102999566398120)  # the count or one less
    return f"<{digits + (abs(n) >= 10**digits)} digits>"
