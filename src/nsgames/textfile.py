"""The one reader of the package's text formats (games, correlations, POVMs
and channels).

Every format is line oriented: ``#`` starts a comment that runs to the end of
its line, and lines left blank are dropped.  A loader reads the content lines
of :class:`ContentLines` in order, checks each header's kind with
``ContentLines.header``, converts tokens with :func:`row` and :func:`sizes`,
and builds its object with :func:`checked`, so that every failure, a broken
invariant included, is a ``ParseError`` naming a line.
"""

from __future__ import annotations

from itertools import compress, count

from .errors import ParseError, ValidationError


class ContentLines:
    """The content lines of a text: ``rows[i]``, stripped and with its comment
    cut, stands on 1-based line ``numbers[i]``.  Two flat lists, so that a long
    file makes no object per line for the garbage collector to track."""

    def __init__(self, text: str):
        rows = [raw.partition("#")[0].strip() for raw in text.splitlines()]
        self.numbers = list(compress(count(1), rows))
        self.rows = list(filter(None, rows))

    def __len__(self) -> int:
        return len(self.rows)

    def number(self, index: int) -> int:
        """The number of content line ``index``, or past the end of the last (1 if none)."""
        return self.numbers[min(index, len(self) - 1)] if self.numbers else 1

    def header(self, index: int, kind: str) -> tuple[int, list[str]]:
        """The number and tokens of content line ``index``, a ``kind`` header."""
        tokens = self.rows[index].split() if index < len(self) else [""]
        if tokens[0] != kind:
            found = repr(tokens[0]) if tokens[0] else "the end of the text"
            raise ParseError(f"expected a {kind!r} header, found {found}", line=self.number(index))
        return self.numbers[index], tokens


def row(tokens: list[str], n: int, convert, line: int) -> list:
    """Exactly ``n`` tokens, each converted by ``convert``."""
    if len(tokens) != n:
        raise ParseError(f"expected {n} entries, got {len(tokens)}", line=line)
    try:
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise ParseError(f"bad entry ({exc})", line=line) from exc


def sizes(tokens: list[str], n: int, line: int) -> list[int]:
    """Exactly ``n`` positive integers."""
    values = row(tokens, n, int, line)
    if min(values) < 1:
        raise ParseError(f"sizes must be positive, got {values}", line=line)
    return values


def checked(line: int, build, *args):
    """``build(*args)``, with a ``ValidationError`` of the built object
    re-raised as a ``ParseError`` at ``line``, the object's first line."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ParseError(str(exc), line=line) from exc
