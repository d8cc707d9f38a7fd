"""Source spans for diagnostics.

Every token and AST node carries a :class:`Span` so that detector errors and
agent rewrites can point back at concrete source locations, mirroring the way
Miri diagnostics reference ``file.rs:line:col``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Span:
    """Half-open byte range ``[start, end)`` in the original source text.

    An immutable value: assigning an attribute raises
    :class:`~dataclasses.FrozenInstanceError`, and spans compare, hash and
    pickle by value.  Slotted and built through its slot descriptors
    rather than a frozen dataclass, because the lexer makes one per token
    and a frozen dataclass's ``__init__`` costs twice as much.
    """

    __slots__ = ("start", "end", "line", "col")

    def __init__(self, start: int, end: int, line: int, col: int):
        _set_start(self, start)
        _set_end(self, end)
        _set_line(self, line)
        _set_col(self, col)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Span:
            return NotImplemented
        return (self.start, self.end, self.line, self.col) == \
            (other.start, other.end, other.line, other.col)

    def __hash__(self):
        return hash((self.start, self.end, self.line, self.col))

    def __reduce__(self):
        return Span, (self.start, self.end, self.line, self.col)

    def __repr__(self) -> str:
        return (f"Span(start={self.start!r}, end={self.end!r}, "
                f"line={self.line!r}, col={self.col!r})")

    def merge(self, other: "Span") -> "Span":
        """Return the smallest span covering both ``self`` and ``other``."""
        if other.start < self.start:
            first, last = other, self
        else:
            first, last = self, other
        return Span(first.start, max(self.end, other.end), first.line, first.col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


_set_start = Span.start.__set__
_set_end = Span.end.__set__
_set_line = Span.line.__set__
_set_col = Span.col.__set__

DUMMY_SPAN = Span(0, 0, 0, 0)


def line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based ``(line, col)`` of a character offset, lexer convention."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_newline = source.rfind("\n", 0, offset)
    return line, offset - last_newline


def span_at(source: str, start: int, end: int | None = None) -> Span:
    """Build a :class:`Span` for ``[start, end)`` computing line/col from
    the text (for callers that only track offsets, e.g. textual splices)."""
    line, col = line_col(source, start)
    return Span(start, start if end is None else end, line, col)


def source_line(source: str, line: int) -> str:
    """The 1-based ``line``-th line of ``source`` (no trailing newline)."""
    lines = source.splitlines()
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def render_snippet(source: str, span: Span, label: str = "") -> str:
    """A rustc-style caret snippet pointing at ``span``::

          --> 3:9
           |
         3 |     let total = count + 1;
           |                 ^^^^^ label

    Spans with no real location (``DUMMY_SPAN``) render as the location
    line alone so callers never special-case them.
    """
    header = f"  --> {span}"
    if span.line < 1:
        return header
    text = source_line(source, span.line)
    gutter = f"{span.line} "
    pad = " " * len(gutter)
    remaining = len(text) - (span.col - 1)
    width = max(1, min(span.end - span.start, remaining))
    underline = " " * (span.col - 1) + "^" * width
    if label:
        underline += f" {label}"
    return "\n".join([header,
                      f"{pad}|",
                      f"{gutter}| {text}",
                      f"{pad}| {underline}"])
