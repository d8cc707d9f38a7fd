"""Tokenizer for the mini-Rust subset.

:func:`tokenize` turns source text into a flat :class:`Token` stream ending
in one ``EOF`` token.  It recognises exactly the surface syntax the UB
corpus needs: identifiers and the keyword set of :mod:`repro.lang.tokens`,
integer literals (decimal, ``0x``, ``0b``, with an optional type suffix),
string and char literals with escapes, lifetimes, line and nested block
comments, and longest-match punctuation (``::``, ``->``, ``..=``, shifts,
compound assignments, ...).

One compiled master regex does the scanning: each match skips the blanks
and line comments before a token and captures the token, or a newline, in
the group that names its class.  Nested ``/* */`` comments are the one thing a
regex cannot count, so the master regex only spots their opening and a
small loop over the comment delimiters finds the matching close.  An
unterminated block comment runs to the end of the text.  Three inputs
raise :class:`LexError`: an unexpected character, an unterminated string
literal and an unterminated char literal (a backslash escape that is not
followed by the closing quote).  Lines and columns are 1-based and count
characters; a column is the offset from the last newline.

Tokenization sits under every parse, fingerprint and bytecode compile, so
the cold path of a campaign is directly proportional to this loop.
"""

from __future__ import annotations

import re

from .span import Span
from .tokens import INT_SUFFIXES, KEYWORDS, KIND, Token, TokenKind


class LexError(Exception):
    """Raised when the scanner meets a character it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col

    def render(self, source: str) -> str:
        """Caret snippet pointing at the unlexable character."""
        from .span import render_snippet
        span = Span(0, 0, self.line, self.col)
        return f"error: {self.message}\n" + render_snippet(source, span)


#: Every punctuation and operator token, by its text.
_PUNCT = {kind.value: kind for kind in TokenKind
          if not kind.value.isalpha()}

# Capture groups of the master regex, in alternation order.  The order is
# what makes it correct: `/*` before `/`, a string before a lone `"`, and
# the char forms `'\x'`, `'x'` and `'\` before a lifetime.
(_IDENT, _BLOCK_COMMENT, _PUNCTUATION, _NEWLINE, _INT, _STRING, _CHAR,
 _OPEN_CHAR, _LIFETIME, _END, _OPEN_STRING, _UNEXPECTED) = range(1, 13)

_TOKEN = re.compile(r"""
    (?: [ \t\r]+ | //[^\n]* )*              # skipped: blanks, line comments
    (?: ( [A-Za-z_][A-Za-z0-9_]* )
      | ( /\* )
      | ( %s | [%s] )
      | ( \n )
      | ( (?: 0[xX][0-9a-fA-F_]* | 0[bB][01_]* | [0-9][0-9_]* )
          (?: (?: %s ) (?![A-Za-z0-9_]) )? )
      | ( " [^"\\]* (?: \\. [^"\\]* )* " )
      | ( '\\.' | '[^\\]' )
      | ( '\\ )
      | ( ' [A-Za-z0-9_]* )
      | ( \Z )
      | ( " )
      | ( . )
    )
""" % ("|".join(re.escape(text) for text in sorted(_PUNCT, key=len,
                                                   reverse=True)
                if len(text) > 1),
       "".join(re.escape(text) for text in _PUNCT if len(text) == 1),
       "|".join(INT_SUFFIXES)), re.VERBOSE | re.DOTALL)

_COMMENT_DELIM = re.compile(r"/\*|\*/")


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens; the last one is always ``EOF``."""
    tokens: list[Token] = []
    scan = _TOKEN.finditer
    append = tokens.append
    keywords = KEYWORDS
    punct = _PUNCT
    line = 1
    line_start = 0  # offset of the first character of `line`
    pos = 0
    while True:
        for match in scan(source, pos):
            group = match.lastindex
            start, end = match.span(group)
            if group == _IDENT:
                text = source[start:end]
                append(Token(keywords.get(text, KIND.IDENT), text,
                             Span(start, end, line, start - line_start + 1)))
            elif group == _PUNCTUATION:
                text = source[start:end]
                append(Token(punct[text], text,
                             Span(start, end, line, start - line_start + 1)))
            elif group == _NEWLINE:
                line += 1
                line_start = end
            elif group == _INT:
                append(Token(KIND.INT, source[start:end],
                             Span(start, end, line, start - line_start + 1)))
            elif group <= _CHAR:  # block comment, string or char
                if group == _BLOCK_COMMENT:
                    end = _comment_end(source, end)
                else:
                    append(Token(KIND.STRING if group == _STRING
                                 else KIND.CHAR, source[start:end],
                                 Span(start, end, line,
                                      start - line_start + 1)))
                newline = source.rfind("\n", start, end)
                if newline >= 0:
                    line += source.count("\n", start, end)
                    line_start = newline + 1
                if group == _BLOCK_COMMENT:
                    pos = end
                    break  # resume scanning after the comment
            elif group == _LIFETIME:
                append(Token(KIND.LIFETIME, source[start:end],
                             Span(start, end, line, start - line_start + 1)))
            elif group == _END:
                append(Token(KIND.EOF, "",
                             Span(end, end, line, end - line_start + 1)))
                return tokens
            else:
                col = start - line_start + 1
                if group == _OPEN_STRING:
                    raise LexError("unterminated string literal", line, col)
                if group == _OPEN_CHAR:
                    raise LexError("unterminated char literal", line, col)
                raise LexError(f"unexpected character {source[start]!r}",
                               line, col)


def _comment_end(source: str, pos: int) -> int:
    """End of the nested block comment whose ``/*`` ends at ``pos``."""
    depth = 1
    for delim in _COMMENT_DELIM.finditer(source, pos):
        depth += 1 if delim.group() == "/*" else -1
        if not depth:
            return delim.end()
    return len(source)
