"""Tokenizer for the PEPA concrete syntax.

Produces a flat list of :class:`Token` with 1-based line/column
positions so the parser can report precise error locations.  Supports
``//`` line comments and ``/* ... */`` block comments.

One compiled master regex splits the whole source, in one ``findall``
call, into (whitespace and comments, token) pairs; token starts, lines
and columns follow from the pieces' lengths and the newlines in the
gaps (no token contains one, but an unterminated comment, which is an
error).  A digit is what ``str.isdigit`` accepts
and a name starts with what ``str.isalpha`` accepts, so a source with
non-ASCII characters is scanned through a same-length copy in which such
digits read ``0`` and such letters ``A`` or ``a`` (by case); token texts
always come from the source itself.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import PepaSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Reserved words: the passive rate spellings.
KEYWORDS = frozenset({"infty", "T"})

#: Each match is one token and the whitespace and comments before it;
#: the empty token marks the end of the source.  Token alternatives are
#: tried in the grammar's order: a name, a number, an unterminated
#: comment, a two-character operator, any one character.  An
#: unterminated comment takes the rest of the source, so the scan ends
#: there: each further ``/*`` would otherwise rescan to the end for a
#: ``*/``, quadratic in the source's length.
_TOKEN = re.compile(
    r"""
    ( (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )* )
    ( [A-Za-z_][\w']*
    | (?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?
    | /\*.* | \|\| | <>
    | .
    | )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Kind of a token by its (ASCII-class) first character; any other
#: token is punctuation, an error or the end.
_KIND_OF_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "UNAME"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "LNAME"),
    **dict.fromkeys("0123456789.", "NUMBER"),
}

_PUNCTUATION = frozenset(["||", "<>", *"=(),.+/{}<>[];*-%"])


class Token(NamedTuple):
    """A lexical token.

    ``kind`` is one of ``NUMBER``, ``LNAME`` (lower-case identifier),
    ``UNAME`` (upper-case identifier), ``INFTY``, a punctuation string,
    or ``EOF``.  A named tuple: immutable and without a per-instance
    dict, and cheaper to build than a frozen dataclass, whose
    ``__init__`` alone cost more than the whole regex scan.
    """

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def _ascii_class(c: str) -> str:
    if c.isdigit():
        return "0"
    if c.isalpha():
        return "A" if c.isupper() else "a"
    return c


def tokenize(source: str) -> list[Token]:
    """Tokenize PEPA source text.

    Raises
    ------
    PepaSyntaxError
        On an unexpected character, a malformed number or an
        unterminated block comment.
    """
    ascii_source = source.isascii()
    scanned = source if ascii_source else "".join(
        [c if c.isascii() else _ascii_class(c) for c in source]
    )
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips the named tuple's Python-level __new__
    kind_of_first = _KIND_OF_FIRST
    line = 1
    line_start = 0  # offset of the current line's first character
    end = 0
    for gap, text in _TOKEN.findall(scanned):
        if gap:
            if "\n" in gap:
                line += gap.count("\n")
                line_start = end + gap.rindex("\n") + 1
            end += len(gap)
        start = end
        end += len(text)
        column = start - line_start + 1
        kind = kind_of_first.get(text[:1])
        if not ascii_source:
            text = source[start:end]
        if kind is None:
            kind = _punctuation_kind(text, line, column)
        elif kind == "NUMBER":
            if text == ".":
                kind = text
            else:
                try:
                    float(text)
                except ValueError:
                    raise PepaSyntaxError(f"malformed number {text!r}", line, column)
        elif text in KEYWORDS:
            kind = "INFTY"
        append(new(Token, (kind, text, line, column)))
        if not text:
            break
    return tokens


def _punctuation_kind(text: str, line: int, column: int) -> str:
    if text in _PUNCTUATION:
        return text
    if not text:
        return "EOF"
    if text.startswith("/*"):
        raise PepaSyntaxError("unterminated block comment", line, column)
    raise PepaSyntaxError(f"unexpected character {text!r}", line, column)
