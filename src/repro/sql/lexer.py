"""SQL lexer: text -> token stream, with line/column tracking.

One compiled master pattern is matched at successive offsets; each match
is a run of blanks and ``--`` comments or one token.  Lines and columns
come from the offsets: only a match that holds a newline moves the line.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexerError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"  # = <> < <= > >= + - * /
    PUNCT = "punct"  # ( ) , .
    EOF = "eof"


#: Reserved words, stored uppercase.  Anything else is an identifier.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "OPTION",
        "AS", "AND", "OR", "NOT", "BETWEEN", "LIKE", "IN", "IS", "NULL",
        "USEPLAN", "ASC", "DESC", "DISTINCT",
        "SUM", "COUNT", "AVG", "MIN", "MAX",
    }
)


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word.upper()

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{self.type.value}:{self.value!r}@{self.line}:{self.column}"


# A closing quote must not be followed by a quote, or a backtrack would
# end ``'it''s`` at ``'it'``.
_MASTER = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+|--[^\n]*)+)
    |(?P<word>[A-Za-z_]\w*)
    |(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
    |(?P<integer>[0-9]+)
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<operator><>|<=|>=|!=|[=<>+\-*/])
    |(?P<punct>[(),.])""",
    re.VERBOSE,
)
#: the groups whose token is the matched text as it stands
_VERBATIM = {
    "float": TokenType.FLOAT,
    "integer": TokenType.INTEGER,
    "punct": TokenType.PUNCT,
}


class _AsciiClasses:
    """``str.translate`` table under which the pattern's ASCII classes
    read ``str.isalpha`` / ``str.isdigit``: a letter beyond ASCII scans
    as ``a``, a digit as ``0`` (``\\w`` already is ``str.isalnum`` plus
    the underscore).  Offsets are kept; values are cut from the text."""

    def __getitem__(self, code: int):
        if code < 128:
            return code
        ch = chr(code)
        return "a" if ch.isalpha() else "0" if ch.isdigit() else code


_ASCII_CLASSES = _AsciiClasses()


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into a token list ending with an EOF token."""
    scanned = text if text.isascii() else text.translate(_ASCII_CLASSES)
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    pos, end = 0, len(text)
    while pos < end:
        match = _MASTER.match(scanned, pos)
        column = pos - line_start + 1
        if match is None:
            if text[pos] == "'":
                raise LexerError("unterminated string literal", line, column)
            raise LexerError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup
        start, pos = pos, match.end()
        value = text[start:pos]
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                tokens.append(Token(TokenType.IDENT, value, line, column))
        elif kind in _VERBATIM:
            tokens.append(Token(_VERBATIM[kind], value, line, column))
        elif kind == "operator":
            if value == "!=":
                value = "<>"
            tokens.append(Token(TokenType.OPERATOR, value, line, column))
        else:  # a string literal or a skip: the two that can hold a newline
            if kind == "string":
                value = value[1:-1].replace("''", "'")
                tokens.append(Token(TokenType.STRING, value, line, column))
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
    tokens.append(Token(TokenType.EOF, "", line, end - line_start + 1))
    return tokens
