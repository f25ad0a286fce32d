"""The per-character lexer ``repro.sql.lexer`` replaced, kept verbatim as
the oracle of ``test_lexer_equivalence.py``: same tokens, same errors."""

from __future__ import annotations

from repro.errors import LexerError
from repro.sql.lexer import KEYWORDS, Token, TokenType

_OPERATORS = ("<>", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "!=")
_PUNCT = "(),."


class Lexer:
    """A hand-rolled single-pass lexer."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            token = self.next_token()
            out.append(token)
            if token.type is TokenType.EOF:
                return out

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        line, column = self.line, self.column
        if self.pos >= len(self.text):
            return Token(TokenType.EOF, "", line, column)
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._lex_word(line, column)
        if ch.isdigit():
            return self._lex_number(line, column)
        if ch == "'":
            return self._lex_string(line, column)
        for op in _OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                value = "<>" if op == "!=" else op
                return Token(TokenType.OPERATOR, value, line, column)
        if ch in _PUNCT:
            self._advance()
            return Token(TokenType.PUNCT, ch, line, column)
        raise LexerError(f"unexpected character {ch!r}", line, column)

    def _lex_word(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        word = self.text[start : self.pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, line, column)
        return Token(TokenType.IDENT, word, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start : self.pos]
        return Token(
            TokenType.FLOAT if is_float else TokenType.INTEGER, text, line, column
        )

    def _lex_string(self, line: int, column: int) -> Token:
        # Opening quote.
        self._advance()
        parts: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise LexerError("unterminated string literal", line, column)
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return Token(TokenType.STRING, "".join(parts), line, column)
            parts.append(ch)
            self._advance()
