"""``repro.sql.lexer.tokenize`` against the per-character lexer it
replaced (``reference_lexer.py``): equal token lists — type, value,
line, column, EOF position — or equal ``LexerError`` (message, line,
column), on every text."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError
from repro.sql.lexer import Token, TokenType, tokenize
from repro.workloads.tpch_queries import TPCH_QUERIES

from .reference_lexer import Lexer

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "data" / "golden_corpus.json"


def outcome(lex, text):
    try:
        return [tuple(token) for token in lex(text)]
    except LexerError as exc:
        return (exc.args[0], exc.line, exc.column)


def assert_same(text):
    expected = outcome(lambda t: Lexer(t).tokens(), text)
    assert outcome(tokenize, text) == expected, repr(text)
    return expected


def corpus_texts():
    sections = json.loads(CORPUS.read_text())
    return sorted(
        {
            entry["query"]
            for section in sections.values()
            for entry in section["records"] + section["plans"]
        }
    )


@pytest.mark.parametrize("text", corpus_texts())
def test_golden_corpus_texts(text):
    assert isinstance(assert_same(text), list)


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_texts(name):
    assert isinstance(assert_same(TPCH_QUERIES[name].sql), list)


# letters and digits beyond ASCII: str.isalpha / isdigit / isalnum and the
# pattern's classes must agree on them (``²`` is a digit but not decimal,
# ``½`` alphanumeric but neither letter nor digit, ``٣`` a decimal digit)
ALPHABET = list("abeEXz_019.+-*/<>=!(),;' \n\r\t") + ["''", "--", "é", "ß", "²", "½", "٣"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join))
def test_sqlish_texts(text):
    assert_same(text)


INTEGER, FLOAT, IDENT, PUNCT, OPERATOR, STRING = (
    TokenType.INTEGER,
    TokenType.FLOAT,
    TokenType.IDENT,
    TokenType.PUNCT,
    TokenType.OPERATOR,
    TokenType.STRING,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1.e5", [(INTEGER, "1", 1, 1), (PUNCT, ".", 1, 2), (IDENT, "e5", 1, 3)]),
        ("1e", [(INTEGER, "1", 1, 1), (IDENT, "e", 1, 2)]),
        ("1e+", [(INTEGER, "1", 1, 1), (IDENT, "e", 1, 2), (OPERATOR, "+", 1, 3)]),
        ("1e+5 2.5E-3", [(FLOAT, "1e+5", 1, 1), (FLOAT, "2.5E-3", 1, 6)]),
        ("12abc", [(INTEGER, "12", 1, 1), (IDENT, "abc", 1, 3)]),
        ("a--b\nc", [(IDENT, "a", 1, 1), (IDENT, "c", 2, 1)]),
        ("'it''s'", [(STRING, "it's", 1, 1)]),
        ("'a\nb' c", [(STRING, "a\nb", 1, 1), (IDENT, "c", 2, 4)]),
        ("x\n 'oops", ("unterminated string literal", 2, 2)),
        ("'it''s", ("unterminated string literal", 1, 1)),
        ("a !b", ("unexpected character '!'", 1, 3)),
        ("a != b", [(IDENT, "a", 1, 1), (OPERATOR, "<>", 1, 3), (IDENT, "b", 1, 6)]),
        ("é1 ²", [(IDENT, "é1", 1, 1), (INTEGER, "²", 1, 4)]),
        ("½", ("unexpected character '½'", 1, 1)),
    ],
)
def test_pinned(text, expected):
    if isinstance(expected, list):
        lines = text.count("\n")
        eof = (TokenType.EOF, "", 1 + lines, len(text) - text.rfind("\n"))
        expected = expected + [eof]
    else:
        message, line, column = expected
        expected = (f"{message} (at line {line}, column {column})", line, column)
    assert assert_same(text) == expected


def test_token_is_a_tuple():
    token = tokenize("x")[0]
    assert isinstance(token, tuple) and isinstance(token, Token)
    assert token == (TokenType.IDENT, "x", 1, 1)
