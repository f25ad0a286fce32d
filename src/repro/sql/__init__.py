"""SQL front end (system S4).

A small SQL dialect sufficient for the paper's evaluation queries:
``SELECT`` lists with arithmetic and aggregates, multi-table ``FROM`` with
aliases, conjunctive ``WHERE`` (with ``BETWEEN``/``LIKE``/``IN``),
``GROUP BY``, ``ORDER BY`` — plus the paper's Section 4 language extension
``OPTION (USEPLAN n)`` that forces execution of plan number ``n``.
"""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.ast import (
    QueryOptions,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.sql.parser import Parser, parse
from repro.sql.binder import Binder, BoundQuery, Quantifier, bind

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "QueryOptions",
    "SelectItem",
    "SelectStatement",
    "TableRef",
    "Parser",
    "parse",
    "Binder",
    "BoundQuery",
    "Quantifier",
    "bind",
]
