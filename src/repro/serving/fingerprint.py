"""Literal-normalizing query fingerprints and cache-identity keys.

The plan cache's unit of reuse is the *query template*: the statement
with every constant rewritten to a parameter marker, so ``WHERE x = 5``
and ``WHERE x = 7`` share one template.  Fingerprinting works on the
token stream (:mod:`repro.sql.lexer`), not the text, so whitespace,
comments, keyword case and literal spelling (``0.50`` vs ``0.5``) never
split templates — while identifier structure, operator choice and
clause shape always do.

A template alone does not identify a cached *plan*: range selectivities
interpolate literal values against column ``[lo, hi]`` bounds, and the
chosen plan's predicates embed the literals, so the final-plan cache
tier keys on ``(template, parameter vector)`` and only the per-template
*artifact* tier (enumeration universe, logical splits, edge catalog —
all literal-free) is shared across parameter values.  See
:mod:`repro.serving.cache`.

Cache identity also includes what the optimizer would consult beyond
the text: :func:`catalog_signature` digests the statistics snapshot a
plan was costed under, and :func:`options_signature` digests the
cross-product / implementation / cost-parameter configuration that
shaped the search space.  Either changing yields a fresh key, never a stale hit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.sql.lexer import TokenType, tokenize

__all__ = [
    "QueryFingerprint",
    "catalog_signature",
    "fingerprint_sql",
    "options_signature",
    "template_digest",
]

#: token types rewritten to parameter markers
_LITERALS = (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING)


def template_digest(template: str) -> str:
    """A short stable hex digest of a template (display/keys)."""
    return hashlib.sha256(template.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class QueryFingerprint:
    """One statement, split into its template and parameter vector.

    ``template`` is the normalized statement text (keywords uppercase,
    single-spaced, literals replaced by ``?``); ``params`` carries the
    extracted ``(kind, value)`` pairs in occurrence order — the part of
    the cache key that distinguishes literal variants of one template.
    ``tokens`` is the scan both were read from (EOF token included): a
    plan-tier miss parses it rather than lexing the text again.
    """

    template: str
    params: tuple[tuple[str, str], ...]
    tokens: list | None = field(default=None, compare=False, repr=False)

    @property
    def digest(self) -> str:
        """:func:`template_digest` of the template.  Computed per access:
        a plan-cache entry keeps its own, so a hit never asks."""
        return template_digest(self.template)


def fingerprint_sql(sql: str) -> QueryFingerprint:
    """Fingerprint one statement.

    Literals inside an ``OPTION (USEPLAN n)`` clause are *not*
    parameterized: the plan number is an instruction to the executor,
    not a predicate constant, and folding ``USEPLAN 3`` into ``USEPLAN
    8``'s template would serve the wrong forced plan.
    """
    parts: list[str] = []
    params: list[tuple[str, str]] = []
    after_useplan = False
    tokens = tokenize(sql)
    eof = tokens.pop()
    for kind, value, _line, _column in tokens:
        if kind in _LITERALS and not after_useplan:
            parts.append("?")
            if kind is TokenType.FLOAT:
                # float folding: ``0.50`` and ``0.5`` are one parameter
                value = repr(float(value))
            params.append((kind.value, value))
        elif kind is TokenType.STRING:
            # USEPLAN never takes strings; kept for symmetry/safety.
            parts.append("'" + value.replace("'", "''") + "'")
        else:
            parts.append(value)
        after_useplan = kind is TokenType.KEYWORD and value == "USEPLAN"
    tokens.append(eof)  # the parser's scan ends with it
    return QueryFingerprint(
        template=" ".join(parts), params=tuple(params), tokens=tokens
    )


# ----------------------------------------------------------------------
# configuration / statistics identity
# ----------------------------------------------------------------------
def catalog_signature(catalog) -> str:
    """Digest of the statistics snapshot plans are costed under.

    Covers, per table in name order: the row count, every column's
    ``(distinct, lo, hi, null_fraction)``, and the index definitions —
    exactly the inputs the cardinality estimator and the cost model
    read.  Two catalogs with equal signatures cost every plan
    identically, so cached plans transfer between them.
    """
    h = hashlib.sha256()
    for key in sorted(catalog.tables):
        schema = catalog.tables[key]
        stats = catalog.stats[key]
        columns = tuple((c.name, c.type.value, c.nullable) for c in schema.columns)
        h.update(repr((key, columns, stats.row_count)).encode())
        for name in sorted(stats.columns):
            col = stats.columns[name]
            h.update(
                repr((name, col.distinct, col.lo, col.hi, col.null_fraction)).encode()
            )
        for index in schema.indexes:
            h.update(
                repr((index.name, index.key, index.unique, index.clustered)).encode()
            )
    return h.hexdigest()[:16]


def options_signature(options, prune_factor=None) -> str:
    """Digest of the optimizer configuration shaping the search space.

    ``OptimizerOptions`` is a frozen dataclass of scalars and frozen
    dataclasses (implementation, cost parameters), so its ``repr`` is a
    complete, deterministic spelling of every knob.  The effective
    ``prune_factor`` (a per-call override of ``pruning_factor``) is
    folded in alongside.
    """
    h = hashlib.sha256()
    h.update(repr(options).encode())
    h.update(repr(prune_factor).encode())
    return h.hexdigest()[:16]
