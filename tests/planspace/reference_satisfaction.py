"""Reference order satisfaction: the group tables' bytes oracle.

``GroupTable.satisfying`` once tested every distinct delivered kid of a
group with one byte-string prefix test — the paper's qualification rule
(the required order is a prefix of the delivered one) spelled out.  It
now reads the count pass's kid intervals (``q <= d < kid_hi[q]``); the
bytes version moved here verbatim, as a function of the table, so
``tests/planspace/test_kid_intervals.py`` can diff the two on every
group and every kid the tables compare.
"""

from __future__ import annotations

__all__ = ["satisfying"]


def satisfying(self, kid: int) -> list[int]:
    """Positions whose delivered order satisfies required ``kid``."""
    kid_bytes = self.state.keys
    seq = kid_bytes[kid]
    verdict: dict[int, bool] = {}
    out = []
    for pos, delivered in self.delivering():
        ok = verdict.get(delivered)
        if ok is None:
            ok = verdict[delivered] = kid_bytes[delivered].startswith(seq)
        if ok:
            out.append(pos)
    return out
