"""Plan-shape strata: contiguous rank intervals of the implicit space.

Ranks are mixed-radix numbers: a candidate list splits ``[0, N)`` into
one contiguous block per operator row (prefix sums), and within a row the
*last* child slot varies slowest — so refining a row's block along that
slot again yields contiguous sub-blocks, one per candidate operator of
the child.  Recursing produces a partition of the rank space into
intervals keyed by an *operator prefix*: the chain of operator choices
along the slowest-varying spine (for joins, the top-most join splits —
i.e. a join-order prefix).  Plans inside one stratum share that prefix;
plans in different strata differ structurally, which is where most of the
cost variance lives.

:func:`rank_strata` builds the partition greedily (always refining the
largest stratum) until a target stratum count is reached;
:class:`StratifiedSampler` draws proportionally allocated uniform ranks
from it — self-weighting up to integer rounding (largest-remainder
apportionment), so distribution estimates stay directly comparable with
plain uniform sampling while each structural region is guaranteed its
share of the sample.

Only strata along the slowest-varying spine are rank-contiguous; census
strata ("all plans containing operator v") are unions of many intervals
and are served by the participation module instead.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.errors import PlanSpaceError
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.util.rng import make_rng

__all__ = ["Stratum", "rank_strata", "StratifiedSampler"]


@dataclass(frozen=True)
class Stratum:
    """One contiguous rank interval ``[lo, hi)`` of the plan space."""

    lo: int
    hi: int
    #: the operator prefix as a linked ``(parent, gid, local_id)`` chain
    #: (None: the root), formatted only when :attr:`label` is read
    prefix: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        """``gid.local/gid.local/...``, or ``(root)``."""
        return _format(self.prefix)

    @property
    def size(self) -> int:
        return self.hi - self.lo


class _Node:
    """A refinable stratum: either a full candidate list (``pos=None``)
    or the row at table position ``pos``, pending descent into its last
    child slot.  ``label`` is the operator prefix as a linked
    ``(parent label, gid, local_id)`` chain, formatted only when a
    returned :class:`Stratum`'s label is read."""

    __slots__ = ("gid", "req", "pos", "lo", "hi", "label", "depth")

    def __init__(self, gid, req, pos, lo, hi, label, depth):
        self.gid = gid
        self.req = req
        self.pos = pos
        self.lo = lo
        self.hi = hi
        self.label = label
        self.depth = depth


def _expand(node: _Node, tables, room: int) -> list[_Node] | None:
    """Refine one stratum a single level; None = atomic, or wider than
    the ``room`` left under ``max_strata``."""
    if room < 1:
        return None
    if node.pos is None:
        candidates = tables.candidates(node.gid, node.req)
        positions = candidates.positions
        if not positions or len(positions) > room:
            return None
        # hi - lo = total * span: each unit of this list's rank space
        # covers `span` full ranks (the faster-varying choices upstream)
        span = (node.hi - node.lo) // candidates.total
        bounds = [node.lo + c * span for c in candidates.cumulative]
        gid, label, depth = node.gid, node.label, node.depth + 1
        base = candidates.table.base
        return [
            _Node(gid, node.req, pos, lo, hi, (label, gid, base + pos), depth)
            for pos, lo, hi in zip(positions, bounds, bounds[1:])
        ]
    row = tables.table(node.gid).row(node.pos)
    if not row.slots:
        return None
    # descend into the slowest-varying (last) slot: its sub-rank has
    # stride prefix[-1], so each of its candidate rows owns a contiguous
    # sub-block of this row's interval
    child_gid, child_req = row.slots[-1]
    return [
        _Node(child_gid, child_req, None, node.lo, node.hi, node.label, node.depth)
    ]


def _format(label) -> str:
    """``gid.local/gid.local/...`` of a linked operator-prefix chain."""
    parts = []
    while label is not None:
        label, gid, local_id = label
        parts.append(f"{gid}.{local_id}")
    return "/".join(reversed(parts)) or "(root)"


def rank_strata(
    space: ImplicitPlanSpace,
    target: int = 64,
    max_strata: int = 4096,
    max_depth: int = 64,
) -> list[Stratum]:
    """Partition ``[0, N)`` into at least ``target`` contiguous strata
    (when the space allows it), refining the largest stratum first.

    ``max_strata`` bounds a single refinement that fans out wide (a
    clique's top join group has thousands of splits); ``max_depth``
    bounds the operator-prefix length.
    """
    total = space.count()
    if total <= 0:
        raise PlanSpaceError("cannot stratify an empty plan space")
    state = space.state
    tables = space.unranker.tables
    root = _Node(
        state.layout.root_gid, state.root_kid, None, 0, total, None, 0
    )
    # heap of refinable nodes, largest interval first (ties: FIFO)
    counter = 0
    heap = [(-total, counter, root)]
    done: list[_Node] = []
    leaves = 1
    while heap and leaves < target:
        _, _, node = heapq.heappop(heap)
        children = None
        if node.depth < max_depth:
            children = _expand(node, tables, max_strata - leaves + 1)
        if children is None:
            done.append(node)
            continue
        leaves += len(children) - 1
        for child in children:
            counter += 1
            heapq.heappush(heap, (-(child.hi - child.lo), counter, child))
    done.extend(node for _, _, node in heap)
    strata = [Stratum(node.lo, node.hi, node.label) for node in done]
    strata.sort(key=lambda s: s.lo)
    assert strata[0].lo == 0 and strata[-1].hi == total
    return strata


class StratifiedSampler:
    """Proportionally allocated uniform ranks over plan-shape strata.

    A distinct sampler type with its own RNG stream (documented in
    :mod:`repro.util.rng`): for each ``sample_ranks(n)`` call the strata
    are visited in rank order and each stratum draws its allocation via
    ``rng.randrange(lo, hi)`` — deterministic per seed, but *not* the
    plain samplers' stream (stratification changes which ranks can
    follow which).
    """

    def __init__(
        self,
        space: ImplicitPlanSpace,
        seed: int | random.Random = 0,
        target: int = 64,
        strata: list[Stratum] | None = None,
    ):
        self.space = space
        self.rng = make_rng(seed)
        self.strata = (
            strata if strata is not None else rank_strata(space, target=target)
        )
        self.total = space.count()

    def allocate(self, n: int) -> list[int]:
        """Per-stratum sample counts for ``n`` total draws (proportional,
        largest-remainder apportionment; sums to exactly ``n``)."""
        if n < 0:
            raise ValueError("sample size must be non-negative")
        # exact integer shares: remainders of bigint sizes can differ
        # below float precision
        shares = [divmod(n * stratum.size, self.total) for stratum in self.strata]
        counts = [quota for quota, _remainder in shares]
        short = n - sum(counts)
        # the ``short`` largest remainders, the lower index first on ties
        for i in heapq.nlargest(
            short, range(len(shares)), key=lambda i: (shares[i][1], -i)
        ):
            counts[i] += 1
        return counts

    def sample_ranks(self, n: int) -> list[int]:
        ranks = []
        randrange = self.rng.randrange
        for stratum, count in zip(self.strata, self.allocate(n)):
            for _ in range(count):
                ranks.append(randrange(stratum.lo, stratum.hi))
        return ranks

    def sample(self, n: int) -> list[PlanNode]:
        unrank = self.space.unrank
        return [unrank(rank) for rank in self.sample_ranks(n)]
