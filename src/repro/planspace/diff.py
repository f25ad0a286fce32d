"""Plan-space diffing: regression detection between optimizer versions.

When an optimizer's rule set changes, the plan space changes — sometimes
intentionally (a new implementation), sometimes as a silent regression
(alternatives lost to an over-eager pruning change).  Comparing the raw
counts catches gross changes; comparing *operator sets* pinpoints what
appeared or disappeared.  This module diffs two implicit spaces built
for the same query under different optimizer configurations, reading
each one's operator census (every virtual operator with its ``N(v)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.planspace.implicit import ImplicitPlanSpace

__all__ = ["SpaceDiff", "diff_spaces"]


@dataclass
class SpaceDiff:
    """Differences between a baseline space and a candidate space."""

    baseline_total: int
    candidate_total: int
    added_operators: list[str] = field(default_factory=list)
    removed_operators: list[str] = field(default_factory=list)
    count_changes: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return (
            self.baseline_total == self.candidate_total
            and not self.added_operators
            and not self.removed_operators
            and not self.count_changes
        )

    def render(self) -> str:
        lines = [
            f"plans: {self.baseline_total:,} -> {self.candidate_total:,}"
            + (
                ""
                if self.baseline_total == self.candidate_total
                else f"  ({self.candidate_total / max(self.baseline_total, 1):.2f}x)"
            )
        ]
        if self.identical:
            lines.append("spaces are identical")
            return "\n".join(lines)
        if self.added_operators:
            lines.append(f"operators added ({len(self.added_operators)}):")
            lines.extend(f"  + {op}" for op in self.added_operators[:20])
        if self.removed_operators:
            lines.append(f"operators removed ({len(self.removed_operators)}):")
            lines.extend(f"  - {op}" for op in self.removed_operators[:20])
        if self.count_changes:
            lines.append(
                f"operators with changed rooted counts ({len(self.count_changes)}):"
            )
            lines.extend(
                f"  ~ {op}: N(v) {before:,} -> {after:,}"
                for op, before, after in self.count_changes[:20]
            )
        return "\n".join(lines)


def diff_spaces(
    baseline: ImplicitPlanSpace, candidate: ImplicitPlanSpace
) -> SpaceDiff:
    """Compare two plan spaces of the *same query*.

    Operators are matched by their operator identity (rendered form plus
    owning group's relation set), so memo renumbering between runs does
    not produce spurious differences.
    """
    base_sigs, base_names = _signatures(baseline)
    cand_sigs, cand_names = _signatures(candidate)
    diff = SpaceDiff(
        baseline_total=baseline.count(),
        candidate_total=candidate.count(),
    )
    for signature in sorted(cand_sigs.keys() - base_sigs.keys(), key=repr):
        diff.added_operators.append(cand_names[signature])
    for signature in sorted(base_sigs.keys() - cand_sigs.keys(), key=repr):
        diff.removed_operators.append(base_names[signature])
    for signature in sorted(base_sigs.keys() & cand_sigs.keys(), key=repr):
        before, after = base_sigs[signature], cand_sigs[signature]
        if before != after:
            diff.count_changes.append((base_names[signature], before, after))
    return diff


def _signatures(space: ImplicitPlanSpace) -> tuple[dict, dict]:
    """``N(v)`` per operator signature (the last operator carrying it),
    and each signature's description (the first one's)."""
    counts: dict[tuple, int] = {}
    names: dict[tuple, str] = {}
    for _, _, operator, count, relations in space.census():
        rels = tuple(sorted(relations))
        signature = (operator.key(), rels)
        counts[signature] = count
        if signature not in names:
            names[signature] = f"{operator.render()} over {{{','.join(rels)}}}"
    return counts, names
