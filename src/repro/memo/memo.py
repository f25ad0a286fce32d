"""The memo: group lookup, expression insertion, duplicate elimination.

Following the paper, the memo "manages a system of groups" and "includes
routines that analyze the results of a rule application and assign it to
the groups, detect and eliminate duplicates, and create new groups".
Groups are identified by a canonical *logical key*: for scan/join-level
groups that key is the set of range variables covered (the Starburst
convention, equally valid for a transformation-based optimizer after full
exploration); for unary roots (aggregate/project/select) it is derived
from the operator fingerprint and child group.

When the memo is built by the optimizer it carries an
:class:`~repro.optimizer.bitset.AliasUniverse` and relation-set groups are
keyed ``("rels", mask)`` — an interned integer bitmask — rather than by
``frozenset[str]``.  ``Group.relations`` remains the derived frozenset
view, so every consumer of group identity below the key level
(implementation, best-plan search, the plan-space toolkit) is unaffected.
Hand-assembled memos without a universe keep the legacy frozenset keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

from repro.algebra.logical import LogicalOperator
from repro.algebra.physical import PhysicalOperator
from repro.errors import MemoError
from repro.memo.group import Group, GroupExpr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.optimizer.bitset import AliasUniverse

__all__ = ["Memo"]


@dataclass
class Memo:
    """A compact encoding of the plan search space."""

    #: struct-of-arrays physical store once the memo is implemented
    #: (see :mod:`repro.memo.columnar`), ``None`` again after pruning;
    #: plain class attribute default so hand-built memos carry no field
    columnar = None
    #: struct-of-arrays *logical* store when exploration was batched
    #: (:func:`repro.memo.columnar.build_logical_store`); same class
    #: attribute convention.  Logical rows stay accurate for the memo's
    #: lifetime — nothing removes logical expressions, pruning included.
    columnar_logical = None

    groups: list[Group] = field(default_factory=list)
    root_group_id: int | None = None
    #: alias interner for mask-keyed relation groups (None for memos
    #: assembled by hand with frozenset keys)
    universe: "AliasUniverse | None" = None
    _groups_by_key: dict[tuple, int] = field(default_factory=dict, repr=False)
    #: mask -> gid shortcut for relation-set groups (avoids building a
    #: ("rels", mask) tuple per lookup on the exploration hot path)
    _rels_gid_by_mask: dict[int, int] = field(default_factory=dict, repr=False)
    _expr_fingerprints: dict[tuple, tuple[int, int]] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    # groups
    # ------------------------------------------------------------------
    def group(self, gid: int) -> Group:
        try:
            return self.groups[gid]
        except IndexError:
            raise MemoError(f"no group {gid}") from None

    def root_group(self) -> Group:
        if self.root_group_id is None:
            raise MemoError("memo has no root group")
        return self.group(self.root_group_id)

    def set_root(self, gid: int) -> None:
        self.group(gid)  # validate
        self.root_group_id = gid

    def find_group(self, key: tuple) -> Group | None:
        gid = self._groups_by_key.get(key)
        return None if gid is None else self.groups[gid]

    def get_or_create_group(
        self, key: tuple, relations: frozenset[str], mask: int | None = None
    ) -> Group:
        gid = self._groups_by_key.get(key)
        if gid is not None:
            group = self.groups[gid]
            if group.relations != relations:
                raise MemoError(
                    f"group key {key!r} reused with different relation set "
                    f"({sorted(group.relations)} vs {sorted(relations)})"
                )
            return group
        group = Group(gid=len(self.groups), key=key, relations=relations, mask=mask)
        self.groups.append(group)
        self._groups_by_key[key] = group.gid
        if mask is not None and key[0] == "rels":
            self._rels_gid_by_mask[mask] = group.gid
        return group

    def get_or_create_rels_group(self, mask: int) -> Group:
        """The ``("rels", mask)`` group, created with its derived relation
        view if missing.  Requires the memo's alias universe."""
        gid = self._rels_gid_by_mask.get(mask)
        if gid is not None:
            return self.groups[gid]
        if self.universe is None:
            raise MemoError("memo has no alias universe for mask-keyed groups")
        group = Group(
            gid=len(self.groups),
            key=("rels", mask),
            relations=self.universe.names(mask),
            mask=mask,
        )
        self.groups.append(group)
        self._groups_by_key[group.key] = group.gid
        self._rels_gid_by_mask[mask] = group.gid
        return group

    def group_for_mask(self, mask: int) -> Group | None:
        """The relation-set group for an alias bitmask, if present."""
        gid = self._rels_gid_by_mask.get(mask)
        return None if gid is None else self.groups[gid]

    def group_for_relations(self, relations: frozenset[str]) -> Group | None:
        if self.universe is not None:
            group = self.group_for_mask(self.universe.mask_of(relations))
            if group is not None:
                return group
            # Fall through: a caller may have used the legacy frozenset
            # key via the generic get_or_create_group.
        return self.find_group(("rels", relations))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def insert(
        self,
        op: LogicalOperator | PhysicalOperator,
        children: tuple[int, ...],
        group: Group,
    ) -> GroupExpr | None:
        """Insert ``op(children)`` into ``group``.

        Returns the new :class:`GroupExpr`, or ``None`` if an identical
        expression already exists anywhere in the memo (duplicate
        elimination).  Children must be existing groups.
        """
        group_count = len(self.groups)
        for child in children:
            if not 0 <= child < group_count:
                raise MemoError(f"child group {child} does not exist")
        gid = group.gid
        exprs = group.exprs
        entry = (gid, len(exprs) + 1)
        # One hash probe covers both duplicate detection and registration:
        # setdefault returns our own entry exactly when the slot was empty.
        fingerprint = (op.key(), children)
        prior = self._expr_fingerprints.setdefault(fingerprint, entry)
        if prior is not entry:
            if prior[0] != gid:
                raise MemoError(
                    f"expression {op.render()} already belongs to group {prior[0]}, "
                    f"cannot also insert into group {gid}"
                )
            return None
        try:
            expr = GroupExpr(op, children, gid, entry[1])
        except MemoError:
            del self._expr_fingerprints[fingerprint]
            raise
        exprs.append(expr)
        return expr

    def expr(self, gid: int, local_id: int) -> GroupExpr:
        return self.group(gid).expr(local_id)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def expression_count(self) -> int:
        """Total expression count.  Never materializes lazy (columnar)
        physical blocks — the per-group row counts answer it directly."""
        return sum(g.expr_count() for g in self.groups)

    def logical_expression_count(self) -> int:
        return sum(g.logical_expr_count() for g in self.groups)

    def physical_expression_count(self) -> int:
        return sum(g.physical_expr_count() for g in self.groups)

    def render(self) -> str:
        """ASCII dump in the spirit of the paper's Figure 2."""
        lines = []
        for group in self.groups:
            marker = "  (root)" if group.gid == self.root_group_id else ""
            lines.append(group.render() + marker)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
