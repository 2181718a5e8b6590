"""Logical query plans.

Section III-A: "SQL representations (i.e., queries) can also be represented
as a series of relational operators (often called the logical query plan)"
— and Section III-D maps each plan node to a Genesis hardware module and
each edge to a hardware queue.  This module defines the plan nodes and
builds plans from parsed queries; :mod:`repro.sql.executor` interprets
them in software (the hardware pipelines of :mod:`repro.accel` are wired
by hand, as the paper's are).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .ast_nodes import (
    ColumnRef,
    CreateTable,
    Expr,
    ForLoop,
    FuncCall,
    InsertInto,
    PosExplode,
    ReadExplode,
    Script,
    Select,
    SelectItem,
    Star,
    SubQuery,
    TableRef,
)


@dataclass(frozen=True)
class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child plan nodes (leaves return an empty tuple)."""
        return ()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Scan a base table (or a FOR-loop row binding), optionally one
    partition of it."""

    table: str
    partition: Optional[Expr] = None
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Column projection / computed expressions."""

    child: PlanNode
    items: Tuple[SelectItem, ...]

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class FilterNode(PlanNode):
    """WHERE predicate."""

    child: PlanNode
    predicate: Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Equi-join of two plans."""

    left: PlanNode
    right: PlanNode
    kind: str
    left_key: ColumnRef
    right_key: ColumnRef

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class GroupByNode(PlanNode):
    """GROUP BY with aggregate select items."""

    child: PlanNode
    keys: Tuple[ColumnRef, ...]
    items: Tuple[SelectItem, ...]

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    """Whole-table aggregation (SELECT SUM(...) with no GROUP BY)."""

    child: PlanNode
    items: Tuple[SelectItem, ...]

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class SortNode(PlanNode):
    """ORDER BY keys (stable sort; leftmost key most significant)."""

    child: PlanNode
    keys: Tuple  # of OrderItem

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class LimitNode(PlanNode):
    """LIMIT offset, count."""

    child: PlanNode
    offset: Expr
    count: Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class PosExplodeNode(PlanNode):
    """The PosExplode operation (Section III-B)."""

    child: PlanNode
    array: ColumnRef
    init_pos: Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class ReadExplodeNode(PlanNode):
    """The ReadExplode operation (Section III-B, Figure 3)."""

    child: PlanNode
    args: Tuple[Expr, ...]

    def children(self):
        return (self.child,)


def _source_plan(source) -> PlanNode:
    if isinstance(source, TableRef):
        return ScanNode(source.name, source.partition, qualifier=source.name)
    if isinstance(source, SubQuery):
        return build_plan(source.query)
    raise TypeError(f"unsupported query source {source!r}")


def _has_aggregate(items: Tuple[SelectItem, ...]) -> bool:
    return any(isinstance(item.expr, FuncCall) for item in items)


def _is_star(items: Tuple[SelectItem, ...]) -> bool:
    return len(items) == 1 and isinstance(items[0].expr, Star)


def build_plan(query) -> PlanNode:
    """Lower a parsed query AST into a logical plan tree."""
    if isinstance(query, PosExplode):
        return PosExplodeNode(_source_plan(query.source), query.array, query.init_pos)
    if isinstance(query, ReadExplode):
        return ReadExplodeNode(_source_plan(query.source), query.args)
    if not isinstance(query, Select):
        raise TypeError(f"cannot plan {query!r}")

    plan = _source_plan(query.source)
    if query.join is not None:
        right = _source_plan(query.join.source)
        plan = JoinNode(
            plan, right, query.join.kind, query.join.left_key, query.join.right_key
        )
    if query.where is not None:
        plan = FilterNode(plan, query.where)
    if query.group_by:
        plan = GroupByNode(plan, query.group_by, query.items)
    elif _has_aggregate(query.items):
        plan = AggregateNode(plan, query.items)
    elif not _is_star(query.items):
        plan = ProjectNode(plan, query.items)
    if query.order_by:
        plan = SortNode(plan, query.order_by)
    if query.limit is not None:
        offset, count = query.limit
        plan = LimitNode(plan, offset, count)
    return plan


def _plan_statement(statement):
    if isinstance(statement, (CreateTable, InsertInto)):
        return replace(statement, plan=build_plan(statement.query))
    if isinstance(statement, ForLoop):
        return replace(
            statement, body=tuple(_plan_statement(s) for s in statement.body)
        )
    return statement


def plan_script(script: Script) -> Script:
    """``script`` with the logical plan of every CREATE TABLE / INSERT
    INTO query (FOR-loop bodies included) attached as ``statement.plan``."""
    return Script(tuple(_plan_statement(s) for s in script.statements))


def walk(plan: PlanNode):
    """Yield every node of a plan tree, children before parents."""
    for child in plan.children():
        yield from walk(child)
    yield plan


def describe(plan: PlanNode, indent: int = 0) -> str:
    """Pretty-print a plan tree."""
    label = type(plan).__name__.replace("Node", "")
    if isinstance(plan, ScanNode):
        label += f"({plan.table})"
    elif isinstance(plan, JoinNode):
        label += f"({plan.kind})"
    lines = ["  " * indent + label]
    for child in plan.children():
        lines.append(describe(child, indent + 1))
    return "\n".join(lines)
