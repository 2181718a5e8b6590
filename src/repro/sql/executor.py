"""Software executor for the extended-SQL dialect.

Interprets parsed scripts against a catalog of columnar tables.  The
executor owns the front half — the catalog, ``@variables``, FOR-loop
row bindings, custom modules, and scalar expression evaluation; script
texts are parsed and planned once per process by
:mod:`repro.sql.prepared` — and delegates each plan node's execution to
a pluggable :class:`~repro.sql.backends.Backend` (ROADMAP item 2: one
front end, pluggable executors).  The default ``"reference"`` backend is the
row-at-a-time interpreter that defines Genesis query semantics; the
``"fast"`` backend (:mod:`repro.sql.fast_backend`) executes the same
plans with vectorized numpy kernels, bit-identically.

Supported surface (everything Figure 4 uses, Section III-B):
CREATE TABLE [#temp] AS <query>, INSERT INTO, DECLARE/SET @variables,
FOR row IN table loops, SELECT with INNER/LEFT/OUTER JOIN ... ON,
WHERE, GROUP BY, ORDER BY ... [ASC|DESC] (keys must appear in the select
list), LIMIT offset, count, SUM/COUNT/MIN/MAX aggregates, PosExplode,
ReadExplode, and EXEC <CustomModule> bindings registered by the host
(Section III-F).

Each node execution is charged to the optional metrics registry
(``metrics=``) as ``sql_operator_seconds{op=...,backend=...}`` /
``sql_operator_rows{...}`` counters; ``e2e_bench`` (``sql.operator_s``,
``sql.fast_node_frac``) and ``benchmarks/test_sql_backend.py`` read them
off that registry to say where backend time goes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..obs.registry import MetricsRegistry
from .ast_nodes import (
    BinOp,
    ColumnRef,
    CreateTable,
    Declare,
    ExecModule,
    ForLoop,
    FuncCall,
    InsertInto,
    Literal,
    Script,
    SelectItem,
    SetVar,
    UnaryOp,
    VarRef,
)
from .backends import (
    Backend,
    SqlError,
    apply_binop,
    get_backend,
    table_from_row_dicts,
    timed_operator,
)
from .plan import (
    AggregateNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlanNode,
    PosExplodeNode,
    ProjectNode,
    ReadExplodeNode,
    ScanNode,
    SortNode,
    build_plan,
)
from .prepared import prepare, prepare_query
from ..tables.table import Table

__all__ = ["Executor", "SqlError", "table_from_row_dicts"]

def _plan_of(statement) -> PlanNode:
    """The statement's attached plan; a script that came straight from
    :func:`~repro.sql.parser.parse` carries none and is planned here."""
    if statement.plan is None:
        return build_plan(statement.query)
    return statement.plan


class Executor:
    """Evaluates scripts against a mutable catalog.

    ``backend`` selects the execution strategy by registry name
    (``"reference"`` or ``"fast"``) or accepts a :class:`Backend`
    instance directly.  ``metrics`` (optional) receives per-operator
    timing counters.
    """

    def __init__(
        self,
        backend: Union[str, Backend] = "reference",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tables: Dict[str, Table] = {}
        self.partition_providers: Dict[str, Callable[[object], Table]] = {}
        self.variables: Dict[str, object] = {}
        self.custom_modules: Dict[str, Callable] = {}
        self._row_bindings: Dict[str, dict] = {}
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.metrics = metrics

    # -- host-facing registration -------------------------------------------------

    def register_table(self, name: str, table: Table) -> None:
        """Expose a table to queries under ``name``."""
        self.tables[name] = table

    def register_partitioned(
        self, name: str, provider: Callable[[object], Table]
    ) -> None:
        """Expose ``name PARTITION (pid)``: ``provider(pid)`` must return
        the partition's table."""
        self.partition_providers[name] = provider

    def set_variable(self, name: str, value) -> None:
        """Set a ``@variable`` (hosts use this for constants like P)."""
        self.variables[name] = value

    def register_custom_module(self, name: str, func: Callable) -> None:
        """Register an ``EXEC``-able custom operation (Section III-F).
        ``func(executor, **bindings)`` receives evaluated binding values."""
        self.custom_modules[name] = func

    # -- script execution -----------------------------------------------------------

    def execute(self, text: str) -> None:
        """Run a whole script; ``text`` is parsed and planned the first
        time the process sees it (:mod:`repro.sql.prepared`)."""
        self.execute_script(prepare(text))

    def execute_script(self, script: Script) -> None:
        """Run a parsed script."""
        for statement in script.statements:
            self._execute_statement(statement)

    def query(self, text: str) -> Table:
        """Evaluate a single query, returning its table; ``text`` is
        parsed and planned the first time the process sees it."""
        return self._eval_plan(prepare_query(text))

    def explode_reads(self, table: Table, read_length: int) -> Table:
        """The backend's per-base explosion of a READS ``table`` (the
        stage drivers' ``Bases`` input), timed as operator
        ``explode_reads`` like every plan node."""
        return self._timed(
            "explode_reads",
            lambda: self.backend.explode_reads(table, read_length),
        )

    def _execute_statement(self, statement) -> None:
        if isinstance(statement, CreateTable):
            self.tables[statement.name] = self._eval_plan(_plan_of(statement))
        elif isinstance(statement, InsertInto):
            result = self._eval_plan(_plan_of(statement))
            existing = self.tables.get(statement.name)
            if existing is None or existing.num_rows == 0:
                self.tables[statement.name] = result
            else:
                self.tables[statement.name] = existing.concat(result)
        elif isinstance(statement, Declare):
            self.variables.setdefault(statement.name, 0)
        elif isinstance(statement, SetVar):
            self.variables[statement.name] = self._eval_scalar(statement.expr, None)
        elif isinstance(statement, ForLoop):
            table = self.tables.get(statement.table)
            if table is None:
                raise SqlError(f"unknown table {statement.table} in FOR loop")
            try:
                for row in table.rows():
                    self._row_bindings[statement.row_var] = row
                    for inner in statement.body:
                        self._execute_statement(inner)
            finally:
                self._row_bindings.pop(statement.row_var, None)
        elif isinstance(statement, ExecModule):
            func = self.custom_modules.get(statement.module)
            if func is None:
                raise SqlError(f"unknown custom module {statement.module}")
            bindings = {
                name: self._eval_scalar(expr, None)
                for name, expr in statement.bindings
            }
            func(self, **bindings)
        else:
            raise SqlError(f"unsupported statement {statement!r}")

    # -- plan evaluation ---------------------------------------------------------------

    def _eval_plan(self, plan: PlanNode) -> Table:
        backend = self.backend
        if isinstance(plan, ScanNode):
            return self._timed("scan", lambda: self._scan(plan))
        if isinstance(plan, ProjectNode):
            child = self._eval_plan(plan.child)
            return self._timed("project", lambda: backend.project(self, plan, child))
        if isinstance(plan, FilterNode):
            child = self._eval_plan(plan.child)
            return self._timed("filter", lambda: backend.filter(self, plan, child))
        if isinstance(plan, JoinNode):
            left = self._eval_plan(plan.left)
            right = self._eval_plan(plan.right)
            return self._timed("join", lambda: backend.join(self, plan, left, right))
        if isinstance(plan, GroupByNode):
            child = self._eval_plan(plan.child)
            return self._timed("group_by", lambda: backend.group_by(self, plan, child))
        if isinstance(plan, AggregateNode):
            child = self._eval_plan(plan.child)
            return self._timed(
                "aggregate", lambda: backend.aggregate(self, plan, child)
            )
        if isinstance(plan, SortNode):
            child = self._eval_plan(plan.child)
            return self._timed("sort", lambda: backend.sort(self, plan, child))
        if isinstance(plan, LimitNode):
            child = self._eval_plan(plan.child)
            return self._timed("limit", lambda: backend.limit(self, plan, child))
        if isinstance(plan, PosExplodeNode):
            child = self._eval_plan(plan.child)
            return self._timed(
                "pos_explode", lambda: backend.pos_explode(self, plan, child)
            )
        if isinstance(plan, ReadExplodeNode):
            child = self._eval_plan(plan.child)
            return self._timed(
                "read_explode", lambda: backend.read_explode(self, plan, child)
            )
        raise SqlError(f"cannot evaluate plan node {plan!r}")

    def _timed(self, op: str, thunk: Callable[[], Table]) -> Table:
        if self.metrics is None:
            return thunk()
        with timed_operator(self.metrics, op, self.backend.name) as timer:
            result = thunk()
            timer.rows(result.num_rows)
        return result

    def _scan(self, plan: ScanNode) -> Table:
        if plan.table in self._row_bindings:
            return table_from_row_dicts([dict(self._row_bindings[plan.table])])
        if plan.partition is not None:
            provider = self.partition_providers.get(plan.table)
            if provider is None:
                raise SqlError(f"table {plan.table} is not partitioned")
            pid = self._eval_scalar(plan.partition, None)
            return provider(pid)
        table = self.tables.get(plan.table)
        if table is None:
            raise SqlError(f"unknown table {plan.table}")
        return table

    @staticmethod
    def _item_name(item: SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            if item.expr.table:
                return f"{item.expr.table}__{item.expr.column}"
            return item.expr.column
        return f"EXPR{index}"

    def _plan_qualifier(self, plan: PlanNode) -> Optional[str]:
        if isinstance(plan, ScanNode):
            return plan.qualifier
        for child in plan.children():
            qualifier = self._plan_qualifier(child)
            if qualifier is not None:
                return qualifier
        return None

    # -- scalar expressions ---------------------------------------------------------------

    def _row_value(self, row: Optional[dict], column: str, table: Optional[str] = None):
        if row is not None:
            if table is not None:
                qualified = f"{table}__{column}"
                if qualified in row:
                    return row[qualified]
                # A row binding like SingleRead.POS.
                binding = self._row_bindings.get(table)
                if binding is not None and column in binding:
                    return binding[column]
            if column in row:
                return row[column]
        if table is not None:
            binding = self._row_bindings.get(table)
            if binding is not None and column in binding:
                return binding[column]
        if column in self.variables:
            return self.variables[column]
        raise SqlError(f"cannot resolve column {table or ''}.{column}".strip("."))

    def _eval_scalar(self, expr, row: Optional[dict]):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.name not in self.variables:
                raise SqlError(f"undeclared variable @{expr.name}")
            return self.variables[expr.name]
        if isinstance(expr, ColumnRef):
            return self._row_value(row, expr.column, expr.table)
        if isinstance(expr, UnaryOp):
            value = self._eval_scalar(expr.operand, row)
            if expr.op == "NOT":
                return not value
            return -value
        if isinstance(expr, BinOp):
            left = self._eval_scalar(expr.left, row)
            if expr.op == "AND":
                return bool(left) and bool(self._eval_scalar(expr.right, row))
            if expr.op == "OR":
                return bool(left) or bool(self._eval_scalar(expr.right, row))
            right = self._eval_scalar(expr.right, row)
            return apply_binop(expr.op, left, right)
        if isinstance(expr, FuncCall):
            raise SqlError(
                f"aggregate {expr.name} used outside SELECT/GROUP BY context"
            )
        raise SqlError(f"cannot evaluate expression {expr!r}")
