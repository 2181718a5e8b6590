"""Pluggable execution backends for the extended-SQL executor.

ROADMAP item 2: one front end, pluggable executors.  The
:class:`~repro.sql.executor.Executor` owns parsing, the catalog,
variables, and row bindings; evaluating one plan *node* over
already-evaluated child tables is delegated to a :class:`Backend`:

* :class:`ReferenceBackend` — the original row-at-a-time interpreter.
  It materializes rows as Python dicts and is the bit-level oracle for
  every other implementation (including the hardware pipelines).
* ``VectorizedBackend`` (:mod:`repro.sql.fast_backend`, registered as
  ``"fast"``) — numpy columnar kernels, bit-identical to the reference
  by contract and pinned so by the differential test suite.

Backends are looked up by name through :func:`get_backend`;
:func:`register_backend` lets hosts plug in their own.

NULL contract (shared by all backends)
--------------------------------------

The dialect has no three-valued logic.  NULLs only *arise* from the
unmatched side of a LEFT/OUTER join, and they are materialized as
sentinel values by :func:`null_like`: ``0`` for numeric scalars,
``False`` for booleans, and an empty array for array columns.  From
that point on every operator treats the sentinel as an ordinary value:

* comparisons and arithmetic (:func:`apply_binop`) see ``0``/``False``
  — ``NULL == 0`` is true, ``NULL + 1`` is ``1``;
* aggregates include sentinel rows — ``COUNT(expr)`` counts truthiness,
  so a NULL (``0``) is *not* counted, while ``SUM``/``MIN``/``MAX``
  see the literal ``0``;
* group-by keys treat NULL as the value ``0`` (all NULLs group
  together, and together with real zeros).

Tables additionally carry *validity masks* (``Table.validity``) so
hosts can distinguish a sentinel from a real zero: joins mark
null-filled rows invalid, and row-selection verbs propagate the masks.
Expression evaluation ignores validity by design — queries that must
distinguish NULL from zero shift the domain instead (e.g. project
``SEQ + 1`` so ``0`` is unoccupied), which is also how the hardware
pipelines keep flits self-describing.  The truth-table test
``tests/test_null_contract.py`` pins this contract for both backends.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..genomics.cigar import decode_elements
from ..genomics.read import FLAG_REVERSE
from ..tables.schema import ColumnSpec, Schema
from ..tables.table import Table
from .ast_nodes import ColumnRef, FuncCall, Star
from .explode import pos_explode, read_explode

__all__ = [
    "Backend",
    "ReferenceBackend",
    "SqlError",
    "apply_binop",
    "available_backends",
    "get_backend",
    "null_like",
    "register_backend",
    "table_from_row_dicts",
]


class SqlError(ValueError):
    """Raised on semantic errors during execution."""


#: Schema of the bulk read-explode table stage drivers consume: one row
#: per base of every read, with the BQSR covariates precomputed.
EXPLODED_READS_SCHEMA = Schema.of(
    READID="int64",
    POS="uint32",
    OP="uint8",
    SEQ="uint8",
    QUAL="uint8",
    CYC="int32",
    CTX="int32",
)


def _infer_spec(name: str, value) -> ColumnSpec:
    if isinstance(value, np.ndarray):
        kind = {
            np.dtype(np.uint8): "uint8[]",
            np.dtype(np.uint16): "uint16[]",
            np.dtype(np.uint32): "uint32[]",
            np.dtype(np.bool_): "bool[]",
        }.get(value.dtype)
        if kind is None:
            kind = "uint32[]"
        return ColumnSpec(name, kind)
    if isinstance(value, (bool, np.bool_)):
        return ColumnSpec(name, "bool")
    if isinstance(value, (list, tuple)):
        return ColumnSpec(name, "uint32[]")
    return ColumnSpec(name, "int64")


def table_from_row_dicts(rows: List[dict], schema: Optional[Schema] = None) -> Table:
    """Build a table from per-row dicts, inferring the schema from the
    first row's values.

    An empty row list carries no schema information, so ``schema`` must
    be given explicitly in that case; otherwise :class:`SqlError` is
    raised.  When rows are present, ``schema`` is ignored and the
    schema is inferred as before (row-dict round trips normalize every
    scalar to int64/bool).
    """
    if not rows:
        if schema is None:
            raise SqlError(
                "cannot infer a schema from an empty row list; "
                "pass an explicit schema"
            )
        return Table.empty(schema)
    specs = tuple(_infer_spec(name, value) for name, value in rows[0].items())
    return Table.from_rows(Schema(specs), rows)


def apply_binop(op: str, left, right):
    """Scalar binary operator semantics shared by all backends.

    ``/`` is floor division on integers and true division on floats,
    mirroring the hardware ALU's integer divide.  NULL sentinels take
    part as ordinary ``0``/``False`` values (see the module docstring).
    """
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left // right if isinstance(left, (int, np.integer)) else left / right
    raise SqlError(f"unsupported operator {op}")


def null_like(value):
    """The NULL sentinel for a value's type: empty array / False / 0."""
    if isinstance(value, np.ndarray):
        return np.array([], dtype=value.dtype)
    if isinstance(value, (bool, np.bool_)):
        return False
    return 0


def qualify_name(name: str, qualifier: Optional[str]) -> str:
    """Output column name for a joined column: ``qualifier__name``."""
    if qualifier is None:
        return name
    return f"{qualifier}__{name}"


def _row_kind(spec: ColumnSpec) -> str:
    """Column kind after a row-dict round trip: scalars widen to int64
    (bool stays bool), array kinds are preserved."""
    if spec.is_array:
        return spec.kind
    return "bool" if spec.kind == "bool" else "int64"


def join_output_columns(
    left: Table,
    right: Table,
    left_name: Optional[str],
    right_name: Optional[str],
    include_left: bool = True,
    include_right: bool = True,
) -> List[Tuple[str, str, str, str]]:
    """The join's output column layout: ``(out_name, side, source, kind)``
    per column, left columns first, with a colliding right column
    overwriting the left one in place (dict-update semantics)."""
    order: List[str] = []
    info: Dict[str, Tuple[str, str, str]] = {}
    if include_left:
        for spec in left.schema.columns:
            out = qualify_name(spec.name, left_name)
            if out not in info:
                order.append(out)
            info[out] = ("left", spec.name, _row_kind(spec))
    if include_right:
        for spec in right.schema.columns:
            out = qualify_name(spec.name, right_name)
            if out not in info:
                order.append(out)
            info[out] = ("right", spec.name, _row_kind(spec))
    return [(out,) + info[out] for out in order]


def join_validity(
    left: Table,
    right: Table,
    columns: List[Tuple[str, str, str, str]],
    left_src: np.ndarray,
    right_src: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Validity masks for a join result.

    ``left_src``/``right_src`` give each output row's source row on that
    side (-1 for the null-filled side of an unmatched row).  A column is
    invalid where its side is null-filled or where the source row was
    already invalid in the input.
    """
    masks: Dict[str, np.ndarray] = {}
    for out_name, side, source, _kind in columns:
        src = left_src if side == "left" else right_src
        child = left if side == "left" else right
        valid = src >= 0
        base = child.validity(source)
        if base is not None and valid.any():
            carried = np.ones(len(src), dtype=bool)
            carried[valid] = base[src[valid]]
            valid = valid & carried
        if not valid.all():
            masks[out_name] = valid
    return masks


class Backend:
    """One plan-node-at-a-time execution strategy.

    The executor evaluates children and passes finished tables; each
    method returns the node's output table.  Implementations must be
    bit-identical to :class:`ReferenceBackend` — same values, dtypes,
    column order, row order, and validity masks.
    """

    name = "abstract"

    # -- relational operators -------------------------------------------------

    def project(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    def filter(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    def join(self, executor, plan, left: Table, right: Table) -> Table:
        raise NotImplementedError

    def group_by(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    def aggregate(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    def sort(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    def limit(self, executor, plan, child: Table) -> Table:
        offset = int(executor._eval_scalar(plan.offset, None))
        count = int(executor._eval_scalar(plan.count, None))
        return child.limit(count, offset)

    def pos_explode(self, executor, plan, child: Table) -> Table:
        init_column = plan.init_pos
        if not isinstance(init_column, ColumnRef):
            raise SqlError("PosExplode init position must be a column")
        return pos_explode(child, plan.array.column, init_column.column)

    def read_explode(self, executor, plan, child: Table) -> Table:
        raise NotImplementedError

    # -- bulk kernels (stage drivers) -----------------------------------------

    def explode_reads(self, table: Table, read_length: int) -> Table:
        """Explode a READS-schema table into one row per base, including
        the BQSR cycle/context covariates (CYC/CTX are -1 where
        undefined: deleted bases, first bases, non-ACGT context)."""
        raise NotImplementedError


class ReferenceBackend(Backend):
    """The original row-at-a-time interpreter (the semantic oracle)."""

    name = "reference"

    def project(self, executor, plan, child: Table) -> Table:
        items = plan.items
        if len(items) == 1 and isinstance(items[0].expr, Star):
            return child
        rows = []
        for row in child.rows():
            out = {}
            for index, item in enumerate(items):
                name = executor._item_name(item, index)
                out[name] = executor._eval_scalar(item.expr, row)
            rows.append(out)
        if not rows:
            specs = tuple(
                ColumnSpec(executor._item_name(item, i), "int64")
                for i, item in enumerate(items)
            )
            return Table.empty(Schema(specs))
        return table_from_row_dicts(rows)

    def filter(self, executor, plan, child: Table) -> Table:
        return child.where(
            lambda row: bool(executor._eval_scalar(plan.predicate, row))
        )

    def join(self, executor, plan, left: Table, right: Table) -> Table:
        left_name = executor._plan_qualifier(plan.left)
        right_name = executor._plan_qualifier(plan.right)
        left_rows = list(left.rows())
        right_rows = list(right.rows())
        right_key = plan.right_key.column
        left_key = plan.left_key.column
        index: Dict[object, List[int]] = {}
        for i, row in enumerate(right_rows):
            index.setdefault(executor._row_value(row, right_key), []).append(i)

        def qualify(row: dict, qualifier: Optional[str]) -> dict:
            if qualifier is None:
                return dict(row)
            return {f"{qualifier}__{name}": value for name, value in row.items()}

        out_rows: List[dict] = []
        left_src: List[int] = []
        right_src: List[int] = []
        matched_right: set = set()
        null_right = {name: null_like(value) for name, value in
                      (right_rows[0].items() if right_rows else [])}
        for i, row in enumerate(left_rows):
            matches = index.get(executor._row_value(row, left_key), [])
            if matches:
                for j in matches:
                    matched_right.add(j)
                    combined = qualify(row, left_name)
                    combined.update(qualify(right_rows[j], right_name))
                    out_rows.append(combined)
                    left_src.append(i)
                    right_src.append(j)
            elif plan.kind in ("left", "outer"):
                combined = qualify(row, left_name)
                combined.update(qualify(null_right, right_name))
                out_rows.append(combined)
                left_src.append(i)
                right_src.append(-1)
        if plan.kind == "outer":
            null_left = {name: null_like(value) for name, value in
                         (left_rows[0].items() if left_rows else [])}
            for j, row in enumerate(right_rows):
                if j not in matched_right:
                    combined = qualify(null_left, left_name)
                    combined.update(qualify(row, right_name))
                    out_rows.append(combined)
                    left_src.append(-1)
                    right_src.append(j)
        columns = join_output_columns(
            left, right, left_name, right_name,
            include_left=left.num_rows > 0 or not out_rows,
            include_right=right.num_rows > 0 or not out_rows,
        )
        if not out_rows:
            schema = Schema(tuple(ColumnSpec(out, kind)
                                  for out, _side, _source, kind in columns))
            return Table.empty(schema)
        result = table_from_row_dicts(out_rows)
        masks = join_validity(
            left, right, columns,
            np.asarray(left_src, dtype=np.int64),
            np.asarray(right_src, dtype=np.int64),
        )
        if masks:
            result = Table(result.schema, result._columns, result.num_rows,
                           validity=masks)
        return result

    def group_by(self, executor, plan, child: Table) -> Table:
        groups: Dict[tuple, List[dict]] = {}
        for row in child.rows():
            key = tuple(executor._row_value(row, k.column) for k in plan.keys)
            groups.setdefault(key, []).append(row)
        out_rows = []
        for key, rows in groups.items():
            out = {k.column: value for k, value in zip(plan.keys, key)}
            for index, item in enumerate(plan.items):
                if isinstance(item.expr, ColumnRef):
                    continue  # key columns already present
                name = executor._item_name(item, index)
                out[name] = self._eval_aggregate(executor, item.expr, rows)
            out_rows.append(out)
        return table_from_row_dicts(
            out_rows, schema=group_output_schema(executor, plan, child)
        )

    def aggregate(self, executor, plan, child: Table) -> Table:
        rows = list(child.rows())
        out = {}
        for index, item in enumerate(plan.items):
            name = executor._item_name(item, index)
            out[name] = self._eval_aggregate(executor, item.expr, rows)
        return table_from_row_dicts([out])

    def _eval_aggregate(self, executor, expr: FuncCall, rows: List[dict]):
        if not isinstance(expr, FuncCall):
            raise SqlError(f"expected aggregate, got {expr!r}")
        name = expr.name.upper()
        if name == "COUNT" and (not expr.args or isinstance(expr.args[0], Star)):
            return len(rows)
        values = [executor._eval_scalar(expr.args[0], row) for row in rows]
        if name == "SUM":
            return int(sum(int(v) for v in values))
        if name == "COUNT":
            return sum(1 for v in values if v)
        if name == "MIN":
            return min(values) if values else 0
        if name == "MAX":
            return max(values) if values else 0
        raise SqlError(f"unsupported aggregate {name}")

    def sort(self, executor, plan, child: Table) -> Table:
        rows = list(child.rows())
        indices = list(range(len(rows)))
        # Stable multi-key sort: apply keys right-to-left.
        for item in reversed(plan.keys):
            indices.sort(
                key=lambda i: executor._row_value(
                    rows[i], item.column.column, item.column.table
                ),
                reverse=item.descending,
            )
        return child.take(indices)

    def read_explode(self, executor, plan, child: Table) -> Table:
        pieces = []
        for row in child.rows():
            values = [executor._eval_scalar(arg, row) for arg in plan.args]
            if len(values) == 3:
                pos, cigar, seq = values
                pieces.append(read_explode(int(pos), cigar, seq))
            elif len(values) == 4:
                pos, cigar, seq, qual = values
                pieces.append(read_explode(int(pos), cigar, seq, qual))
            else:
                raise SqlError("ReadExplode takes POS, CIGAR, SEQ [, QUAL]")
        if not pieces:
            return read_explode(0, [], [])
        result = pieces[0]
        for piece in pieces[1:]:
            result = result.concat(piece)
        return result

    def explode_reads(self, table: Table, read_length: int) -> Table:
        read_ids = (table.column("ROWID") if "ROWID" in table.schema
                    else np.arange(table.num_rows, dtype=np.int64))
        positions = table.column("POS")
        cigars = table.column("CIGAR")
        seqs = table.column("SEQ")
        quals = table.column("QUAL")
        flags = (table.column("FLAGS") if "FLAGS" in table.schema
                 else np.zeros(table.num_rows, dtype=np.uint32))
        out: Dict[str, List[int]] = {name: [] for name in
                                     EXPLODED_READS_SCHEMA.names}
        ins_pos = int(np.iinfo(np.uint32).max)
        del_code = int(np.iinfo(np.uint8).max)
        for i in range(table.num_rows):
            cigar = decode_elements(cigars[i])
            seq = seqs[i]
            qual = quals[i]
            reverse = bool(int(flags[i]) & FLAG_REVERSE)
            rid = int(read_ids[i])
            for op, ref_pos, read_index in cigar.walk(int(positions[i])):
                out["READID"].append(rid)
                if op == "M":
                    out["POS"].append(ref_pos)
                    out["OP"].append(0)
                elif op == "I":
                    out["POS"].append(ins_pos)
                    out["OP"].append(1)
                else:  # D
                    out["POS"].append(ref_pos)
                    out["OP"].append(2)
                if read_index >= 0:
                    out["SEQ"].append(int(seq[read_index]))
                    out["QUAL"].append(int(qual[read_index]))
                    if reverse:
                        cycle = read_length + (len(seq) - 1 - read_index)
                    else:
                        cycle = read_index
                    out["CYC"].append(cycle)
                    if read_index <= 0:
                        out["CTX"].append(-1)
                    else:
                        prev = int(seq[read_index - 1])
                        current = int(seq[read_index])
                        if prev > 3 or current > 3:
                            out["CTX"].append(-1)
                        else:
                            out["CTX"].append(prev * 4 + current)
                else:
                    out["SEQ"].append(del_code)
                    out["QUAL"].append(del_code)
                    out["CYC"].append(-1)
                    out["CTX"].append(-1)
        return Table.from_columns(EXPLODED_READS_SCHEMA, **out)


def group_output_schema(executor, plan, child: Table) -> Schema:
    """Schema of an (empty) GROUP BY result: key columns keep the
    child's row-dict kind, aggregate items come out int64."""
    specs: List[ColumnSpec] = []
    for key in plan.keys:
        if key.column in child.schema:
            specs.append(ColumnSpec(key.column, _row_kind(child.schema[key.column])))
        else:
            specs.append(_infer_spec(key.column, executor.variables.get(key.column, 0)))
    for index, item in enumerate(plan.items):
        if isinstance(item.expr, ColumnRef):
            continue
        specs.append(ColumnSpec(executor._item_name(item, index), "int64"))
    return Schema(tuple(specs))


#: Registered backend factories, by name.
_BACKENDS: Dict[str, type] = {"reference": ReferenceBackend}


def register_backend(name: str, factory: type) -> None:
    """Register a backend class under ``name`` for ``Executor(backend=name)``."""
    _BACKENDS[name] = factory


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    from . import fast_backend  # noqa: F401  (registers "fast" on import)

    factory = _BACKENDS.get(name)
    if factory is None:
        known = ", ".join(sorted(_BACKENDS))
        raise SqlError(f"unknown SQL backend {name!r} (available: {known})")
    return factory()


def available_backends() -> List[str]:
    """Names of every registered backend."""
    from . import fast_backend  # noqa: F401

    return sorted(_BACKENDS)


class timed_operator:
    """Context manager charging one plan-node execution to the metrics
    registry: ``sql_operator_seconds{op=...,backend=...}`` and
    ``sql_operator_rows`` counters — read off the registry the caller
    passed as ``metrics=`` by ``e2e_bench`` (``sql.operator_s``,
    ``sql.fast_node_frac``, ``sql.rows_per_s``) and
    ``benchmarks/test_sql_backend.py``; no CLI command reads them."""

    __slots__ = ("metrics", "op", "backend", "_start")

    def __init__(self, metrics, op: str, backend: str):
        self.metrics = metrics
        self.op = op
        self.backend = backend
        self._start = 0.0

    def __enter__(self) -> "timed_operator":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            elapsed = time.perf_counter() - self._start
            self.metrics.counter(
                "sql_operator_seconds", op=self.op, backend=self.backend
            ).inc(elapsed)

    def rows(self, count: int) -> None:
        """Record the node's output row count."""
        self.metrics.counter(
            "sql_operator_rows", op=self.op, backend=self.backend
        ).inc(count)
