"""The numpy-vectorized "fast" SQL backend.

Executes the same logical plans as the reference interpreter with
columnar kernels: boolean-mask selection for WHERE, ``np.lexsort``
stable sorts, JOIN and GROUP BY through one key-to-slot step, and a
fully vectorized read-explode (per-base CIGAR expansion without a
Python loop over bases).

The key-to-slot step (:func:`_key_slots`) addresses keys rather than
sorting them whenever the slot rule (:data:`DENSE_SPAN_PER_ROW`) takes
the build side: a join then matches by slot-table lookup and a GROUP BY
accumulates per slot with ``ufunc.at``.  Bool keys, multi-column keys
and wide spans take the sort path instead — an ``argsort`` /
``searchsorted`` sort-merge join, or a ``lexsort`` with segmented
``reduceat``.  Both paths emit groups in order of first appearance.

Bit-identity contract: every kernel reproduces the reference backend's
values, dtypes, column order, row order, and validity masks exactly —
including its quirks (scalar outputs widen to int64 through the
row-dict round trip, ``/`` floors on integers, join match order is
left-major with right matches in original right order, group keys
follow first appearance).  Anything a kernel cannot reproduce
faithfully — array-valued expressions, non-numeric variables, a zero
divisor that the reference might short-circuit past — raises
:class:`Unvectorizable` internally and falls back to the inherited
reference implementation for that node, keeping behavior identical by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..genomics.read import FLAG_REVERSE
from ..tables.schema import ColumnSpec, Schema
from ..tables.table import Table
from .ast_nodes import BinOp, ColumnRef, FuncCall, Literal, Star, UnaryOp, VarRef
from .backends import (
    EXPLODED_READS_SCHEMA,
    ReferenceBackend,
    SqlError,
    group_output_schema,
    join_output_columns,
    join_validity,
    register_backend,
    table_from_row_dicts,
)
from .explode import (
    DEL_CODE,
    INS_POS,
    READ_EXPLODE_SCHEMA,
    READ_EXPLODE_SCHEMA_NO_QUAL,
)

__all__ = ["VectorizedBackend", "Unvectorizable"]


class Unvectorizable(Exception):
    """Internal signal: this node cannot be executed vectorized with
    reference-identical semantics; fall back to the reference kernel."""


def _broadcast(value, n: int) -> np.ndarray:
    if isinstance(value, (bool, np.bool_)):
        return np.full(n, bool(value), dtype=np.bool_)
    if isinstance(value, (int, np.integer)):
        return np.full(n, int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.full(n, float(value), dtype=np.float64)
    raise Unvectorizable


def _as_number(vec: np.ndarray) -> np.ndarray:
    """Promote booleans to int64 for arithmetic (True + True == 2)."""
    if vec.dtype == np.bool_:
        return vec.astype(np.int64)
    return vec


def _column_vector(table: Table, name: str) -> np.ndarray:
    spec = table.schema[name]
    if spec.is_array:
        raise Unvectorizable
    data = table.column(name)
    if spec.kind == "bool":
        return np.asarray(data, dtype=np.bool_)
    return np.asarray(data).astype(np.int64, copy=False)


def _resolve_ref(executor, table: Table, column: str,
                 qualifier: Optional[str]) -> Tuple[str, object]:
    """Mirror ``Executor._row_value`` resolution over a table's columns:
    returns ``("column", name)`` or ``("scalar", value)``."""
    if qualifier is not None:
        qualified = f"{qualifier}__{column}"
        if qualified in table.schema:
            return ("column", qualified)
        binding = executor._row_bindings.get(qualifier)
        if binding is not None and column in binding:
            return ("scalar", binding[column])
    if column in table.schema:
        return ("column", column)
    if column in executor.variables:
        return ("scalar", executor.variables[column])
    # Let the reference path raise the canonical SqlError.
    raise Unvectorizable


def _eval_vector(executor, expr, table: Table) -> np.ndarray:
    """Evaluate a scalar expression over every row at once."""
    n = table.num_rows
    if isinstance(expr, Literal):
        return _broadcast(expr.value, n)
    if isinstance(expr, VarRef):
        if expr.name not in executor.variables:
            raise Unvectorizable
        return _broadcast(executor.variables[expr.name], n)
    if isinstance(expr, ColumnRef):
        kind, value = _resolve_ref(executor, table, expr.column, expr.table)
        if kind == "column":
            return _column_vector(table, value)
        return _broadcast(value, n)
    if isinstance(expr, UnaryOp):
        vec = _eval_vector(executor, expr.operand, table)
        if expr.op == "NOT":
            return ~vec.astype(np.bool_)
        return -_as_number(vec)
    if isinstance(expr, BinOp):
        left = _eval_vector(executor, expr.left, table)
        right = _eval_vector(executor, expr.right, table)
        op = expr.op
        if op == "AND":
            return left.astype(np.bool_) & right.astype(np.bool_)
        if op == "OR":
            return left.astype(np.bool_) | right.astype(np.bool_)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lhs, rhs = _as_number(left), _as_number(right)
            if op == "==":
                return lhs == rhs
            if op == "!=":
                return lhs != rhs
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            return lhs >= rhs
        lhs, rhs = _as_number(left), _as_number(right)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            # The reference may short-circuit past a zero divisor via
            # AND/OR, so a vectorized divide-by-zero cannot decide
            # whether to raise — defer to the reference.
            if rhs.size and (rhs == 0).any():
                raise Unvectorizable
            if lhs.dtype.kind == "f":
                return lhs / rhs
            return lhs // rhs
        raise Unvectorizable
    # FuncCall outside aggregate context etc.: reference raises SqlError.
    raise Unvectorizable


def _output_column(vec: np.ndarray) -> Tuple[str, np.ndarray]:
    """Kind + packed data for a computed vector, matching the row-dict
    round trip: bool stays bool, everything else lands as int64 (floats
    truncate toward zero, exactly like ``np.asarray(value, int64)``)."""
    if vec.dtype == np.bool_:
        return "bool", vec
    return "int64", vec.astype(np.int64, copy=False)


#: The slot rule.  An integer key column whose span (max - min + 1) is
#: at most this many times its row count is addressed, not sorted: a
#: key's slot is ``key - min``, as Fig. 11's SPM Reader fetches the base
#: at ``POS - base`` and Fig. 12's SPM Updater adds at a bin's address.
#: Bool keys, multi-column keys and wider spans take the sort path.
DENSE_SPAN_PER_ROW = 4


def _key_slots(keys: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """The key-to-slot step over a build side's keys (a join's right
    input, a GROUP BY's key column): ``(slots, low, span)`` with
    ``slots = keys - low`` in ``[0, span)``, or ``None`` when the slot
    rule sends the keys down the sort path.  An empty side has span 0."""
    if keys.dtype == np.bool_:
        return None
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64), 0, 0
    low, high = int(keys.min()), int(keys.max())
    span = high - low + 1
    if span > DENSE_SPAN_PER_ROW * len(keys):
        return None
    return keys.astype(np.int64, copy=False) - low, low, span


def _slot_matches(
    probe: np.ndarray, slots: np.ndarray, low: int, span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join matching by slot-table lookup: per probe key, the first
    position ``lo`` and number ``counts`` of its matches in
    ``build_order`` (build rows grouped by slot, stable within one)."""
    # Slot ``span`` is the miss slot: probe keys outside the build
    # side's range land there, and no build row does.
    per_slot = np.bincount(slots, minlength=span + 1)
    slot_start = np.cumsum(per_slot) - per_slot
    n_build = len(slots)
    if n_build and int(per_slot.max()) > 1:
        build_order = np.argsort(slots, kind="stable")
    else:
        build_order = np.empty(n_build, dtype=np.int64)
        build_order[slot_start[slots]] = np.arange(n_build, dtype=np.int64)
    hit = (probe >= low) & (probe < low + span)
    probe_slots = np.where(hit, probe - low, span)
    return slot_start[probe_slots], per_slot[probe_slots], build_order


def _sort_matches(
    probe: np.ndarray, build: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join matching by sort-merge, the same triple as
    :func:`_slot_matches`: a stable argsort of the build keys and two
    binary searches per probe key."""
    build_order = np.argsort(build, kind="stable")
    build_sorted = build[build_order]
    lo = np.searchsorted(build_sorted, probe, side="left")
    hi = np.searchsorted(build_sorted, probe, side="right")
    return lo, hi - lo, build_order


def _slot_groups(slots: np.ndarray, span: int):
    """Grouping by slot: ``(rep_rows, count, reduce)``.  ``rep_rows``
    holds each group's first row, groups in order of first appearance;
    ``count(mask=None)`` counts each group's rows (where ``mask``), and
    ``reduce(ufunc, vec)`` folds ``vec`` per group, accumulated per slot
    in ``vec``'s own dtype (so int64 sums are exact)."""
    n = len(slots)
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, slots, np.arange(n, dtype=np.int64))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    rep_rows = np.flatnonzero(is_first)
    group_slots = slots[rep_rows]

    def count(mask: Optional[np.ndarray] = None) -> np.ndarray:
        counted = slots if mask is None else slots[mask]
        return np.bincount(counted, minlength=span)[group_slots].astype(
            np.int64, copy=False
        )

    def reduce(ufunc, vec: np.ndarray) -> np.ndarray:
        if ufunc is np.add:
            acc = np.zeros(span, dtype=vec.dtype)
        else:  # MIN / MAX: seeding with a member row is idempotent
            acc = np.empty(span, dtype=vec.dtype)
            acc[group_slots] = vec[rep_rows]
        ufunc.at(acc, slots, vec)
        return acc[group_slots]

    return rep_rows, count, reduce


def _sort_groups(key_vecs: List[np.ndarray]):
    """Grouping by sort, the same triple as :func:`_slot_groups`: a
    stable ``lexsort`` of the keys and segmented ``reduceat``."""
    key_vecs = [vec.astype(np.int64, copy=False) for vec in key_vecs]
    n = len(key_vecs[0])
    order = np.lexsort(tuple(reversed(key_vecs)))
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for vec in key_vecs:
        sorted_key = vec[order]
        new_group[1:] |= sorted_key[1:] != sorted_key[:-1]
    starts = np.nonzero(new_group)[0]
    # First-appearance output order, like the reference's dict of groups.
    first_original = order[starts]
    appear = np.argsort(first_original, kind="stable")

    def count(mask: Optional[np.ndarray] = None) -> np.ndarray:
        if mask is None:
            return np.diff(np.append(starts, n))[appear].astype(np.int64)
        return reduce(np.add, mask.astype(np.int64))

    def reduce(ufunc, vec: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(vec[order], starts)[appear]

    return first_original[appear], count, reduce


def _join_rows(
    kind: str, lo: np.ndarray, counts: np.ndarray, build_order: np.ndarray,
    n_build: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """A join's output rows from its match triple: each row's probe
    (left) and build (right) source row, ``-1`` on a null-filled side.
    Left-major, a probe row's matches in build order; LEFT/OUTER keep
    unmatched probe rows, and OUTER appends the unmatched build rows."""
    n_probe = len(counts)
    if int(counts.max(initial=0)) <= 1:
        # At most one match per probe row (unique build keys, as in
        # every stage script): nothing to expand.
        matched = counts > 0
        if kind == "inner":
            left_src = np.flatnonzero(matched)
            right_src = build_order[lo[left_src]]
        else:
            left_src = np.arange(n_probe, dtype=np.int64)
            right_src = np.full(n_probe, -1, dtype=np.int64)
            right_src[matched] = build_order[lo[matched]]
    else:
        out_counts = np.maximum(counts, 1) if kind in ("left", "outer") else counts
        total = int(out_counts.sum())
        offsets = np.cumsum(out_counts) - out_counts
        left_src = np.repeat(np.arange(n_probe, dtype=np.int64), out_counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, out_counts)
        has_match = np.repeat(counts > 0, out_counts)
        match_index = np.repeat(lo, out_counts) + within
        right_src = np.full(total, -1, dtype=np.int64)
        right_src[has_match] = build_order[match_index[has_match]]
    if kind == "outer":
        matched = np.zeros(n_build, dtype=bool)
        matched[right_src[right_src >= 0]] = True
        extras = np.flatnonzero(~matched)
        left_src = np.concatenate(
            [left_src, np.full(len(extras), -1, dtype=np.int64)]
        )
        right_src = np.concatenate([right_src, extras.astype(np.int64)])
    return left_src, right_src


class VectorizedBackend(ReferenceBackend):
    """Columnar numpy execution, bit-identical to the reference."""

    name = "fast"

    # -- project -------------------------------------------------------------

    def project(self, executor, plan, child: Table) -> Table:
        items = plan.items
        if len(items) == 1 and isinstance(items[0].expr, Star):
            return child
        if child.num_rows == 0:
            return super().project(executor, plan, child)
        try:
            out: Dict[str, Tuple[ColumnSpec, object]] = {}
            for index, item in enumerate(items):
                name = executor._item_name(item, index)
                out[name] = self._project_item(executor, item.expr, child, name)
        except Unvectorizable:
            return super().project(executor, plan, child)
        schema = Schema(tuple(spec for spec, _ in out.values()))
        columns = {spec.name: data for spec, data in out.values()}
        return Table(schema, columns, child.num_rows)

    def _project_item(self, executor, expr, child: Table,
                      name: str) -> Tuple[ColumnSpec, object]:
        if isinstance(expr, ColumnRef):
            kind, value = _resolve_ref(executor, child, expr.column, expr.table)
            if kind == "column" and child.schema[value].is_array:
                spec = child.schema[value]
                out_kind = spec.kind if spec.kind in (
                    "uint8[]", "uint16[]", "uint32[]", "bool[]"
                ) else "uint32[]"
                out_spec = ColumnSpec(name, out_kind)
                return out_spec, Table._pack_column(out_spec, child.column(value))
        vec = _eval_vector(executor, expr, child)
        out_kind, data = _output_column(vec)
        return ColumnSpec(name, out_kind), data

    # -- filter --------------------------------------------------------------

    def filter(self, executor, plan, child: Table) -> Table:
        try:
            mask = _eval_vector(executor, plan.predicate, child).astype(np.bool_)
        except Unvectorizable:
            return super().filter(executor, plan, child)
        return child.where_mask(mask)

    # -- sort / limit --------------------------------------------------------

    def sort(self, executor, plan, child: Table) -> Table:
        try:
            keys: List[np.ndarray] = []
            for item in plan.keys:
                vec = _as_number(_eval_vector(executor, item.column, child))
                keys.append(-vec if item.descending else vec)
        except Unvectorizable:
            return super().sort(executor, plan, child)
        order = np.lexsort(tuple(reversed(keys)))
        return child.take(order)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self, executor, plan, child: Table) -> Table:
        try:
            out = {}
            for index, item in enumerate(plan.items):
                name = executor._item_name(item, index)
                out[name] = self._whole_table_aggregate(executor, item.expr, child)
        except Unvectorizable:
            return super().aggregate(executor, plan, child)
        return table_from_row_dicts([out])

    def _whole_table_aggregate(self, executor, expr, child: Table):
        if not isinstance(expr, FuncCall):
            raise Unvectorizable
        name = expr.name.upper()
        if name == "COUNT" and (not expr.args or isinstance(expr.args[0], Star)):
            return child.num_rows
        vec = _eval_vector(executor, expr.args[0], child)
        if name == "SUM":
            return int(vec.astype(np.int64).sum())
        if name == "COUNT":
            return int(np.count_nonzero(vec))
        if name in ("MIN", "MAX"):
            if child.num_rows == 0:
                return 0
            value = vec.min() if name == "MIN" else vec.max()
            if vec.dtype == np.bool_:
                return bool(value)
            if vec.dtype.kind == "f":
                return float(value)
            return int(value)
        raise Unvectorizable

    def group_by(self, executor, plan, child: Table) -> Table:
        try:
            return self._group_by_fast(executor, plan, child)
        except Unvectorizable:
            return super().group_by(executor, plan, child)

    def _group_by_fast(self, executor, plan, child: Table) -> Table:
        n = child.num_rows
        if n == 0:
            return Table.empty(group_output_schema(executor, plan, child))

        key_vecs: List[np.ndarray] = []
        key_cols: List[Tuple[str, object]] = []  # ("column", name) | ("scalar", v)
        for key in plan.keys:
            if key.column in child.schema:
                if child.schema[key.column].is_array:
                    raise Unvectorizable
                key_vecs.append(_column_vector(child, key.column))
                key_cols.append(("column", key.column))
            elif key.column in executor.variables:
                value = executor.variables[key.column]
                if not isinstance(value, (bool, int, np.bool_, np.integer)):
                    raise Unvectorizable
                key_vecs.append(_broadcast(value, n))
                key_cols.append(("scalar", value))
            else:
                raise Unvectorizable

        dense = _key_slots(key_vecs[0]) if len(key_vecs) == 1 else None
        if dense is None:
            rep_rows, count, reduce = _sort_groups(key_vecs)
        else:
            slots, _low, span = dense
            rep_rows, count, reduce = _slot_groups(slots, span)
        n_groups = len(rep_rows)

        out: Dict[str, Tuple[ColumnSpec, object]] = {}
        for key, source in zip(plan.keys, key_cols):
            if source[0] == "column":
                spec = child.schema[source[1]]
                data = np.asarray(child.column(source[1]))[rep_rows]
                if spec.kind == "bool":
                    out[key.column] = (ColumnSpec(key.column, "bool"),
                                       data.astype(np.bool_))
                else:
                    out[key.column] = (ColumnSpec(key.column, "int64"),
                                       data.astype(np.int64))
            else:
                value = source[1]
                if isinstance(value, (bool, np.bool_)):
                    out[key.column] = (
                        ColumnSpec(key.column, "bool"),
                        np.full(n_groups, bool(value), dtype=np.bool_),
                    )
                else:
                    out[key.column] = (
                        ColumnSpec(key.column, "int64"),
                        np.full(n_groups, int(value), dtype=np.int64),
                    )

        for index, item in enumerate(plan.items):
            if isinstance(item.expr, ColumnRef):
                continue  # key columns already present
            if not isinstance(item.expr, FuncCall):
                raise Unvectorizable
            name = executor._item_name(item, index)
            fname = item.expr.name.upper()
            args = item.expr.args
            if fname == "COUNT" and (not args or isinstance(args[0], Star)):
                out[name] = (ColumnSpec(name, "int64"), count())
                continue
            vec = _eval_vector(executor, args[0], child)
            if fname == "SUM":
                values = (count(vec) if vec.dtype == np.bool_
                          else reduce(np.add, vec.astype(np.int64)))
                out[name] = (ColumnSpec(name, "int64"), values)
            elif fname == "COUNT":
                out[name] = (ColumnSpec(name, "int64"), count(vec != 0))
            elif fname in ("MIN", "MAX"):
                reducer = np.minimum if fname == "MIN" else np.maximum
                values = reduce(reducer, vec)
                if vec.dtype == np.bool_:
                    out[name] = (ColumnSpec(name, "bool"), values)
                else:
                    out[name] = (ColumnSpec(name, "int64"),
                                 values.astype(np.int64))
            else:
                raise Unvectorizable

        schema = Schema(tuple(spec for spec, _ in out.values()))
        columns = {spec.name: data for spec, data in out.values()}
        return Table(schema, columns, n_groups)

    # -- join ----------------------------------------------------------------

    def join(self, executor, plan, left: Table, right: Table) -> Table:
        try:
            return self._join_fast(executor, plan, left, right)
        except Unvectorizable:
            return super().join(executor, plan, left, right)

    def _key_vector(self, executor, table: Table, column: str) -> np.ndarray:
        if column in table.schema:
            return _column_vector(table, column)
        if column in executor.variables:
            value = executor.variables[column]
            if not isinstance(value, (bool, int, np.bool_, np.integer)):
                raise Unvectorizable
            return _broadcast(value, table.num_rows)
        raise Unvectorizable

    def _join_fast(self, executor, plan, left: Table, right: Table) -> Table:
        left_name = executor._plan_qualifier(plan.left)
        right_name = executor._plan_qualifier(plan.right)
        left_keys = self._key_vector(
            executor, left, plan.left_key.column
        ).astype(np.int64, copy=False)
        right_keys = self._key_vector(executor, right, plan.right_key.column)
        n_left, n_right = left.num_rows, right.num_rows

        dense = _key_slots(right_keys)
        if dense is None:
            lo, counts, right_order = _sort_matches(
                left_keys, right_keys.astype(np.int64, copy=False)
            )
        else:
            lo, counts, right_order = _slot_matches(left_keys, *dense)
        left_src, right_src = _join_rows(
            plan.kind, lo, counts, right_order, n_right
        )
        n_out = len(left_src)

        columns_info = join_output_columns(
            left, right, left_name, right_name,
            include_left=n_left > 0 or n_out == 0,
            include_right=n_right > 0 or n_out == 0,
        )
        schema = Schema(tuple(
            ColumnSpec(out, kind) for out, _side, _source, kind in columns_info
        ))
        if n_out == 0:
            return Table.empty(schema)

        side_valid = {"left": left_src >= 0, "right": right_src >= 0}
        side_full = {side: bool(valid.all()) for side, valid in side_valid.items()}
        columns: Dict[str, object] = {}
        for out_name, side, source, kind in columns_info:
            child = left if side == "left" else right
            src = left_src if side == "left" else right_src
            spec = child.schema[source]
            if spec.is_array:
                data = child.column(source)
                empty = np.array([], dtype=spec.dtype)
                columns[out_name] = [
                    data[int(i)] if i >= 0 else empty for i in src
                ]
                continue
            data = np.asarray(child.column(source))
            if side_full[side]:
                gathered = data[src]
            elif len(data) == 0:
                gathered = np.zeros(n_out, dtype=data.dtype)
            else:
                gathered = np.where(side_valid[side], data[np.maximum(src, 0)],
                                    data.dtype.type(0))
            columns[out_name] = gathered.astype(
                np.bool_ if kind == "bool" else np.int64, copy=False
            )
        masks = join_validity(left, right, columns_info, left_src, right_src)
        return Table(schema, columns, n_out, validity=masks)

    # -- explode -------------------------------------------------------------

    def pos_explode(self, executor, plan, child: Table) -> Table:
        init = plan.init_pos
        if not isinstance(init, ColumnRef):
            raise SqlError("PosExplode init position must be a column")
        array_column = plan.array.column
        if (
            array_column not in child.schema
            or not child.schema[array_column].is_array
            or init.column not in child.schema
            or child.schema[init.column].is_array
        ):
            return super().pos_explode(executor, plan, child)
        arrays = child.column(array_column)
        inits = np.asarray(child.column(init.column)).astype(np.int64)
        lengths = np.fromiter(
            (len(a) for a in arrays), dtype=np.int64, count=child.num_rows
        )
        total = int(lengths.sum())
        if total == 0:
            positions = np.zeros(0, dtype=np.uint32)
            values = np.zeros(0, dtype=np.uint32)
        else:
            offsets = np.cumsum(lengths) - lengths
            within = (
                np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
            )
            positions = (np.repeat(inits, lengths) + within).astype(np.uint32)
            values = np.concatenate(
                [np.asarray(a) for a in arrays if len(a)]
            ).astype(np.uint32)
        out_schema = Schema.of(**{"POS": "uint32", array_column: "uint32"})
        return Table(
            out_schema,
            {"POS": positions, out_schema.names[-1]: values},
            total,
        )

    def read_explode(self, executor, plan, child: Table) -> Table:
        if len(plan.args) not in (3, 4) or child.num_rows == 0:
            return super().read_explode(executor, plan, child)
        try:
            names = []
            for arg in plan.args:
                if not isinstance(arg, ColumnRef):
                    raise Unvectorizable
                kind, value = _resolve_ref(executor, child, arg.column, arg.table)
                if kind != "column":
                    raise Unvectorizable
                names.append(value)
            pos_name, cigar_name, seq_name = names[0], names[1], names[2]
            qual_name = names[3] if len(names) == 4 else None
            if (
                child.schema[pos_name].is_array
                or not child.schema[cigar_name].is_array
                or not child.schema[seq_name].is_array
                or (qual_name is not None and not child.schema[qual_name].is_array)
            ):
                raise Unvectorizable
        except Unvectorizable:
            return super().read_explode(executor, plan, child)
        positions = np.asarray(child.column(pos_name)).astype(np.int64)
        quals = child.column(qual_name) if qual_name is not None else None
        _, _, pos_out, _, seq_out, qual_out = _explode_kernel(
            positions, child.column(cigar_name), child.column(seq_name), quals
        )
        if qual_name is not None:
            return Table(
                READ_EXPLODE_SCHEMA,
                {"POS": pos_out, "SEQ": seq_out, "QUAL": qual_out},
                len(pos_out),
            )
        return Table(
            READ_EXPLODE_SCHEMA_NO_QUAL,
            {"POS": pos_out, "SEQ": seq_out},
            len(pos_out),
        )

    def explode_reads(self, table: Table, read_length: int) -> Table:
        positions = np.asarray(table.column("POS")).astype(np.int64)
        cigars = table.column("CIGAR")
        seqs = table.column("SEQ")
        quals = table.column("QUAL")
        read_of, op_out, pos_out, read_idx, seq_out, qual_out = _explode_kernel(
            positions, cigars, seqs, quals
        )
        n = table.num_rows
        total = len(read_of)
        read_ids = (
            np.asarray(table.column("ROWID")).astype(np.int64)
            if "ROWID" in table.schema
            else np.arange(n, dtype=np.int64)
        )
        flags = (
            np.asarray(table.column("FLAGS")).astype(np.int64)
            if "FLAGS" in table.schema
            else np.zeros(n, dtype=np.int64)
        )
        seq_lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=n)
        if total == 0:
            return Table.empty(EXPLODED_READS_SCHEMA)
        reverse = (flags[read_of] & FLAG_REVERSE) != 0
        cycles = np.where(
            reverse, read_length + seq_lens[read_of] - 1 - read_idx, read_idx
        )
        cycles = np.where(op_out == 2, -1, cycles).astype(np.int32)
        # Dinucleotide context: previous/current base, -1 for deletions,
        # first bases, and non-ACGT codes (oracle: bqsr.context_of).
        seq_offsets = np.cumsum(seq_lens) - seq_lens
        flat = (
            np.concatenate([np.asarray(s, dtype=np.uint8) for s in seqs])
            if int(seq_lens.sum())
            else np.zeros(0, dtype=np.uint8)
        )
        prev_index = seq_offsets[read_of] + np.maximum(read_idx - 1, 0)
        if len(flat):
            prev = flat[np.minimum(prev_index, len(flat) - 1)].astype(np.int64)
        else:
            prev = np.zeros(total, dtype=np.int64)
        current = seq_out.astype(np.int64)
        valid_ctx = (op_out != 2) & (read_idx > 0) & (prev <= 3) & (current <= 3)
        contexts = np.where(valid_ctx, prev * 4 + current, -1).astype(np.int32)
        return Table(
            EXPLODED_READS_SCHEMA,
            {
                "READID": read_ids[read_of],
                "POS": pos_out,
                "OP": op_out.astype(np.uint8),
                "SEQ": seq_out,
                "QUAL": qual_out,
                "CYC": cycles,
                "CTX": contexts,
            },
            total,
        )


def _explode_kernel(
    positions: np.ndarray,
    cigars,
    seqs,
    quals,
):
    """Vectorized per-base CIGAR expansion over many reads at once.

    Returns ``(read_of, op, pos, read_index, seq, qual)`` arrays in the
    exact row-major walk order of ``Cigar.walk``: ops are 0=M, 1=I, 2=D
    (soft clips dropped), insertions carry ``POS == INS_POS``, deletions
    carry ``SEQ == QUAL == DEL_CODE`` and ``read_index == -1``.
    """
    n = len(cigars)
    empty64 = np.zeros(0, dtype=np.int64)
    empty_result = (
        empty64,
        empty64,
        np.zeros(0, dtype=np.uint32),
        empty64,
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=np.uint8),
    )
    if n == 0:
        return empty_result
    cig_lens = np.fromiter((len(c) for c in cigars), dtype=np.int64, count=n)
    if int(cig_lens.sum()) == 0:
        return empty_result
    codes = np.concatenate(
        [np.asarray(c, dtype=np.int64) for c in cigars if len(c)]
    )
    el_read = np.repeat(np.arange(n, dtype=np.int64), cig_lens)
    el_len = codes >> 2
    el_op = codes & 3  # 0=M 1=I 2=D 3=S, per cigar.OPS order
    read_consumed = np.where(el_op != 2, el_len, 0)  # M, I, S advance the read
    ref_consumed = np.where((el_op == 0) | (el_op == 2), el_len, 0)  # M, D
    first_element = np.cumsum(cig_lens) - cig_lens

    def start_within_read(consumed: np.ndarray) -> np.ndarray:
        prefix = np.cumsum(consumed) - consumed
        safe_first = np.minimum(first_element, len(prefix) - 1)
        return prefix - np.repeat(prefix[safe_first], cig_lens)

    read_start = start_within_read(read_consumed)
    ref_start = start_within_read(ref_consumed) + np.repeat(positions, cig_lens)

    keep = el_op != 3
    el_read = el_read[keep]
    el_len = el_len[keep]
    el_op = el_op[keep]
    read_start = read_start[keep]
    ref_start = ref_start[keep]

    total = int(el_len.sum())
    if total == 0:
        return empty_result
    base_of_element = np.repeat(np.arange(len(el_len), dtype=np.int64), el_len)
    offsets = np.cumsum(el_len) - el_len
    within = np.arange(total, dtype=np.int64) - offsets[base_of_element]
    op_out = el_op[base_of_element]
    ref_pos = ref_start[base_of_element] + np.where(op_out != 1, within, 0)
    read_idx = np.where(op_out != 2, read_start[base_of_element] + within, -1)
    read_of = el_read[base_of_element]
    pos_out = np.where(op_out == 1, np.int64(INS_POS), ref_pos).astype(np.uint32)

    seq_lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=n)
    seq_offsets = np.cumsum(seq_lens) - seq_lens

    def gather(arrays) -> np.ndarray:
        flat = (
            np.concatenate([np.asarray(a, dtype=np.uint8) for a in arrays])
            if int(seq_lens.sum())
            else np.zeros(0, dtype=np.uint8)
        )
        index = seq_offsets[read_of] + np.maximum(read_idx, 0)
        if len(flat):
            values = flat[np.minimum(index, len(flat) - 1)]
        else:
            values = np.zeros(total, dtype=np.uint8)
        return np.where(op_out == 2, np.uint8(DEL_CODE), values)

    seq_out = gather(seqs)
    qual_out = gather(quals) if quals is not None else np.zeros(
        total, dtype=np.uint8
    )
    return read_of, op_out, pos_out, read_idx, seq_out, qual_out


register_backend("fast", VectorizedBackend)
