"""Columnar tables with the relational operations Genesis's SQL needs.

The paper conceptualizes genomic data "as a very large relational database"
(Section III-B).  This module is the software-side realization: a columnar
:class:`Table` storing scalar columns as numpy arrays and ragged array
columns as lists of per-row numpy arrays, with the row-selection verbs the
extended-SQL backends build on (take / where / limit / concat / explode);
joins, grouping and aggregation are the backends' (:mod:`repro.sql.backends`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from .schema import ColumnSpec, Schema


class Table:
    """An immutable-by-convention columnar table.

    Columns may carry an optional per-row *validity mask* (a boolean numpy
    array, ``False`` marking rows whose value is a NULL sentinel rather
    than real data).  LEFT/OUTER joins produce such masks for the
    null-filled side; every row-selection verb propagates them.  Values
    stay fully materialized as sentinels (0 / False / empty array), so
    expression evaluation never branches on validity — see the NULL
    contract in :mod:`repro.sql.backends`.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Dict[str, object],
        num_rows: int,
        validity: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.schema = schema
        self._columns = columns
        self.num_rows = num_rows
        self._validity: Dict[str, np.ndarray] = dict(validity or {})
        for spec in schema.columns:
            if spec.name not in columns:
                raise ValueError(f"missing data for column {spec.name}")
            data = columns[spec.name]
            if len(data) != num_rows:
                raise ValueError(
                    f"column {spec.name} has {len(data)} rows, expected {num_rows}"
                )
        for name, mask in self._validity.items():
            if name not in self.schema:
                raise ValueError(f"validity mask for unknown column {name}")
            if len(mask) != num_rows:
                raise ValueError(f"validity mask for {name} has wrong length")

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[dict]) -> "Table":
        """Build a table from a sequence of per-row dicts."""
        columns: Dict[str, object] = {}
        for spec in schema.columns:
            values = [row[spec.name] for row in rows]
            columns[spec.name] = cls._pack_column(spec, values)
        return cls(schema, columns, len(rows))

    @classmethod
    def from_columns(cls, schema: Schema, **columns) -> "Table":
        """Build a table from per-column value sequences."""
        if not columns:
            raise ValueError("no columns given")
        num_rows = len(next(iter(columns.values())))
        packed = {
            spec.name: cls._pack_column(spec, columns[spec.name])
            for spec in schema.columns
        }
        return cls(schema, packed, num_rows)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        return cls.from_rows(schema, [])

    @staticmethod
    def _pack_column(spec: ColumnSpec, values) -> object:
        if spec.is_array:
            return [np.asarray(value, dtype=spec.dtype) for value in values]
        return np.asarray(values, dtype=spec.dtype)

    # -- access -------------------------------------------------------------------

    def column(self, name: str):
        """The raw column: numpy array (scalar) or list of arrays (array)."""
        return self._columns[name]

    def validity(self, name: str) -> Optional[np.ndarray]:
        """Validity mask for ``name`` — ``None`` when every row is valid,
        else a boolean array with ``False`` marking NULL-sentinel rows."""
        if name not in self.schema:
            raise KeyError(name)
        return self._validity.get(name)

    def __getitem__(self, name: str):
        return self._columns[name]

    def row(self, index: int) -> dict:
        """Materialize row ``index`` as a dict."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row {index} out of range (num_rows={self.num_rows})")
        out = {}
        for spec in self.schema.columns:
            value = self._columns[spec.name][index]
            out[spec.name] = value if spec.is_array else value.item()
        return out

    def rows(self) -> Iterator[dict]:
        """Iterate rows as dicts (the FOR row IN table clause)."""
        for index in range(self.num_rows):
            yield self.row(index)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, rows={self.num_rows})"

    # -- row selection ------------------------------------------------------------

    def take(self, indices) -> "Table":
        """Row selection by integer indices (stable order)."""
        indices = np.asarray(indices, dtype=np.int64)
        columns: Dict[str, object] = {}
        for spec in self.schema.columns:
            data = self._columns[spec.name]
            if spec.is_array:
                columns[spec.name] = [data[int(i)] for i in indices]
            else:
                columns[spec.name] = data[indices]
        validity = {name: mask[indices] for name, mask in self._validity.items()}
        return Table(self.schema, columns, len(indices), validity=validity)

    def where(self, predicate: Callable[[dict], bool]) -> "Table":
        """Row filter with a per-row predicate (SQL WHERE)."""
        keep = [i for i, row in enumerate(self.rows()) if predicate(row)]
        return self.take(keep)

    def where_mask(self, mask) -> "Table":
        """Row filter with a boolean mask (vectorized WHERE)."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows:
            raise ValueError("mask length must equal num_rows")
        return self.take(np.nonzero(mask)[0])

    def limit(self, count: int, offset: int = 0) -> "Table":
        """SQL LIMIT offset, count."""
        if count < 0 or offset < 0:
            raise ValueError("limit/offset must be non-negative")
        end = min(self.num_rows, offset + count)
        return self.take(np.arange(offset, max(offset, end)))

    def concat(self, other: "Table") -> "Table":
        """Vertical concatenation of two same-schema tables."""
        if other.schema != self.schema:
            raise ValueError("cannot concat tables with different schemas")
        columns: Dict[str, object] = {}
        for spec in self.schema.columns:
            a, b = self._columns[spec.name], other._columns[spec.name]
            columns[spec.name] = list(a) + list(b) if spec.is_array else np.concatenate([a, b])
        validity: Dict[str, np.ndarray] = {}
        for name in set(self._validity) | set(other._validity):
            va = self._validity.get(name)
            vb = other._validity.get(name)
            if va is None:
                va = np.ones(self.num_rows, dtype=bool)
            if vb is None:
                vb = np.ones(other.num_rows, dtype=bool)
            validity[name] = np.concatenate([va, vb])
        return Table(
            self.schema, columns, self.num_rows + other.num_rows, validity=validity
        )

    # -- explode operations (Section III-B) ----------------------------------------------

    def pos_explode(self, column: str, init_pos_column: str,
                    out_pos: str = "POS", out_value: str = "VAL") -> "Table":
        """PosExplode: expand an array column into one row per element with
        a generated position column starting at each row's init position.

        Matches Hive/Spark ``posexplode`` as the paper describes: position
        increments by one per exploded element.
        """
        spec = self.schema[column]
        if not spec.is_array:
            raise ValueError(f"PosExplode requires an array column, got {column}")
        positions: List[int] = []
        values: List = []
        inits = np.asarray(self._columns[init_pos_column])
        for i in range(self.num_rows):
            array = self._columns[column][i]
            start = int(inits[i])
            positions.extend(range(start, start + len(array)))
            values.extend(int(v) for v in array)
        out_schema = Schema.of(**{out_pos: "uint32", out_value: "uint32"})
        return Table.from_columns(out_schema, **{out_pos: positions, out_value: values})
