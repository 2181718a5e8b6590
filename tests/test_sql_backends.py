"""Differential tests: the vectorized ``fast`` backend against the
row-at-a-time ``reference`` backend.

The reference backend is the semantic oracle; the fast backend must be
bit-identical — same values, dtypes, column order, row order, and
validity masks — on every query shape the dialect supports.  Each
query here runs on both backends over the same catalog and the result
tables are compared column by column, including the Figure 4 script on
every partition of the standard workload.

The sort-merge join edge cases (duplicate keys on both sides, empty
sides, all-NULL key columns) run through one shared parametrized
fixture so every join kind × backend pair sees the same inputs.  A
hypothesis test draws joins and single-key GROUP BYs over keys on both
sides of the fast backend's slot rule and checks the path each took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sql import (
    Executor,
    SqlError,
    available_backends,
    get_backend,
    run_figure4_query,
    table_from_row_dicts,
)
from repro.sql import fast_backend
from repro.tables.schema import Schema
from repro.tables.table import Table


def assert_tables_identical(got: Table, expected: Table) -> None:
    """Bit-identity: schema (names + kinds), values, dtypes, row order,
    and validity masks all equal."""
    assert got.schema.names == expected.schema.names
    assert [spec.kind for spec in got.schema.columns] == [
        spec.kind for spec in expected.schema.columns
    ]
    assert got.num_rows == expected.num_rows
    for name in got.schema.names:
        left, right = got.column(name), expected.column(name)
        if got.schema[name].is_array:
            assert all(
                np.array_equal(a, b) for a, b in zip(left, right)
            ), name
        else:
            left, right = np.asarray(left), np.asarray(right)
            assert left.dtype == right.dtype, name
            assert np.array_equal(left, right), name
        got_mask, expected_mask = got.validity(name), expected.validity(name)
        if got_mask is None or expected_mask is None:
            # An absent mask means all-valid; both must agree on that.
            assert got_mask is None or bool(np.all(got_mask)), name
            assert expected_mask is None or bool(np.all(expected_mask)), name
        else:
            assert np.array_equal(got_mask, expected_mask), name


def _catalog():
    """The shared test catalog: a scalar table and two join sides."""
    t = Table.from_rows(
        Schema.of(A="int64", B="int64", G="int64"),
        [
            {"A": 1, "B": 7, "G": 0},
            {"A": 2, "B": 3, "G": 1},
            {"A": 3, "B": 9, "G": 0},
            {"A": 4, "B": 3, "G": 1},
            {"A": 5, "B": 0, "G": 2},
            {"A": 6, "B": 5, "G": 0},
        ],
    )
    left = Table.from_rows(
        Schema.of(K="int64", V="int64"),
        [
            {"K": 1, "V": 10},
            {"K": 2, "V": 20},
            {"K": 1, "V": 30},
            {"K": 4, "V": 40},
        ],
    )
    right = Table.from_rows(
        Schema.of(K="int64", W="int64"),
        [
            {"K": 1, "W": 100},
            {"K": 3, "W": 300},
            {"K": 1, "W": 101},
        ],
    )
    return {"T": t, "L": left, "R": right}


def _run(query: str, backend: str) -> Table:
    executor = Executor(backend=backend)
    for name, table in _catalog().items():
        executor.register_table(name, table)
    return executor.query(query)


#: Every query shape the dialect supports, over the shared catalog.
DIFFERENTIAL_QUERIES = [
    "SELECT * FROM T",
    "SELECT A, B + 1 AS B1, B * A AS P FROM T",
    "SELECT A, B / 2 AS H, B - A AS D FROM T",
    "SELECT A FROM T WHERE B > 3 AND A != 3",
    "SELECT A FROM T WHERE B == 3 OR NOT A < 4",
    "SELECT A, B FROM T ORDER BY B DESC, A",
    "SELECT A, B FROM T ORDER BY B, A DESC",
    "SELECT A FROM T ORDER BY A LIMIT 2, 3",
    "SELECT SUM(B) AS S, COUNT(*) AS N, MIN(B) AS LO, MAX(B) AS HI FROM T",
    "SELECT COUNT(B > 4) AS BIG, SUM(B == 3) AS THREES FROM T",
    "SELECT G, SUM(B) AS S, COUNT(*) AS N FROM T GROUP BY G",
    "SELECT G, MIN(B) AS LO, MAX(B) AS HI, COUNT(B > 4) AS BIG "
    "FROM T GROUP BY G",
    "SELECT * FROM L INNER JOIN R ON L.K = R.K",
    "SELECT * FROM L LEFT JOIN R ON L.K = R.K",
    "SELECT * FROM L OUTER JOIN R ON L.K = R.K",
    "SELECT L.V AS V, R.W AS W FROM L LEFT JOIN R ON L.K = R.K "
    "WHERE L.V >= 20",
    "SELECT * FROM (SELECT A, B FROM T WHERE B > 0) WHERE A > 2",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_fast_backend_differential(query):
    """Every supported query shape: fast ≡ reference, bit for bit."""
    assert_tables_identical(_run(query, "fast"), _run(query, "reference"))


def test_figure4_differential(workload):
    """The paper's Figure 4 script (ReadExplode, PosExplode, LIMIT
    windows, FOR loops, INSERT INTO) on every partition: fast ≡
    reference."""
    checked = 0
    for pid, part in workload.partitions:
        if part.num_rows == 0:
            continue
        fast = run_figure4_query(
            workload.partitions, workload.reference, pid, backend="fast"
        )
        reference = run_figure4_query(
            workload.partitions, workload.reference, pid, backend="reference"
        )
        assert fast == reference, str(pid)
        checked += len(fast)
    assert checked == workload.n_reads


# -- backend registry ---------------------------------------------------------------


def test_registry_lists_both_backends():
    assert available_backends() == ["fast", "reference"]


def test_registry_unknown_backend():
    with pytest.raises(SqlError, match="unknown SQL backend"):
        get_backend("warp")
    with pytest.raises(SqlError, match="available"):
        Executor(backend="warp")


def test_executor_accepts_backend_instance():
    executor = Executor(backend=get_backend("fast"))
    assert executor.backend.name == "fast"


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_executor_charges_operators_only_to_a_given_registry(backend):
    """``metrics=None`` (the default) times nothing; a registry gets
    exactly the two catalogued counters, labelled by op and backend,
    and the result is the same either way."""
    from repro.obs import MetricsRegistry

    query = "SELECT G, SUM(B) AS S FROM T WHERE B > 0 GROUP BY G"
    plain = Executor(backend=backend)
    assert plain.metrics is None
    metrics = MetricsRegistry()
    timed = Executor(backend=backend, metrics=metrics)
    for executor in (plain, timed):
        executor.register_table("T", _catalog()["T"])
    assert_tables_identical(timed.query(query), plain.query(query))

    seconds = metrics.values("sql_operator_seconds")
    rows = metrics.values("sql_operator_rows")
    assert set(seconds) == set(rows)
    assert {dict(labels)["backend"] for labels in seconds} == {backend}
    assert {"scan", "group_by"} <= {dict(labels)["op"] for labels in seconds}
    assert metrics.total("sql_operator_seconds") > 0
    assert metrics.total("sql_operator_rows") >= 6
    assert set(name for name, _labels in metrics._counters) == {
        "sql_operator_seconds", "sql_operator_rows",
    }


# -- table_from_row_dicts -----------------------------------------------------------


def test_table_from_row_dicts_empty_requires_schema():
    with pytest.raises(SqlError, match="empty row list"):
        table_from_row_dicts([])


def test_table_from_row_dicts_empty_with_schema():
    schema = Schema.of(A="int64", B="bool")
    table = table_from_row_dicts([], schema=schema)
    assert table.num_rows == 0
    assert table.schema.names == ("A", "B")
    assert [spec.kind for spec in table.schema.columns] == ["int64", "bool"]


def test_table_from_row_dicts_rows_ignore_schema():
    schema = Schema.of(Z="uint8")
    table = table_from_row_dicts([{"A": 1, "F": True}], schema=schema)
    assert table.schema.names == ("A", "F")
    assert [spec.kind for spec in table.schema.columns] == ["int64", "bool"]


# -- sort-merge join edge cases -----------------------------------------------------


def _null_key_table(n: int, value_start: int) -> Table:
    """A table whose key column is entirely NULL sentinel zeros (the
    validity mask marks every key invalid)."""
    schema = Schema.of(K="int64", V="int64")
    return Table(
        schema,
        {
            "K": np.zeros(n, dtype=np.int64),
            "V": np.arange(value_start, value_start + n, dtype=np.int64),
        },
        n,
        validity={"K": np.zeros(n, dtype=bool)},
    )


JOIN_EDGE_CASES = {
    "dup_keys_both_sides": (
        Table.from_rows(
            Schema.of(K="int64", V="int64"),
            [{"K": 1, "V": 1}, {"K": 1, "V": 2}, {"K": 2, "V": 3}],
        ),
        Table.from_rows(
            Schema.of(K="int64", W="int64"),
            [{"K": 1, "W": 10}, {"K": 1, "W": 11}, {"K": 3, "W": 12}],
        ),
    ),
    "empty_left": (
        Table.empty(Schema.of(K="int64", V="int64")),
        Table.from_rows(
            Schema.of(K="int64", W="int64"), [{"K": 1, "W": 10}]
        ),
    ),
    "empty_right": (
        Table.from_rows(
            Schema.of(K="int64", V="int64"), [{"K": 1, "V": 1}]
        ),
        Table.empty(Schema.of(K="int64", W="int64")),
    ),
    "empty_both": (
        Table.empty(Schema.of(K="int64", V="int64")),
        Table.empty(Schema.of(K="int64", W="int64")),
    ),
    "all_null_keys": (
        _null_key_table(2, 0),
        Table.from_rows(
            Schema.of(K="int64", W="int64"),
            [{"K": 0, "W": 50}, {"K": 7, "W": 51}],
        ),
    ),
}


@pytest.fixture(params=sorted(JOIN_EDGE_CASES), ids=str)
def join_edge_case(request):
    """One (left, right) edge-case pair, shared by every join kind and
    backend combination below."""
    return request.param, JOIN_EDGE_CASES[request.param]


@pytest.mark.parametrize("kind", ["INNER", "LEFT", "OUTER"])
def test_join_edge_cases_differential(join_edge_case, kind):
    """Each edge case through each join kind: fast ≡ reference."""
    _name, (left, right) = join_edge_case
    query = f"SELECT * FROM L {kind} JOIN R ON L.K = R.K"

    def run(backend: str) -> Table:
        executor = Executor(backend=backend)
        executor.register_table("L", left)
        executor.register_table("R", right)
        return executor.query(query)

    assert_tables_identical(run("fast"), run("reference"))


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_join_duplicate_keys_cross_product(backend):
    """Duplicate keys on both sides multiply: 2 left × 2 right matches."""
    left, right = JOIN_EDGE_CASES["dup_keys_both_sides"]
    executor = Executor(backend=backend)
    executor.register_table("L", left)
    executor.register_table("R", right)
    inner = executor.query("SELECT * FROM L INNER JOIN R ON L.K = R.K")
    assert inner.num_rows == 4
    outer = executor.query("SELECT * FROM L OUTER JOIN R ON L.K = R.K")
    # 4 matches + unmatched left K=2 + unmatched right K=3.
    assert outer.num_rows == 6
    mask = outer.validity("L__V")
    assert mask is not None and int((~mask).sum()) == 1


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_join_all_null_keys_match_zero(backend):
    """NULL join keys take part as the sentinel 0: they match real-zero
    keys on the other side (the documented NULL contract), and the key's
    invalidity carries into the output."""
    left, right = JOIN_EDGE_CASES["all_null_keys"]
    executor = Executor(backend=backend)
    executor.register_table("L", left)
    executor.register_table("R", right)
    inner = executor.query("SELECT * FROM L INNER JOIN R ON L.K = R.K")
    # Both NULL-key left rows match the single K=0 right row.
    assert inner.num_rows == 2
    assert inner.column("R__W").tolist() == [50, 50]
    mask = inner.validity("L__K")
    assert mask is not None and not mask.any()


# -- drawn keys: the slot path and the sort path ------------------------------------

#: Drawn keys: a small dense range (duplicates, negatives, the NULL
#: sentinel 0) plus far values that widen the span past the slot rule,
#: ``INS_POS = 2**32 - 1`` among them.
_KEYS = st.one_of(
    st.integers(-3, 8),
    st.none(),  # a NULL-masked key (sentinel 0)
    st.sampled_from([-(2**31), 2**32 - 1, 2**40]),
)


@dataclass(frozen=True)
class KeyCase:
    """One drawn query: ``kind`` is a join kind or ``GROUP``; ``left``
    is the probe side (the GROUP BY input), ``right`` the build side;
    ``None`` marks a NULL-masked key; ``offset`` shifts every value so
    a float64 sum would round."""

    kind: str
    left: Tuple[Optional[int], ...]
    right: Tuple[Optional[int], ...] = ()
    offset: int = 0


@st.composite
def key_cases(draw):
    kind = draw(st.sampled_from(["INNER", "LEFT", "OUTER", "GROUP"]))
    left = tuple(draw(st.lists(_KEYS, max_size=12)))
    right = () if kind == "GROUP" else tuple(draw(st.lists(_KEYS, max_size=12)))
    return KeyCase(kind, left, right, draw(st.sampled_from([0, 2**53 + 1])))


def _keyed_table(keys, value: str, offset: int) -> Table:
    n = len(keys)
    valid = np.array([key is not None for key in keys], dtype=bool)
    return Table(
        Schema.of(K="int64", **{value: "int64"}),
        {
            "K": np.array([0 if key is None else key for key in keys],
                          dtype=np.int64),
            value: np.arange(n, dtype=np.int64) * 7 % 5 - 2 + offset,
        },
        n,
        validity=None if valid.all() else {"K": valid},
    )


def _takes_slot_path(keys: np.ndarray) -> bool:
    """The slot rule, restated: an empty side or a span within
    ``DENSE_SPAN_PER_ROW`` times the rows."""
    if len(keys) == 0:
        return True
    span = int(keys.max()) - int(keys.min()) + 1
    return span <= fast_backend.DENSE_SPAN_PER_ROW * len(keys)


@settings(max_examples=150, deadline=None)
@given(case=key_cases())
@example(case=KeyCase("LEFT", (5, 2**32 - 1, None, -3, 5), (5, 5, 0, -1, 2)))
@example(case=KeyCase("OUTER", (1, 2, 2**40), (2, 2**32 - 1, 2, 7)))
@example(case=KeyCase("INNER", (), (3, 4)))
@example(case=KeyCase("OUTER", (3, None), ()))
@example(case=KeyCase("GROUP", (4, -2, 4, None, -2, 0, 7), offset=2**53 + 1))
@example(case=KeyCase("GROUP", (4, 2**32 - 1, 4, -(2**31)), offset=2**53 + 1))
def test_drawn_keys_fast_matches_reference_on_both_slot_paths(case):
    """Joins and single-key GROUP BYs over drawn keys: fast ≡ reference,
    bit for bit, and the fast backend took the path the slot rule names
    for the build side.  The pinned rows sit on both sides of the rule."""
    left = _keyed_table(case.left, "V", case.offset)
    right = _keyed_table(case.right, "W", case.offset)
    if case.kind == "GROUP":
        query = ("SELECT K, SUM(V) AS S, COUNT(*) AS N, COUNT(V) AS C, "
                 "MIN(V) AS LO, MAX(V) AS HI FROM L GROUP BY K")
        build = left
        slot_kernel, sort_kernel = "_slot_groups", "_sort_groups"
    else:
        query = f"SELECT * FROM L {case.kind} JOIN R ON L.K = R.K"
        build = right
        slot_kernel, sort_kernel = "_slot_matches", "_sort_matches"

    def run(backend: str) -> Table:
        executor = Executor(backend=backend)
        executor.register_table("L", left)
        executor.register_table("R", right)
        return executor.query(query)

    with mock.patch.object(
        fast_backend, slot_kernel, wraps=getattr(fast_backend, slot_kernel)
    ) as slot, mock.patch.object(
        fast_backend, sort_kernel, wraps=getattr(fast_backend, sort_kernel)
    ) as sort:
        got = run("fast")
    assert_tables_identical(got, run("reference"))
    if case.kind == "GROUP" and not case.left:
        assert slot.call_count == sort.call_count == 0  # no rows, no groups
    elif _takes_slot_path(np.asarray(build.column("K"))):
        assert (slot.call_count, sort.call_count) == (1, 0)
    else:
        assert (slot.call_count, sort.call_count) == (0, 1)
