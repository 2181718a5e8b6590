"""The NULL contract, pinned as a truth table for both backends.

The dialect has no three-valued logic: NULLs arise only from the
unmatched side of LEFT/OUTER joins and are materialized as sentinels by
``null_like`` (0 / False / empty array).  Every operator thereafter
treats the sentinel as an ordinary value — ``apply_binop`` sees a plain
``0``, aggregates include sentinel rows, group-by keys merge NULLs with
real zeros — while validity masks let hosts tell sentinel from data.
These tests pin that contract at the helper level and end-to-end
through queries on both execution backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sql import Executor, SqlError
from repro.sql.backends import apply_binop, null_like
from repro.tables.schema import Schema
from repro.tables.table import Table


@pytest.fixture(params=["reference", "fast"])
def backend(request):
    return request.param


# -- null_like ----------------------------------------------------------------------


def test_null_like_sentinels():
    assert null_like(5) == 0 and isinstance(null_like(5), int)
    assert null_like(np.int64(5)) == 0
    assert null_like(True) is False
    assert null_like(np.bool_(True)) is False
    empty = null_like(np.array([1, 2], dtype=np.uint8))
    assert isinstance(empty, np.ndarray)
    assert empty.size == 0 and empty.dtype == np.uint8


# -- apply_binop truth table --------------------------------------------------------

#: (op, left, right, expected) — NULL participates as its sentinel, so
#: the interesting rows pair the sentinel 0/False with real values.
BINOP_TRUTH_TABLE = [
    ("==", 0, 0, True),     # NULL == NULL
    ("==", 0, 1, False),    # NULL == value
    ("!=", 0, 1, True),
    ("!=", 0, 0, False),
    ("<", 0, 1, True),
    ("<", 0, -1, False),
    ("<=", 0, 0, True),
    (">", 0, -1, True),
    (">", 0, 0, False),
    (">=", 0, 1, False),
    ("+", 0, 1, 1),         # NULL + 1 == 1
    ("-", 0, 3, -3),
    ("*", 0, 9, 0),
    ("/", 0, 2, 0),
    ("/", 7, 2, 3),         # integer / floors (the hardware ALU divide)
    ("/", 7.0, 2.0, 3.5),   # float / is true division
    ("==", False, False, True),   # boolean NULL sentinel
    ("+", False, True, 1),
    ("*", True, True, 1),
]


@pytest.mark.parametrize(
    "op,left,right,expected", BINOP_TRUTH_TABLE,
    ids=[f"{op}({left},{right})" for op, left, right, _ in BINOP_TRUTH_TABLE],
)
def test_apply_binop_truth_table(op, left, right, expected):
    result = apply_binop(op, left, right)
    assert result == expected
    assert isinstance(result, type(expected))


def test_apply_binop_unknown_operator():
    with pytest.raises(SqlError, match="unsupported operator"):
        apply_binop("%", 1, 2)


# -- end-to-end through queries -----------------------------------------------------


def _null_producing_executor(backend: str) -> Executor:
    """L LEFT JOIN R leaves K=2 and K=3 unmatched: their W is the NULL
    sentinel 0, marked invalid."""
    executor = Executor(backend=backend)
    executor.register_table("L", Table.from_rows(
        Schema.of(K="int64", V="int64"),
        [{"K": 1, "V": 10}, {"K": 2, "V": 20}, {"K": 3, "V": 30}],
    ))
    executor.register_table("R", Table.from_rows(
        Schema.of(K="int64", W="int64"),
        [{"K": 1, "W": 5}],
    ))
    executor.execute("""
    CREATE TABLE J AS
    SELECT L.K AS K, L.V AS V, R.W AS W FROM L LEFT JOIN R ON L.K = R.K;
    """)
    return executor


def test_query_null_materializes_as_zero(backend):
    executor = _null_producing_executor(backend)
    assert executor.tables["J"].column("W").tolist() == [5, 0, 0]
    # The raw join output carries the validity mask for the null-filled
    # side; the projection above re-materializes values (masks are a
    # row-selection property, not an expression one).
    raw = executor.query("SELECT * FROM L LEFT JOIN R ON L.K = R.K")
    mask = raw.validity("R__W")
    assert mask is not None and mask.tolist() == [True, False, False]


def test_query_null_compares_as_zero(backend):
    """``NULL == 0`` is true: WHERE W == 0 selects the unmatched rows."""
    executor = _null_producing_executor(backend)
    nulls = executor.query("SELECT K FROM J WHERE W == 0")
    assert nulls.column("K").tolist() == [2, 3]


def test_query_null_arithmetic_sees_zero(backend):
    """``NULL + 1 == 1``: arithmetic over the sentinel is ordinary; the
    domain-shift idiom (project ``W + 1``) leaves 0 unoccupied so hosts
    can distinguish NULL-shifted values."""
    executor = _null_producing_executor(backend)
    shifted = executor.query("SELECT W + 1 AS WP FROM J")
    assert shifted.column("WP").tolist() == [6, 1, 1]


def test_query_null_aggregates(backend):
    """COUNT(expr) counts truthiness so NULL (0) rows drop out; SUM, MIN,
    MAX see the literal 0."""
    executor = _null_producing_executor(backend)
    aggregated = executor.query(
        "SELECT COUNT(W) AS NW, COUNT(*) AS N, SUM(W) AS S, "
        "MIN(W) AS LO, MAX(W) AS HI FROM J"
    )
    row = next(aggregated.rows())
    assert row == {"NW": 1, "N": 3, "S": 5, "LO": 0, "HI": 5}


def test_query_null_groups_with_zero(backend):
    """Group-by keys treat NULL as the value 0: all NULLs land in one
    group, together with real zeros."""
    executor = _null_producing_executor(backend)
    grouped = executor.query(
        "SELECT W, COUNT(*) AS N FROM J GROUP BY W"
    )
    assert {int(w): int(n) for w, n in
            zip(grouped.column("W"), grouped.column("N"))} == {5: 1, 0: 2}
