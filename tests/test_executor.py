"""Unit tests for the SQL executor (reference semantics)."""

import pytest

from repro.sql.executor import Executor, SqlError
from repro.sql.parser import ParseError, parse
from repro.sql.plan import build_plan
from repro.sql.prepared import (
    PREPARED_CACHE_SIZE,
    _prepared,
    prepare,
    prepare_query,
)
from repro.tables.schema import Schema
from repro.tables.table import Table


@pytest.fixture
def executor():
    ex = Executor()
    schema = Schema.of(K="uint32", V="int64", G="uint8")
    ex.register_table(
        "T",
        Table.from_columns(schema, K=[1, 2, 3, 4], V=[10, 20, 30, 40], G=[0, 0, 1, 1]),
    )
    return ex


def test_select_star(executor):
    out = executor.query("SELECT * FROM T")
    assert out.num_rows == 4


def test_projection(executor):
    out = executor.query("SELECT V FROM T")
    assert out.schema.names == ("V",)
    assert out.column("V").tolist() == [10, 20, 30, 40]


def test_computed_projection(executor):
    out = executor.query("SELECT V + K AS S FROM T")
    assert out.column("S").tolist() == [11, 22, 33, 44]


def test_where(executor):
    out = executor.query("SELECT K FROM T WHERE V >= 30")
    assert out.column("K").tolist() == [3, 4]


def test_where_with_and_or(executor):
    out = executor.query("SELECT K FROM T WHERE V > 10 AND (K == 2 OR K == 4)")
    assert out.column("K").tolist() == [2, 4]


def test_limit(executor):
    out = executor.query("SELECT K FROM T LIMIT 1, 2")
    assert out.column("K").tolist() == [2, 3]


def test_aggregate_sum_count(executor):
    out = executor.query("SELECT SUM(V), COUNT(*) FROM T")
    row = out.row(0)
    assert row["EXPR0"] == 100
    assert row["EXPR1"] == 4


def test_aggregate_min_max(executor):
    out = executor.query("SELECT MIN(V), MAX(V) FROM T")
    row = out.row(0)
    assert row["EXPR0"] == 10 and row["EXPR1"] == 40


def test_group_by(executor):
    out = executor.query("SELECT G, SUM(V) AS total FROM T GROUP BY G")
    rows = {row["G"]: row["total"] for row in out.rows()}
    assert rows == {0: 30, 1: 70}


def test_inner_join(executor):
    schema = Schema.of(K="uint32", W="int64")
    executor.register_table("U", Table.from_columns(schema, K=[2, 3, 9], W=[200, 300, 900]))
    out = executor.query("SELECT T.V, U.W FROM T INNER JOIN U ON T.K = U.K")
    assert out.column("T__V").tolist() == [20, 30]
    assert out.column("U__W").tolist() == [200, 300]


def test_left_join(executor):
    schema = Schema.of(K="uint32", W="int64")
    executor.register_table("U", Table.from_columns(schema, K=[2], W=[200]))
    out = executor.query("SELECT * FROM T LEFT JOIN U ON T.K = U.K")
    assert out.num_rows == 4
    assert out.column("U__W").tolist() == [0, 200, 0, 0]


def test_variables():
    ex = Executor()
    ex.execute("DECLARE @x int; SET @x = 3 + 4")
    assert ex.variables["x"] == 7


def test_undeclared_variable_rejected(executor):
    with pytest.raises(SqlError):
        executor.query("SELECT K FROM T WHERE V > @nope")


def test_create_table_statement(executor):
    executor.execute("CREATE TABLE Small AS SELECT K FROM T WHERE K <= 2")
    assert executor.tables["Small"].num_rows == 2


def test_insert_into_appends(executor):
    executor.execute("INSERT INTO Out SELECT COUNT(*) FROM T")
    executor.execute("INSERT INTO Out SELECT COUNT(*) FROM T")
    assert executor.tables["Out"].num_rows == 2


def test_for_loop_row_bindings(executor):
    executor.execute(
        "FOR Row IN T: INSERT INTO Out SELECT SUM(V == Row.V) FROM T; END LOOP;"
    )
    out = executor.tables["Out"]
    assert out.num_rows == 4
    assert all(v == 1 for v in out.column(out.schema.names[0]).tolist())


def test_partition_provider():
    ex = Executor()
    schema = Schema.of(K="uint32")
    ex.register_partitioned(
        "P", lambda pid: Table.from_columns(schema, K=[pid, pid + 1])
    )
    ex.set_variable("pid", 10)
    out = ex.query("SELECT * FROM P PARTITION (@pid)")
    assert out.column("K").tolist() == [10, 11]


def test_partition_on_unpartitioned_table(executor):
    with pytest.raises(SqlError):
        executor.query("SELECT * FROM T PARTITION (@x)")


def test_unknown_table(executor):
    with pytest.raises(SqlError):
        executor.query("SELECT * FROM Nope")


def test_custom_module(executor):
    calls = []
    executor.register_custom_module(
        "MyOp", lambda ex, **kw: calls.append(kw)
    )
    executor.set_variable("a", 5)
    executor.execute("EXEC MyOp InputStream1 = @a")
    assert calls == [{"InputStream1": 5}]


def test_unknown_custom_module(executor):
    with pytest.raises(SqlError):
        executor.execute("EXEC Missing X = 1")


def test_pos_explode_query():
    ex = Executor()
    schema = Schema.of(POS="uint32", SEQ="uint8[]")
    ex.register_table(
        "R", Table.from_columns(schema, POS=[100], SEQ=[[7, 8, 9]])
    )
    out = ex.query("PosExplode (R.SEQ, R.POS) FROM R")
    assert out.column("POS").tolist() == [100, 101, 102]
    assert out.column("SEQ").tolist() == [7, 8, 9]


def test_for_loop_binding_does_not_outlive_a_failed_body(executor):
    """A FOR body that raises must not leave its row variable bound: a
    later statement on the same executor would silently resolve it."""
    with pytest.raises(SqlError):
        executor.execute("FOR r IN T: EXEC Nope; END LOOP;")
    assert executor._row_bindings == {}
    with pytest.raises(SqlError):
        executor.execute("SET @leaked = r.V")


# -- prepared scripts -----------------------------------------------------------


def test_same_text_prepares_to_the_same_script():
    text = "CREATE TABLE A AS SELECT K FROM T; INSERT INTO B SELECT V FROM A;"
    script = prepare(text)
    assert prepare(text) is script
    assert script == parse(text)  # plans ride along, the AST is unchanged
    for statement in script.statements:
        assert statement.plan == build_plan(statement.query)
    assert prepare_query("SELECT K FROM T") is prepare_query("SELECT K FROM T")


def test_for_loop_bodies_are_planned():
    script = prepare(
        "FOR Row IN T: INSERT INTO Out SELECT SUM(V == Row.V) FROM T; END LOOP;"
    )
    (loop,) = script.statements
    assert loop.body[0].plan == build_plan(loop.body[0].query)


def test_execute_and_query_go_through_the_prepared_cache(executor):
    script = "CREATE TABLE Twice AS SELECT V + V AS W FROM T WHERE K > 1;"
    query = "SELECT W FROM Twice"
    executor.execute(script)
    executor.query(query)
    before = _prepared.cache_info()
    other = Executor(backend="fast")
    other.register_table("T", executor.tables["T"])
    other.execute(script)
    assert other.query(query).column("W").tolist() == [40, 60, 80]
    after = _prepared.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2
    assert after.maxsize == PREPARED_CACHE_SIZE


def test_unparsable_text_is_not_remembered(executor):
    for _ in range(2):
        with pytest.raises(ParseError):
            executor.execute("CREATE TABLE X AS SELECT FROM")
        with pytest.raises(ParseError):
            executor.query("SELECT K FROM")
