"""AST node definitions for the Genesis extended-SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric or string constant."""

    value: object


@dataclass(frozen=True)
class VarRef(Expr):
    """A ``@variable`` reference."""

    name: str


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference, optionally table-qualified (``t.COL``)."""

    column: str
    table: Optional[str] = None

    def display(self) -> str:
        """Human-readable name."""
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class Star(Expr):
    """``SELECT *``."""


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation (comparison, arithmetic, AND/OR)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """NOT / unary minus."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """An aggregate or scalar function call."""

    name: str
    args: Tuple[Expr, ...]


# -- query sources --------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """``FROM name [PARTITION (pid)]``."""

    name: str
    partition: Optional[Expr] = None


@dataclass(frozen=True)
class SubQuery:
    """``FROM (SELECT ...)``."""

    query: "Select"


@dataclass(frozen=True)
class JoinClause:
    """``[INNER|LEFT|OUTER] JOIN source ON left = right``."""

    kind: str
    source: object  # TableRef | SubQuery
    left_key: ColumnRef
    right_key: ColumnRef


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with its direction."""

    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT query (or the paper's explode-query forms)."""

    items: Tuple[SelectItem, ...]
    source: object  # TableRef | SubQuery
    join: Optional[JoinClause] = None
    where: Optional[Expr] = None
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[Tuple[Expr, Expr]] = None  # (offset, count)


@dataclass(frozen=True)
class PosExplode:
    """``PosExplode(COL, INITPOS) FROM source`` (Section III-B)."""

    array: ColumnRef
    init_pos: Expr
    source: object


@dataclass(frozen=True)
class ReadExplode:
    """``ReadExplode(POS, CIGAR, SEQ [, QUAL]) FROM source``."""

    args: Tuple[Expr, ...]
    source: object


# -- statements -----------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Base class for statements."""


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE name AS <query>`` (``#name`` for temp tables)."""

    name: str
    query: object  # Select | PosExplode | ReadExplode
    temp: bool = False
    #: Logical plan of ``query``, attached by :func:`repro.sql.plan.plan_script`.
    plan: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class InsertInto(Statement):
    """``INSERT INTO name <query>``."""

    name: str
    query: object
    #: Logical plan of ``query``, attached by :func:`repro.sql.plan.plan_script`.
    plan: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Declare(Statement):
    """``DECLARE @name type``."""

    name: str
    type_name: str


@dataclass(frozen=True)
class SetVar(Statement):
    """``SET @name = expr``."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class ForLoop(Statement):
    """``FOR row IN table: <body> END LOOP;`` (Section III-B)."""

    row_var: str
    table: str
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class ExecModule(Statement):
    """``EXEC ModuleName InputStream1 = expr ...`` (Section III-F)."""

    module: str
    bindings: Tuple[Tuple[str, Expr], ...]


@dataclass(frozen=True)
class Script:
    """A whole query script: an ordered list of statements."""

    statements: Tuple[Statement, ...] = field(default_factory=tuple)
