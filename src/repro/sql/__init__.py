"""Extended-SQL front end (Section III-B).

The domain-specific language Genesis users write queries in: a tokenizer,
a recursive-descent parser, logical query plans, prepared (parse-once)
scripts, a software executor that defines the reference semantics, the
PosExplode/ReadExplode operations, and the paper's Figure 4 script ready
to run.
"""

from .ast_nodes import Script
from .backends import (
    Backend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .executor import Executor, SqlError, table_from_row_dicts
from .explode import DEL_CODE, INS_POS, pos_explode, read_explode
from .fast_backend import VectorizedBackend
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse, parse_query
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
    describe,
    walk,
)
from .prepared import prepare, prepare_query
from .queries import FIGURE4_QUERY, run_figure4_query

__all__ = [
    "AggregateNode",
    "Backend",
    "DEL_CODE",
    "Executor",
    "FIGURE4_QUERY",
    "FilterNode",
    "GroupByNode",
    "INS_POS",
    "JoinNode",
    "LexError",
    "LimitNode",
    "ParseError",
    "PlanNode",
    "PosExplodeNode",
    "ProjectNode",
    "ReadExplodeNode",
    "ReferenceBackend",
    "ScanNode",
    "SortNode",
    "Script",
    "SqlError",
    "Token",
    "VectorizedBackend",
    "available_backends",
    "build_plan",
    "describe",
    "get_backend",
    "parse",
    "parse_query",
    "pos_explode",
    "prepare",
    "prepare_query",
    "read_explode",
    "register_backend",
    "run_figure4_query",
    "table_from_row_dicts",
    "tokenize",
    "walk",
]
