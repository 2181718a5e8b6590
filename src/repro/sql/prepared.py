"""Prepared scripts: compile a query text once, run it many times.

Section III-B/C: a Genesis query is compiled into a dataflow pipeline
*once* (``configure``) and every partition then streams through it
(``run_genesis``).  The software path keeps the same contract: a script
or query text is lexed, parsed and planned the first time an executor
sees it, and every later :meth:`Executor.execute` / :meth:`Executor.query`
of the same text — on any executor in the process — reuses the result.

Sharing one prepared script between executors is safe because nothing
in it can change: every AST and plan node is a ``frozen`` dataclass over
tuples and immutable literals, and everything that varies from run to
run (the catalog, ``@variables``, FOR-loop row bindings, custom modules,
the backend) lives on the :class:`~repro.sql.executor.Executor`.  A text
that does not parse raises and is not remembered.
"""

from __future__ import annotations

import functools

from .ast_nodes import Script
from .parser import parse, parse_query
from .plan import PlanNode, build_plan, plan_script

#: Distinct texts kept prepared per process (least recently used is
#: dropped).  The stage drivers use four; a prepared script is a few
#: hundred small objects.
PREPARED_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PREPARED_CACHE_SIZE)
def _prepared(text: str, single_query: bool):
    if single_query:
        return build_plan(parse_query(text))
    return plan_script(parse(text))


def prepare(text: str) -> Script:
    """The parsed script of ``text`` with every statement's logical plan
    attached; the same object for the same text."""
    return _prepared(text, False)


def prepare_query(text: str) -> PlanNode:
    """The logical plan of the single query ``text``; the same object for
    the same text."""
    return _prepared(text, True)
