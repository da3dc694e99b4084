"""Derivation tracing: watch the semantics evaluate, rule by rule.

The paper argues its semantics "could be a useful tool for both users and
implementers in understanding the behavior of SQL queries".  This module
makes that concrete: :class:`TracingSemantics` is a drop-in
:class:`~repro.semantics.evaluator.SqlSemantics` that records every
application of a Figure 4–7 rule — which query/condition was evaluated,
under which environment, producing what — as a tree of
:class:`TraceNode` s that can be rendered with :func:`format_trace`.

Example::

    sem = TracingSemantics(schema)
    result = sem.run(query, db)
    print(format_trace(sem.trace))

The tracer is intended for small inputs (every rule application is
recorded); it is a debugging/teaching aid, not an execution engine.  It
always takes the literal Figures 5–7 route (``fast_from=False``): the
default evaluator answers a re-visited subquery from its memo and filters
while it builds a FROM product, and either would leave a result in the
tree with no derivation under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.env import EMPTY_ENV, Environment
from ..core.schema import Database
from ..core.table import Table
from ..core.truth import Truth
from ..sql.ast import Condition, Query
from ..sql.printer import print_condition, print_query
from .evaluator import SqlSemantics

__all__ = ["TracingSemantics", "TraceNode", "format_trace"]


@dataclass
class TraceNode:
    """One rule application: a query or condition evaluation."""

    kind: str  # "query" | "condition"
    description: str
    environment: str
    result: str = ""
    children: List["TraceNode"] = field(default_factory=list)


def _env_text(env: Environment) -> str:
    names = env.bound_names()
    if not names:
        return "∅"
    return ", ".join(f"{name}={env.lookup(name)!r}" for name in names)


class TracingSemantics(SqlSemantics):
    """An ⟦·⟧ evaluator that records its derivation tree.

    The most recent top-level derivation is available as :attr:`trace`
    after each :meth:`run` / :meth:`evaluate` / :meth:`eval_condition`
    call issued from outside.
    """

    def __init__(self, *args, max_result_rows: int = 6, **kwargs):
        super().__init__(*args, **kwargs)
        self.fast_from = False  # every result shown has its derivation
        self.trace: Optional[TraceNode] = None
        self._stack: List[TraceNode] = []
        self.max_result_rows = max_result_rows

    # -- recording helpers ---------------------------------------------------

    def _enter(self, node: TraceNode) -> None:
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.trace = node
        self._stack.append(node)

    def _exit(self) -> None:
        self._stack.pop()

    def _render_table(self, table: Table) -> str:
        rows = sorted(table.bag, key=repr)
        shown = ", ".join(str(r) for r in rows[: self.max_result_rows])
        suffix = ", …" if len(rows) > self.max_result_rows else ""
        columns = ", ".join(str(c) for c in table.columns)
        return f"[{columns}] {{{shown}{suffix}}}"

    # -- traced entry points ------------------------------------------------------

    def evaluate(
        self,
        query: Query,
        db: Database,
        env: Environment = EMPTY_ENV,
        exists_context: bool = False,
    ) -> Table:
        switch = 1 if exists_context else 0
        node = TraceNode(
            kind="query",
            description=f"⟦{print_query(query)}⟧ (x={switch})",
            environment=_env_text(env),
        )
        self._enter(node)
        try:
            table = super().evaluate(query, db, env, exists_context)
        except Exception as exc:
            node.result = f"error: {type(exc).__name__}: {exc}"
            self._exit()
            raise
        node.result = self._render_table(table)
        self._exit()
        return table

    def eval_condition(
        self, condition: Condition, db: Database, env: Environment
    ) -> Truth:
        node = TraceNode(
            kind="condition",
            description=f"⟦{print_condition(condition)}⟧",
            environment=_env_text(env),
        )
        self._enter(node)
        try:
            value = super().eval_condition(condition, db, env)
        except Exception as exc:
            node.result = f"error: {type(exc).__name__}: {exc}"
            self._exit()
            raise
        node.result = value.name
        self._exit()
        return value


def format_trace(node: Optional[TraceNode], indent: str = "", _top: bool = True) -> str:
    """Render a derivation tree as indented text."""
    if node is None:
        return "(no trace recorded)"
    env_part = f"   η: {node.environment}" if node.environment != "∅" else ""
    line = f"{indent}{node.description}{env_part}"
    result = f"{indent}  = {node.result}"
    parts = [line]
    for child in node.children:
        parts.append(format_trace(child, indent + "    ", _top=False))
    parts.append(result)
    return "\n".join(parts)
