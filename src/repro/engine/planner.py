"""Query compiler of the reference engine.

Compiles a fully-annotated basic SQL AST into a tree of physical operators
(:mod:`repro.engine.operators`), resolving every column reference *at plan
time* to a positional ``(depth, index)`` lookup.  This mirrors how real
systems behave and is what makes the engine's error behaviour match theirs:

* resolution of an explicit reference whose nearest binding scope holds the
  name more than once fails at compile time with
  :class:`~repro.core.errors.AmbiguousReferenceError` (both dialects — this
  is PostgreSQL's ``column reference is ambiguous`` and Oracle's
  ``ORA-00918``);
* ``SELECT *`` is expanded **positionally** in the ``postgres`` dialect (so
  duplicate column names are harmless, Example 2's observation) but
  **by name** in the ``oracle`` dialect, where a duplicated column name makes
  the query fail to compile — except directly under EXISTS, where Oracle
  follows the standard's constant-replacement reading and the query is fine.

Base tables are bound to materialized row lists at plan time, with NULLs
represented as Python ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.errors import (
    AmbiguousReferenceError,
    ArityMismatchError,
    CompileError,
    DuplicateAliasError,
    UnboundReferenceError,
    UnknownTableError,
)
from ..core.schema import Database, Schema
from ..core.values import FullName, Name, Null
from ..sql.ast import (
    And,
    BareColumn,
    Condition,
    Exists,
    FalseCond,
    FromItem,
    InQuery,
    IsNull,
    Not,
    Or,
    Predicate,
    Query,
    Select,
    SetOp,
    TrueCond,
)
from .expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
    OuterStack,
    Row,
    RowExpr,
)
from .operators import (
    CrossJoin,
    DistinctOp,
    ExistsPred,
    FilterOp,
    InPred,
    PlanNode,
    ProjectOp,
    SetOpNode,
    StaticScan,
    TableScan,
)

__all__ = ["Planner", "CompiledQuery", "DIALECT_POSTGRES", "DIALECT_ORACLE"]

DIALECT_POSTGRES = "postgres"
DIALECT_ORACLE = "oracle"

_EXISTS_CONSTANT = 1
_EXISTS_LABEL = "C"


@dataclass
class _Scope:
    """The row layout contributed by one FROM clause."""

    entries: List[Tuple[Name, Name]] = field(default_factory=list)

    def positions(self, alias: Name, column: Name) -> List[int]:
        return [
            i for i, (a, c) in enumerate(self.entries) if a == alias and c == column
        ]

    @property
    def width(self) -> int:
        return len(self.entries)


@dataclass
class CompiledQuery:
    """A compiled plan plus its output column labels.

    ``run`` is the plan's executor, its closure tree
    (:func:`repro.engine.compile.compile_plan`): call it with ``()`` to
    iterate the rows.  It shares all mutable state with the plan tree, so
    binding and unbinding work on the plan.  The planner leaves it unset;
    the :class:`~repro.engine.Engine` always fills it in, with generated
    code when that pays (plan-cache admission, or a single-use plan binding
    at least ``SINGLE_USE_COMPILE_ROWS`` rows).
    """

    plan: PlanNode
    labels: Tuple[Name, ...]
    run: Optional[Callable[[OuterStack], object]] = None


class Planner:
    """Compiles annotated queries, bound to a database instance or unbound.

    With a database the planner emits :class:`~repro.engine.operators
    .StaticScan` leaves capturing the instance's rows (the original,
    plan-per-database mode).  With ``db=None`` it emits
    :class:`~repro.engine.operators.TableScan` leaves that only *name* their
    base table; the resulting plan is database-independent and is what the
    :class:`~repro.engine.Engine` plan cache stores — bind it to an instance
    with :func:`repro.engine.binding.bind_plan` before execution.  All
    compile-time errors depend on the schema and query alone, so both modes
    reject exactly the same queries.
    """

    def __init__(
        self,
        schema: Schema,
        db: Optional[Database] = None,
        dialect: str = DIALECT_POSTGRES,
    ):
        if dialect not in (DIALECT_POSTGRES, DIALECT_ORACLE):
            raise ValueError(f"unknown engine dialect: {dialect!r}")
        self.schema = schema
        self.db = db
        self.dialect = dialect

    # -- public ------------------------------------------------------------

    def compile(self, query: Query) -> CompiledQuery:
        return self._compile_query(query, [], under_exists=False)

    # -- queries ---------------------------------------------------------------

    def _compile_query(
        self, query: Query, scopes: List[_Scope], under_exists: bool
    ) -> CompiledQuery:
        if isinstance(query, SetOp):
            left = self._compile_query(query.left, scopes, under_exists=False)
            right = self._compile_query(query.right, scopes, under_exists=False)
            if len(left.labels) != len(right.labels):
                raise ArityMismatchError(
                    f"{query.op} combines arities {len(left.labels)} and "
                    f"{len(right.labels)}"
                )
            node = SetOpNode(query.op, query.all, left.plan, right.plan)
            return CompiledQuery(node, left.labels)
        if not isinstance(query, Select):
            raise TypeError(f"not a query: {query!r}")
        return self._compile_select(query, scopes, under_exists)

    def _compile_select(
        self, query: Select, scopes: List[_Scope], under_exists: bool
    ) -> CompiledQuery:
        children: List[PlanNode] = []
        local = _Scope()
        seen_aliases: set[Name] = set()
        for item in query.from_items:
            if item.alias in seen_aliases:
                raise DuplicateAliasError(
                    f"alias {item.alias} used twice in the same FROM clause"
                )
            seen_aliases.add(item.alias)
            child, labels = self._compile_from_item(item, scopes)
            children.append(child)
            local.entries.extend((item.alias, label) for label in labels)
        source: PlanNode = (
            children[0] if len(children) == 1 else CrossJoin(children)
        )
        inner_scopes = scopes + [local]
        if not isinstance(query.where, TrueCond):
            predicate = self._compile_condition(query.where, inner_scopes)
            source = FilterOp(source, predicate)
        if query.is_star:
            expressions, labels = self._expand_star(local, under_exists)
        else:
            expressions = [
                self._compile_term(item.term, inner_scopes) for item in query.items
            ]
            labels = tuple(item.alias for item in query.items)
        plan: PlanNode = ProjectOp(source, expressions)
        if query.distinct:
            plan = DistinctOp(plan)
        return CompiledQuery(plan, labels)

    def _compile_from_item(
        self, item: FromItem, scopes: List[_Scope]
    ) -> Tuple[PlanNode, Tuple[Name, ...]]:
        if item.is_base_table:
            if item.table not in self.schema:
                raise UnknownTableError(f"unknown base table: {item.table}")
            labels = self.schema.attributes(item.table)
            if self.db is None:
                plan: PlanNode = TableScan(item.table, arity=len(labels))
            else:
                data = [
                    tuple(None if isinstance(v, Null) else v for v in record)
                    for record in self.db.table(item.table).bag
                ]
                plan = StaticScan(data, arity=len(labels))
        else:
            compiled = self._compile_query(item.table, scopes, under_exists=False)
            plan, labels = compiled.plan, compiled.labels
        if item.column_aliases is not None:
            if len(item.column_aliases) != len(labels):
                raise ArityMismatchError(
                    f"alias {item.alias}({', '.join(item.column_aliases)}) "
                    f"renames {len(item.column_aliases)} columns but the table "
                    f"has {len(labels)}"
                )
            labels = item.column_aliases
        return plan, labels

    def _expand_star(
        self, local: _Scope, under_exists: bool
    ) -> Tuple[List[RowExpr], Tuple[Name, ...]]:
        if self.dialect == DIALECT_POSTGRES:
            # Positional expansion: duplicates are fine (compositional rule).
            expressions: List[RowExpr] = [
                ColumnRef(0, i) for i in range(local.width)
            ]
            return expressions, tuple(label for _alias, label in local.entries)
        # Oracle/standard: under EXISTS, * is an arbitrary constant; otherwise
        # it is expanded by name, so repeated full names fail to compile.
        if under_exists:
            return [LiteralExpr(_EXISTS_CONSTANT)], (_EXISTS_LABEL,)
        expressions = []
        for alias, label in local.entries:
            positions = local.positions(alias, label)
            if len(positions) > 1:
                raise AmbiguousReferenceError(
                    f"SELECT * forces a reference to the ambiguous column "
                    f"{alias}.{label}"
                )
            expressions.append(ColumnRef(0, positions[0]))
        return expressions, tuple(label for _alias, label in local.entries)

    # -- terms -------------------------------------------------------------------

    def _compile_term(self, term, scopes: List[_Scope]) -> RowExpr:
        if isinstance(term, FullName):
            return self._resolve(term, scopes)
        if isinstance(term, BareColumn):
            raise UnboundReferenceError(
                f"unannotated column reference {term.name}: the engine expects "
                f"fully-annotated queries"
            )
        if isinstance(term, Null):
            return LiteralExpr(None)
        return LiteralExpr(term)

    def _resolve(self, full_name: FullName, scopes: List[_Scope]) -> ColumnRef:
        for depth, scope in enumerate(reversed(scopes)):
            positions = scope.positions(full_name.qualifier, full_name.attribute)
            if len(positions) > 1:
                raise AmbiguousReferenceError(
                    f"column reference {full_name} is ambiguous"
                )
            if positions:
                return ColumnRef(depth, positions[0])
        raise UnboundReferenceError(f"column reference {full_name} cannot be resolved")

    # -- conditions -----------------------------------------------------------------

    def _compile_condition(
        self, condition: Condition, scopes: List[_Scope]
    ) -> Callable[[Row, OuterStack], Optional[bool]]:
        """Compile to a structured predicate node (see
        :mod:`repro.engine.expressions`) so the optimizer can introspect the
        referenced scope depths and column positions."""
        if isinstance(condition, TrueCond):
            return ConstPred(True)
        if isinstance(condition, FalseCond):
            return ConstPred(False)
        if isinstance(condition, Predicate):
            return self._compile_predicate(condition, scopes)
        if isinstance(condition, IsNull):
            expr = self._compile_term(condition.term, scopes)
            return IsNullPred(expr, condition.negated)
        if isinstance(condition, InQuery):
            return self._compile_in(condition, scopes)
        if isinstance(condition, Exists):
            compiled = self._compile_query(condition.query, scopes, under_exists=True)
            return ExistsPred(compiled.plan)
        if isinstance(condition, And):
            return AndPred(
                self._compile_condition(condition.left, scopes),
                self._compile_condition(condition.right, scopes),
            )
        if isinstance(condition, Or):
            return OrPred(
                self._compile_condition(condition.left, scopes),
                self._compile_condition(condition.right, scopes),
            )
        if isinstance(condition, Not):
            return NotPred(self._compile_condition(condition.operand, scopes))
        raise TypeError(f"not a condition: {condition!r}")

    def _compile_predicate(
        self, condition: Predicate, scopes: List[_Scope]
    ) -> ComparePred:
        if len(condition.args) != 2:
            raise CompileError(
                f"the engine supports binary predicates only, got "
                f"{condition.name}/{len(condition.args)}"
            )
        left = self._compile_term(condition.args[0], scopes)
        right = self._compile_term(condition.args[1], scopes)
        return ComparePred(condition.name, left, right)

    def _compile_in(self, condition: InQuery, scopes: List[_Scope]) -> InPred:
        compiled = self._compile_query(condition.query, scopes, under_exists=False)
        if len(compiled.labels) != len(condition.terms):
            raise ArityMismatchError(
                f"IN compares {len(condition.terms)} term(s) against a query of "
                f"arity {len(compiled.labels)}"
            )
        left_exprs = [self._compile_term(t, scopes) for t in condition.terms]
        return InPred(left_exprs, compiled.plan, condition.negated)
