"""Runtime expressions and truth handling for the reference engine.

The engine is the stand-in for PostgreSQL/Oracle in the Section 4 validation
experiment, so it is deliberately implemented *independently* of the formal
semantics: nulls are Python ``None`` (not the :data:`repro.core.values.NULL`
sentinel), truth values are ``True`` / ``False`` / ``None`` (unknown), and
column references are compiled to positional ``(depth, index)`` lookups into
the current row and the stack of outer rows — the way a real executor
resolves correlated references.

Only the input/output boundary converts between the two representations.

This module holds the *data* the planner compiles terms and WHERE clauses
into — the row expressions :class:`ColumnRef` and :class:`LiteralExpr`, and
the predicate nodes (:class:`ComparePred`, :class:`IsNullPred`,
:class:`AndPred`, …) — and the one definition of what they compute: the 3VL
connectives (:func:`and3`, :func:`or3`, :func:`not3`) and one comparison
helper per operator (:data:`_OP_HELPERS`).  The nodes expose which
``(depth, index)`` positions they read (:func:`expr_refs` / the nodes'
``refs()``), which is what lets the optimizer (:mod:`repro.engine.optimizer`)
push filters below joins and turn equality conjuncts into hash joins; they
do not evaluate themselves — :mod:`repro.engine.compile` lowers them to
closures over these helpers.  Depth 0 is the current row; depth k > 0 is
the k-th enclosing row of a correlated subquery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Sequence, Tuple, Union

from ..core.errors import CompileError

__all__ = [
    "Row",
    "OuterStack",
    "ColumnRef",
    "LiteralExpr",
    "RowExpr",
    "Refs",
    "column_indices",
    "expr_refs",
    "merge_refs",
    "shift_expr",
    "remap_expr",
    "substitute_expr",
    "PredNode",
    "ConstPred",
    "ComparePred",
    "IsNullPred",
    "AndPred",
    "OrPred",
    "NotPred",
    "and3",
    "or3",
    "not3",
]

#: A runtime row: a tuple of ints/strings/None.
Row = Tuple[object, ...]

#: The stack of outer rows for correlated subqueries (innermost last).
OuterStack = Tuple[Row, ...]


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A compiled column reference: depth 0 is the current row, depth k > 0
    the k-th enclosing row on the outer stack."""

    depth: int
    index: int

    def refs(self) -> "Refs":
        return frozenset({(self.depth, self.index)})


@dataclass(frozen=True, slots=True)
class LiteralExpr:
    """A constant (or None for SQL NULL)."""

    value: object

    def refs(self) -> "Refs":
        return frozenset()


#: A row expression: a :class:`ColumnRef`, a :class:`LiteralExpr`, or an
#: opaque ``(row, outers) -> value`` callable, evaluated as it is.
RowExpr = Union[ColumnRef, LiteralExpr, Callable[[Row, OuterStack], object]]

#: The positions an expression or predicate reads: a set of (depth, index)
#: pairs, depth 0 being the current row.
Refs = FrozenSet[Tuple[int, int]]


def column_indices(exprs: Sequence[RowExpr]) -> Optional[Tuple[int, ...]]:
    """The depth-0 indices when every expression is a current-row column."""
    indices = []
    for expr in exprs:
        if not (isinstance(expr, ColumnRef) and expr.depth == 0):
            return None
        indices.append(expr.index)
    return tuple(indices)


def expr_refs(expr: RowExpr) -> Optional[Refs]:
    """The ``(depth, index)`` positions ``expr`` reads, or None if opaque."""
    method = getattr(expr, "refs", None)
    if method is None:
        return None
    return method()


def shift_expr(expr: RowExpr, offset: int) -> Optional[RowExpr]:
    """Re-index depth-0 references by ``-offset`` (for pushing a predicate
    below a join into the child starting at column ``offset``); None if the
    expression is not rewritable."""
    if isinstance(expr, ColumnRef):
        if expr.depth == 0:
            return ColumnRef(0, expr.index - offset)
        return expr
    if isinstance(expr, LiteralExpr):
        return expr
    return None


def remap_expr(expr: RowExpr, mapping: Sequence[int]) -> Optional[RowExpr]:
    """Send depth-0 indices through ``mapping`` (old index → new index), for
    evaluating a predicate against a permuted column layout; None if the
    expression is not rewritable."""
    if isinstance(expr, ColumnRef):
        if expr.depth == 0:
            return ColumnRef(0, mapping[expr.index])
        return expr
    if isinstance(expr, LiteralExpr):
        return expr
    return None


def substitute_expr(
    expr: RowExpr, replacements: Sequence[RowExpr]
) -> Optional[RowExpr]:
    """Replace depth-0 references by the projection expressions that produce
    them (for pushing a predicate below a :class:`~repro.engine.operators
    .ProjectOp` into its input layout); None if either the expression or the
    replacement it lands on is not rewritable."""
    if isinstance(expr, ColumnRef):
        if expr.depth == 0:
            replacement = replacements[expr.index]
            if isinstance(replacement, (ColumnRef, LiteralExpr)):
                return replacement
            return None
        return expr
    if isinstance(expr, LiteralExpr):
        return expr
    return None


# -- three-valued connectives over True/False/None ---------------------------


def and3(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def or3(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def not3(a: Optional[bool]) -> Optional[bool]:
    if a is None:
        return None
    return not a


# -- comparisons -----------------------------------------------------------------
#
# One helper per operator: UNKNOWN (None) when either operand is NULL;
# equality never holds across the str boundary, and an ordered comparison
# across it raises.


def _like_match(value: object, pattern: object) -> bool:
    """LIKE over two non-NULL operands."""
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise CompileError("LIKE is defined on strings only")
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, value) is not None


def _eq(a, b):
    if a is None or b is None:
        return None
    return a == b and isinstance(a, str) == isinstance(b, str)


def _ne(a, b):
    if a is None or b is None:
        return None
    return not (a == b and isinstance(a, str) == isinstance(b, str))


def _lt(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} < {b!r}")
    return a < b


def _le(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} <= {b!r}")
    return a <= b


def _gt(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} > {b!r}")
    return a > b


def _ge(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} >= {b!r}")
    return a >= b


def _like(a, b):
    if a is None or b is None:
        return None
    return _like_match(a, b)


#: Comparison operator -> its helper ``(a, b) -> Optional[bool]``.
_OP_HELPERS = {
    "=": _eq,
    "<>": _ne,
    "<": _lt,
    "<=": _le,
    ">": _gt,
    ">=": _ge,
    "LIKE": _like,
}


# -- predicate nodes ---------------------------------------------------------
#
# Plain data: what a WHERE clause computes, never how.  ``refs()`` returns the (depth, index) positions the predicate
# reads (None when it contains an opaque callable), and ``shifted(offset)``
# rebuilds the predicate with depth-0 indices re-based for evaluation inside
# a join child (None when the predicate cannot be safely relocated, e.g.
# because it contains a subquery).


#: Maps one row expression to its rewritten form, or None when impossible.
ExprRewrite = Callable[[RowExpr], Optional[RowExpr]]


class PredNode:
    """Base class of compiled WHERE predicates: a 3VL condition with refs."""

    __slots__ = ()

    def refs(self) -> Optional[Refs]:
        """All (depth, index) positions read, or None if not introspectable."""
        raise NotImplementedError

    def rewritten(self, fn: ExprRewrite) -> Optional["PredNode"]:
        """The same predicate with every row expression sent through ``fn``;
        None when the node (or a nested one, e.g. a subquery probe) cannot be
        rebuilt that way."""
        return None

    def shifted(self, offset: int) -> Optional["PredNode"]:
        """The same predicate with depth-0 indices shifted by ``-offset``."""
        return self.rewritten(lambda expr: shift_expr(expr, offset))

    def remapped(self, mapping: Sequence[int]) -> Optional["PredNode"]:
        """The same predicate with depth-0 indices sent through ``mapping``
        (old index → new index), for a permuted column layout."""
        return self.rewritten(lambda expr: remap_expr(expr, mapping))

    def substituted(self, replacements: Sequence[RowExpr]) -> Optional["PredNode"]:
        """The same predicate with depth-0 references replaced by the
        projection expressions producing them (pushing below a projection)."""
        return self.rewritten(lambda expr: substitute_expr(expr, replacements))


class ConstPred(PredNode):
    """The constant conditions TRUE and FALSE."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[bool]):
        self.value = value

    def refs(self) -> Refs:
        return frozenset()

    def rewritten(self, fn: ExprRewrite) -> "ConstPred":
        return self


class ComparePred(PredNode):
    """A binary comparison ``t1 op t2`` under SQL's 3VL."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: RowExpr, right: RowExpr):
        self.op = op
        self.left = left
        self.right = right

    def refs(self) -> Optional[Refs]:
        left = expr_refs(self.left)
        right = expr_refs(self.right)
        if left is None or right is None:
            return None
        return left | right

    def rewritten(self, fn: ExprRewrite) -> Optional["ComparePred"]:
        left = fn(self.left)
        right = fn(self.right)
        if left is None or right is None:
            return None
        return ComparePred(self.op, left, right)


class IsNullPred(PredNode):
    """``t IS [NOT] NULL`` — always two-valued."""

    __slots__ = ("expr", "negated")

    def __init__(self, expr: RowExpr, negated: bool = False):
        self.expr = expr
        self.negated = negated

    def refs(self) -> Optional[Refs]:
        return expr_refs(self.expr)

    def rewritten(self, fn: ExprRewrite) -> Optional["IsNullPred"]:
        expr = fn(self.expr)
        if expr is None:
            return None
        return IsNullPred(expr, self.negated)


def merge_refs(*parts: Optional[Refs]) -> Optional[Refs]:
    """Union ref sets; an unknown (None) part poisons the whole union."""
    merged: Refs = frozenset()
    for part in parts:
        if part is None:
            return None
        merged |= part
    return merged


def _child_refs(*preds: Callable) -> Optional[Refs]:
    return merge_refs(*(expr_refs(pred) for pred in preds))


def _child_rewritten(pred: Callable, fn: ExprRewrite) -> Optional[Callable]:
    method = getattr(pred, "rewritten", None)
    return method(fn) if method is not None else None


class AndPred(PredNode):
    """3VL conjunction with the engine's left-to-right short-circuit."""

    __slots__ = ("left", "right")

    def __init__(self, left: Callable, right: Callable):
        self.left = left
        self.right = right

    def refs(self) -> Optional[Refs]:
        return _child_refs(self.left, self.right)

    def rewritten(self, fn: ExprRewrite) -> Optional["AndPred"]:
        left = _child_rewritten(self.left, fn)
        right = _child_rewritten(self.right, fn)
        if left is None or right is None:
            return None
        return AndPred(left, right)


class OrPred(PredNode):
    """3VL disjunction with the engine's left-to-right short-circuit."""

    __slots__ = ("left", "right")

    def __init__(self, left: Callable, right: Callable):
        self.left = left
        self.right = right

    def refs(self) -> Optional[Refs]:
        return _child_refs(self.left, self.right)

    def rewritten(self, fn: ExprRewrite) -> Optional["OrPred"]:
        left = _child_rewritten(self.left, fn)
        right = _child_rewritten(self.right, fn)
        if left is None or right is None:
            return None
        return OrPred(left, right)


class NotPred(PredNode):
    """3VL negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Callable):
        self.operand = operand

    def refs(self) -> Optional[Refs]:
        return _child_refs(self.operand)

    def rewritten(self, fn: ExprRewrite) -> Optional["NotPred"]:
        operand = _child_rewritten(self.operand, fn)
        if operand is None:
            return None
        return NotPred(operand)
