"""The collection P of predicates on base types (Section 2).

The basic SQL fragment is parameterized by a set P of predicates; equality is
always available, and other predicates may be type-specific.  This module
provides a :class:`PredicateRegistry` with the built-in comparisons
``=, <>, <, <=, >, >=`` and SQL's ``LIKE`` for strings, plus registration of
user predicates of any arity.

Predicate functions receive *non-null constants only*: the null-handling
rules (unknown, or false under the two-valued semantics) are applied by the
evaluator before the function is consulted, exactly as in Figure 6 where
``P(t1, …, tk)`` is only meaningfully evaluated when no argument is NULL.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Sequence, Tuple

from ..core.errors import CompileError
from ..core.values import Constant

__all__ = ["PredicateRegistry", "default_registry", "sql_like"]


def _same_type(a: Constant, b: Constant) -> None:
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(
            f"type clash in comparison: {a!r} vs {b!r} (queries are assumed "
            f"to have been type-checked)"
        )


def _eq(a: Constant, b: Constant) -> bool:
    return type(a) is type(b) and a == b or (
        not isinstance(a, str) and not isinstance(b, str) and a == b
    )


def _ne(a: Constant, b: Constant) -> bool:
    return not _eq(a, b)


def _lt(a: Constant, b: Constant) -> bool:
    _same_type(a, b)
    return a < b


def _le(a: Constant, b: Constant) -> bool:
    _same_type(a, b)
    return a <= b


def _gt(a: Constant, b: Constant) -> bool:
    _same_type(a, b)
    return a > b


def _ge(a: Constant, b: Constant) -> bool:
    _same_type(a, b)
    return a >= b


def sql_like(value: Constant, pattern: Constant) -> bool:
    """SQL's LIKE: ``%`` matches any sequence, ``_`` any single character."""
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise CompileError("LIKE is defined on strings only")
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, value) is not None


class PredicateRegistry:
    """A mapping from predicate names to (arity, Python function) pairs."""

    def __init__(self) -> None:
        self._predicates: Dict[str, Tuple[int, Callable[..., bool]]] = {}

    def register(self, name: str, arity: int, fn: Callable[..., bool]) -> None:
        if arity < 1:
            raise ValueError("predicates have arity >= 1")
        self._predicates[name] = (arity, fn)

    def __contains__(self, name: str) -> bool:
        return name in self._predicates

    def arity(self, name: str) -> int:
        self._require(name)
        return self._predicates[name][0]

    def holds(self, name: str, args: Sequence[Constant]) -> bool:
        """Apply predicate ``name`` to non-null constants."""
        arity, fn = self._require(name)
        if len(args) != arity:
            raise CompileError(
                f"predicate {name} has arity {arity}, applied to {len(args)} arguments"
            )
        return bool(fn(*args))

    def _require(self, name: str) -> Tuple[int, Callable[..., bool]]:
        try:
            return self._predicates[name]
        except KeyError:
            raise CompileError(f"unknown predicate: {name}") from None


def default_registry() -> PredicateRegistry:
    """The built-in P: the six comparisons and LIKE."""
    registry = PredicateRegistry()
    registry.register("=", 2, _eq)
    registry.register("<>", 2, _ne)
    registry.register("<", 2, _lt)
    registry.register("<=", 2, _le)
    registry.register(">", 2, _gt)
    registry.register(">=", 2, _ge)
    registry.register("LIKE", 2, sql_like)
    return registry
