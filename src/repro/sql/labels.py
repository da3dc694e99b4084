"""The output-attribute function ℓ of Figure 3.

``ℓ(Q)`` is the tuple of column names of the table a query produces:

* ``ℓ(R)`` — the attribute tuple the schema assigns to base table R;
* ``ℓ(τ) = ℓ(T1) ⋯ ℓ(Tk)`` — concatenation over the FROM items;
* ``ℓ(SELECT [DISTINCT] α : β′ …) = β′``;
* ``ℓ(SELECT [DISTINCT] * FROM τ : β …) = ℓ(τ)``;
* ``ℓ(Q1 op Q2) = ℓ(Q1)``.

The scoped variant ``ℓ(τ : β) = N1.ℓ(T1) ⋯ Nk.ℓ(Tk)`` produces the *full
names* that a FROM clause binds (Section 3's "Scopes and bindings"); it is
what the environment update ``η ⊕r̄ ℓ(τ:β)`` consumes.

A FROM item with column aliases ``T AS N(A1, …, An)`` contributes
``(A1, …, An)`` in place of ℓ(T); the arity must match.

``param(Q)`` (:func:`query_params`) is the set of full names a query reads
from its environment rather than from its own FROM clause — Section 5's
``param(E)`` (:mod:`repro.algebra.params`) stated for SQL itself::

    param(Q1 op Q2)                 = param(Q1) ∪ param(Q2)
    param(SELECT α:β′ FROM τ:β WHERE θ)
                                    = ((names(α) ∪ param(θ)) − ℓ(τ:β))
                                      ∪ ⋃ {param(Ti) | Ti ∈ τ a subquery}
    param(SELECT * FROM τ:β WHERE θ) = the same with names(α) = ∅
    param(P(t1,…,tk))               = names({t1, …, tk})
    param(t IS [NOT] NULL)          = names({t})
    param(t̄ [NOT] IN Q)             = names(t̄) ∪ param(Q)
    param(EXISTS Q)                 = param(Q)
    param(θ1 conn θ2) = param(θ1) ∪ param(θ2),  param(NOT θ) = param(θ)

The subqueries of a FROM clause are evaluated under η, not under the scope
the clause itself opens, so ℓ(τ:β) does not shield their parameters.
⟦Q⟧_{D,η,x} depends on η only through param(Q).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

from ..core.errors import ArityMismatchError
from ..core.schema import Schema
from ..core.values import FullName, Name
from .ast import (
    And,
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

__all__ = [
    "query_labels",
    "from_item_labels",
    "from_labels",
    "scope_full_names",
    "prefix_names",
    "query_params",
]


def prefix_names(qualifier: Name, names: Sequence[Name]) -> Tuple[FullName, ...]:
    """The operation ``N.(N1, …, Nn) = (N.N1, …, N.Nn)``."""
    return tuple(FullName(qualifier, name) for name in names)


def from_item_labels(item: FromItem, schema: Schema) -> Tuple[Name, ...]:
    """ℓ(T) for one FROM item, applying column aliases when present."""
    if item.is_base_table:
        labels = schema.attributes(item.table)
    else:
        labels = query_labels(item.table, schema)
    if item.column_aliases is not None:
        if len(item.column_aliases) != len(labels):
            raise ArityMismatchError(
                f"alias {item.alias}({', '.join(item.column_aliases)}) renames "
                f"{len(item.column_aliases)} columns but the table has {len(labels)}"
            )
        labels = item.column_aliases
    return labels


def from_labels(from_items: Sequence[FromItem], schema: Schema) -> Tuple[Name, ...]:
    """ℓ(τ): the concatenation of the labels of all FROM items."""
    labels: list[Name] = []
    for item in from_items:
        labels.extend(from_item_labels(item, schema))
    return tuple(labels)


def scope_full_names(
    from_items: Sequence[FromItem], schema: Schema
) -> Tuple[FullName, ...]:
    """ℓ(τ : β): each item's labels prefixed with its alias."""
    names: list[FullName] = []
    for item in from_items:
        names.extend(prefix_names(item.alias, from_item_labels(item, schema)))
    return tuple(names)


def query_labels(query: Query, schema: Schema) -> Tuple[Name, ...]:
    """ℓ(Q) per Figure 3."""
    if isinstance(query, Select):
        if query.is_star:
            return from_labels(query.from_items, schema)
        return tuple(item.alias for item in query.items)
    if isinstance(query, SetOp):
        return query_labels(query.left, schema)
    raise TypeError(f"not a query: {query!r}")


def _names(terms: Iterable) -> FrozenSet[FullName]:
    """names(t̄): the terms that are full names."""
    return frozenset(t for t in terms if isinstance(t, FullName))


def query_params(query: Query, schema: Schema) -> FrozenSet[FullName]:
    """param(Q): the full names Q reads from its environment."""
    if isinstance(query, SetOp):
        return query_params(query.left, schema) | query_params(query.right, schema)
    if not isinstance(query, Select):
        raise TypeError(f"not a query: {query!r}")
    read = _condition_params(query.where, schema)
    if not query.is_star:
        read |= _names(item.term for item in query.items)
    read -= frozenset(scope_full_names(query.from_items, schema))
    for item in query.from_items:
        if not item.is_base_table:
            read |= query_params(item.table, schema)
    return read


def _condition_params(condition: Condition, schema: Schema) -> FrozenSet[FullName]:
    """param(θ): the full names θ reads, nested subqueries included."""
    if isinstance(condition, Predicate):
        return _names(condition.args)
    if isinstance(condition, IsNull):
        return _names((condition.term,))
    if isinstance(condition, (And, Or)):
        return _condition_params(condition.left, schema) | _condition_params(
            condition.right, schema
        )
    if isinstance(condition, Not):
        return _condition_params(condition.operand, schema)
    if isinstance(condition, InQuery):
        return _names(condition.terms) | query_params(condition.query, schema)
    if isinstance(condition, Exists):
        return query_params(condition.query, schema)
    if isinstance(condition, (TrueCond, FalseCond)):
        return frozenset()
    raise TypeError(f"not a condition: {condition!r}")
