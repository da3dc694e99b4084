"""Wire protocol pieces of the query service: parameters and row framing.

Prepared-statement parameters
-----------------------------

The SQL fragment's grammar has no placeholder token, and the service must
not fork the parser — the parsed AST is the oracle-checked surface every
other layer consumes.  Instead, placeholders ride *through* the existing
pipeline as sentinel string literals:

1. At prepare time, :func:`expand_placeholders` rewrites ``$1``-style
   markers (outside string literals) into single-quoted sentinel literals
   containing a NUL byte no legitimate query can contain, and the result
   is parsed and annotated **once**.
2. At execute time, :func:`bind_parameters` rebuilds the frozen AST with
   each sentinel replaced by the bound value (int, string, or NULL for
   JSON ``null``) — a cheap structural walk, no re-parse, no re-annotate.

The bound AST is a frozen dataclass tree, so it keys the engine's plan
cache directly: re-executing a statement with the same parameter values
reuses its compiled plan, and distinct values get their own plan (a
"custom plan per binding" — literal values stay visible to the optimizer
and the generated predicates' constant folding, which a mutate-in-place
substitution would silently break).

Row framing
-----------

Results stream as newline-delimited JSON objects inside a chunked HTTP
response: a ``{"labels": …}`` header object, ``{"rows": …}`` batches, and
a final ``{"done": true, "row_count": n}`` trailer.  NULL crosses the wire
as JSON ``null`` in both directions.  The server encodes straight from
``Engine.execute_rows`` (whose rows already carry ``None`` for NULL), so
:func:`row_to_json` / :func:`rows_from_json` are the conversions for the
*other* holders of records — a client or a checker turning served rows
back into NULL-carrying records, a loader serializing a table.  Row order
within a result is unspecified: a result is a bag, compare as multisets.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.values import NULL, Null
from ..sql import ast

__all__ = [
    "ProtocolError",
    "expand_placeholders",
    "bind_parameters",
    "json_to_term",
    "row_to_json",
    "rows_from_json",
    "ast_bytes",
]

#: Sentinel literal for parameter ``k``; NUL can appear in no legitimate
#: query text (``expand_placeholders`` rejects it), so no user literal can
#: collide with a placeholder.
_SENTINEL = "\x00param:{k}\x00"

_SENTINEL_RE = re.compile("\x00param:(\\d+)\x00")

_PLACEHOLDER_RE = re.compile(r"\$(\d+)")


class ProtocolError(ValueError):
    """A malformed request: bad placeholders, bad parameter values."""


def expand_placeholders(sql: str) -> Tuple[str, int]:
    """Rewrite ``$k`` markers into sentinel string literals.

    Returns ``(rewritten SQL, parameter count)``.  Markers inside single-
    quoted string literals are left alone (they are data).  Parameter
    numbers must cover ``1..n`` exactly — a gap means the statement can
    never be executed, so it is rejected at prepare time, where the error
    is actionable.
    """
    if "\x00" in sql:
        raise ProtocolError("NUL character in statement text")
    out: List[str] = []
    numbers = set()
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            # Copy the string literal verbatim, honouring '' escapes.
            out.append(ch)
            i += 1
            while i < n:
                out.append(sql[i])
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        out.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
        elif ch == "$":
            match = _PLACEHOLDER_RE.match(sql, i)
            if match is None:
                raise ProtocolError(
                    f"stray '$' at offset {i}: placeholders are $1, $2, …"
                )
            k = int(match.group(1))
            if k < 1:
                raise ProtocolError("placeholder numbers start at $1")
            numbers.add(k)
            out.append("'" + _SENTINEL.format(k=k) + "'")
            i = match.end()
        else:
            out.append(ch)
            i += 1
    if numbers and sorted(numbers) != list(range(1, max(numbers) + 1)):
        missing = sorted(set(range(1, max(numbers) + 1)) - numbers)
        raise ProtocolError(
            f"placeholders must be numbered 1..n without gaps; missing "
            f"${', $'.join(map(str, missing))}"
        )
    return "".join(out), len(numbers)


def json_to_term(value) -> object:
    """A JSON parameter value as an AST term: int, str, or NULL for null."""
    if value is None:
        return NULL
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProtocolError(
            f"unsupported parameter value {value!r}: the fragment's terms "
            "are integers, strings and null"
        )
    return value


def _bind_term(term, values: Dict[str, object]):
    if isinstance(term, str):
        match = _SENTINEL_RE.fullmatch(term)
        if match is not None:
            return values[match.group(1)]
    return term


def bind_parameters(query: ast.Query, params: List[object], count: int) -> ast.Query:
    """The annotated template with every sentinel replaced by its value.

    ``params`` are raw JSON values positionally bound to ``$1..$count``;
    a count mismatch is a :class:`ProtocolError`.
    """
    if len(params) != count:
        raise ProtocolError(
            f"statement takes {count} parameter(s), got {len(params)}"
        )
    if count == 0:
        return query
    values = {str(k + 1): json_to_term(v) for k, v in enumerate(params)}
    return _rebuild(query, values)


def _rebuild(node, values: Dict[str, object]):
    """Structurally rebuild a frozen AST with sentinels bound.

    Generic over the node kinds: frozen dataclasses are reconstructed
    field-wise, tuples element-wise, and terms (plain values) go through
    :func:`_bind_term`.  Untouched subtrees are returned as-is, so shared
    structure survives and equal bindings produce equal (hashable) ASTs.
    """
    if isinstance(node, str):
        return _bind_term(node, values)
    if isinstance(node, tuple):
        return tuple(_rebuild(item, values) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changed = False
        fields = {}
        for field in dataclasses.fields(node):
            old = getattr(node, field.name)
            new = _rebuild(old, values)
            fields[field.name] = new
            changed = changed or new is not old
        if not changed:
            return node
        return type(node)(**fields)
    return node


def row_to_json(row) -> list:
    """One result record as a JSON array (NULL -> null)."""
    return [None if isinstance(v, Null) else v for v in row]


def rows_from_json(rows: Iterable[list]) -> List[tuple]:
    """Served JSON rows back into records (null -> NULL) for comparison."""
    return [tuple(NULL if v is None else v for v in row) for row in rows]


def ast_bytes(node, _depth: int = 0) -> int:
    """Estimated footprint of an AST tree (statement byte accounting).

    Recursive ``sys.getsizeof`` over frozen dataclasses and tuples; like
    :func:`repro.engine.binding.estimate_bytes` it double-counts shared
    structure, the safe direction for a budget.
    """
    size = sys.getsizeof(node, 64)
    if _depth >= 32:
        return size
    if isinstance(node, tuple):
        for item in node:
            size += ast_bytes(item, _depth + 1)
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            size += ast_bytes(getattr(node, field.name), _depth + 1)
    return size
