"""Physical operators of the reference engine: a tiny iterator model.

Each operator exposes a generator, :meth:`PlanNode.iter_rows`, producing rows
given the stack of outer rows (needed because any operator may sit inside a
correlated subquery and reference enclosing rows through compiled
:class:`~repro.engine.expressions.ColumnRef` expressions); the materializing
:meth:`PlanNode.rows` is a convenience over it.  Streaming matters: a filter
above a cross join never holds the whole product in memory, and an EXISTS
probe stops after the first row.  Multisets are handled with
:class:`collections.Counter`, a representation intentionally different from
:class:`repro.core.bag.Bag`.

Besides the textbook operators (:class:`StaticScan`, :class:`CrossJoin`,
:class:`FilterOp`, :class:`ProjectOp`, :class:`DistinctOp`,
:class:`SetOpNode`), this module provides the physical machinery used by the
optimizer (:mod:`repro.engine.optimizer`):

* :class:`HashJoin` — equi-join of two children keyed by the column values
  themselves, with SQL's 3VL NULL handling (a NULL key never matches,
  exactly like the equality conjunct it replaces);
* :class:`GenericJoin` — worst-case-optimal multiway equi-join: instead of
  a tree of binary joins, all children are joined at once by intersecting
  per-attribute hash tries one join variable at a time (leapfrog style),
  so a cyclic equality pattern — a triangle, a 4-cycle — never materializes
  the quadratic intermediate a binary plan is forced through;
* :class:`CachedSubplan` — materializes an uncorrelated subplan once per
  execution instead of once per probing row;
* :class:`MemoSubplan` — memoizes a *correlated* FROM-subquery's rows per
  binding of the outer values it reads;
* :class:`RemapOp` — restores the FROM-order column layout above a
  cost-reordered join tree;
* :class:`HashSetOp` — streaming hash-based set operations, replacing the
  counted-multiset :class:`SetOpNode` the planner emits;
* the subquery predicates :class:`ExistsPred` / :class:`InPred` (the naive,
  re-executing forms the planner emits) and their optimized replacements
  :class:`ExistsProbe` (generator-based, early-terminating, result-cached
  when the subplan is closed, memoized per binding when correlated) and
  :class:`SemiJoinProbe` (one hash lookup per probing row against a closed
  build side: uncorrelated IN under 3VL, and EXISTS/IN decorrelated on
  their equality correlation keys).

Join and probe builds rest on one *equality lemma*: on non-NULL values
SQL's ``=`` (:func:`~repro.engine.expressions.compare`) holds iff Python
``==`` does — the paper's syntactic equality (Definition 2, which
:mod:`repro.core.values` already equates with Python's), and Python never
equates a string with a number.  So a dict keyed by the raw values (a
tuple of them for a composite key) finds exactly the rows an equality
conjunct keeps, once the build leaves out every key holding a NULL: a
NULL-holding probe key then simply misses.

Every node also answers two static questions the optimizer asks:
:meth:`PlanNode.free_refs` — which ``(depth, index)`` positions of the outer
stack the subtree reads (depth ≥ 1; ``None`` when unknown, e.g. an opaque
filter callable) — and :meth:`PlanNode.width` — the output arity, when
derivable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain as _chain
from itertools import product as _iter_product
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .expressions import (
    OuterStack,
    Refs,
    Row,
    RowExpr,
    and3,
    column_indices,
    compare,
    expr_refs,
    merge_refs,
    not3,
    or3,
)

__all__ = [
    "PlanNode",
    "StaticScan",
    "TableScan",
    "CrossJoin",
    "FilterOp",
    "ProjectOp",
    "DistinctOp",
    "SetOpNode",
    "HashSetOp",
    "HashJoin",
    "GenericJoin",
    "CachedSubplan",
    "MemoSubplan",
    "RemapOp",
    "ExistsPred",
    "ExistsProbe",
    "InPred",
    "SemiJoinProbe",
    "build_probe_index",
    "pred_refs",
]


def _partition(
    rows: Sequence[Row], key_of: Callable, composite: bool
) -> Tuple[dict, int]:
    """``rows`` grouped by ``key_of(row)`` — keys in first-seen order, rows
    in input order within a group — minus every group whose key holds a
    NULL; returns ``(groups, rows left out)``.  ``composite`` keys are
    tuples, the others raw values."""
    groups: dict = {}
    get = groups.get
    for key, row in zip(map(key_of, rows), rows):
        group = get(key)
        if group is None:
            groups[key] = [row]
        else:
            group.append(row)
    if composite:
        nulls = [key for key in groups if None in key]
    else:
        nulls = [None] if None in groups else ()
    return groups, sum([len(groups.pop(key)) for key in nulls])


def _resident(source: "PlanNode", signature: tuple, build: Callable[[], tuple]) -> tuple:
    """``build()``, a closed build over ``source``'s rows — memoized, when
    ``source`` is a bare base-table scan, on the immutable
    :class:`~repro.core.table.Table` it is bound to, under the build's
    ``signature``.  Such a build is a pure function of the table, like the
    scan rows and column vectors beside it, so every plan and every engine
    reading the same table builds it once, and the memo dies with the
    database.  The dict is created on the first build; rows not installed
    by :func:`~repro.engine.binding.bind_plan` (no table in the scan's
    memo tuple, or other rows than its own) build afresh."""
    memos = source._columns if isinstance(source, TableScan) else None
    if memos is None or memos[2] is None or memos[0] is not source.data:
        return build()
    table = memos[2]
    builds = table._scan_builds
    if builds is None:
        builds = table._scan_builds = {}
    value = builds.get(signature)
    if value is None:
        value = builds[signature] = build()
    return value


def _trie(rows: Sequence[Row], getters: Sequence[Callable]) -> Tuple[dict, int]:
    """Nested dicts keyed like :func:`_partition`, one level per getter,
    leaf lists holding the rows; a row with a NULL key at any level is
    left out, and no empty branch is kept.  Returns ``(trie, rows left
    out)``.  One insertion loop per depth: a partition for one level, a
    two-level loop for two, and a partition per extra level above that."""
    if len(getters) == 1:
        return _partition(rows, getters[0], False)
    if len(getters) > 2:
        node, dropped = _partition(rows, getters[0], False)
        trie = {}
        for key, group in node.items():
            child, lost = _trie(group, getters[1:])
            dropped += lost
            if child:
                trie[key] = child
        return trie, dropped
    first, second = getters
    trie, dropped = {}, 0
    get = trie.get
    for outer, inner, row in zip(map(first, rows), map(second, rows), rows):
        if outer is None or inner is None:
            dropped += 1
            continue
        node = get(outer)
        if node is None:
            trie[outer] = {inner: [row]}
            continue
        leaf = node.get(inner)
        if leaf is None:
            node[inner] = [row]
        else:
            leaf.append(row)
    return trie, dropped


def _sub_refs(refs: Optional[Refs]) -> Optional[Refs]:
    """Map a subplan's free refs (depth ≥ 1) to the probing predicate's level:
    depth 1 is the probing row itself (depth 0 at the predicate's level)."""
    if refs is None:
        return None
    return frozenset((depth - 1, index) for depth, index in refs)


#: The (depth, index) positions a filter predicate reads; None if opaque.
#: Predicates follow the same refs() protocol as row expressions.
pred_refs = expr_refs


def _outer_part(refs: Optional[Refs]) -> Optional[Refs]:
    if refs is None:
        return None
    return frozenset(r for r in refs if r[0] >= 1)


def _in_fold(values: Row, sub_rows) -> Optional[bool]:
    """The 3VL fold of ``t̄ IN Q``: the disjunction over Q's rows of the
    conjunction of per-position equalities, with short-circuits."""
    result: Optional[bool] = False
    for sub_row in sub_rows:
        comparison: Optional[bool] = True
        for a, b in zip(values, sub_row):
            comparison = and3(comparison, compare("=", a, b))
            if comparison is False:
                break
        result = or3(result, comparison)
        if result is True:
            break
    return result


class PlanNode:
    """Base class of all physical operators."""

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        raise NotImplementedError

    def rows(self, outers: OuterStack) -> List[Row]:
        return list(self.iter_rows(outers))

    def free_refs(self) -> Optional[Refs]:
        """Outer-stack positions (depth ≥ 1) the subtree reads; None if unknown.

        Memoized per node: the answer is purely structural (predicates and
        children never change after construction — binding only installs
        scan rows), and the optimizer asks repeatedly along nested paths,
        which would otherwise make the recursion quadratic.
        """
        memo = getattr(self, "_free_refs_memo", False)
        if memo is False:
            memo = self._free_refs()
            self._free_refs_memo = memo
        return memo

    def _free_refs(self) -> Optional[Refs]:
        raise NotImplementedError

    def width(self) -> Optional[int]:
        """Output arity, or None when it cannot be derived."""
        return None


@dataclass
class StaticScan(PlanNode):
    """Scan of a materialized base table (rows captured at plan bind time).

    ``arity`` is recorded by the planner so the width is known even for an
    empty table (the data alone cannot tell).
    """

    data: List[Row]
    arity: Optional[int] = None

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.data)

    def rows(self, outers: OuterStack) -> List[Row]:
        return self.data

    def _free_refs(self) -> Refs:
        return frozenset()

    def width(self) -> Optional[int]:
        if self.arity is not None:
            return self.arity
        return len(self.data[0]) if self.data else None


@dataclass
class TableScan(PlanNode):
    """Scan of a base table bound to row data *per execution*, not per plan.

    Unlike :class:`StaticScan` (which captures the rows of one database at
    plan time), a ``TableScan`` names the table and leaves ``data`` unbound;
    :func:`repro.engine.binding.bind_plan` installs the rows of the current
    database before each execution.  This is what makes a compiled plan
    reusable across databases — the basis of the :class:`~repro.engine.Engine`
    plan cache used by the trial campaigns, where the same query is never
    re-planned for every trial database.
    """

    table: str
    arity: int
    data: Optional[List[Row]] = field(default=None, compare=False)
    #: Row count seen the last time this scan was bound, recorded by the
    #: unbind walk (and seeded by the engine on freshly planned scans):
    #: the optimizer's cardinality feedback for unbound plans.
    observed_rows: Optional[int] = field(default=None, compare=False, repr=False)
    #: ``(bound rows, their per-column vector memo, the Table)`` for the
    #: scan kernels and the builds over this scan (:func:`_resident`):
    #: installed by ``bind_plan`` from the table's own memos, checked
    #: against ``data`` by identity, cleared on unbind.
    _columns: Optional[tuple] = field(default=None, compare=False, repr=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        if self.data is None:
            raise RuntimeError(
                f"TableScan({self.table!r}) executed without a bound database "
                f"(see repro.engine.binding.bind_plan)"
            )
        return self.data

    def _free_refs(self) -> Refs:
        return frozenset()

    def width(self) -> int:
        return self.arity


@dataclass
class CrossJoin(PlanNode):
    """Cartesian product of one or more children, concatenating rows."""

    children: List[PlanNode]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        materialized: List[List[Row]] = []
        for child in self.children:
            rows = child.rows(outers)
            if not rows:
                return
            materialized.append(rows)
        for combo in _iter_product(*materialized):
            row: Row = combo[0]
            for part in combo[1:]:
                row = row + part
            yield row

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(*(child.free_refs() for child in self.children))

    def width(self) -> Optional[int]:
        total = 0
        for child in self.children:
            w = child.width()
            if w is None:
                return None
            total += w
        return total


@dataclass
class FilterOp(PlanNode):
    """Keeps the rows for which the predicate returns True (not None/False)."""

    child: PlanNode
    predicate: Callable[[Row, OuterStack], Optional[bool]]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.iter_rows(outers):
            if predicate(row, outers) is True:
                yield row

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(
            self.child.free_refs(), _outer_part(pred_refs(self.predicate))
        )

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class ProjectOp(PlanNode):
    """Evaluates a list of output expressions per input row."""

    child: PlanNode
    expressions: Sequence[RowExpr]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        expressions = self.expressions
        for row in self.child.iter_rows(outers):
            yield tuple(expr(row, outers) for expr in expressions)

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(
            self.child.free_refs(),
            *(_outer_part(expr_refs(expr)) for expr in self.expressions),
        )

    def width(self) -> int:
        return len(self.expressions)


@dataclass
class DistinctOp(PlanNode):
    """Removes duplicates, keeping first-seen order."""

    child: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        seen = set()
        for row in self.child.iter_rows(outers):
            if row not in seen:
                seen.add(row)
                yield row

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class SetOpNode(PlanNode):
    """UNION / INTERSECT / EXCEPT with and without ALL, via Counters."""

    op: str
    all: bool
    left: PlanNode
    right: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        left_counts = Counter(self.left.iter_rows(outers))
        right_counts = Counter(self.right.iter_rows(outers))
        result: Counter = Counter()
        if self.op == "UNION":
            result = left_counts + right_counts
            if not self.all:
                result = Counter(dict.fromkeys(result, 1))
        elif self.op == "INTERSECT":
            result = left_counts & right_counts
            if not self.all:
                result = Counter(dict.fromkeys(result, 1))
        elif self.op == "EXCEPT":
            if self.all:
                result = left_counts - right_counts
            else:
                dedup_left = Counter(dict.fromkeys(left_counts, 1))
                result = dedup_left - right_counts
        else:  # pragma: no cover - guarded at compile time
            raise ValueError(f"unknown set operation {self.op}")
        return iter(result.elements())

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        return self.left.width() if self.left.width() is not None else self.right.width()


@dataclass
class HashJoin(PlanNode):
    """Equi-join: hashes the right child, probes with the left child.

    Replaces ``σ_{l=r}(L × R)``.  By the equality lemma (module docstring)
    the table is keyed by the raw key value — the ``itemgetter`` tuple for a
    composite key — so ``1`` and ``'1'`` never meet, exactly as under
    :func:`repro.engine.expressions.compare`; build rows whose key holds a
    NULL are left out (the equality they stand in for would be unknown), so
    a NULL-holding probe key misses.  Output rows are ``left + right``
    concatenations, preserving the FROM-clause column layout.
    """

    left: PlanNode
    right: PlanNode
    left_keys: Tuple[int, ...]
    right_keys: Tuple[int, ...]
    #: Build side, memoized per execution when the right child is closed
    #: (cleared by the binding layer, shareable across executions through
    #: the build-side cache of :mod:`repro.engine.binding`, and on the
    #: scanned table itself when the right child is a bare scan).
    _table: Optional[dict] = field(default=None, repr=False, compare=False)
    _closed_build: Optional[bool] = field(default=None, repr=False, compare=False)
    #: Rows held by ``_table`` — the cardinality feedback ``unbind_plan``
    #: reports — counted where the build inserted them, or recorded with
    #: the cache entry the table was restored from.
    _build_rows: Optional[int] = field(default=None, repr=False, compare=False)

    def _build(self, rows: Sequence[Row]) -> Tuple[dict, int]:
        """``(key -> rows, rows inserted)`` over the right child's ``rows``:
        the one build kernel of both tiers."""
        keys = self.right_keys
        table, dropped = _partition(rows, itemgetter(*keys), len(keys) > 1)
        return table, len(rows) - dropped

    def build_table(self, outers: OuterStack, right_rows: Callable) -> dict:
        """The probe table over ``right_rows(outers)`` — the right child's
        ``rows``, or the lowered tier's materializer of them — built at
        most once per execution when closed, and at most once per table
        and key columns when the right child is a bare base-table scan."""
        if self._closed_build is None:
            self._closed_build = self.right.free_refs() == frozenset()
        if not self._closed_build:
            return self._build(right_rows(outers))[0]
        if self._table is None:
            self._table, self._build_rows = _resident(
                self.right,
                ("hash", self.right_keys),
                lambda: self._build(right_rows(outers)),
            )
        return self._table

    def probe(self, table: dict, rows: Iterable[Row]) -> Iterator[Row]:
        """Each of the left child's ``rows`` concatenated with its matches."""
        get = table.get
        key_of = itemgetter(*self.left_keys)
        for row in rows:
            for match in get(key_of(row), ()):
                yield row + match

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        table = self.build_table(outers, self.right.rows)
        if table:
            yield from self.probe(table, self.left.iter_rows(outers))

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        left = self.left.width()
        right = self.right.width()
        if left is None or right is None:
            return None
        return left + right


@dataclass
class GenericJoin(PlanNode):
    """Worst-case-optimal multiway equi-join (generic join / leapfrog).

    Replaces a whole multi-child FROM whose cross-child equality graph is
    cyclic.  Each equivalence class of equated columns is one *join
    variable*; every child builds a nested hash trie keyed by the variables
    it binds (in global variable order), and enumeration assigns variables
    one at a time by intersecting the tries' current levels — iterating the
    smallest level and probing the others, the classic leapfrog step.  A
    triangle query therefore does work proportional to the joinable keys
    instead of materializing the quadratic intermediate any binary join
    tree must produce on skewed data.

    Semantics match the equality conjuncts the variables consume exactly:
    a row whose variable column is NULL can never match (the equality would
    be unknown, as in :class:`HashJoin`), keys are the raw values (the
    equality lemma: ``1`` and ``'1'`` differ), and equality is transitive
    on non-NULLs, so "every column of the class equal" is exactly the
    conjunction of the original (connected) equality edges.  Output rows
    concatenate child rows in FROM order with full bag multiplicity — the
    cross product of each child's matching rows per variable assignment —
    so no :class:`RemapOp` is ever needed on top.
    """

    children: List[PlanNode]
    #: One entry per join variable, in elimination order: the sorted
    #: ``(child, local column)`` positions the variable binds.  Every
    #: variable spans at least two children (a single-child equality is an
    #: ordinary pushed filter, not a variable).
    variables: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: Per-child hash tries, memoized per execution when every child is
    #: closed (cleared by the binding layer, shareable across executions
    #: through the build-side cache of :mod:`repro.engine.binding`).
    _tries: Optional[List[object]] = field(default=None, repr=False, compare=False)
    _closed_build: Optional[bool] = field(default=None, repr=False, compare=False)
    #: Rows held by ``_tries`` — the cardinality feedback ``unbind_plan``
    #: reports — counted where the build inserted them, or recorded with
    #: the cache entry the tries were restored from.
    _build_rows: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # Purely structural, derived once: which variables each child binds
        # (its trie's level order = global variable order) and, per level,
        # which children participate in the intersection.
        per_child: List[List[Tuple[int, ...]]] = [[] for _ in self.children]
        var_children: List[Tuple[int, ...]] = []
        for var in self.variables:
            cols: Dict[int, List[int]] = {}
            for child, col in var:
                cols.setdefault(child, []).append(col)
            var_children.append(tuple(sorted(cols)))
            for child, local in cols.items():
                per_child[child].append(tuple(local))
        self._child_cols = [tuple(levels) for levels in per_child]
        self._var_children = tuple(var_children)

    def _build_tries(self, children_rows: List[List[Row]]) -> Tuple[List[object], int]:
        """One trie per child, and the rows they hold in all: nested dicts
        keyed by the child's variables in order, leaf lists holding the rows
        (bag multiplicity); children binding no variable contribute their
        plain row list.  Rows with a NULL variable column — or two
        same-variable columns that differ — can never match and are left
        out.  The build kernel of both tiers."""
        tries: List[object] = []
        held = 0
        for levels, rows in zip(self._child_cols, children_rows):
            if levels:
                pairs = [(cols[0], extra) for cols in levels for extra in cols[1:]]
                if pairs:
                    # A NULL first column passes only beside a NULL, and a
                    # NULL key is left out of the trie.
                    rows = [r for r in rows if all(r[a] == r[b] for a, b in pairs)]
                trie, dropped = _trie(rows, [itemgetter(cols[0]) for cols in levels])
                held -= dropped
            else:
                trie = rows
            tries.append(trie)
            held += len(rows)
        return tries, held

    def build_tries(
        self, outers: OuterStack, children_rows: Sequence[Callable]
    ) -> List[object]:
        """The per-child tries over each ``children_rows[i](outers)`` — the
        children's ``rows``, or the lowered tier's materializers of them —
        built at most once per execution when every child is closed
        (mirrors :meth:`HashJoin.build_table`)."""
        if self._closed_build is None:
            self._closed_build = self.free_refs() == frozenset()
        if not self._closed_build:
            return self._build_tries([rows(outers) for rows in children_rows])[0]
        if self._tries is None:
            self._tries, self._build_rows = self._build_tries(
                [rows(outers) for rows in children_rows]
            )
        return self._tries

    def _solve(self, level: int, positions: List[object]) -> Iterator[Row]:
        """Assign variable ``level`` by intersecting the involved children's
        current trie levels, then recurse; at the bottom every position is a
        row list and the concatenated cross product streams out."""
        if level == len(self.variables):
            for combo in _iter_product(*positions):
                row: Row = combo[0]
                for part in combo[1:]:
                    row = row + part
                yield row
            return
        involved = self._var_children[level]
        smallest = min(involved, key=lambda c: len(positions[c]))
        rest = [c for c in involved if c != smallest]
        for key, descended in positions[smallest].items():
            branch = list(positions)
            branch[smallest] = descended
            for c in rest:
                nxt = positions[c].get(key)
                if nxt is None:
                    break
                branch[c] = nxt
            else:
                yield from self._solve(level + 1, branch)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        tries = self.build_tries(outers, [child.rows for child in self.children])
        if any(not trie for trie in tries):
            # An empty trie (or an empty variable-free child) admits no
            # combination at all.
            return
        yield from self._solve(0, list(tries))

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(*(child.free_refs() for child in self.children))

    def width(self) -> Optional[int]:
        total = 0
        for child in self.children:
            w = child.width()
            if w is None:
                return None
            total += w
        return total


@dataclass
class CachedSubplan(PlanNode):
    """Materializes a *closed* subplan (no outer references) exactly once.

    A closed EXISTS/IN subquery re-executed per outer row is the single
    largest cost of the naive engine; this node runs it on first demand and
    replays the rows afterwards.
    """

    child: PlanNode
    _cache: Optional[List[Row]] = field(default=None, repr=False, compare=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        if self._cache is None:
            # The child is closed, so the outer stack is irrelevant.
            self._cache = self.child.rows(())
        return self._cache

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class MemoSubplan(PlanNode):
    """Memoizes a *correlated* subplan's rows per binding of the outer values
    it reads.

    A correlated FROM-subquery re-executes for every probing row of its
    enclosing correlated predicate, yet its rows are a pure function of the
    outer values at its free reference positions; bindings repeat across
    probing rows, so each distinct binding is evaluated once per execution.
    """

    child: PlanNode
    #: Sorted (depth, index) positions of the outer values the child reads.
    memo_refs: Tuple[Tuple[int, int], ...]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        key = tuple(outers[-d][i] for d, i in self.memo_refs)
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = self.child.rows(outers)
        return rows

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class RemapOp(PlanNode):
    """Permutes columns: ``output[i] = input[mapping[i]]``.

    The join-order optimizer reorders FROM children for cost but must keep
    the output row layout bit-identical to FROM order (projection indices,
    correlated subquery references and filter predicates were all compiled
    against it); a ``RemapOp`` above the reordered join tree restores it.
    """

    child: PlanNode
    mapping: Tuple[int, ...]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        mapping = self.mapping
        for row in self.child.iter_rows(outers):
            yield tuple(row[j] for j in mapping)

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> int:
        return len(self.mapping)


@dataclass
class HashSetOp(PlanNode):
    """Hash-based UNION / INTERSECT / EXCEPT, streaming the left child.

    The optimized replacement for :class:`SetOpNode`: instead of counting
    both children and expanding a result multiset, only the side that must
    be fully known is materialized (the right child's counts for INTERSECT/
    EXCEPT, a seen-set for DISTINCT variants) and rows stream out as the
    left child produces them — so an enclosing EXISTS stops the whole
    pipeline at the first row.  Rows are their own hash keys: SQL NULL
    (``None``) is one key value, matching the NOT-DISTINCT row equality the
    set operations use (NULLs equal each other here, unlike in ``=``).
    Bag semantics are unchanged: UNION ALL concatenates, INTERSECT ALL
    keeps minimum multiplicities, EXCEPT ALL subtracts, and the DISTINCT
    variants emit each qualifying row once.
    """

    op: str
    all: bool
    left: PlanNode
    right: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        if self.op == "UNION":
            if self.all:
                yield from self.left.iter_rows(outers)
                yield from self.right.iter_rows(outers)
                return
            seen = set()
            for side in (self.left, self.right):
                for row in side.iter_rows(outers):
                    if row not in seen:
                        seen.add(row)
                        yield row
            return
        if self.op == "INTERSECT":
            if self.all:
                remaining = Counter(self.right.iter_rows(outers))
                for row in self.left.iter_rows(outers):
                    if remaining[row] > 0:
                        remaining[row] -= 1
                        yield row
                return
            right_rows = set(self.right.iter_rows(outers))
            emitted = set()
            for row in self.left.iter_rows(outers):
                if row in right_rows and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        if self.op == "EXCEPT":
            right_counts = Counter(self.right.iter_rows(outers))
            if self.all:
                for row in self.left.iter_rows(outers):
                    if right_counts[row] > 0:
                        right_counts[row] -= 1
                    else:
                        yield row
                return
            emitted = set()
            for row in self.left.iter_rows(outers):
                if right_counts[row] == 0 and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        raise ValueError(f"unknown set operation {self.op}")  # pragma: no cover

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        left = self.left.width()
        return left if left is not None else self.right.width()


# -- subquery predicates -----------------------------------------------------


class ExistsPred:
    """Naive ``EXISTS Q``: fully materializes the subquery per probing row."""

    __slots__ = ("subplan",)

    def __init__(self, subplan: PlanNode):
        self.subplan = subplan

    def __call__(self, row: Row, outers: OuterStack) -> bool:
        return bool(self.subplan.rows(outers + (row,)))

    def refs(self) -> Optional[Refs]:
        return _sub_refs(self.subplan.free_refs())


class ExistsProbe:
    """Optimized ``EXISTS Q``: streams the subquery and stops at the first
    row.  When the subplan is closed, the boolean is computed only once;
    when it is correlated, results are memoized per *binding* — the tuple of
    outer values at the subplan's free reference positions, the only inputs
    the subquery's result can depend on."""

    __slots__ = ("subplan", "closed", "_known", "_refs", "_memo")

    def __init__(
        self,
        subplan: PlanNode,
        closed: bool = False,
        memo_refs: Optional[Refs] = None,
    ):
        self.subplan = subplan
        self.closed = closed
        self._known: Optional[bool] = None
        self._refs = tuple(sorted(memo_refs)) if memo_refs else None
        self._memo: dict = {}

    def _binding(self, row: Row, outers: OuterStack) -> Tuple:
        return tuple(
            row[i] if d == 0 else outers[-d][i] for d, i in self._refs
        )

    def _probe(self, row: Row, outers: OuterStack) -> bool:
        for _ in self.subplan.iter_rows(outers + (row,)):
            return True
        return False

    def __call__(self, row: Row, outers: OuterStack) -> bool:
        if self.closed:
            if self._known is None:
                self._known = self._probe(row, outers)
            return self._known
        if self._refs is None:
            return self._probe(row, outers)
        key = self._binding(row, outers)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = self._probe(row, outers)
        return result

    def refs(self) -> Optional[Refs]:
        return _sub_refs(self.subplan.free_refs())


class InPred:
    """``t̄ [NOT] IN Q``: folds 3VL equality over the subquery's rows.

    Without ``memo_refs`` this is the naive form the planner emits: the
    subquery is re-executed per probing row.  The optimizer supplies
    ``memo_refs`` for correlated subplans, caching the (distinct) subquery
    rows per binding of the referenced outer values — a disjunction cannot
    change under duplicate elimination, so distinct rows suffice."""

    __slots__ = ("exprs", "subplan", "negated", "_refs", "_memo")

    def __init__(
        self,
        exprs: Sequence[RowExpr],
        subplan: PlanNode,
        negated: bool,
        memo_refs: Optional[Refs] = None,
    ):
        self.exprs = tuple(exprs)
        self.subplan = subplan
        self.negated = negated
        self._refs = tuple(sorted(memo_refs)) if memo_refs else None
        self._memo: dict = {}

    def _sub_rows(self, row: Row, outers: OuterStack) -> Sequence[Row]:
        if self._refs is None:
            return self.subplan.rows(outers + (row,))
        key = tuple(row[i] if d == 0 else outers[-d][i] for d, i in self._refs)
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = list(
                dict.fromkeys(self.subplan.rows(outers + (row,)))
            )
        return rows

    def __call__(self, row: Row, outers: OuterStack) -> Optional[bool]:
        values = tuple(expr(row, outers) for expr in self.exprs)
        result = _in_fold(values, self._sub_rows(row, outers))
        return not3(result) if self.negated else result

    def refs(self) -> Optional[Refs]:
        return merge_refs(
            _sub_refs(self.subplan.free_refs()),
            *(expr_refs(expr) for expr in self.exprs),
        )


def build_probe_index(rows, key_width: int, width: int) -> tuple:
    """The build side of a :class:`SemiJoinProbe`: ``(index, null_rows)``.

    ``rows`` are the closed subplan's rows, ``width`` columns wide, whose
    first ``key_width`` columns are correlation keys.  One representation
    serves every probe, built from the row tuples themselves (no typed
    copies: by the equality lemma of the module docstring, raw values
    already meet exactly when ``=`` holds):

    * *flat* (``key_width`` is 0 or ``width`` — uncorrelated IN, and EXISTS
      keyed on every column): ``index`` is the set of distinct NULL-free
      rows — of raw values when ``width`` is 1 — and ``null_rows`` the
      distinct rows holding a NULL (for one column: a has-NULL flag);
    * *grouped* (correlated IN): ``index`` maps each NULL-free key — raw
      when ``key_width`` is 1 — to the distinct value rows of its group; a
      NULL key equals nothing, so its rows are dropped.
    """
    if 0 < key_width < width:
        groups: dict = {}
        for row in rows:
            key = row[:key_width]
            if None in key:
                continue
            if key_width == 1:
                key = key[0]
            groups.setdefault(key, {})[row[key_width:]] = None
        return {key: tuple(group) for key, group in groups.items()}, ()
    if width == 1:
        values = {row[0] for row in rows}
        if None in values:
            values.discard(None)
            return values, ((None,),)
        return values, ()
    distinct = set(rows)
    null_rows = tuple(row for row in distinct if None in row)
    distinct.difference_update(null_rows)
    return distinct, null_rows


class SemiJoinProbe:
    """A subquery predicate answered set-at-a-time from a *closed* build
    side: one hash lookup per probing row instead of one subquery run.

    The subplan is materialized once into :func:`build_probe_index`.  The
    first ``key_width`` probe expressions are *correlation keys*: they
    stand for the ``inner = outer`` conjuncts of a decorrelated subquery's
    WHERE, which keeps a row only when the equality is true, so a NULL on
    either side matches nothing (two-valued).  The remaining expressions
    are the left-hand side of ``t̄ [NOT] IN``, matched under 3VL:

    * ``key_width == 0`` — uncorrelated ``t̄ [NOT] IN Q``: true on a hit;
      otherwise unknown if a NULL-holding row of Q agrees on its non-NULL
      positions (or ``t̄`` holds a NULL and the fold over Q says so), else
      false;
    * ``key_width == len(exprs)`` — ``EXISTS (π(σ_{k̄ = ō ∧ rest}(F)))``:
      true iff the outer key is NULL-free and present, false otherwise,
      never unknown (``NOT EXISTS`` keeps NULL-key rows);
    * in between — correlated ``t̄ [NOT] IN (π(σ_{k̄ = ō ∧ rest}(F)))``: the
      unchanged 3VL fold over the key's group only; no group, no rows, so
      IN is false and NOT IN true.
    """

    __slots__ = ("exprs", "subplan", "negated", "key_width", "_build", "_source")

    def __init__(
        self,
        exprs: Sequence[RowExpr],
        subplan: PlanNode,
        negated: bool,
        key_width: int = 0,
    ):
        self.exprs = tuple(exprs)
        self.subplan = subplan
        self.negated = negated
        self.key_width = key_width
        #: ``build_probe_index`` of the subplan's rows: the one object the
        #: build-side cache harvests and restores.
        self._build: Optional[tuple] = None
        #: ``(source, signature)`` for :func:`_resident`: the scan when the
        #: subplan projects current-row columns of a base-table scan
        #: (uncorrelated IN, and EXISTS/IN decorrelated with no remainder),
        #: else the subplan itself, memoized only if it is a bare scan.
        indices = (
            column_indices(subplan.expressions)
            if isinstance(subplan, ProjectOp)
            else None
        )
        self._source = (
            subplan.child if indices else subplan,
            ("probe", key_width, len(self.exprs), indices),
        )

    @property
    def group_width(self) -> int:
        """Key columns the build side is partitioned by (0: flat)."""
        return self.key_width if self.key_width < len(self.exprs) else 0

    def lookup(self, values: Row, build: tuple) -> Optional[bool]:
        """The un-negated 3VL answer for one row of probe values."""
        index, null_rows = build
        keys = self.key_width
        width = len(values)
        if 0 < keys < width:
            group = index.get(values[0] if keys == 1 else values[:keys])
            return False if group is None else _in_fold(values[keys:], group)
        if (values[0] if width == 1 else values) in index:
            return True
        if keys:
            return False
        if None not in values:
            # Only a NULL-holding row can still make the answer unknown.
            return _in_fold(values, null_rows)
        if width == 1:
            return None if index or null_rows else False
        return _in_fold(values, _chain(index, null_rows))

    def materialize(self, rows: Callable[[], Iterable[Row]]) -> tuple:
        """Index the subplan's rows — ``rows()``, the interpreted or the
        lowered iteration of them — as this probe's build side."""
        source, signature = self._source
        build = self._build = _resident(
            source,
            signature,
            lambda: build_probe_index(rows(), self.key_width, len(self.exprs)),
        )
        return build

    def __call__(self, row: Row, outers: OuterStack) -> Optional[bool]:
        build = self._build
        if build is None:
            build = self.materialize(lambda: self.subplan.iter_rows(()))
        result = self.lookup(tuple(expr(row, outers) for expr in self.exprs), build)
        return not3(result) if self.negated else result

    def refs(self) -> Optional[Refs]:
        return merge_refs(*(expr_refs(expr) for expr in self.exprs))
