"""Plan walks, and the cache that shares build sides across executions.

:func:`iter_plan_nodes` / :func:`iter_predicates` walk the full operator
tree, *including* the subplans nested inside WHERE-clause predicates; the
lowering, the engine's plan-size estimate and the tests read plans through
them.  Nothing here writes to a plan: an execution keeps its state in its
own run record (:class:`repro.engine.compile.Run`).

Build-side sharing
------------------

The trial campaigns run the same handful of queries over thousands of
generated databases, and generated table contents repeat (small domains,
small row caps) — yet every execution used to rebuild hash-join build
tables, semi-join probe sets and subquery materializations from scratch.
:class:`BuildSideCache` shares them *across executions and across queries,
keyed by content*: each shareable structure is a pure function of (a) the
normalized text of the subplan that computes it (:func:`share_signature` —
a canonical rendering of the subtree's operators, compiled column
positions and literals, plus the carrier configuration the structure
depends on), and (b) the rows of the base tables its subtree reads (plus,
for per-binding memo dicts, the outer values in the memo key, which the
dicts already encode).  Two *different* prepared statements whose plans
embed the same subquery over the same table contents therefore reuse one
build side — the cross-query sharing the always-on query service leans on;
``cross_hits`` counts lookups served from a structure another plan built.
A build site looks its key up the first time a run with a cache needs the
build (signing itself on the first such run), and a miss stores the build
as soon as it is computed (:func:`repro.engine.compile._build_site`).  Entries
never hold the :class:`~repro.core.schema.Database` object, and the cache
is a bounded LRU (entry count and, optionally, an estimated-byte budget),
so runs over fresh content simply miss and age the old entries out.
"""

from __future__ import annotations

import itertools
import sys
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from .expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
)
from .operators import (
    CachedSubplan,
    CrossJoin,
    DistinctOp,
    ExistsPred,
    ExistsProbe,
    FilterOp,
    GenericJoin,
    HashJoin,
    HashSetOp,
    InPred,
    MemoSubplan,
    PlanNode,
    ProjectOp,
    RemapOp,
    SemiJoinProbe,
    SetOpNode,
    TableScan,
)

__all__ = [
    "iter_plan_nodes",
    "iter_predicates",
    "share_signature",
    "estimate_bytes",
    "BuildSideCache",
]


def iter_predicates(pred) -> Iterator[object]:
    """Every predicate node reachable from ``pred`` (including itself)."""
    yield pred
    if isinstance(pred, (AndPred, OrPred)):
        yield from iter_predicates(pred.left)
        yield from iter_predicates(pred.right)
    elif isinstance(pred, NotPred):
        yield from iter_predicates(pred.operand)


def iter_plan_nodes(plan: PlanNode) -> Iterator[Tuple[PlanNode, object]]:
    """Walk a plan tree, yielding ``(node, None)`` for operators and
    ``(None, predicate)`` for the predicate nodes inside filters — and
    recursing into the subplans of EXISTS/IN predicates."""
    yield plan, None
    if isinstance(plan, (CrossJoin, GenericJoin)):
        for child in plan.children:
            yield from iter_plan_nodes(child)
    elif isinstance(plan, (FilterOp,)):
        yield from iter_plan_nodes(plan.child)
        for pred in iter_predicates(plan.predicate):
            yield None, pred
            subplan = getattr(pred, "subplan", None)
            if subplan is not None:
                yield from iter_plan_nodes(subplan)
    elif isinstance(
        plan, (ProjectOp, DistinctOp, CachedSubplan, MemoSubplan, RemapOp)
    ):
        yield from iter_plan_nodes(plan.child)
    elif isinstance(plan, (SetOpNode, HashSetOp, HashJoin)):
        yield from iter_plan_nodes(plan.left)
        yield from iter_plan_nodes(plan.right)
    # TableScan / StaticScan are leaves.


# -- the build-side cache -----------------------------------------------------

#: Process-unique serials, used two ways: as the *fallback* signature for
#: structures the renderer cannot prove pure (an opaque predicate, an
#: unknown operator — a fresh serial can never alias anything), and as each
#: lowered plan's owner id, so cross-query hits are countable.
_share_serial = itertools.count(1)


#: Maximum nesting ``estimate_bytes`` descends before treating a value as a
#: leaf; build-side structures are at most tries of rows, so real values
#: never hit it.
_ESTIMATE_DEPTH = 8


def estimate_bytes(value, _depth: int = 0) -> int:
    """Rough recursive ``sys.getsizeof`` over a build-side structure.

    An *estimate*: shared substructure is double-counted and interned
    objects are charged per reference, which is the safe direction for a
    byte budget.  Containers are walked to a bounded depth; rows are flat
    tuples of ints/strings/None, so the bound is never reached in practice.
    """
    size = sys.getsizeof(value, 64)
    if _depth >= _ESTIMATE_DEPTH:
        return size
    if isinstance(value, dict):
        for key, item in value.items():
            size += estimate_bytes(key, _depth + 1)
            size += estimate_bytes(item, _depth + 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            size += estimate_bytes(item, _depth + 1)
    return size


class _Fingerprint(tuple):
    """A table-content fingerprint whose hash is computed once.

    Content keys embed the rows of every table a carrier reads, so each
    cache probe hashes them; plain tuples re-hash every probe.  The
    fingerprint is memoized on the immutable Table, so caching the hash
    here turns the per-lookup cost into one dict hit per table.  Equality
    is inherited — keys still compare the actual rows.
    """

    _hash: Optional[int] = None

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = tuple.__hash__(self)
        return value


#: What a cache entry holds, for the per-kind ``entries``/``bytes``
#: breakdown of :meth:`BuildSideCache.info`: hash-join build tables,
#: generic-join tries of children other than a bare scan (those live on
#: the table), semi-join probe indexes, and subquery materializations and
#: per-binding memos.
CARRIER_KINDS = ("hash_join", "tries", "probes", "memos")


def _carrier_kind(carrier) -> str:
    if isinstance(carrier, HashJoin):
        return "hash_join"
    if isinstance(carrier, GenericJoin):
        return "tries"
    if isinstance(carrier, SemiJoinProbe):
        return "probes"
    return "memos"


def _length(value) -> int:
    """The top-level length an entry is re-sized on a change of."""
    return len(value) if isinstance(value, (dict, list, tuple)) else -1


class BuildSideCache:
    """Content-keyed LRU cache of derived execution structures.

    Values are whatever a shareable carrier computes during one execution —
    a hash-join build table, a semi-join probe set, a materialized subquery
    row list, or a per-binding memo dict.  Keys pair the carrier's
    normalized subplan text (:func:`share_signature`) with the contents of
    the base tables its subtree reads, so a hit is exact (dict key equality
    compares the actual rows, not a digest), a run over different content
    is automatically a miss — the invalidation story is the key itself —
    and two different plans embedding the same subquery share one entry
    (``cross_hits`` counts those).

    Eviction is LRU by entry count (``maxsize``) and, when ``max_bytes`` is
    set, by total estimated bytes.  A memo dict is stored when its run
    creates it and keeps gaining keys in place, so an entry is re-sized
    whenever its top-level ``len()`` has changed since it was last sized,
    and under a budget every re-sizing is followed by an eviction check:
    on every store, on a hit whose value has grown since it was sized (a
    memo a run filled), and in :meth:`info`, so the ``bytes`` it reports
    never exceed ``max_bytes``.  Without a budget entries are sized only by
    :meth:`info`, keeping the recursive estimate off the execution path.
    Build tables and tries are immutable once built.
    """

    def __init__(self, maxsize: int = 128, max_bytes: Optional[int] = None):
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        #: key -> [value, owner serial of the storing plan, estimated bytes
        #: (None: not sized yet), top-level len when sized, carrier kind]
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_hits = 0
        self.bytes = 0

    def lookup(self, key: tuple, reader: Optional[int] = None):
        """The cached value, or None on a miss (no build is None)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        owner = entry[1]
        if reader is not None and owner is not None and owner != reader:
            self.cross_hits += 1
        self._entries.move_to_end(key)
        value = entry[0]
        if self.max_bytes is not None and entry[3] != _length(value):
            # A memo grown by earlier runs: charge its growth to the budget
            # before this run grows it further.
            self._size()
        return value

    def store(
        self, key: tuple, value, owner: Optional[int] = None, kind: str = "memos"
    ) -> None:
        old = self._entries.pop(key, None)
        if old is not None and old[2] is not None:
            self.bytes -= old[2]
        self._entries[key] = [value, owner, None, None, kind]
        if self.max_bytes is not None:
            self._size()
        else:
            # Without a budget to evict against, sizing here would only
            # feed a counter: entries stay unsized until info() reads them.
            self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self.maxsize or (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and self._entries
        ):
            nbytes = self._entries.popitem(last=False)[1][2]
            if nbytes is not None:
                self.bytes -= nbytes
            self.evictions += 1

    def _size(self) -> None:
        """Size every entry not sized yet or grown since it was sized, then
        evict down to the bounds."""
        for entry in self._entries.values():
            value = entry[0]
            length = _length(value)
            if entry[2] is None or entry[3] != length:
                nbytes = estimate_bytes(value)
                self.bytes += nbytes - (entry[2] or 0)
                entry[2:4] = nbytes, length
        self._evict()

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> Dict[str, int]:
        self._size()
        kinds = {kind: {"entries": 0, "bytes": 0} for kind in CARRIER_KINDS}
        for entry in self._entries.values():
            kinds[entry[4]]["entries"] += 1
            kinds[entry[4]]["bytes"] += entry[2]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "cross_hits": self.cross_hits,
            "evictions": self.evictions,
            "size": len(self._entries),
            "entries": len(self._entries),
            "bytes": self.bytes,
            "maxsize": self.maxsize,
            "max_bytes": self.max_bytes or 0,
            "kinds": kinds,
        }


# -- normalized subplan text --------------------------------------------------
#
# ``share_signature`` renders the structure a cached value is a pure
# function of into a canonical string: operator kinds, compiled (depth,
# index) column positions, typed literals, predicate shapes — plus the
# carrier configuration that shapes the value (hash-join build keys, the
# level layout of one generic-join child's trie, memo reference
# positions).  Everything *not* in the rendering is deliberately excluded
# because the value does not depend on it: a ``SemiJoinProbe``'s index is
# a function of its subplan and the grouping width only, so statements
# probing the same subquery with different left-hand expressions — or as
# EXISTS and as IN — share it.  Anything the renderer cannot
# prove pure (an opaque callable, an operator it does not know) gets a
# fresh process-unique serial instead — private, never aliased.


def _expr_text(expr) -> tuple:
    if isinstance(expr, ColumnRef):
        return ("col", expr.depth, expr.index)
    if isinstance(expr, LiteralExpr):
        value = expr.value
        return ("lit", type(value).__name__, value)
    return ("opaque", next(_share_serial))


def _pred_text(pred) -> tuple:
    if isinstance(pred, ConstPred):
        return ("const", pred.value)
    if isinstance(pred, ComparePred):
        return ("cmp", pred.op, _expr_text(pred.left), _expr_text(pred.right))
    if isinstance(pred, IsNullPred):
        return ("isnull", pred.negated, _expr_text(pred.expr))
    if isinstance(pred, AndPred):
        return ("and", _pred_text(pred.left), _pred_text(pred.right))
    if isinstance(pred, OrPred):
        return ("or", _pred_text(pred.left), _pred_text(pred.right))
    if isinstance(pred, NotPred):
        return ("not", _pred_text(pred.operand))
    if isinstance(pred, ExistsPred):
        return ("exists", _plan_text(pred.subplan))
    if isinstance(pred, ExistsProbe):
        return ("existsprobe", pred.closed, pred._refs, _plan_text(pred.subplan))
    if isinstance(pred, InPred):
        return (
            "in",
            pred.negated,
            pred._refs,
            tuple(_expr_text(e) for e in pred.exprs),
            _plan_text(pred.subplan),
        )
    if isinstance(pred, SemiJoinProbe):
        return (
            "semijoinprobe",
            pred.negated,
            pred.key_width,
            tuple(_expr_text(e) for e in pred.exprs),
            _plan_text(pred.subplan),
        )
    return ("opaque", next(_share_serial))


def _plan_text(node: PlanNode) -> tuple:
    if isinstance(node, TableScan):
        return ("scan", node.table, node.arity)
    if isinstance(node, CrossJoin):
        return ("cross",) + tuple(_plan_text(c) for c in node.children)
    if isinstance(node, GenericJoin):
        return ("generic", node.variables) + tuple(
            _plan_text(c) for c in node.children
        )
    if isinstance(node, FilterOp):
        return ("filter", _pred_text(node.predicate), _plan_text(node.child))
    if isinstance(node, ProjectOp):
        return (
            "project",
            tuple(_expr_text(e) for e in node.expressions),
            _plan_text(node.child),
        )
    if isinstance(node, DistinctOp):
        return ("distinct", _plan_text(node.child))
    if isinstance(node, CachedSubplan):
        return ("cachedsub", _plan_text(node.child))
    if isinstance(node, MemoSubplan):
        return ("memosub", node.memo_refs, _plan_text(node.child))
    if isinstance(node, RemapOp):
        return ("remap", node.mapping, _plan_text(node.child))
    if isinstance(node, HashJoin):
        return (
            "hashjoin",
            node.left_keys,
            node.right_keys,
            _plan_text(node.left),
            _plan_text(node.right),
        )
    if isinstance(node, (SetOpNode, HashSetOp)):
        return (
            type(node).__name__.lower(),
            node.op,
            node.all,
            _plan_text(node.left),
            _plan_text(node.right),
        )
    # StaticScan (rows captured at plan time, not content-keyed) and any
    # operator a future tier adds: never share.
    return ("opaque", next(_share_serial))


def share_signature(carrier, subtree: PlanNode) -> str:
    """The normalized text a carrier's cached value is keyed by.

    Includes exactly the structure the value depends on: the feeding
    subtree's rendering plus the carrier configuration that shapes the
    structure (build keys, a child's trie levels, memo reference
    positions) —
    and *excludes* probe-side details the value does not depend on, so
    different statements sharing a subquery share the entry.
    """
    if isinstance(carrier, CachedSubplan):
        signature = ("cached", _plan_text(carrier.child))
    elif isinstance(carrier, MemoSubplan):
        signature = ("memo", carrier.memo_refs, _plan_text(carrier.child))
    elif isinstance(carrier, HashJoin):
        # The build table hashes the right child on right_keys; the left
        # (probe) side is irrelevant, so different probe sides share.
        signature = ("build", carrier.right_keys, _plan_text(carrier.right))
    elif isinstance(carrier, GenericJoin):
        # One child's trie: its level layout and its own rows; the
        # siblings and the other variables only matter at enumeration.
        child = next(i for i, c in enumerate(carrier.children) if c is subtree)
        signature = ("trie", carrier._child_cols[child], _plan_text(subtree))
    elif isinstance(carrier, ExistsProbe):
        if carrier.closed:
            signature = ("exists1", _plan_text(carrier.subplan))
        else:
            signature = ("existsmemo", carrier._refs, _plan_text(carrier.subplan))
    elif isinstance(carrier, InPred):
        # The memo holds the subplan's distinct rows per outer binding —
        # negation and the probe expressions only matter at probe time.
        signature = ("inmemo", carrier._refs, _plan_text(carrier.subplan))
    elif isinstance(carrier, SemiJoinProbe):
        # The index is a function of the subplan and of how many leading
        # columns partition it — an EXISTS keyed on every column and a 3VL
        # IN over the same subquery share one entry.
        signature = ("semijoin", carrier.group_width, _plan_text(carrier.subplan))
    else:
        signature = ("node", next(_share_serial))
    return repr(signature)


def _subtree_tables(subtree: PlanNode) -> Tuple[str, ...]:
    """Sorted names of the base tables a carrier's subtree reads."""
    names = set()
    for node, _pred in iter_plan_nodes(subtree):
        if isinstance(node, TableScan):
            names.add(node.table)
    return tuple(sorted(names))
