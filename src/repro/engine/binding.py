"""Late binding, cache hygiene and cross-execution build-side sharing.

A plan compiled without a database (:class:`~repro.engine.planner.Planner`
with ``db=None``) contains :class:`~repro.engine.operators.TableScan` leaves
that name their base table but carry no rows.  Such a plan is a pure
function of ``(query, schema, dialect, optimize)`` and can be cached and
re-executed against any number of databases — provided that, before each
execution,

* every ``TableScan`` is bound to the current database's rows
  (:func:`bind_plan`), and
* every per-execution memo the optimizer introduced is cleared
  (:func:`reset_plan`): :class:`~repro.engine.operators.CachedSubplan` /
  :class:`~repro.engine.operators.MemoSubplan` materializations,
  :class:`~repro.engine.operators.HashJoin` build tables,
  :class:`~repro.engine.operators.ExistsProbe` booleans and per-binding
  memos, :class:`~repro.engine.operators.InPred` binding memos, and
  :class:`~repro.engine.operators.SemiJoinProbe` probe indexes — all of
  which are only valid for the database they were computed against.

:func:`iter_plan_nodes` / :func:`iter_predicates` walk the full operator
tree, *including* the subplans nested inside WHERE-clause predicates, which
is where most of the state lives.

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
depends on), and (b) the bound rows of the base tables its subtree reads
(plus, for per-binding memo dicts, the outer values in the memo key, which
the dicts already encode).  Two *different* prepared statements whose
plans embed the same subquery over the same table contents therefore
reuse one build side — the cross-query sharing the always-on query
service leans on; ``cross_hits`` counts lookups served from a structure
another plan built.  :func:`bind_plan` restores structures whose content
key hits the cache, and :func:`unbind_plan` harvests the structures the
execution computed, so a repeated-content trial pays for its build sides
exactly once.  Entries hold copies made at bind time — never the
:class:`~repro.core.schema.Database` object — and the cache is a bounded
LRU (entry count and, optionally, an estimated-byte budget), so rebinding
to fresh content simply misses and ages the old entries out.
"""

from __future__ import annotations

import itertools
import sys
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.schema import Database
from ..core.values import Null
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
    "bind_plan",
    "reset_plan",
    "unbind_plan",
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

_MISSING = object()

#: Process-unique serials, used two ways: as the *fallback* signature for
#: structures the renderer cannot prove pure (an opaque predicate, an
#: unknown operator — a fresh serial can never alias anything), and to tag
#: each plan with an owner id so cross-query hits are countable.
_share_serial = itertools.count(1)


def _plan_owner(plan) -> int:
    owner = getattr(plan, "_share_owner", None)
    if owner is None:
        owner = next(_share_serial)
        plan._share_owner = owner
    return owner


#: Maximum nesting ``estimate_bytes`` descends before treating a value as a
#: leaf; build-side structures are at most (list of) tries of rows, so real
#: values never hit it.
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

    Content keys embed the bound rows of every table a carrier reads, so
    each cache probe hashes them; plain tuples re-hash every probe.  The
    fingerprint is memoized on the immutable Table, so caching the hash
    here turns the per-bind cost into one dict hit per table.  Equality is
    inherited — keys still compare the actual rows.
    """

    _hash: Optional[int] = None

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = tuple.__hash__(self)
        return value


#: What a cache entry holds, for the per-kind ``entries``/``bytes``
#: breakdown of :meth:`BuildSideCache.info`: hash-join build tables,
#: generic-join tries, semi-join probe indexes, and subquery
#: materializations and per-binding memos.
CARRIER_KINDS = ("hash_join", "tries", "probes", "memos")


def _carrier_kind(carrier) -> str:
    if isinstance(carrier, HashJoin):
        return "hash_join"
    if isinstance(carrier, GenericJoin):
        return "tries"
    if isinstance(carrier, SemiJoinProbe):
        return "probes"
    return "memos"


class BuildSideCache:
    """Content-keyed LRU cache of derived execution structures.

    Values are whatever a shareable carrier computes during one execution —
    a hash-join build table, a semi-join probe set, a materialized subquery
    row list, or a per-binding memo dict.  Keys pair the carrier's
    normalized subplan text (:func:`share_signature`) with the bound
    contents of the base tables its subtree reads, so a hit is exact (dict
    key equality compares the actual rows, not a digest), rebinding to
    different content is automatically a miss — the invalidation story is
    the key itself — and two different plans embedding the same subquery
    share one entry (``cross_hits`` counts those).

    Eviction is LRU by entry count (``maxsize``) and, when ``max_bytes`` is
    set, by total estimated bytes; without a budget entries are stored
    unsized and :meth:`info` sizes them on demand, keeping the recursive
    estimate off the execution path.  Re-storing the *identical* object only
    re-walks the estimate when its top-level ``len()`` changed — the one
    way a harvested structure grows between executions is a memo dict
    gaining keys, and that shows in its length; build tables and tries are
    immutable once built.

    Entries also carry the row count the structure was built with, so a
    plan that restores a cached build side reports the same cardinality
    feedback as the plan that built it.
    """

    def __init__(self, maxsize: int = 128, max_bytes: Optional[int] = None):
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        #: key -> (value, owner serial of the storing plan, estimated
        #: bytes (None: not sized yet), top-level len at store time,
        #: observed row count, carrier kind)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_hits = 0
        self.bytes = 0

    def lookup(self, key: tuple, reader: Optional[int] = None):
        """The cached value, or the module-private miss sentinel."""
        value, _rows = self.lookup_entry(key, reader)
        return value

    def lookup_entry(self, key: tuple, reader: Optional[int] = None):
        """``(value, observed row count)``, or ``(miss sentinel, None)``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return _MISSING, None
        value, owner, _nbytes, _length, rows, _kind = entry
        self.hits += 1
        if reader is not None and owner is not None and owner != reader:
            self.cross_hits += 1
        self._entries.move_to_end(key)
        return value, rows

    def store(
        self,
        key: tuple,
        value,
        owner: Optional[int] = None,
        rows: Optional[int] = None,
        kind: str = "memos",
    ) -> None:
        old = self._entries.pop(key, None)
        if old is not None and old[2] is not None:
            self.bytes -= old[2]
        try:
            length = len(value)
        except TypeError:
            length = -1
        if old is not None and old[0] is value and old[3] == length:
            nbytes = old[2]
            if rows is None:
                rows = old[4]
        elif self.max_bytes is None:
            # No byte budget to evict against: walking every harvested
            # structure on the unbind path would only feed a counter, so
            # the entry stays unsized until info() reads it.
            nbytes = None
        else:
            nbytes = estimate_bytes(value)
        self._entries[key] = (value, owner, nbytes, length, rows, kind)
        if nbytes is not None:
            self.bytes += nbytes
        while len(self._entries) > self.maxsize or (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and self._entries
        ):
            _entry = self._entries.popitem(last=False)[1]
            if _entry[2] is not None:
                self.bytes -= _entry[2]
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> Dict[str, int]:
        # Size what store() deferred (budget-less caches only); the result
        # is memoized on the entry, so ``bytes`` reads as if it had been
        # estimated eagerly and repeated calls walk nothing twice.
        kinds = {kind: {"entries": 0, "bytes": 0} for kind in CARRIER_KINDS}
        for key, entry in list(self._entries.items()):
            nbytes = entry[2]
            if nbytes is None:
                nbytes = estimate_bytes(entry[0])
                self._entries[key] = entry[:2] + (nbytes,) + entry[3:]
                self.bytes += nbytes
            kinds[entry[5]]["entries"] += 1
            kinds[entry[5]]["bytes"] += nbytes
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
# carrier configuration that shapes the value (hash-join build keys,
# generic-join variables, memo reference positions).  Everything *not* in
# the rendering is deliberately excluded because the value does not depend
# on it: a ``SemiJoinProbe``'s index is a function of its subplan and the
# grouping width only, so statements probing the same subquery with
# different left-hand expressions — or as EXISTS and as IN — share it.  Anything the renderer cannot
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
    structure (build keys, join variables, memo reference positions) —
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
        signature = ("tries", carrier.variables) + tuple(
            _plan_text(c) for c in carrier.children
        )
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


def _shareable_carriers(nodes) -> List[Tuple[object, PlanNode]]:
    """(carrier, feeding subtree) pairs for every structure worth sharing.

    A structure is shareable when it is a pure function of its subtree's
    bound table contents: closed materializations (``CachedSubplan``, a
    closed ``HashJoin`` build side, ``SemiJoinProbe`` sets, a closed
    ``ExistsProbe`` boolean) trivially are, and per-binding memo dicts
    (``MemoSubplan``, correlated ``ExistsProbe`` / ``InPred``) are pure
    once the binding — already part of each dict key — is accounted for.
    """
    carriers: List[Tuple[object, PlanNode]] = []
    for node, pred in nodes:
        if isinstance(node, (CachedSubplan, MemoSubplan)):
            carriers.append((node, node.child))
        elif isinstance(node, HashJoin):
            if node.right.free_refs() == frozenset():
                carriers.append((node, node.right))
        elif isinstance(node, GenericJoin):
            if node.free_refs() == frozenset():
                # The tries are a pure function of every child's rows, so
                # the feeding subtree is the whole node.
                carriers.append((node, node))
        elif isinstance(pred, ExistsProbe):
            if pred.closed or pred._refs is not None:
                carriers.append((pred, pred.subplan))
        elif isinstance(pred, InPred):
            if pred._refs is not None:
                carriers.append((pred, pred.subplan))
        elif isinstance(pred, SemiJoinProbe):
            carriers.append((pred, pred.subplan))
    return carriers


def _subtree_tables(subtree: PlanNode) -> Tuple[str, ...]:
    """Sorted names of the base tables a carrier's subtree reads."""
    names = set()
    for node, _pred in iter_plan_nodes(subtree):
        if isinstance(node, TableScan):
            names.add(node.table)
    return tuple(sorted(names))


def _share_plan(
    plan: PlanNode, nodes
) -> List[Tuple[object, str, Tuple[str, ...], str]]:
    """The plan's shareable carriers with their signatures, table names and
    kinds.

    Purely structural, so it is computed once per plan object and cached on
    it — the per-bind work is then only fingerprinting the bound rows of
    the tables the carriers actually read.
    """
    cached = getattr(plan, "_share_analysis", None)
    if cached is None:
        cached = [
            (
                carrier,
                share_signature(carrier, subtree),
                _subtree_tables(subtree),
                _carrier_kind(carrier),
            )
            for carrier, subtree in _shareable_carriers(nodes)
        ]
        plan._share_analysis = cached
    return cached


def _restore(carrier, value, rows: Optional[int] = None) -> None:
    if isinstance(carrier, CachedSubplan):
        carrier._cache = value
    elif isinstance(carrier, MemoSubplan):
        carrier._memo = value
    elif isinstance(carrier, HashJoin):
        carrier._table = value
        carrier._build_rows = rows
    elif isinstance(carrier, GenericJoin):
        carrier._tries = value
        carrier._build_rows = rows
    elif isinstance(carrier, ExistsProbe):
        if carrier.closed:
            carrier._known = value
        else:
            carrier._memo = value
    elif isinstance(carrier, InPred):
        carrier._memo = value
    elif isinstance(carrier, SemiJoinProbe):
        carrier._build = value


def _harvest(carrier):
    """The carrier's computed structure, or the miss sentinel if unbuilt."""
    if isinstance(carrier, CachedSubplan):
        return carrier._cache if carrier._cache is not None else _MISSING
    if isinstance(carrier, MemoSubplan):
        return carrier._memo if carrier._memo else _MISSING
    if isinstance(carrier, HashJoin):
        return carrier._table if carrier._table is not None else _MISSING
    if isinstance(carrier, GenericJoin):
        return carrier._tries if carrier._tries is not None else _MISSING
    if isinstance(carrier, ExistsProbe):
        if carrier.closed:
            return carrier._known if carrier._known is not None else _MISSING
        return carrier._memo if carrier._memo else _MISSING
    if isinstance(carrier, InPred):
        return carrier._memo if carrier._memo else _MISSING
    if isinstance(carrier, SemiJoinProbe):
        return carrier._build if carrier._build is not None else _MISSING
    return _MISSING


def bind_plan(
    plan: PlanNode,
    db: Database,
    cache: Optional[BuildSideCache] = None,
) -> PlanNode:
    """Bind every :class:`TableScan` to ``db`` and reset execution caches.

    Returns the same plan object (mutated in place): binding is cheap — one
    tree walk — compared to re-planning and re-optimizing the query, which
    is the point of the plan cache.  The Null -> None row conversion, the
    column vectors the scan kernels read and the closed builds over a bare
    scan are pure functions of the immutable
    :class:`~repro.core.table.Table`, so all three are memoized *on the
    table*: rebinding the same database — or another plan, or another
    engine, reading the same table — pays for each exactly once, and the
    memos die with the database rather than pinning it to a cached plan.
    Each scan receives ``(rows, vectors, table)``: the vectors are a
    per-column memo (one slot per column, None until something reads that
    column) whoever reads a column first pivots
    (:func:`repro.engine.compile._scan_vectors`), and the table is where
    a hash partition or probe set over the scan is built at most once per
    signature (:func:`repro.engine.operators._resident`).

    With a ``cache``, shareable structures whose content key hits are
    restored instead of recomputed, and the (carrier, key) pairs are
    remembered on the plan so :func:`unbind_plan` can harvest what the
    execution builds.  Sharing engages from a plan's *second* bind — or
    immediately, when the cache already holds entries another plan may
    have left for it (the cross-query case).  A lone plan executed once
    can neither hit nor be hit, so the trial campaigns — one fresh plan
    per generated query, empty cache — pay none of the bookkeeping.
    """
    nodes = []
    bound: Dict[str, tuple] = {}
    for node, pred in iter_plan_nodes(plan):
        if isinstance(node, TableScan):
            memos = bound.get(node.table)
            if memos is None:
                table = db.table(node.table)
                rows = table._scan_rows
                if rows is None:
                    rows = table._scan_rows = [
                        tuple(None if isinstance(v, Null) else v for v in record)
                        for record in table.bag
                    ]
                vectors = table._scan_cols
                if vectors is None:
                    vectors = table._scan_cols = [None] * node.arity
                memos = bound[node.table] = (rows, vectors, table)
            node.data = memos[0]
            node._columns = memos
        _reset_state(node, pred)
        nodes.append((node, pred))
    binds = getattr(plan, "_bind_count", 0) + 1
    plan._bind_count = binds
    if cache is not None and (binds >= 2 or len(cache) > 0):
        owner = _plan_owner(plan)
        fingerprints: Dict[str, tuple] = {}
        bindings = []
        for carrier, signature, tables, kind in _share_plan(plan, nodes):
            contents = []
            for name in tables:
                fingerprint = fingerprints.get(name)
                if fingerprint is None:
                    # Pure function of the immutable Table, so it is
                    # memoized there alongside the scan rows themselves —
                    # rebinding the same database reuses one tuple (and
                    # its cached hash) instead of re-copying per bind.
                    table = db.table(name)
                    fingerprint = table._scan_fp
                    if fingerprint is None:
                        fingerprint = table._scan_fp = _Fingerprint(bound[name][0])
                    fingerprints[name] = fingerprint
                contents.append((name, fingerprint))
            key = (signature, tuple(contents))
            bindings.append((carrier, key, kind))
            value, rows = cache.lookup_entry(key, reader=owner)
            if value is not _MISSING:
                _restore(carrier, value, rows)
        plan._shared_bindings = bindings
    else:
        plan._shared_bindings = []
    return plan


def reset_plan(plan: PlanNode) -> PlanNode:
    """Clear the per-execution memos of a plan without rebinding tables."""
    for node, pred in iter_plan_nodes(plan):
        _reset_state(node, pred)
    return plan


def unbind_plan(
    plan: PlanNode, cache: Optional[BuildSideCache] = None
) -> PlanNode:
    """Drop table data and memos so a cached plan holds no database rows.

    A plan sitting in the :class:`~repro.engine.Engine` cache would
    otherwise pin the last-executed database (scan rows, probe sets,
    subquery materializations) until its next execution overwrites them.
    With a ``cache``, the structures this execution built are harvested
    into it first, under the content keys recorded by :func:`bind_plan`.
    """
    observed_tables: Dict[str, int] = {}
    observed_nodes: Dict[str, int] = {}
    # Carrier id -> rows its build side holds, recorded alongside the cache
    # entry so an execution that restores the structure replays the count.
    carrier_rows: Dict[int, int] = {}
    walk = list(iter_plan_nodes(plan))
    for position, (node, pred) in enumerate(walk):
        if isinstance(node, TableScan):
            if node.data is not None:
                count = len(node.data)
                observed_tables[node.table] = count
                node.observed_rows = count
            node.data = None
            node._columns = None  # the column-vector memo references the rows
        elif isinstance(node, CachedSubplan) and node._cache is not None:
            observed_nodes[f"{position}:CachedSubplan"] = len(node._cache)
        elif isinstance(node, (HashJoin, GenericJoin)) and node._build_rows is not None:
            # Counted by whoever built the structure (or recorded with the
            # cache entry it was restored from): nothing is re-walked here.
            observed_nodes[f"{position}:{type(node).__name__}"] = node._build_rows
            carrier_rows[id(node)] = node._build_rows
    if cache is not None:
        owner = _plan_owner(plan)
        for carrier, key, kind in getattr(plan, "_shared_bindings", ()):
            value = _harvest(carrier)
            if value is not _MISSING:
                cache.store(
                    key,
                    value,
                    owner=owner,
                    rows=carrier_rows.get(id(carrier)),
                    kind=kind,
                )
    plan._shared_bindings = []
    for node, pred in walk:
        _reset_state(node, pred)
    # Cardinality feedback: what this execution actually saw, keyed by
    # base table (scans) and by walk position (intermediate structures).
    # Stored under a private name so a bare-TableScan root keeps its
    # Optional[int] ``observed_rows`` field intact for the optimizer.
    plan._observed_feedback = {"tables": observed_tables, "nodes": observed_nodes}
    return plan


def _reset_state(node, pred) -> None:
    # Memo dicts are *re-bound*, never cleared in place: the harvested dict
    # may live on in the build-side cache, where clearing would wipe it.
    if isinstance(node, CachedSubplan):
        node._cache = None
    elif isinstance(node, MemoSubplan):
        node._memo = {}
    elif isinstance(node, HashJoin):
        node._table = None
        node._build_rows = None
    elif isinstance(node, GenericJoin):
        node._tries = None
        node._build_rows = None
    if isinstance(pred, ExistsProbe):
        pred._known = None
        pred._memo = {}
    elif isinstance(pred, InPred):
        pred._memo = {}
    elif isinstance(pred, SemiJoinProbe):
        pred._build = None
    elif isinstance(pred, ExistsPred):
        pass  # stateless: re-executes its subplan every probe
