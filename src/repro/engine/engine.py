"""The engine facade: compile + optimize + execute, with boundary conversions.

:class:`Engine` plays the role of the real RDBMS in the Section 4
experiment: it takes the same annotated query and database as the formal
semantics and produces a :class:`~repro.core.table.Table`, converting its
internal ``None`` nulls back to :data:`~repro.core.values.NULL` only at the
output boundary.  (:meth:`Engine.execute_rows` is the same execution for a
consumer that serializes instead of comparing: no bag, ``None`` stays.)

By default the compiled plan is rewritten by the optimizer
(:mod:`repro.engine.optimizer`): selection pushdown, hash equi-joins, and
cached probes for uncorrelated subqueries.  ``optimize=False`` retains the
paper's naive product-then-filter evaluation — the escape hatch used by the
ablation benchmarks to quantify the speedup, with the validation campaigns
guaranteeing both paths agree with the formal semantics.

Every plan, naive or optimized, runs as nested Python closures
(:func:`repro.engine.compile.compile_plan`, the one executor): operators
capture their children's lowered iterators directly, and every predicate is
a closure composed once at lowering, so per-node dispatch disappears from
the hot path.  The only generated code is the *scan kernel*: a filter over a
base-table scan as one generated comprehension over the table's column
vectors, replayed row-wise through the closures on a type clash
(:mod:`repro.engine.compile`, "scan kernels").  Whether a plan gets scan
kernels is decided per optimized plan from what the engine can observe: the
plan will be reused (plan-cache admission — generate once, execute many), or
its single execution reads at least ``SINGLE_USE_COMPILE_ROWS`` rows under
its scans (known exactly before planning: every execution first records the
sizes of its database's tables).  So ``plan_cache_size=0`` callers get the
right lowering at both ends — the paper campaign's fresh query per trial
over 6-row tables filters through closures alone, while the live-DBMS
campaign over a 10^4-row database runs its filters as kernels, and so do
the service's ad-hoc ``POST /query`` requests over a tenant of that size.
Outcomes are bit-identical either way: the closures are the row-wise
reference the digest gates of ``scripts/bench.py`` hold the kernels to.  No
knob selects it, and ``cache_info()["scan_kernels"]`` counts the kernels'
scans, rows and fallbacks.

Plan cache
----------

Compilation and optimization depend only on ``(query AST, schema, dialect,
optimize)``, never on the database instance, so the engine memoizes
optimized plans per query (dialect and optimize-flag are fixed per engine
instance, completing the key).  A lowered plan is a function of the
database and the outer rows: its base tables are
:class:`~repro.engine.operators.TableScan` leaves that name a table, and
each execution is one run (:meth:`~repro.engine.planner.CompiledQuery.run`)
that resolves them in the database it is given and keeps every
per-execution memo in state slots of its own.  A cached plan therefore
holds no rows and needs no reset between executions.
Prepared-statement-style reuse is what the trial campaigns and the
equivalence checker exercise: the same query evaluated across many trial
databases plans once.  ``cache_info()`` exposes hit/miss/eviction counters
for the benchmarks; ``plan_cache_size=0`` disables caching entirely.

Build-side cache
----------------

On top of plan reuse, the engine shares *derived execution structures* —
hash-join build tables, semi-join probe sets, cached/memoized subquery
materializations — across executions through a content-keyed
:class:`~repro.engine.binding.BuildSideCache`: trial campaigns re-draw
table contents from small domains, so identical table contents recur and
the structures they determine need not be rebuilt.  Keys compare the
tables' rows themselves (exact, no digests), cache entries never reference
the :class:`~repro.core.schema.Database`, and ``build_cache_size=0``
disables sharing.  A run looks a build up the first time it needs it,
storing it on a miss as soon as it is computed.  A build over a bare
base-table scan is memoized on the scanned table instead, for every
engine.  The cache only engages together with the plan cache: single-use
plans (one fresh query per campaign trial) run without it, so their
builds are never signed and pay none of the bookkeeping.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from itertools import chain
from typing import Dict, Optional

from ..core.bag import Bag, record_arity
from ..core.schema import Database, Schema
from ..core.table import Table
from ..core.values import NULL
from ..sql.ast import Query
from .binding import BuildSideCache, estimate_bytes, iter_plan_nodes
from .compile import ScanKernelStats, compile_plan
from .operators import TableScan
from .optimizer import DEFAULT_TABLE_ROWS, optimize_plan
from .planner import CompiledQuery, DIALECT_ORACLE, DIALECT_POSTGRES, Planner

__all__ = ["Engine", "DIALECT_POSTGRES", "DIALECT_ORACLE"]

#: Default number of distinct query plans kept per engine (LRU-evicted).
DEFAULT_PLAN_CACHE_SIZE = 256

#: Default number of shared build-side structures kept per engine.
DEFAULT_BUILD_CACHE_SIZE = 128

#: How far the current observed cardinality of a table must drift from the
#: estimate a cached plan was optimized with before the plan is re-optimized
#: on a cache hit (ratio either way).  Damping: re-planning costs a full compile,
#: so hair-trigger re-optimization on small fluctuations would thrash.
REOPT_DRIFT_FACTOR = 2.0

#: Rows under a plan's ``TableScan`` leaves (summed per scan, subquery
#: plans included; exact, recorded before planning) from which a *single-use*
#: plan — one the plan cache will not retain — still gets scan kernels.
#: Generating a kernel is a fixed cost per query, testing rows through the
#: predicate closures a cost per row.  Measured on fresh query streams from
#: both generators, kernels against closures (docs/BENCHMARKS.md,
#: "Single-use lowering break-even"): from 1,024 bound rows the median
#: FK-walk query is faster with kernels (1.04-1.09x), below it slower (the
#: median paper-generator query stays below 1x up to the 767 rows measured);
#: the paper campaign (<= 36 bound rows) never gets them.  Deliberately a
#: constant, not a knob.
SINGLE_USE_COMPILE_ROWS = 1024


def _estimate_plan_bytes(compiled: CompiledQuery) -> int:
    """Rough footprint of a cached plan: per-node/per-predicate object
    sizes over the full walk (subquery plans included) plus the label row.
    Plans hold no table rows, so object headers and small per-node tuples
    dominate, and a node-count-proportional estimate is the honest measure
    a byte budget can evict against."""
    size = sys.getsizeof(compiled) + estimate_bytes(compiled.labels)
    for node, pred in iter_plan_nodes(compiled.plan):
        size += sys.getsizeof(node if node is not None else pred, 64)
    return size


def _as_table(labels, rows) -> Table:
    # NULL restoration at the output boundary: one C-speed pass looks for
    # None, and only a result that holds one rebuilds its NULL rows; every
    # other row tuple becomes a bag record as it is, in the one list the bag
    # then keeps.
    rows = list(rows)
    if None in chain.from_iterable(rows):
        rows = [
            row if None not in row else tuple(NULL if v is None else v for v in row)
            for row in rows
        ]
    return Table(labels, Bag._adopt(rows))


def _as_rows(labels, rows):
    # Bag's record-shape check (and Table's arity-vs-labels check), once
    # over the whole result.
    rows = list(rows)
    record_arity(rows, len(labels))
    return labels, rows


class Engine:
    """An independent executor for basic SQL, in two dialect flavours."""

    def __init__(
        self,
        schema: Schema,
        dialect: str = DIALECT_POSTGRES,
        optimize: bool = True,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        build_cache_size: int = DEFAULT_BUILD_CACHE_SIZE,
        plan_cache_bytes: Optional[int] = None,
        build_cache_bytes: Optional[int] = None,
        optimizer_options: Optional[Dict[str, bool]] = None,
    ):
        self.schema = schema
        self.dialect = dialect
        self.optimize = optimize
        self.plan_cache_size = plan_cache_size
        #: Optional estimated-byte budget for cached plans; None = unbounded.
        self.plan_cache_bytes = plan_cache_bytes
        self._plan_cache: "OrderedDict[Query, CompiledQuery]" = OrderedDict()
        self._plan_sizes: Dict[Query, int] = {}
        self._plan_bytes = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._reoptimizations = 0
        #: What the scan kernels of this engine's lowered plans did.
        self._scan_kernels = ScanKernelStats()
        self._build_cache = (
            BuildSideCache(build_cache_size, max_bytes=build_cache_bytes)
            if build_cache_size > 0
            else None
        )
        #: Row count per base table of the database last executed over —
        #: the cardinality feedback that replaces ``DEFAULT_TABLE_ROWS``
        #: when later queries are planned.
        self._observed_tables: Dict[str, int] = {}
        #: Ablation knobs forwarded to :func:`optimize_plan` (benchmarks
        #: compare e.g. ``{"reorder_joins": False}`` against the default).
        self.optimizer_options = dict(optimizer_options or {})

    def execute(self, query: Query, db: Database) -> Table:
        """Compile (or reuse a cached plan for) ``query`` and run it on ``db``.

        Compile-time errors (unknown tables, arity mismatches, ambiguous
        references) are raised before any row is produced, matching the
        behaviour of the real systems the engine stands in for.
        """
        return self._run(query, db, _as_table)

    def execute_rows(self, query: Query, db: Database):
        """:meth:`execute` for a consumer that wants rows, not a bag:
        ``(labels, rows)``, ``rows`` a list of tuples in emission order with
        NULL left as ``None`` — the wire representation (JSON's null) and
        the executor's own.  Same plan, run and errors; restoring
        NULL and bagging the rows gives ``execute(query, db).bag``."""
        return self._run(query, db, _as_rows)

    def _run(self, query: Query, db: Database, finish):
        """Plan and run; ``finish(labels, rows)`` consumes the rows and
        builds the result."""
        # Cardinality feedback: the incoming database's true table sizes
        # are known *before* planning, so a fresh plan (or the staleness
        # check on a cached one) never has to assume DEFAULT_TABLE_ROWS for
        # a table this execution reads — single-use campaign plans
        # included.
        for name in db.schema.table_names:
            self._observed_tables[name] = len(db.table(name))
        compiled = self._plan(query)
        return finish(compiled.labels, compiled.run(db))

    # -- plan cache ---------------------------------------------------------

    def _plan(self, query: Query) -> CompiledQuery:
        if self.plan_cache_size <= 0:
            return self._compile(query)  # single-use: nothing to look up
        cached = self._plan_cache.get(query)
        if cached is not None:
            self._cache_hits += 1
            self._plan_cache.move_to_end(query)
            if not self._stale(cached):
                return cached
            # The feedback loop closes here: the observed cardinalities
            # contradict the estimates this plan's join order was chosen
            # with, so re-plan with the current numbers and replace the
            # stale entry (results stay bit-identical — only the physical
            # order changes; the RemapOp contract preserves the layout).
            self._reoptimizations += 1
            compiled = self._compile(query)
            self._admit(query, compiled)
            return compiled
        self._cache_misses += 1
        compiled = self._compile(query)
        self._admit(query, compiled)
        return compiled

    def _admit(self, query: Query, compiled: CompiledQuery) -> None:
        """Admit a plan, then evict LRU entries until both the entry-count
        cap and the (optional) estimated-byte budget hold again.  A plan
        evicted right after admission is still returned to the caller —
        over-budget plans simply are not retained."""
        old = self._plan_cache.pop(query, None)
        if old is not None:
            self._plan_bytes -= self._plan_sizes.pop(query, 0)
        self._plan_cache[query] = compiled
        nbytes = _estimate_plan_bytes(compiled)
        self._plan_sizes[query] = nbytes
        self._plan_bytes += nbytes
        while len(self._plan_cache) > self.plan_cache_size or (
            self.plan_cache_bytes is not None
            and self._plan_bytes > self.plan_cache_bytes
            and self._plan_cache
        ):
            evicted, _ = self._plan_cache.popitem(last=False)
            self._plan_bytes -= self._plan_sizes.pop(evicted, 0)
            self._cache_evictions += 1

    def _stale(self, compiled: CompiledQuery) -> bool:
        """Whether observed cardinalities have drifted far enough from the
        estimates the plan's join order was chosen with that re-optimizing
        could pick a different order.  Plans whose shape never depended on
        estimates (``cost_sensitive`` unset) can never go stale."""
        if not compiled.cost_sensitive:
            return False
        for table, assumed in compiled.planned_rows.items():
            assumed = max(float(assumed), 1.0)
            current = max(
                float(self._observed_tables.get(table, DEFAULT_TABLE_ROWS)), 1.0
            )
            if (
                current > assumed * REOPT_DRIFT_FACTOR
                or assumed > current * REOPT_DRIFT_FACTOR
            ):
                return True
        return False

    def _compile(self, query: Query) -> CompiledQuery:
        planner = Planner(self.schema, None, self.dialect)
        compiled = planner.compile(query)
        plan = compiled.plan
        bound_rows = 0
        planned_rows: Dict[str, float] = {}
        cost_sensitive = False
        if self.optimize:
            # Cardinality feedback: seed the scans with the row counts the
            # engine has observed (exact for the upcoming database, recorded
            # by _run), so the cost-based join ordering stops assuming
            # DEFAULT_TABLE_ROWS; the snapshot of what was assumed feeds the
            # staleness check on later cache hits.
            for node, _pred in iter_plan_nodes(plan):
                if isinstance(node, TableScan):
                    node.observed_rows = self._observed_tables.get(node.table)
                    planned_rows[node.table] = (
                        float(node.observed_rows)
                        if node.observed_rows is not None
                        else DEFAULT_TABLE_ROWS
                    )
                    bound_rows += node.observed_rows or 0
            plan, cost_sensitive = optimize_plan(plan, **self.optimizer_options)
        # Scan kernels are generated when they pay: the plan will be reused
        # (cache admission — generate once, execute many), or its one
        # execution walks enough rows to amortize generation.  The naive
        # tier never gets them.
        kernels = self.optimize and (
            self.plan_cache_size > 0 or bound_rows >= SINGLE_USE_COMPILE_ROWS
        )
        root, slots = compile_plan(plan, self._scan_kernels, kernels)
        return CompiledQuery(
            plan,
            compiled.labels,
            root,
            slots,
            # Builds are shared through the build-side cache only by
            # reused plans.
            cache=self._build_cache if self.plan_cache_size > 0 else None,
            planned_rows=planned_rows,
            cost_sensitive=cost_sensitive,
        )

    def cache_info(self) -> Dict[str, object]:
        """Plan-cache counters plus the observed-cardinality feedback:
        ``observed_rows`` maps each base table to its row count in the
        database last executed over (recorded before planning), and
        ``reoptimizations`` counts cache hits whose plan was re-ordered
        because those observations contradicted its estimates.  ``entries``
        / ``bytes`` size the cache (estimated bytes, LRU-evicted against
        ``max_bytes`` when set), ``build`` nests the build-side cache's
        own counters so one call sizes both caches, and ``scan_kernels``
        counts what the plans' scan kernels did: ``selections``
        (kernel-run scans), ``rows_in`` / ``rows_out``, ``fallbacks``
        (scans a type clash sent to the row-wise replay) and ``lookups``
        (scans a sorted column index narrowed to an interval)."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "reoptimizations": self._reoptimizations,
            "size": len(self._plan_cache),
            "entries": len(self._plan_cache),
            "bytes": self._plan_bytes,
            "maxsize": self.plan_cache_size,
            "max_bytes": self.plan_cache_bytes or 0,
            "observed_rows": dict(self._observed_tables),
            "build": self.build_cache_info(),
            "scan_kernels": self._scan_kernels.info(),
        }

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()
        self._plan_sizes.clear()
        self._plan_bytes = 0

    # -- build-side cache ----------------------------------------------------

    def build_cache_info(self) -> Dict[str, object]:
        """Build-side cache counters: hits, misses, cross-query hits,
        evictions, entry count and estimated bytes, plus ``kinds`` — the
        same ``entries``/``bytes`` split by what the entries hold
        (hash-join builds, generic-join tries, probe indexes, subquery
        materializations and memos)."""
        if self._build_cache is None:
            return BuildSideCache(0).info()
        return self._build_cache.info()

    def clear_build_cache(self) -> None:
        if self._build_cache is not None:
            self._build_cache.clear()
