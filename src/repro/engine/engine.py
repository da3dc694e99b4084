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
capture their children's lowered iterators directly, and per-node dispatch
disappears from the hot path.  Generated code on top of that — predicate
trees as one generated function each, and a filter over a base-table scan
as a *scan kernel*, one generated comprehension over the table's column
vectors replayed row-wise on a type clash (:mod:`repro.engine.compile`,
"scan kernels") — is decided per optimized plan from what the engine can
observe: the plan will be reused (plan-cache admission — generate once,
execute many), or its single execution binds at least
``SINGLE_USE_COMPILE_ROWS`` rows under its scans (known exactly before
planning: the engine seeds table cardinalities at bind time).  So
``plan_cache_size=0`` callers get the right lowering at both ends — the
paper campaign's fresh query per trial over 6-row tables keeps its
predicate objects (generating code would triple its engine time), while
the live-DBMS campaign over a 10^4-row database runs 2-3x faster with
generated code, and so do the service's ad-hoc ``POST /query`` requests
over a tenant of that size.  Outcomes are bit-identical either way: the
lowering without codegen is the row-wise reference the digest gates of
``scripts/bench.py`` hold generated code to.  No knob selects it, and
``cache_info()["scan_kernels"]`` counts the kernels' scans, rows and
fallbacks.

Plan cache
----------

Compilation and optimization depend only on ``(query AST, schema, dialect,
optimize)``, never on the database instance, so the engine memoizes
optimized plans per query (dialect and optimize-flag are fixed per engine
instance, completing the key).  Plans are compiled *unbound* — their base
tables are :class:`~repro.engine.operators.TableScan` leaves — and
:func:`repro.engine.binding.bind_plan` installs the current database's rows
and clears per-execution memos before every run.  Prepared-statement-style
reuse is what the trial campaigns and the equivalence checker exercise: the
same query evaluated across many trial databases plans once.  ``cache_info()``
exposes hit/miss/eviction counters for the benchmarks; ``plan_cache_size=0``
disables caching entirely.

Build-side cache
----------------

On top of plan reuse, the engine shares *derived execution structures* —
hash-join build tables, semi-join probe sets, cached/memoized subquery
materializations — across executions through a content-keyed
:class:`~repro.engine.binding.BuildSideCache`: trial campaigns re-draw
table contents from small domains, so identical table contents recur and
the structures they determine need not be rebuilt.  Keys compare the bound
rows themselves (exact, no digests), values are copies made at bind time
(cached plans and cache entries never reference the
:class:`~repro.core.schema.Database`), and ``build_cache_size=0`` disables
sharing.  The cache only engages together with the plan cache — without
plan reuse there is no second execution to share with — and, per plan,
only from the second bind onward: keys are per plan node, so a plan
executed once can neither hit nor be hit, and single-use plans (one fresh
query per campaign trial) pay none of the bookkeeping.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import Dict, Optional

from ..core.bag import Bag
from ..core.schema import Database, Schema
from ..core.table import Table
from ..core.values import NULL
from ..sql.ast import Query
from .binding import (
    BuildSideCache,
    bind_plan,
    estimate_bytes,
    iter_plan_nodes,
    unbind_plan,
)
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
#: at rebind (ratio either way).  Damping: re-planning costs a full compile,
#: so hair-trigger re-optimization on small fluctuations would thrash.
REOPT_DRIFT_FACTOR = 2.0

#: Rows bound under a plan's ``TableScan`` leaves (summed per scan, subquery
#: plans included; exact, seeded at bind time) from which a *single-use*
#: plan — one the plan cache will not retain — still gets generated code
#: (predicates and scan kernels).  Code generation is a fixed cost per
#: query, evaluating the predicate objects a cost per row.  Measured on
#: fresh query streams from both generators (docs/BENCHMARKS.md,
#: "Single-use lowering break-even"): mean time breaks even at 32-64 bound
#: rows, but below 128 the *median* paper-generator query still loses; from
#: 128 the median query of both generators is >= 1.4x faster with generated
#: code (means 1.5x-3.9x), and the paper campaign (<= 36 bound rows, 2.9x
#: slower with it) keeps its predicate objects.  Deliberately a constant,
#: not a knob.
SINGLE_USE_COMPILE_ROWS = 128


def _estimate_plan_bytes(compiled: CompiledQuery) -> int:
    """Rough footprint of a cached plan: per-node/per-predicate object
    sizes over the full walk (subquery plans included) plus the label row.
    Plans are cached *unbound* — no table rows — so object headers and
    small per-node tuples dominate, and a node-count-proportional estimate
    is the honest measure a byte budget can evict against."""
    size = sys.getsizeof(compiled) + estimate_bytes(compiled.labels)
    for node, pred in iter_plan_nodes(compiled.plan):
        size += sys.getsizeof(node if node is not None else pred, 64)
    return size


def _as_table(labels, rows) -> Table:
    # NULL restoration at the output boundary; null-free rows (the
    # common case) pass through without rebuilding the tuple.
    records = (
        row
        if None not in row
        else tuple(NULL if v is None else v for v in row)
        for row in rows
    )
    # Bag() materializes fully, so unbinding afterwards is safe.
    return Table(labels, Bag(records))


def _as_rows(labels, rows):
    # list() materializes fully, so unbinding afterwards is safe; the set()
    # passes are Bag's per-record tuple/arity validation (and Table's
    # arity-vs-labels check) done once over the whole result, at C speed.
    rows = list(rows)
    if not set(map(type, rows)) <= {tuple}:
        raise TypeError("result records must be tuples")
    if not set(map(len, rows)) <= {len(labels)}:
        raise ValueError(f"result records are not all of arity {len(labels)}")
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
        #: Last observed bound row count per base table, harvested from
        #: each cached plan's unbind walk — the cardinality feedback that
        #: replaces ``DEFAULT_TABLE_ROWS`` when later queries are planned.
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
        the executor's own.  Same plan, bind window and errors; restoring
        NULL and bagging the rows gives ``execute(query, db).bag``."""
        return self._run(query, db, _as_rows)

    def _run(self, query: Query, db: Database, finish):
        """Plan, bind, run, unbind.  ``finish(labels, rows)`` consumes the
        row iterator *inside* the bind window and builds the result."""
        if self.optimize:
            # Bind-time cardinality seeding: the incoming database's true
            # table sizes are known *before* planning, so a fresh plan (or
            # the staleness check on a cached one) never has to assume
            # DEFAULT_TABLE_ROWS for a table this execution will bind —
            # single-use campaign plans included.
            for name in db.schema.table_names:
                self._observed_tables[name] = len(db.table(name))
        compiled = self._plan(query)
        cache = self._build_cache if self.plan_cache_size > 0 else None
        bind_plan(compiled.plan, db, cache=cache)
        try:
            return finish(compiled.labels, compiled.run(()))
        finally:
            if self.plan_cache_size > 0:
                unbind_plan(compiled.plan, cache=cache)
                observed = getattr(compiled.plan, "_observed_feedback", None)
                if observed:
                    self._observed_tables.update(observed["tables"])

    # -- plan cache ---------------------------------------------------------

    def _plan(self, query: Query) -> CompiledQuery:
        if self.plan_cache_size <= 0:
            return self._compile(query)  # single-use: nothing to look up
        cached = self._plan_cache.get(query)
        if cached is not None:
            self._cache_hits += 1
            self._plan_cache.move_to_end(query)
            if not self._stale(cached.plan):
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

    def _stale(self, plan) -> bool:
        """Whether observed cardinalities have drifted far enough from the
        estimates ``plan``'s join order was chosen with that re-optimizing
        could pick a different order.  Plans whose shape never depended on
        estimates (``_cost_sensitive`` unset) can never go stale."""
        if not getattr(plan, "_cost_sensitive", False):
            return False
        for table, assumed in getattr(plan, "_planned_rows", {}).items():
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
        if self.optimize:
            # Cardinality feedback: seed unbound scans with the row counts
            # the engine has observed (bind-time seeding makes that exact
            # for the upcoming database), so the cost-based join ordering
            # stops assuming DEFAULT_TABLE_ROWS; the snapshot of what was
            # assumed feeds the staleness check on later cache hits.
            planned_rows: Dict[str, float] = {}
            for node, _pred in iter_plan_nodes(plan):
                if isinstance(node, TableScan):
                    node.observed_rows = self._observed_tables.get(node.table)
                    planned_rows[node.table] = (
                        float(node.observed_rows)
                        if node.observed_rows is not None
                        else DEFAULT_TABLE_ROWS
                    )
                    bound_rows += node.observed_rows or 0
            plan = optimize_plan(plan, **self.optimizer_options)
            plan._planned_rows = planned_rows
        # Code is generated when it pays: the plan will be reused (cache
        # admission — generate once, execute many), or its one execution
        # walks enough rows to amortize generation.  The naive tier never
        # gets it.
        codegen = self.optimize and (
            self.plan_cache_size > 0 or bound_rows >= SINGLE_USE_COMPILE_ROWS
        )
        run = compile_plan(plan, self._scan_kernels, codegen)
        return CompiledQuery(plan, compiled.labels, run)

    def cache_info(self) -> Dict[str, object]:
        """Plan-cache counters plus the observed-cardinality feedback:
        ``observed_rows`` maps each base table to the row count last seen
        (seeded at bind time, confirmed by the unbind walk), and
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
