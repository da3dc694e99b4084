#!/usr/bin/env python
"""Standalone throughput benchmarks: engine stages + campaign throughput.

Runs the pipeline-stage workloads of ``benchmarks/test_bench_throughput.py``
without pytest and writes machine-readable JSON so the performance
trajectory is tracked across PRs::

    PYTHONPATH=src python scripts/bench.py [--rounds N] [--stages a,b,...]

Engine stages (written to ``BENCH_engine.json``)
------------------------------------------------
* ``query_generation``      — one random query (PAPER_CONFIG)
* ``parse_print_roundtrip`` — parse+print of 50 pregenerated query texts
* ``semantics_eval``        — formal semantics, the default evaluator
  (Figure 5's product-then-filter plus the ``param``-lemma subquery memo)
  on 20 pairs of the paper's mix at a deliberate 5-row scale: mostly flat
  queries, where the memo cannot help.  Both routes are bit-identical, so
  this pair measures what having the memo *costs* — and it is gated: the script
  exits non-zero when ``semantics_eval > semantics_eval_naive * 1.05``
  (the recorded ``semantics_ratio``), so the default can never quietly
  bench slower than the literal route.
* ``semantics_eval_naive``  — formal semantics, ``fast_from=False``
* ``semantics_eval_nested`` — formal semantics on a nesting-biased mix
  (most WHERE atoms subqueries, most references correlated) over 12-row
  tables: the workload the ``param``-lemma memo exists for.  The default
  evaluator runs each subquery once per distinct binding of the names it
  reads; the gate is two-sided — ``semantics_ratio <= 1.05`` above says
  the memo costs nothing where it cannot hit, ``semantics_nested_ratio
  <= 0.8`` here says the win cannot quietly disappear — and the pair must
  agree on a digest over every result *and* every error (class and
  message); the number of query evaluations each leg performs is recorded
  as ``query_evaluations``
* ``semantics_eval_nested_naive`` — same workload, ``fast_from=False``
  (the literal Figures 5–7 route: no memo)
* ``engine_optimized``      — reference engine, default optimizer
* ``engine_naive``          — reference engine, ``optimize=False``
* ``engine_compiled``       — the default engine, plan cache hot: plans
  lowered once, with scan kernels, executed many times
* ``engine_interpreted``    — same optimized plans on the codegen-off leg
  (``tests.executor.CodegenOffEngine``: no plan cache, and
  ``engine.SINGLE_USE_COMPILE_ROWS`` raised past the workload's bound rows
  while it plans, so every plan is planned and lowered per execution and
  filters through its predicate closures alone, with no scan kernel; the
  pair's digest equality and ``compiled_speedup`` are recorded, and a
  mismatch fails the run)
* ``engine_wcoj``           — worst-case-optimal multiway joins
  (``GenericJoin``) on the cyclic triangle/4-cycle workload, sized by
  ``--rows`` (default: the paper's 50-row cap)
* ``engine_binary``         — same workload, ``wcoj=False`` (DP-ordered
  binary hash joins; the pair's ``wcoj_speedup`` is recorded, and a
  three-way digest gate — wcoj vs binary vs naive — runs at the 50-row
  cap plus a wcoj-vs-binary check at ``--rows`` scale)
* ``engine_subquery``       — equality-correlated EXISTS / NOT EXISTS /
  IN / NOT IN and an uncorrelated IN, answered set-at-a-time from keyed
  build sides, sized by ``--rows`` (build-side cache off: every run
  builds and probes)
* ``engine_subquery_naive`` — same workload, ``optimize=False`` (the
  subquery re-runs per probing row; the statements lead with a selective
  outer conjunct so this leg stays feasible at ``--rows 5000``; the
  pair's ``subquery_speedup`` is recorded and digest-gated at ``--rows``)
* ``engine_scan``           — filters over base-table scans under a
  projection, as a join input, as set-operation operands and in front of
  an IN probe: the compiled tier's scan kernels (fused selections over the
  tables' column vectors), sized by ``--rows`` (plan cache hot, build-side
  cache off)
* ``engine_scan_interpreted`` — same workload on the codegen-off leg (one
  predicate-closure call per row, planning per execution; the pair's
  ``scan_speedup`` is recorded, with a three-way digest gate — kernels vs
  codegen-off vs naive — at the 50-row cap plus a kernels-vs-codegen-off
  check at ``--rows`` scale)
* ``engine_join_order``     — adversarial-FROM-order workload, cost-based
  join ordering (second-generation optimizer)
* ``engine_join_order_fromorder`` — same workload, ordering ablated
  (``reorder_joins=False``: PR 1's syntactic left-deep order)
* ``engine_setops``         — set-operation workload, streaming hash
  UNION/INTERSECT/EXCEPT
* ``engine_setops_counted`` — same workload, ``hash_setops=False`` (the
  counted-multiset SetOpNode)
* ``engine_repeat_cached``  — 10 queries x 15 databases, plan cache on
  (prepared-statement-style reuse; hit/miss counters are recorded)
* ``engine_repeat_uncached``— same workload, ``plan_cache_size=0``
* ``engine_repeat_shared``  — 10 queries x (5 databases x 3 repeats):
  repeated content, cross-trial build-side sharing on
* ``engine_repeat_unshared``— same workload, ``build_cache_size=0``
* ``theorem1_translation``  — SQL → SQL-RA → pure RA desugaring

The join-order, set-op and compiled ablation pairs additionally verify
that every engine variant (including ``optimize=False``) produces
identical outcomes on their workloads; a digest mismatch makes the script
exit non-zero, so CI can gate on optimizer *and compiler* correctness
with ``--rounds 1``.  The join-order/set-op pairs run with the build-side
cache off: they measure the operators, and sharing would absorb exactly
the work being compared on a repeated timing loop.

Campaign stage (written to ``BENCH_campaign.json``)
---------------------------------------------------
``campaign`` runs a Section 4 validation campaign serially and with
``--campaign-jobs`` worker processes on the unified subsystem
(:mod:`repro.campaigns`) and records trials/sec for both legs, per-trial
latency percentiles (p50/p95/p99), the parallel speedup, and that the two
outcome digests are identical.  On a single-core container the parallel
leg can only measure worker-process overhead, so it is skipped and marked
``"skipped"`` in the record; the point of the speedup is the trajectory
on real hardware.  The stage also runs a paired engine-tier A/B, recorded
as ``engine_tier_ab``: over a 10,000-row live-SQLite scenario the shipped
engine (whose size rule generates scan kernels for those single-use plans) vs
the codegen-off leg, digest-gated.  It exits non-zero if the shipped tier is
more than 5% slower than the alternative.

Distributed stage (merged into ``BENCH_campaign.json``)
--------------------------------------------------------
``distributed`` splits one validation campaign across
``--distributed-workers`` real ``repro work`` subprocesses (file-based
mode, one lease each, coordinated by
:class:`repro.campaigns.FileCoordinator`), merges their checkpoints, and
asserts the merged ``outcome_digest`` is bit-identical to the same
campaign run serially in-process.  A mismatch (or a failed worker) makes
the script exit non-zero, so CI gates on the distributed path with
``--stages distributed``.

Chaos stage (written to ``BENCH_chaos.json``)
---------------------------------------------
``chaos`` replays deterministic fault schedules (seeded ``FaultPlan``,
``--chaos-seed``) against the stack: an HTTP-distributed campaign under
worker crashes / duplicate submits / dropped connections / torn
checkpoint writes with a live coordinator bounce (gate: merged digest
bit-identical to a fault-free serial run), a poison-lease quarantine
drill, checkpoint-corruption detection (interior bit flip caught by the
per-line CRC with its line number; torn final line tolerated), and a
concurrent service workload under injected execution faults (gate: zero
silently wrong answers, the execution-tier fallback exercised).

``--stages`` selects a comma-separated subset (default: every stage), so
CI can run the cheap stages only, e.g.::

    python scripts/bench.py --stages engine_join_order,engine_setops \\
        --rounds 1

The engine stages run at the paper's 50-row table cap (the scale the naive
implementation could not handle); the semantics stages run at 5 rows, as the
oracle is intentionally product-shaped.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

# The workloads are the ones the pytest benchmark suite defines, imported so
# BENCH_engine.json always measures exactly what the benches measure.
from benchmarks.test_bench_throughput import (  # noqa: E402
    ADVERSARIAL_SCHEMA,
    SCAN_SCHEMA,
    SCHEMA,
    WCOJ_SCHEMA,
    engine_pairs,
    SUBQUERY_SCHEMA,
    join_order_pairs,
    make_db,
    make_query,
    run_workload,
    setop_pairs,
    scan_pairs,
    subquery_pairs,
    wcoj_pairs,
)
from repro.algebra import desugar, to_sqlra  # noqa: E402
from repro.campaigns import CampaignSpec, run_campaign  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.core.errors import ReproError  # noqa: E402
from repro.generator import DM_CONFIG, PAPER_CONFIG, QueryGenerator  # noqa: E402
from repro.semantics import STAR_COMPOSITIONAL, SqlSemantics  # noqa: E402
from repro.sql import parse_query, print_query  # noqa: E402
from tests.executor import CodegenOffEngine  # noqa: E402

CAMPAIGN_STAGE = "campaign"
DISTRIBUTED_STAGE = "distributed"
SERVICE_STAGE = "service"
INGEST_STAGE = "ingest"
CHAOS_STAGE = "chaos"


def run_semantics(semantics, pairs):
    for query, db in pairs:
        try:
            semantics.run(query, db)
        except Exception:
            pass


#: The paper's mix with most WHERE atoms subqueries and most references in
#: them correlated (the mix of tests/properties/
#: test_semantics_memo_equivalence.py).  One table fewer: at 12 rows a
#: six-table budget lets a single pair's literal product take 13 s, and the
#: ratio would be that pair's.
NESTED_MIX = replace(
    PAPER_CONFIG,
    tables=5,
    where_subquery_probability=0.6,
    correlation_probability=0.7,
)

#: gated ratio -> (fast stage, slow stage, largest passing min/min ratio,
#: fewest alternating rounds — the nested legs take a second each, and their
#: ratio sits far from its gate).
GATED_RATIOS = {
    "semantics_ratio": ("semantics_eval", "semantics_eval_naive", 1.05, 9),
    "semantics_nested_ratio": (
        "semantics_eval_nested", "semantics_eval_nested_naive", 0.8, 3,
    ),
}


class CountingSemantics(SqlSemantics):
    """Counts the query evaluations that were not answered from the memo."""

    evaluations = 0

    def _evaluate(self, query, db, env, exists_context):
        self.evaluations += 1
        return super()._evaluate(query, db, env, exists_context)


def semantics_digest(semantics, pairs):
    """SHA-256 over every pair's outcome under the formal semantics: the
    table, or the error's class and message."""
    digest = hashlib.sha256()
    for query, db in pairs:
        try:
            table = semantics.run(query, db)
        except ReproError as exc:
            payload = f"error:{type(exc).__name__}:{exc}"
        else:
            counts = sorted(table.bag.counts().items(), key=repr)
            payload = repr((tuple(table.columns), counts))
        digest.update(payload.encode())
    return digest.hexdigest()


def check_semantics_nested(pairs, results_doc) -> bool:
    """The memoizing evaluator against the literal route on the nested
    workload: one digest over results and errors, and how many query
    evaluations each performed."""
    legs = {
        "memoized": CountingSemantics(SCHEMA, star_style=STAR_COMPOSITIONAL),
        "literal": CountingSemantics(
            SCHEMA, star_style=STAR_COMPOSITIONAL, fast_from=False
        ),
    }
    digests = {label: semantics_digest(sem, pairs) for label, sem in legs.items()}
    match = digests["memoized"] == digests["literal"]
    results_doc["semantics_nested"] = {
        "digest_match": match,
        "outcome_digest": digests["literal"],
        "query_evaluations": {label: sem.evaluations for label, sem in legs.items()},
    }
    print(
        f"semantics_nested: memoized/literal digests "
        f"{'match' if match else 'MISMATCH'}, query evaluations "
        f"{legs['memoized'].evaluations} vs {legs['literal'].evaluations}"
    )
    return match


def median_ns(fn, rounds):
    times = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def paired_ratio(fast_fn, slow_fn, rounds):
    """``min(fast) / min(slow)`` from strictly alternating runs.

    Used for the *gated* semantics ratio: the two legs are only a few
    milliseconds each, so scheduler noise alone can move per-leg medians
    by more than the gate's margin.  Interleaving exposes both legs to
    the same noise, and the per-leg *minimum* (noise only ever adds
    time — the same reasoning as ``timeit``) estimates the true cost far
    more tightly than the median at this scale.
    """
    fast_times, slow_times = [], []
    # GC pauses land on whichever leg happens to trip the threshold and
    # scale with the whole process heap, not with the code under test —
    # exclude them (pyperf does the same).
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter_ns()
            fast_fn()
            fast_times.append(time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            slow_fn()
            slow_times.append(time.perf_counter_ns() - start)
    finally:
        gc.enable()
        gc.unfreeze()
    return min(fast_times) / min(slow_times)


def outcome_digest(engine, pairs):
    """SHA-256 over the canonicalized outcome of every (query, db) pair."""
    digest = hashlib.sha256()
    for query, db in pairs:
        try:
            table = engine.execute(query, db)
        except Exception as exc:
            payload = f"error:{type(exc).__name__}"
        else:
            # Outside the try block: an attribute typo here must crash the
            # gate, not masquerade as a per-pair engine error (digests built
            # from identical error strings match vacuously).
            counts = sorted(table.bag.counts().items(), key=repr)
            payload = repr((tuple(table.columns), counts))
        digest.update(payload.encode())
    return digest.hexdigest()


#: Engine-stage names, in run order (``campaign`` is handled separately).
ENGINE_STAGES = (
    "query_generation",
    "parse_print_roundtrip",
    "semantics_eval",
    "semantics_eval_naive",
    "semantics_eval_nested",
    "semantics_eval_nested_naive",
    "engine_optimized",
    "engine_naive",
    "engine_compiled",
    "engine_interpreted",
    "engine_wcoj",
    "engine_binary",
    "engine_subquery",
    "engine_subquery_naive",
    "engine_scan",
    "engine_scan_interpreted",
    "engine_join_order",
    "engine_join_order_fromorder",
    "engine_setops",
    "engine_setops_counted",
    "engine_repeat_cached",
    "engine_repeat_uncached",
    "engine_repeat_shared",
    "engine_repeat_unshared",
    "theorem1_translation",
)


def build_stages(selected, rows=50):
    """Stage-name → workload thunks plus the shared context (engines and
    workloads the reporting needs), building only what ``selected`` stages
    require (pregenerating the 50-row engine pairs costs seconds, which a
    --stages run selecting cheap stages should not pay).  ``rows`` sizes
    the cyclic-join, subquery and scan-kernel workloads' tables
    (every other stage keeps its fixed scale)."""

    def need(*names):
        return any(name in selected for name in names)

    stages = {}
    context = {}
    if need("query_generation"):
        gen = QueryGenerator(SCHEMA)
        counter = iter(range(10_000_000))
        stages["query_generation"] = lambda: gen.generate(seed=next(counter))
    if need("parse_print_roundtrip"):
        texts = [print_query(make_query(seed)) for seed in range(50)]
        stages["parse_print_roundtrip"] = lambda: [
            print_query(parse_query(text)) for text in texts
        ]
    sem_fast = SqlSemantics(SCHEMA, star_style=STAR_COMPOSITIONAL)
    sem_naive = SqlSemantics(SCHEMA, star_style=STAR_COMPOSITIONAL, fast_from=False)
    if need("semantics_eval", "semantics_eval_naive"):
        small_pairs = [(make_query(s), make_db(s)) for s in range(20)]
        stages["semantics_eval"] = lambda: run_semantics(sem_fast, small_pairs)
        stages["semantics_eval_naive"] = lambda: run_semantics(
            sem_naive, small_pairs
        )
    if need("semantics_eval_nested", "semantics_eval_nested_naive"):
        nested_pairs = [
            (make_query(s, NESTED_MIX), make_db(s, rows=12)) for s in range(200)
        ]
        stages["semantics_eval_nested"] = lambda: run_semantics(
            sem_fast, nested_pairs
        )
        stages["semantics_eval_nested_naive"] = lambda: run_semantics(
            sem_naive, nested_pairs
        )
        context["semantics_nested"] = nested_pairs
    if need(
        "engine_optimized", "engine_naive", "engine_compiled", "engine_interpreted"
    ):
        # One 50-row workload shared by both engine groups: pregenerating
        # it costs seconds and the pairs are never mutated.
        paper_pairs = engine_pairs()
    if need("engine_optimized", "engine_naive"):
        stages["engine_optimized"] = lambda: run_workload(
            Engine(SCHEMA, "postgres"), paper_pairs
        )
        stages["engine_naive"] = lambda: run_workload(
            Engine(SCHEMA, "postgres", optimize=False), paper_pairs
        )
    if need("engine_compiled", "engine_interpreted"):
        # Generated-code workload: the paper-scale pairs, with the plan
        # cache on for the default engine — scan kernels are generated at
        # cache admission, so after the warm-up pass it executes cached
        # plans — against the codegen-off leg, which plans each execution
        # afresh and filters through the predicate closures alone.
        compiled_pairs = paper_pairs
        compiled_engine = Engine(SCHEMA, "postgres")
        interpreted_engine = CodegenOffEngine(SCHEMA, "postgres")
        context["compiled"] = (
            compiled_pairs,
            [
                ("optimized", compiled_engine),
                ("codegen-off", interpreted_engine),
                ("naive", Engine(SCHEMA, "postgres", optimize=False)),
            ],
        )
        stages["engine_compiled"] = lambda: run_workload(
            compiled_engine, compiled_pairs
        )
        stages["engine_interpreted"] = lambda: run_workload(
            interpreted_engine, compiled_pairs
        )
    if need("engine_join_order", "engine_join_order_fromorder"):
        join_pairs = join_order_pairs()
        join_full = Engine(ADVERSARIAL_SCHEMA, "postgres", build_cache_size=0)
        join_ablated = Engine(
            ADVERSARIAL_SCHEMA,
            "postgres",
            build_cache_size=0,
            optimizer_options={"reorder_joins": False},
        )
        context["join_order"] = (
            join_pairs,
            [
                ("optimized", join_full),
                ("ablated", join_ablated),
                ("naive", Engine(ADVERSARIAL_SCHEMA, "postgres", optimize=False)),
            ],
        )
        stages["engine_join_order"] = lambda: run_workload(join_full, join_pairs)
        stages["engine_join_order_fromorder"] = lambda: run_workload(
            join_ablated, join_pairs
        )
    if need("engine_setops", "engine_setops_counted"):
        so_pairs = setop_pairs()
        setops_full = Engine(ADVERSARIAL_SCHEMA, "postgres", build_cache_size=0)
        setops_ablated = Engine(
            ADVERSARIAL_SCHEMA,
            "postgres",
            build_cache_size=0,
            optimizer_options={"hash_setops": False},
        )
        context["setops"] = (
            so_pairs,
            [
                ("optimized", setops_full),
                ("ablated", setops_ablated),
                ("naive", Engine(ADVERSARIAL_SCHEMA, "postgres", optimize=False)),
            ],
        )
        stages["engine_setops"] = lambda: run_workload(setops_full, so_pairs)
        stages["engine_setops_counted"] = lambda: run_workload(
            setops_ablated, so_pairs
        )
    if need("engine_wcoj", "engine_binary"):
        # Cyclic-join workload, sized by --rows.  Plan caches are on, so
        # after warm-up the pair isolates the multiway trie intersection
        # against DP-ordered binary hash joins on identical inputs.
        cyclic_pairs = wcoj_pairs(rows=rows)
        wcoj_engine = Engine(WCOJ_SCHEMA, "postgres")
        binary_engine = Engine(
            WCOJ_SCHEMA, "postgres", optimizer_options={"wcoj": False}
        )
        # The three-way digest gate includes the naive engine, whose
        # product-shaped plans cannot handle thousands of rows — the gate
        # workload stays at the 50-row paper cap; the wcoj/binary pair is
        # digest-checked again at --rows scale (``wcoj_scale`` below).
        wcoj_gate_pairs = cyclic_pairs if rows <= 50 else wcoj_pairs(rows=50)
        context["wcoj"] = (
            wcoj_gate_pairs,
            [
                ("wcoj", wcoj_engine),
                ("binary", binary_engine),
                ("naive", Engine(WCOJ_SCHEMA, "postgres", optimize=False)),
            ],
        )
        if rows > 50:
            context["wcoj_scale"] = (
                cyclic_pairs,
                [
                    ("wcoj", wcoj_engine),
                    ("binary", binary_engine),
                ],
            )
        stages["engine_wcoj"] = lambda: run_workload(wcoj_engine, cyclic_pairs)
        stages["engine_binary"] = lambda: run_workload(binary_engine, cyclic_pairs)
    if need("engine_subquery", "engine_subquery_naive"):
        # Subquery-predicate workload, sized by --rows.  The build-side
        # cache is off: the stage measures building and probing the keyed
        # structures, which sharing would absorb on a repeated timing loop.
        sub_pairs = subquery_pairs(rows=rows)
        subquery_engine = Engine(SUBQUERY_SCHEMA, "postgres", build_cache_size=0)
        subquery_naive = Engine(SUBQUERY_SCHEMA, "postgres", optimize=False)
        context["subquery"] = (
            sub_pairs,
            [("optimized", subquery_engine), ("naive", subquery_naive)],
        )
        stages["engine_subquery"] = lambda: run_workload(subquery_engine, sub_pairs)
        stages["engine_subquery_naive"] = lambda: run_workload(
            subquery_naive, sub_pairs
        )
    if need("engine_scan", "engine_scan_interpreted"):
        # Scan-kernel workload, sized by --rows.  The kernels' plan cache
        # is on, so after warm-up they run cached plans, against a
        # predicate-closure call per row on the same plans, planned per
        # execution; the build-side cache is off, so the join statement
        # scans and builds on every run.
        kernel_pairs = scan_pairs(rows=rows)
        scan_engine = Engine(SCAN_SCHEMA, "postgres", build_cache_size=0)
        scan_interpreted = CodegenOffEngine(SCAN_SCHEMA, "postgres", build_cache_size=0)
        # As for the cyclic-join pair: the naive engine joins the gate at
        # the 50-row cap only, the pair is checked again at --rows scale.
        context["scan"] = (
            kernel_pairs if rows <= 50 else scan_pairs(rows=50),
            [
                ("kernels", scan_engine),
                ("codegen-off", scan_interpreted),
                ("naive", Engine(SCAN_SCHEMA, "postgres", optimize=False)),
            ],
        )
        if rows > 50:
            context["scan_scale"] = (
                kernel_pairs,
                [("kernels", scan_engine), ("codegen-off", scan_interpreted)],
            )
        stages["engine_scan"] = lambda: run_workload(scan_engine, kernel_pairs)
        stages["engine_scan_interpreted"] = lambda: run_workload(
            scan_interpreted, kernel_pairs
        )
    if need("engine_repeat_cached", "engine_repeat_uncached"):
        # Plan-cache workload: few queries, many databases — the shape of
        # the trial campaigns and the equivalence checker, where
        # re-planning is pure waste.
        repeat_queries = [make_query(seed) for seed in range(10)]
        repeat_pairs = [
            (query, make_db(1000 + d))
            for d in range(15)
            for query in repeat_queries
        ]
        cached_engine = Engine(SCHEMA, "postgres")
        uncached_engine = Engine(SCHEMA, "postgres", plan_cache_size=0)
        context["plan_cache"] = cached_engine
        stages["engine_repeat_cached"] = lambda: run_workload(
            cached_engine, repeat_pairs
        )
        stages["engine_repeat_uncached"] = lambda: run_workload(
            uncached_engine, repeat_pairs
        )
    if need("engine_repeat_shared", "engine_repeat_unshared"):
        # Build-side sharing workload: repeated database *contents* (the
        # trial-campaign case the ROADMAP's "cross-database plan sharing"
        # item describes) — 5 distinct databases, each seen 3 times.
        shared_queries = [make_query(seed) for seed in range(10)]
        shared_dbs = [make_db(2000 + d, rows=20) for d in range(5)] * 3
        shared_pairs = [(q, db) for db in shared_dbs for q in shared_queries]
        shared_engine = Engine(SCHEMA, "postgres")
        unshared_engine = Engine(SCHEMA, "postgres", build_cache_size=0)
        context["build_cache"] = shared_engine
        stages["engine_repeat_shared"] = lambda: run_workload(
            shared_engine, shared_pairs
        )
        stages["engine_repeat_unshared"] = lambda: run_workload(
            unshared_engine, shared_pairs
        )
    if need("theorem1_translation"):
        dm_queries = [make_query(seed, DM_CONFIG) for seed in range(10)]
        stages["theorem1_translation"] = lambda: [
            desugar(to_sqlra(query, SCHEMA), SCHEMA) for query in dm_queries
        ]
    return stages, context


def check_ablation_digests(context, results_doc) -> bool:
    """Verify every engine variant of a workload produces the same outcomes.

    Each context group maps to ``(pairs, [(label, engine), ...])``; all the
    engines of a group must produce bit-identical outcomes — same bags,
    same error classes, same ``outcome_digest``.  Returns True when every
    selected group agrees; records the verdict (and the stage speedup) in
    ``results_doc``.  The three-way ``compiled`` group gates generated
    code (default vs codegen-off vs naive), and the three-way ``wcoj``
    group the multiway join (wcoj vs binary vs naive); ``subquery`` gates
    the keyed subquery probes against the naive engine at ``--rows`` scale,
    and the three-way ``scan`` group the scan kernels (kernels vs
    codegen-off vs naive).
    """
    all_match = True
    for group, speedup_key, fast_stage, slow_stage in (
        ("join_order", "join_order_speedup", "engine_join_order",
         "engine_join_order_fromorder"),
        ("setops", "setop_speedup", "engine_setops", "engine_setops_counted"),
        ("compiled", "compiled_speedup", "engine_compiled",
         "engine_interpreted"),
        ("wcoj", "wcoj_speedup", "engine_wcoj", "engine_binary"),
        ("wcoj_scale", None, None, None),
        ("subquery", "subquery_speedup", "engine_subquery",
         "engine_subquery_naive"),
        ("scan", "scan_speedup", "engine_scan", "engine_scan_interpreted"),
        ("scan_scale", None, None, None),
    ):
        if group not in context:
            continue
        pairs, engines = context[group]
        digests = {
            label: outcome_digest(engine, pairs) for label, engine in engines
        }
        match = len(set(digests.values())) == 1
        first_label = engines[0][0]
        entry = {"digest_match": match, "outcome_digest": digests[first_label]}
        median = results_doc.get("median_ns", {})
        if speedup_key and fast_stage in median and slow_stage in median:
            entry["speedup"] = round(median[slow_stage] / median[fast_stage], 3)
            results_doc[speedup_key] = entry["speedup"]
        results_doc[group] = entry
        status = "match" if match else "MISMATCH"
        print(
            f"{group}: {'/'.join(label for label, _ in engines)} digests {status}"
            + (f", speedup {entry['speedup']:.2f}x" if "speedup" in entry else "")
        )
        all_match = all_match and match
    return all_match


#: Total rows of the library scenario the tier A/B runs over — the
#: observatory's ``campaign_live`` size, far past the engine's single-use
#: lowering break-even.
LIVE_AB_ROWS = 10_000


def _live_tier_ab(trials: int, rounds: int) -> dict:
    """The campaign engine-tier A/B: the live-SQLite campaign over a
    ``LIVE_AB_ROWS``-row library scenario, run by the engine as shipped
    (single-use plans this large get generated code by the size rule) vs
    the same runner on the codegen-off leg, same seeds, alternating legs (the
    same reasoning as ``paired_ratio``).  Gated on identical outcome
    digests and on the shipped leg being within 5% of the better one — if
    the size rule stops paying off on a 10^4-row database, the bench fails
    instead of silently shipping the slower default."""
    from repro.campaigns import LiveSqliteBackend
    from repro.ingest.demo import library_scenario
    from repro.validation.live import LiveSqliteRunner

    scenario = library_scenario(LIVE_AB_ROWS, seed=1)
    adaptive = LiveSqliteRunner(scenario)
    interpreted = LiveSqliteRunner(scenario)
    interpreted.engine = CodegenOffEngine(scenario.schema, adaptive.engine.dialect)

    def leg(runner):
        return run_campaign(LiveSqliteBackend(runner), trials=trials, base_seed=0)

    leg(adaptive)  # warm-up: generator caches, the shape-keyed code cache
    leg(interpreted)
    results = {"adaptive": [], "interpreted": []}
    for _ in range(rounds):
        results["adaptive"].append(leg(adaptive))
        results["interpreted"].append(leg(interpreted))
    adaptive.close()
    interpreted.close()
    tps = {
        name: statistics.median(r.trials_per_sec for r in legs)
        for name, legs in results.items()
    }
    digests = {r.outcome_digest for legs in results.values() for r in legs}
    best_vs_shipped = max(tps.values()) / tps["adaptive"]
    ok = len(digests) == 1 and best_vs_shipped <= 1.05
    print(
        f"campaign tier A/B, live ({trials} trials x {rounds} paired rounds, "
        f"{scenario.total_rows} rows): adaptive {tps['adaptive']:.0f} trials/s, "
        f"codegen-off {tps['interpreted']:.0f} trials/s "
        f"({tps['adaptive'] / tps['interpreted']:.2f}x), digests "
        f"{'match' if len(digests) == 1 else 'DIFFER'}"
        f"{'' if ok else ', GATE FAILED'}"
    )
    return {
        "rows": scenario.total_rows,
        "trials": trials,
        "adaptive_trials_per_sec": round(tps["adaptive"], 1),
        "interpreted_trials_per_sec": round(tps["interpreted"], 1),
        "adaptive_speedup": round(tps["adaptive"] / tps["interpreted"], 3),
        "digest_match": len(digests) == 1,
        "outcome_digest": sorted(digests)[0],
        "gate_ok": ok,
    }


def bench_campaign(trials: int, jobs: int, rows: int, out_path: str) -> dict:
    """Serial vs N-worker throughput of one validation campaign.

    The previous file's serial trials/s (if any) is carried over as
    ``previous_serial_trials_per_sec`` with the percentage change in
    ``serial_delta_pct``, so the throughput trajectory across PRs is
    machine-readable from the file alone.  The engine-tier A/B
    (``_live_tier_ab``) is merged in as ``engine_tier_ab`` and its gate
    failure propagates through the exit code.
    """
    previous_serial = None
    previous_path = Path(out_path)
    if previous_path.exists():
        try:
            previous = json.loads(previous_path.read_text())
            previous_serial = previous.get("serial", {}).get("trials_per_sec")
        except (json.JSONDecodeError, AttributeError):
            previous_serial = None
    spec = CampaignSpec(kind="validation", variant="postgres", rows=rows)
    print(f"campaign: {trials} trials, postgres variant, serial ...")
    serial = run_campaign(spec, trials=trials, base_seed=0, jobs=1)
    print(f"  serial   {serial.trials_per_sec:10.1f} trials/s")
    tier_ab = _live_tier_ab(min(300, trials), rounds=3)
    # On a single-core container the parallel leg can only measure worker
    # process overhead, not parallelism — skip it and say so in the record
    # rather than publishing a meaningless sub-1x "speedup".
    parallel = None
    if multiprocessing.cpu_count() == 1:
        print(f"campaign: jobs={jobs} leg skipped (1 CPU visible)")
    else:
        print(f"campaign: same seed range, jobs={jobs} ...")
        parallel = run_campaign(spec, trials=trials, base_seed=0, jobs=jobs)
        print(f"  jobs={jobs}   {parallel.trials_per_sec:10.1f} trials/s")
    speedup = (
        parallel.trials_per_sec / serial.trials_per_sec
        if parallel is not None and serial.trials_per_sec
        else None
    )
    doc = {
        "schema": "bench-campaign/v1",
        "variant": "postgres",
        "trials": trials,
        "rows": rows,
        "cpu_count": multiprocessing.cpu_count(),
        "serial": {
            "elapsed_s": round(serial.elapsed_s, 3),
            "trials_per_sec": round(serial.trials_per_sec, 1),
            "timing_ms": serial.timing_ms,
        },
        "parallel": (
            {
                "jobs": jobs,
                "elapsed_s": round(parallel.elapsed_s, 3),
                "trials_per_sec": round(parallel.trials_per_sec, 1),
                "timing_ms": parallel.timing_ms,
            }
            if parallel is not None
            else {"jobs": jobs, "skipped": True}
        ),
        "speedup": round(speedup, 3) if speedup is not None else "skipped",
        "engine_tier_ab": tier_ab,
        "digest_match": (
            serial.outcome_digest == parallel.outcome_digest
            if parallel is not None
            else True
        ),
        **(
            {
                "previous_serial_trials_per_sec": previous_serial,
                "serial_delta_pct": round(
                    (serial.trials_per_sec / previous_serial - 1) * 100, 1
                ),
            }
            if previous_serial
            else {}
        ),
        "outcome_digest": serial.outcome_digest,
        "agreements": serial.agreements,
        "mismatches": len(serial.mismatches),
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(
        "campaign speedup: "
        + (f"{speedup:.2f}x" if speedup is not None else "skipped")
        + f" on {jobs} workers "
        f"({multiprocessing.cpu_count()} CPU(s) visible), "
        f"digests {'match' if doc['digest_match'] else 'DIFFER'}, "
        f"p50/p95/p99 {serial.timing_ms.get('p50', 0):.2f}/"
        f"{serial.timing_ms.get('p95', 0):.2f}/"
        f"{serial.timing_ms.get('p99', 0):.2f} ms -> {out_path}"
    )
    return doc


def bench_distributed(trials: int, workers: int, rows: int, out_path: str) -> bool:
    """File-based distributed campaign vs the same campaign run serially.

    Spawns ``workers`` real ``repro work`` subprocesses (one lease each),
    merges their checkpoints through the coordinator, and records the
    digest comparison in the ``distributed`` section of ``out_path``
    (created if the campaign stage has not run).  Returns False when the
    digests differ or any worker fails.
    """
    import os
    import shutil
    import subprocess
    import tempfile

    from repro.campaigns import FileCoordinator

    spec = CampaignSpec(kind="validation", variant="postgres", rows=rows)
    print(f"distributed: {trials} trials, serial reference run ...")
    serial = run_campaign(spec, trials=trials, base_seed=0, jobs=1)
    tmp = tempfile.mkdtemp(prefix="repro-distributed-")
    try:
        coordinator = FileCoordinator(
            spec,
            trials=trials,
            base_seed=0,
            workers=[f"w{i + 1}" for i in range(workers)],
            out_dir=tmp,
            python=sys.executable,
        )
        plan = coordinator.plan()
        print(
            f"distributed: {len(plan)} lease(s) across {workers} "
            "worker subprocess(es) ..."
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        procs = [
            subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
            for _lease, argv in plan
        ]
        exit_codes = [proc.wait() for proc in procs]
        elapsed = time.perf_counter() - started
        # A failed worker leaves its lease incomplete forever — don't sit
        # out the wait timeout or crash in merge(); record the failure.
        complete = all(code == 0 for code in exit_codes) and coordinator.wait(
            poll_s=0.1, timeout_s=60
        )
        merged = None
        if complete:
            merged = coordinator.merge()
        coordinator.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    match = merged is not None and merged.outcome_digest == serial.outcome_digest
    doc = {}
    path = Path(out_path)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc.setdefault("schema", "bench-campaign/v1")
    doc["distributed"] = {
        "trials": trials,
        "workers": workers,
        "rows": rows,
        "worker_exit_codes": exit_codes,
        "elapsed_s": round(elapsed, 3),
        "trials_per_sec": round(trials / elapsed, 1) if elapsed > 0 else 0.0,
        "serial_trials_per_sec": round(serial.trials_per_sec, 1),
        "duplicates": merged.duplicates if merged is not None else 0,
        "digest_match": match,
        "outcome_digest": merged.outcome_digest if merged is not None else "",
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    ok = match and complete
    print(
        f"distributed: {workers} workers, {trials / elapsed:.0f} trials/s "
        f"end-to-end, "
        + (
            f"digests {'match' if match else 'DIFFER'}"
            if complete
            else f"INCOMPLETE (worker exit codes {exit_codes})"
        )
        + f" -> {out_path}"
    )
    return ok


# -- service stage ------------------------------------------------------------

# The sustained-QPS workload (plan-heavy multi-join statements with shared
# subplan shapes) and its R/S/T/U instance live in repro.ingest.workload so
# ingested scenarios can drive the same bench: `--service-scenario PATH`
# swaps in build_service_workload() over an imported database.  The workload
# is passed *explicitly* to the spawned load-generator process — it must
# never read a module global, which a spawn re-import would silently reset
# to the default.


def _inline_sql(sql: str, params) -> str:
    """The cold leg's SQL text: parameters inlined as literals, so the
    ad-hoc path parses, plans, and executes the same query from scratch."""
    for k, value in enumerate(params, start=1):
        literal = "'" + value.replace("'", "''") + "'" if isinstance(value, str) else str(value)
        sql = sql.replace(f"${k}", literal)
    return sql


def _service_drive(url, leg, clients, total, seed, workload):
    """Drive the service with ``clients`` concurrent asyncio clients.

    Runs in a *separate process* (spawned by :func:`bench_service`), so the
    load generator never shares the GIL with the server it measures.
    ``workload`` is the ``[(sql, bindings), ...]`` list to cycle through —
    passed explicitly because a spawned child re-imports this module, so a
    module-global workload would silently revert to the default even when
    the parent benched an ingested scenario.  Connections and (for the warm
    leg) statement preparation happen before the timing window; the window
    covers exactly ``total`` requests.  Returns ``(elapsed_s, latencies_ms,
    served)`` where ``served`` is ``[(sql, params, rows), ...]`` for the
    main process's semantics replay.
    """
    import asyncio
    import random

    from repro.service import ServiceClient

    latencies = []
    served = []
    share = [total // clients] * clients
    for i in range(total % clients):
        share[i] += 1

    async def request_loop(index, client, prepared):
        rng = random.Random(seed * 100_000 + index)
        for _ in range(share[index]):
            sql, bindings = rng.choice(workload)
            params = rng.choice(bindings)
            started = time.perf_counter()
            if leg == "warm":
                result = await client.execute(prepared[sql], params)
            else:
                result = await client.query(_inline_sql(sql, params))
            latencies.append((time.perf_counter() - started) * 1e3)
            served.append((sql, tuple(params), result.rows))

    async def drive():
        sessions = []
        for _ in range(clients):
            client = ServiceClient(url, tenant="bench")
            await client.connect()
            prepared = {}
            if leg == "warm":
                for sql, _bindings in workload:
                    prepared[sql] = await client.prepare(sql)
            sessions.append((client, prepared))
        started = time.perf_counter()
        await asyncio.gather(
            *(
                request_loop(i, client, prepared)
                for i, (client, prepared) in enumerate(sessions)
            )
        )
        elapsed = time.perf_counter() - started
        for client, _prepared in sessions:
            await client.close()
        return elapsed

    return asyncio.run(drive()), latencies, served


def bench_service(
    clients: int,
    requests: int,
    rows: int,
    out_path: str,
    min_speedup: float = 2.0,
    scenario_path: str = None,
) -> bool:
    """Sustained-QPS service benchmark: warm (prepared) vs cold (ad-hoc).

    Starts the asyncio query service in-process and drives it from a
    separate load-generator process (:func:`_service_drive`) with
    ``clients`` concurrent asyncio clients per leg, recording QPS plus
    p50/p95/p99 request latency.  The warm leg executes prepared
    statements (parse/annotate once, plan cache + cross-query build-side
    sharing); the cold leg sends the same queries — parameters inlined —
    through ``/query``, which parses and plans from scratch per request.

    With ``scenario_path`` the bench serves an *ingested* database instead
    of the default R/S/T/U instance, driving it with an FK-join workload
    derived from the scenario (keep such scenarios small — every served
    result is still replayed through the formal semantics).

    Two gates decide the exit code: every served result (both legs) must
    match the formal semantics replayed over the same database
    (``digest_match``), and the warm leg must clear 2x the cold leg's QPS.
    """
    import asyncio

    from repro.core import Null
    from repro.ingest import import_scenario
    from repro.ingest.workload import (
        build_service_workload,
        default_service_database,
        default_service_workload,
    )
    from repro.service import QueryService, ServiceClient, ServiceThread
    from repro.service.protocol import (
        bind_parameters,
        expand_placeholders,
        rows_from_json,
    )
    from repro.sql import annotate

    if scenario_path:
        scenario = import_scenario(scenario_path)
        db = scenario.database
        workload = build_service_workload(scenario)
    else:
        db = default_service_database(rows)
        workload = default_service_workload()
    semantics = SqlSemantics(db.schema, star_style=STAR_COMPOSITIONAL)

    # The formal-semantics oracle per (sql, params): every served response
    # is replayed against these multisets.
    oracle = {}
    for sql, bindings in workload:
        template, count = expand_placeholders(sql)
        query = annotate(template, db.schema)
        for params in bindings:
            bound = bind_parameters(query, list(params), count)
            table = semantics.run(bound, db)
            oracle[(sql, tuple(params))] = sorted(table.bag, key=repr)

    service = QueryService()
    served_digest = hashlib.sha256()
    mismatches = []

    def check(served):
        for sql, params, rows_json in served:
            got = sorted(rows_from_json(rows_json), key=repr)
            served_digest.update(repr(got).encode())
            if got != oracle[(sql, tuple(params))]:
                mismatches.append((sql, params))

    with ServiceThread(service) as thread:
        url = thread.url
        schema_json = {t: list(db.schema.attributes(t)) for t in db.schema.table_names}
        tables_json = {
            t: [
                [None if isinstance(v, Null) else v for v in row]
                for row in db.table(t).bag
            ]
            for t in db.schema.table_names
        }

        async def load():
            async with ServiceClient(url, tenant="bench") as c:
                await c.load(schema_json, tables_json)

        asyncio.run(load())
        total_rows = sum(len(db.table(t)) for t in db.schema.table_names)
        print(
            f"service: {clients} clients x {requests} requests/leg, "
            + (
                f"scenario {scenario_path} ({total_rows} rows), "
                if scenario_path
                else f"{rows}-row tables, "
            )
            + "load generator in its own process ..."
        )

        # A spawned (not forked) pool: the child must not inherit the
        # server thread's loop state, and must never share the server's
        # GIL — the whole point of the separate process.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            def run_leg(leg):
                warmup = min(clients * 4, requests)
                pool.apply(
                    _service_drive, (url, leg, clients, warmup, 1, workload)
                )
                # Best-of-two timed rounds: the QPS figure is the sustained
                # capability, not whichever round the container scheduler
                # happened to preempt.  Every served result of every round
                # still goes through the semantics replay.
                elapsed = None
                latencies = []
                for round_seed in (2, 3):
                    round_elapsed, round_latencies, served = pool.apply(
                        _service_drive,
                        (url, leg, clients, requests, round_seed, workload),
                    )
                    check(served)
                    latencies.extend(round_latencies)
                    if elapsed is None or round_elapsed < elapsed:
                        elapsed = round_elapsed
                latencies.sort()

                def pct(p):
                    return latencies[
                        min(len(latencies) - 1, int(p * len(latencies)))
                    ]

                return {
                    "requests": requests,
                    "elapsed_s": round(elapsed, 3),
                    "qps": round(requests / elapsed, 1) if elapsed > 0 else 0.0,
                    "latency_ms": {
                        "p50": round(pct(0.50), 3),
                        "p95": round(pct(0.95), 3),
                        "p99": round(pct(0.99), 3),
                    },
                }

            cold = run_leg("cold")
            print(
                f"  cold (ad-hoc /query)       {cold['qps']:10.1f} qps  "
                f"p50/p95/p99 {cold['latency_ms']['p50']:.2f}/"
                f"{cold['latency_ms']['p95']:.2f}/{cold['latency_ms']['p99']:.2f} ms"
            )
            warm = run_leg("warm")
            print(
                f"  warm (prepared /execute)   {warm['qps']:10.1f} qps  "
                f"p50/p95/p99 {warm['latency_ms']['p50']:.2f}/"
                f"{warm['latency_ms']['p95']:.2f}/{warm['latency_ms']['p99']:.2f} ms"
            )

        async def stats():
            async with ServiceClient(url, tenant="bench") as c:
                return await c.stats()

        service_stats = asyncio.run(stats())

    tenant = service_stats["tenants"]["bench"]
    build = tenant["build_cache"]
    probes = build["hits"] + build["misses"]
    cross_hit_rate = build["cross_hits"] / probes if probes else 0.0
    speedup = warm["qps"] / cold["qps"] if cold["qps"] else 0.0
    digest_match = not mismatches

    doc = {
        "schema": "bench-service/v1",
        "clients": clients,
        "rows": rows if not scenario_path else total_rows,
        **({"scenario": scenario_path} if scenario_path else {}),
        "warm": warm,
        "cold": cold,
        "speedup": round(speedup, 3),
        "cross_query_build_hits": build["cross_hits"],
        "cross_query_hit_rate": round(cross_hit_rate, 4),
        "plan_cache": tenant["plan_cache"],
        "build_cache": build,
        "statements": tenant["statements"],
        "served_digest": served_digest.hexdigest(),
        "digest_match": digest_match,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    ok = digest_match and speedup >= min_speedup and build["cross_hits"] > 0
    print(
        f"service: prepared/ad-hoc speedup {speedup:.2f}x "
        f"(gate: >= {min_speedup:g}x), "
        f"cross-query hit rate {cross_hit_rate:.1%} "
        f"({build['cross_hits']} hits), semantics replay "
        f"{'matches' if digest_match else 'DIVERGES'} "
        f"({len(oracle)} distinct results) -> {out_path}"
    )
    if mismatches:
        for sql, params in mismatches[:5]:
            print(f"  MISMATCH: {sql!r} params={list(params)}", file=sys.stderr)
    return ok


# -- ingest stage -------------------------------------------------------------


def bench_ingest(rows: int, trials: int, out_path: str, seed: int = 1) -> bool:
    """Ingestion + live-SQLite differential throughput at scale.

    Synthesizes the FK-rich library scenario at roughly ``rows`` total rows,
    exports it to a real SQLite file, re-imports it through the production
    importer (timing the import), checks the metamorphic round-trip (every
    re-imported table fingerprint must equal the original's), then runs a
    ``trials``-seed live-SQLite differential campaign over the imported
    database, recording trials/s and the divergence breakdown.

    The gate: the round-trip must be lossless and the campaign must finish
    with **zero unclassified divergences** (classified dialect gaps are
    counted, not failed).
    """
    import shutil
    import tempfile

    from repro.campaigns import CampaignSpec, run_campaign
    from repro.ingest import import_scenario
    from repro.ingest.demo import library_scenario
    from repro.ingest.importer import export_sqlite

    print(f"ingest: synthesizing the library scenario at ~{rows} rows ...")
    started = time.perf_counter()
    scenario = library_scenario(rows, seed=seed)
    synth_s = time.perf_counter() - started
    total = scenario.total_rows

    tmp = tempfile.mkdtemp(prefix="bench-ingest-")
    try:
        db_path = str(Path(tmp) / "library.db")
        started = time.perf_counter()
        export_sqlite(scenario, db_path)
        export_s = time.perf_counter() - started

        started = time.perf_counter()
        imported = import_scenario(db_path)
        import_s = time.perf_counter() - started
        roundtrip_ok = (
            imported.table_fingerprints() == scenario.table_fingerprints()
            and sorted(map(repr, imported.fks)) == sorted(map(repr, scenario.fks))
        )

        print(
            f"ingest: {total} rows synthesized in {synth_s:.2f}s, "
            f"exported in {export_s:.2f}s, imported in {import_s:.2f}s, "
            f"round-trip fingerprints "
            f"{'match' if roundtrip_ok else 'DIFFER'}"
        )

        spec = CampaignSpec(kind="live-sqlite", scenario=db_path, rows=0)
        result = run_campaign(spec, trials=trials, base_seed=0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unclassified = len(result.mismatches)
    doc = {
        "schema": "bench-ingest/v1",
        "rows": total,
        "trials": trials,
        "synth_s": round(synth_s, 3),
        "export_s": round(export_s, 3),
        "import_s": round(import_s, 3),
        "roundtrip_fingerprints_match": roundtrip_ok,
        "trials_per_sec": round(result.trials_per_sec, 1),
        "agreements": result.agreements,
        "classified": result.classified,
        "classified_by_class": result.classified_by_class,
        "unclassified_divergences": unclassified,
        "outcome_digest": result.outcome_digest,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    ok = roundtrip_ok and unclassified == 0
    breakdown = (
        ", ".join(
            f"{name}: {count}"
            for name, count in result.classified_by_class.items()
        )
        or "none"
    )
    print(
        f"ingest: {result.trials_per_sec:.0f} trials/s over {total} rows, "
        f"{result.classified} classified divergence(s) ({breakdown}), "
        f"{unclassified} unclassified -> {out_path}"
    )
    for mismatch in result.mismatches[:5]:
        print(f"  UNCLASSIFIED: {mismatch.get('detail')}", file=sys.stderr)
    return ok


# -- chaos stage ---------------------------------------------------------------


def _chaos_distributed(trials, workers, rows, seed):
    """An HTTP-distributed campaign under ambient faults, with a live
    coordinator bounce mid-campaign, gated on digest identity with a
    fault-free serial run."""
    import shutil
    import tempfile
    import threading

    from repro import faults
    from repro.campaigns import (
        Coordinator,
        CoordinatorServer,
        summarize_checkpoint,
        work_remote,
    )
    from repro.faults import FaultPlan

    spec = CampaignSpec(kind="validation", variant="postgres", rows=rows)
    print(f"chaos/distributed: {trials} trials, fault-free serial reference ...")
    serial = run_campaign(spec, trials=trials, base_seed=0, jobs=1)

    lease_trials = max(5, trials // 20)
    plan = FaultPlan(
        seed,
        {
            "worker.crash": 0.2,
            "worker.duplicate_submit": 0.15,
            "transport.connect": 0.05,
            "transport.read_timeout": 0.03,
            "checkpoint.torn": 0.05,
        },
    )
    tmp = tempfile.mkdtemp(prefix="bench-chaos-")
    bounced = False
    try:
        checkpoint = str(Path(tmp) / "campaign.jsonl")
        journal = str(Path(tmp) / "leases.jsonl")

        def make_coordinator(resume):
            return Coordinator(
                spec,
                trials,
                base_seed=0,
                lease_trials=lease_trials,
                lease_timeout_s=2.0,
                max_lease_attempts=1000,
                checkpoint=checkpoint,
                journal_path=journal,
                resume=resume,
            )

        coordinator = make_coordinator(resume=False)
        server = CoordinatorServer(coordinator)
        server.start()
        port = int(server.url.rsplit(":", 1)[1])
        print(
            f"chaos/distributed: {workers} worker thread(s) against "
            f"{server.url} under fault plan seed {seed} ..."
        )
        faults.install(plan)
        started = time.perf_counter()
        summaries = [None] * workers

        def drive(index):
            summaries[index] = work_remote(
                server.url,
                worker=f"chaos-w{index + 1}",
                poll_s=0.05,
                retries=6,
                backoff_s=0.05,
                timeout_s=30.0,
            )

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()

        # The coordinator bounce: once a third of the campaign has landed,
        # kill the server and coordinator, resume from the checkpoint on
        # the SAME port.  Workers ride it out on their retry budget.
        bounce_deadline = time.monotonic() + 120
        while (
            coordinator.status()["completed"] < trials // 3
            and time.monotonic() < bounce_deadline
        ):
            time.sleep(0.02)
        server.stop()
        coordinator.close()
        coordinator = make_coordinator(resume=True)
        server = CoordinatorServer(coordinator, port=port)
        server.start()
        bounced = True
        print(
            "chaos/distributed: coordinator bounced at "
            f"{coordinator.resumed_trials} resumed trial(s); serving again"
        )

        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - started
        stuck = any(thread.is_alive() for thread in threads)
        server.stop()
        coordinator.close()
        result = coordinator.result(elapsed_s=elapsed)
        _header, merged = summarize_checkpoint(checkpoint, strict=True)
        file_digest = merged.finalize().outcome_digest
    finally:
        faults.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    crashes = sum((s or {}).get("crashes", 0) for s in summaries)
    digest_match = result.outcome_digest == serial.outcome_digest
    file_match = file_digest == serial.outcome_digest
    ok = (
        not stuck
        and digest_match
        and file_match
        and result.completed == trials
        and crashes > 0
        and plan.injected.get("worker.crash", 0) > 0
    )
    print(
        f"chaos/distributed: {result.completed}/{trials} trials in "
        f"{elapsed:.1f}s, {crashes} injected worker crash(es), "
        f"{result.duplicates} duplicate record(s), digests "
        f"{'match' if digest_match and file_match else 'DIFFER'}"
    )
    return ok, {
        "trials": trials,
        "workers": workers,
        "rows": rows,
        "lease_trials": lease_trials,
        "completed": result.completed,
        "duplicates": result.duplicates,
        "worker_crashes": crashes,
        "coordinator_bounced": bounced,
        "elapsed_s": round(elapsed, 3),
        "digest_match": digest_match,
        "merged_file_digest_match": file_match,
        "outcome_digest": result.outcome_digest,
        "faults": plan.counts(),
        "workers_stuck": stuck,
    }


def _chaos_quarantine(seed):
    """A poison seed range must quarantine — campaign done, holes reported."""
    from repro.campaigns import Coordinator
    from repro.faults import FaultPlan

    spec = CampaignSpec(kind="validation", variant="postgres", rows=3)
    trials, lease_trials, max_attempts = 40, 10, 3
    plan = FaultPlan(seed, {"worker.crash": 0.1})
    poison = (0, lease_trials)
    clock_now = [0.0]
    coordinator = Coordinator(
        spec,
        trials,
        lease_trials=lease_trials,
        lease_timeout_s=5.0,
        max_lease_attempts=max_attempts,
        clock=lambda: clock_now[0],
    )
    backend = spec.build()
    for _ in range(10_000):
        if coordinator.done:
            break
        lease = coordinator.acquire("chaos")
        if lease is None or (lease.lo, lease.hi) == poison or plan.fire("worker.crash"):
            clock_now[0] += coordinator.lease_timeout_s + 1
            coordinator.expire_stale()
            continue
        coordinator.submit(
            lease.lease_id,
            [backend.run_trial(s) for s in lease.seeds()],
            worker="chaos",
        )
    report = coordinator.quarantined()
    status = coordinator.status()
    ok = (
        coordinator.done
        and len(report) == 1
        and (report[0]["lo"], report[0]["hi"]) == poison
        and status["quarantined_pending"] == lease_trials
        and coordinator.result().completed == trials - lease_trials
    )
    print(
        f"chaos/quarantine: {status['quarantined_ranges']} range(s) "
        f"quarantined after {max_attempts} attempts, "
        f"{status['quarantined_pending']} seed(s) reported unfinished, "
        f"campaign {'done' if coordinator.done else 'WEDGED'}"
    )
    return ok, {
        "trials": trials,
        "max_lease_attempts": max_attempts,
        "quarantined_ranges": status["quarantined_ranges"],
        "quarantined_pending": status["quarantined_pending"],
        "done": coordinator.done,
        "report": report,
    }


def _chaos_corruption():
    """Checkpoint damage detection: an interior bit flip must be caught by
    the per-line CRC with its line number; a torn final line must be
    silently tolerated (the kill-mid-write signature)."""
    import shutil
    import tempfile

    from repro import faults as faultmod
    from repro.campaigns import CheckpointCorruption, load_checkpoint
    from repro.campaigns.checkpoint import CHECKPOINT_SCHEMA, CheckpointWriter

    spec = CampaignSpec(kind="validation", variant="postgres", rows=3)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "spec": spec.to_json(),
        "base_seed": 0,
        "trials": 6,
    }
    records = [{"seed": s, "code": 1} for s in range(6)]
    tmp = tempfile.mkdtemp(prefix="bench-chaos-crc-")
    try:
        flipped = str(Path(tmp) / "flipped.jsonl")
        writer = CheckpointWriter(flipped, header, fresh=True)
        writer.write_records(records)
        writer.close()
        faultmod.flip_bit(flipped, 3)  # line 3 = second record
        detected_line = None
        try:
            load_checkpoint(flipped, strict=True)
        except CheckpointCorruption as exc:
            detected_line = exc.line_number
        interior_ok = detected_line == 3

        torn = str(Path(tmp) / "torn.jsonl")
        writer = CheckpointWriter(torn, header, fresh=True)
        writer.write_records(records)
        writer.close()
        faultmod.tear_final_line(torn)
        _header, kept = load_checkpoint(torn, strict=True)
        torn_ok = len(kept) == len(records) - 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        "chaos/corruption: interior bit flip "
        + (f"caught at line {detected_line}" if interior_ok else "MISSED")
        + ", torn final line "
        + ("tolerated" if torn_ok else "NOT tolerated")
    )
    return interior_ok and torn_ok, {
        "interior_flip_detected": interior_ok,
        "detected_line": detected_line,
        "torn_final_tolerated": torn_ok,
    }


def _chaos_service(requests, clients, seed):
    """Concurrent service load under injected execution faults and stream
    drops: every response is either bit-identical to the fault-free oracle
    or a clean error — silent wrong answers are the one unforgivable
    outcome."""
    import asyncio
    import threading

    from repro import faults
    from repro.core import Database, Schema
    from repro.faults import FaultPlan
    from repro.service import (
        QueryService,
        ServiceClient,
        ServiceError,
        ServiceThread,
    )

    schema = Schema({"R": ("A", "B"), "S": ("C", "D")})
    tables = {
        "R": [(i, (i * 7) % 5 if i % 4 else None) for i in range(1, 25)],
        "S": [(i % 6, i * 10) for i in range(1, 19)],
    }
    queries = [
        "SELECT R.A FROM R",
        "SELECT R.A, R.B FROM R WHERE R.A > 5",
        "SELECT R.B FROM R WHERE R.B IS NOT NULL",
        "SELECT R.A, S.D FROM R, S WHERE R.A = S.C",
        "SELECT S.C FROM S UNION SELECT R.A FROM R",
    ]
    service = QueryService(batch_rows=4)
    service.install_database(Database(schema, tables))
    plan = FaultPlan(
        seed, {"server.exec_error": 0.25, "server.disconnect": 0.05}
    )

    def fetch(url, sql):
        async def go():
            async with ServiceClient(url) as client:
                result = await client.query(sql)
                return sorted((tuple(r) for r in result.rows), key=repr)

        return asyncio.run(go())

    with ServiceThread(service) as thread:
        oracle = {sql: fetch(thread.url, sql) for sql in queries}
        counters = [
            {"ok": 0, "clean_errors": 0, "silent_wrong": 0}
            for _ in range(clients)
        ]

        def drive(index):
            mine = counters[index]
            for k in range(index, requests, clients):
                sql = queries[k % len(queries)]
                try:
                    rows = fetch(thread.url, sql)
                except (
                    ServiceError,
                    ConnectionError,
                    asyncio.IncompleteReadError,
                ):
                    mine["clean_errors"] += 1
                    continue
                if rows == oracle[sql]:
                    mine["ok"] += 1
                else:
                    mine["silent_wrong"] += 1

        faults.install(plan)
        try:
            threads = [
                threading.Thread(target=drive, args=(i,), daemon=True)
                for i in range(clients)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=300)
        finally:
            faults.uninstall()
        tier_fallbacks = service.tier_fallbacks
        internal_errors = service.internal_errors

    totals = {
        key: sum(c[key] for c in counters)
        for key in ("ok", "clean_errors", "silent_wrong")
    }
    ok = (
        totals["silent_wrong"] == 0
        and totals["ok"] + totals["clean_errors"] == requests
        and tier_fallbacks > 0
    )
    print(
        f"chaos/service: {requests} request(s) x {clients} client(s): "
        f"{totals['ok']} correct, {totals['clean_errors']} clean error(s), "
        f"{totals['silent_wrong']} silent wrong answer(s), "
        f"{tier_fallbacks} tier fallback(s)"
    )
    return ok, {
        "requests": requests,
        "clients": clients,
        **totals,
        "tier_fallbacks": tier_fallbacks,
        "internal_errors": internal_errors,
        "faults": plan.counts(),
    }


def bench_chaos(
    trials: int,
    workers: int,
    rows: int,
    requests: int,
    seed: int,
    out_path: str,
) -> bool:
    """The deterministic chaos stage: four legs, every gate about *safety
    under faults* — never a wrong answer, never a silent hole, never a
    wedged campaign — recorded in ``out_path``."""
    distributed_ok, distributed_doc = _chaos_distributed(
        trials, workers, rows, seed
    )
    quarantine_ok, quarantine_doc = _chaos_quarantine(seed)
    corruption_ok, corruption_doc = _chaos_corruption()
    service_ok, service_doc = _chaos_service(requests, min(4, workers + 1), seed)
    ok = distributed_ok and quarantine_ok and corruption_ok and service_ok
    doc = {
        "schema": "bench-chaos/v1",
        "seed": seed,
        "distributed": distributed_doc,
        "quarantine": quarantine_doc,
        "corruption": corruption_doc,
        "service": service_doc,
        "ok": ok,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"chaos: {'all gates pass' if ok else 'GATE FAILED'} -> {out_path}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="rounds per stage")
    parser.add_argument(
        "--rows", type=int, default=50,
        help="table size for the cyclic-join, subquery and scan-kernel "
        "workload stages (engine_wcoj/engine_binary, "
        "engine_subquery/engine_subquery_naive, "
        "engine_scan/engine_scan_interpreted; default: the paper's 50-row cap)",
    )
    parser.add_argument(
        "--stages",
        default=None,
        help="comma-separated subset of stages to run (default: all; "
        "'campaign' selects the campaign-throughput stage)",
    )
    parser.add_argument(
        "--campaign-trials", type=int, default=1500,
        help="trials for the campaign stage",
    )
    parser.add_argument(
        "--campaign-jobs", type=int, default=4,
        help="worker processes for the parallel campaign leg",
    )
    parser.add_argument(
        "--campaign-rows", type=int, default=6,
        help="row cap for campaign trial databases",
    )
    parser.add_argument(
        "--distributed-trials", type=int, default=600,
        help="trials for the distributed stage",
    )
    parser.add_argument(
        "--distributed-workers", type=int, default=3,
        help="worker subprocesses for the distributed stage",
    )
    parser.add_argument(
        "--service-clients", type=int, default=8,
        help="concurrent asyncio clients for the service stage",
    )
    parser.add_argument(
        "--service-requests", type=int, default=400,
        help="requests per leg (warm and cold) for the service stage",
    )
    parser.add_argument(
        "--service-rows", type=int, default=60,
        help="row cap for the service stage's tables (kept small enough "
        "that the formal-semantics replay gate stays cheap)",
    )
    parser.add_argument(
        "--service-min-speedup", type=float, default=2.0,
        help="warm/cold QPS ratio the service stage must clear (relax on "
        "shared CI runners where wall-clock ratios are noisy; the digest "
        "and cross-hit gates always apply)",
    )
    parser.add_argument(
        "--service-out",
        default=str(_ROOT / "BENCH_service.json"),
        help="service-stage output JSON path",
    )
    parser.add_argument(
        "--service-scenario", default=None, metavar="PATH",
        help="serve an ingested scenario (SQLite file, .sql script or CSV "
        "directory) instead of the built-in R/S/T/U tables, driven by an "
        "FK-join workload derived from it (keep it small: every served "
        "result is replayed through the formal semantics)",
    )
    parser.add_argument(
        "--ingest-rows", type=int, default=100_000,
        help="approximate total rows for the ingest stage's scenario",
    )
    parser.add_argument(
        "--ingest-trials", type=int, default=500,
        help="live-SQLite differential trials for the ingest stage",
    )
    parser.add_argument(
        "--ingest-out",
        default=str(_ROOT / "BENCH_ingest.json"),
        help="ingest-stage output JSON path",
    )
    parser.add_argument(
        "--chaos-trials", type=int, default=500,
        help="trials for the chaos stage's distributed campaign",
    )
    parser.add_argument(
        "--chaos-workers", type=int, default=3,
        help="worker threads for the chaos stage's distributed campaign",
    )
    parser.add_argument(
        "--chaos-rows", type=int, default=4,
        help="row cap for chaos-stage trial databases",
    )
    parser.add_argument(
        "--chaos-requests", type=int, default=200,
        help="service requests for the chaos stage's service leg",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=1,
        help="fault-plan seed for the chaos stage (same seed, same faults)",
    )
    parser.add_argument(
        "--chaos-out",
        default=str(_ROOT / "BENCH_chaos.json"),
        help="chaos-stage output JSON path",
    )
    parser.add_argument(
        "--out",
        default=str(_ROOT / "BENCH_engine.json"),
        help="engine-stage output JSON path",
    )
    parser.add_argument(
        "--campaign-out",
        default=str(_ROOT / "BENCH_campaign.json"),
        help="campaign-stage output JSON path",
    )
    args = parser.parse_args(argv)

    known = set(ENGINE_STAGES) | {
        CAMPAIGN_STAGE,
        DISTRIBUTED_STAGE,
        SERVICE_STAGE,
        INGEST_STAGE,
        CHAOS_STAGE,
    }
    if args.stages is None:
        selected = list(ENGINE_STAGES) + [
            CAMPAIGN_STAGE,
            DISTRIBUTED_STAGE,
            SERVICE_STAGE,
            INGEST_STAGE,
            CHAOS_STAGE,
        ]
    else:
        selected = [name.strip() for name in args.stages.split(",") if name.strip()]
        unknown = [name for name in selected if name not in known]
        if unknown:
            parser.error(
                f"unknown stage(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(known))}"
            )

    stages, context = build_stages(set(selected), rows=args.rows)

    results = {}
    ratios = {}
    for name in selected:
        if name in (
            CAMPAIGN_STAGE,
            DISTRIBUTED_STAGE,
            SERVICE_STAGE,
            INGEST_STAGE,
            CHAOS_STAGE,
        ):
            continue
        fn = stages[name]
        fn()  # warm-up (also populates any lazy caches outside the timing)
        results[name] = median_ns(fn, args.rounds)
        print(f"{name:28s} {results[name] / 1e6:12.3f} ms (median of {args.rounds})")
        for key, (fast, slow, _gate, rounds) in GATED_RATIOS.items():
            if key not in ratios and fast in results and slow in results:
                # A gated ratio is measured here, as soon as both legs are
                # warm, rather than after every stage has run: the flat
                # legs are only a few ms each, and the heap the later
                # large-table stages leave behind is enough to push the
                # paired measurement past the gate's noise margin.
                ratios[key] = paired_ratio(
                    stages[fast], stages[slow], rounds=max(args.rounds, rounds)
                )

    digests_ok = True
    semantics_ok = True
    if results:
        results_doc = {
            "schema": "bench-engine/v1",
            "rounds": args.rounds,
            "rows": args.rows,
            "median_ns": results,
        }
        if "engine_naive" in results and "engine_optimized" in results:
            speedup = results["engine_naive"] / results["engine_optimized"]
            results_doc["engine_speedup"] = round(speedup, 3)
            print(f"\nengine optimizer speedup: {speedup:.2f}x")
        if "engine_repeat_cached" in results and "plan_cache" in context:
            cached_engine = context["plan_cache"]
            results_doc["plan_cache"] = cached_engine.cache_info()
            if "engine_repeat_uncached" in results:
                results_doc["plan_cache_speedup"] = round(
                    results["engine_repeat_uncached"]
                    / results["engine_repeat_cached"],
                    3,
                )
                print(
                    f"plan cache speedup (10 queries x 15 dbs): "
                    f"{results_doc['plan_cache_speedup']:.2f}x "
                    f"{cached_engine.cache_info()}"
                )
        if "engine_repeat_shared" in results and "build_cache" in context:
            shared_engine = context["build_cache"]
            results_doc["build_cache"] = shared_engine.build_cache_info()
            if "engine_repeat_unshared" in results:
                results_doc["build_cache_speedup"] = round(
                    results["engine_repeat_unshared"]
                    / results["engine_repeat_shared"],
                    3,
                )
                print(
                    f"build-side sharing speedup (repeated contents): "
                    f"{results_doc['build_cache_speedup']:.2f}x "
                    f"{shared_engine.build_cache_info()}"
                )
        for key, ratio in ratios.items():
            # Measured pairwise, so both legs see the same scheduler noise.
            # The flat pair's gate keeps the optimized route from ever
            # costing more than the literal one (5% noise allowance); the
            # nested pair's keeps the memo's win from quietly disappearing.
            _fast, _slow, gate, _rounds = GATED_RATIOS[key]
            results_doc[key] = round(ratio, 3)
            semantics_ok = semantics_ok and ratio <= gate
            print(
                f"{key}: {ratio:.3f} (gate: <= {gate}"
                f"{'' if ratio <= gate else ', REGRESSED'})"
            )
        if "semantics_nested" in context:
            semantics_ok = (
                check_semantics_nested(context["semantics_nested"], results_doc)
                and semantics_ok
            )
        digests_ok = check_ablation_digests(context, results_doc)
        Path(args.out).write_text(json.dumps(results_doc, indent=2) + "\n")
        print(f"engine stages -> {args.out}")

    campaign_ok = True
    if CAMPAIGN_STAGE in selected:
        campaign_doc = bench_campaign(
            args.campaign_trials,
            args.campaign_jobs,
            args.campaign_rows,
            args.campaign_out,
        )
        campaign_ok = campaign_doc["engine_tier_ab"]["gate_ok"]
    distributed_ok = True
    if DISTRIBUTED_STAGE in selected:
        distributed_ok = bench_distributed(
            args.distributed_trials,
            args.distributed_workers,
            args.campaign_rows,
            args.campaign_out,
        )
    service_ok = True
    if SERVICE_STAGE in selected:
        service_ok = bench_service(
            args.service_clients,
            args.service_requests,
            args.service_rows,
            args.service_out,
            min_speedup=args.service_min_speedup,
            scenario_path=args.service_scenario,
        )
    ingest_ok = True
    if INGEST_STAGE in selected:
        ingest_ok = bench_ingest(
            args.ingest_rows,
            args.ingest_trials,
            args.ingest_out,
        )
    chaos_ok = True
    if CHAOS_STAGE in selected:
        chaos_ok = bench_chaos(
            args.chaos_trials,
            args.chaos_workers,
            args.chaos_rows,
            args.chaos_requests,
            args.chaos_seed,
            args.chaos_out,
        )
    if not digests_ok:
        print("FATAL: optimizer ablation digests disagree", file=sys.stderr)
        return 1
    if not semantics_ok:
        print(
            "FATAL: semantics gate failed (the default evaluator more than "
            "5% slower than the literal route on the flat mix, less than "
            "20% faster on the nested one, or a different outcome digest)",
            file=sys.stderr,
        )
        return 1
    if not distributed_ok:
        print(
            "FATAL: distributed campaign digest/workers disagree with the "
            "serial run",
            file=sys.stderr,
        )
        return 1
    if not campaign_ok:
        print(
            "FATAL: the shipped campaign engine benches more than 5% "
            "slower than the codegen-off leg on the live scenario, or the two "
            "disagree on the outcome digest (re-evaluate "
            "engine.SINGLE_USE_COMPILE_ROWS)",
            file=sys.stderr,
        )
        return 1
    if not service_ok:
        print(
            "FATAL: service stage gate failed (semantics replay mismatch, "
            "warm/cold speedup below 2x, or no cross-query build-cache "
            "hits)",
            file=sys.stderr,
        )
        return 1
    if not ingest_ok:
        print(
            "FATAL: ingest stage gate failed (lossy import/export "
            "round-trip, or unclassified live-SQLite divergences)",
            file=sys.stderr,
        )
        return 1
    if not chaos_ok:
        print(
            "FATAL: chaos stage gate failed (digest drift under faults, a "
            "wedged or unreported quarantine, undetected checkpoint "
            "corruption, or a silently wrong service answer)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
