"""The engine plan cache: memoized unbound plans, rebound per database.

The ROADMAP follow-up this implements: ``Engine`` memoizes optimized plans
keyed by the query AST (dialect and optimize-flag are fixed per engine, so
the (query, dialect, optimize) triple is the effective key), and a cached
plan re-executed against a different database must behave exactly like a
freshly compiled one — including the reset of every per-execution memo the
optimizer introduces.
"""

import random

import pytest

from repro.core import NULL, Database, Schema, validation_schema
from repro.engine import Engine, Planner, bind_plan
from repro.engine.operators import TableScan
from repro.generator import DataFillerConfig, fill_database
from repro.generator.queries import QueryGenerator
from repro.sql import annotate

SCHEMA = Schema({"R": ("A", "B"), "S": ("A",)})


def make_db(rows_r, rows_s):
    return Database(SCHEMA, {"R": rows_r, "S": rows_s})


def test_cache_hits_counted_and_results_correct_across_databases():
    engine = Engine(SCHEMA, "postgres")
    query = annotate("SELECT R.A FROM R WHERE R.A = 1", SCHEMA)
    db1 = make_db([(1, 2), (3, 4)], [(1,)])
    db2 = make_db([(1, 5), (1, 6), (7, 8)], [(9,)])
    assert len(engine.execute(query, db1)) == 1
    assert len(engine.execute(query, db2)) == 2
    assert len(engine.execute(query, db1)) == 1
    info = engine.cache_info()
    assert info["misses"] == 1
    assert info["hits"] == 2
    assert info["size"] == 1


def test_cached_subquery_probes_reset_between_databases():
    """The optimizer's closed-subquery memos are per-execution state; a
    cached plan must not leak one database's subquery result into the next."""
    engine = Engine(SCHEMA, "postgres")
    query = annotate(
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA
    )
    db_hit = make_db([(1, 2)], [(1,)])
    db_miss = make_db([(1, 2)], [(3,)])
    db_null = make_db([(1, 2)], [(NULL,)])
    assert len(engine.execute(query, db_hit)) == 1
    assert len(engine.execute(query, db_miss)) == 0
    assert len(engine.execute(query, db_null)) == 0
    assert len(engine.execute(query, db_hit)) == 1
    assert engine.cache_info()["hits"] == 3


def test_correlated_exists_memo_reset_between_databases():
    engine = Engine(SCHEMA, "postgres")
    query = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
        SCHEMA,
    )
    assert len(engine.execute(query, make_db([(1, 0), (2, 0)], [(1,)]))) == 1
    assert len(engine.execute(query, make_db([(1, 0), (2, 0)], [(2,)]))) == 1
    assert len(engine.execute(query, make_db([(1, 0), (2, 0)], []))) == 0


def test_cache_disabled_and_eviction():
    uncached = Engine(SCHEMA, "postgres", plan_cache_size=0)
    query = annotate("SELECT R.A FROM R", SCHEMA)
    db = make_db([(1, 2)], [])
    uncached.execute(query, db)
    uncached.execute(query, db)
    assert uncached.cache_info() == {
        "hits": 0, "misses": 0, "evictions": 0, "size": 0, "entries": 0,
        "bytes": 0, "maxsize": 0, "max_bytes": 0,
        # Cardinalities are seeded at bind time (before planning), so even
        # single-use plans — which are never unbound through the feedback
        # walk — order their joins from the real table sizes.
        "observed_rows": {"R": 1, "S": 0},
        "reoptimizations": 0,
        "build": {
            "hits": 0, "misses": 0, "cross_hits": 0, "evictions": 0,
            "size": 0, "entries": 0, "bytes": 0, "maxsize": 128, "max_bytes": 0,
            "kinds": {
                kind: {"entries": 0, "bytes": 0}
                for kind in ("hash_join", "tries", "probes", "memos")
            },
        },
        # A single-use plan over one row is not lowered, so no kernel ran.
        "scan_kernels": {
            "selections": 0, "rows_in": 0, "rows_out": 0, "fallbacks": 0,
            "lookups": 0,
        },
    }
    tiny = Engine(SCHEMA, "postgres", plan_cache_size=2)
    queries = [
        annotate(f"SELECT R.A FROM R WHERE R.A = {i}", SCHEMA) for i in range(4)
    ]
    for q in queries:
        tiny.execute(q, db)
    info = tiny.cache_info()
    assert info["evictions"] == 2
    assert info["size"] == 2
    tiny.clear_plan_cache()
    assert tiny.cache_info()["size"] == 0


def test_unbound_planner_emits_table_scans_and_requires_binding():
    query = annotate("SELECT R.A FROM R", SCHEMA)
    compiled = Planner(SCHEMA, None, "postgres").compile(query)
    scans = [
        node
        for node in [compiled.plan] + getattr(compiled.plan, "children", [])
        if isinstance(node, TableScan)
    ]
    with pytest.raises(RuntimeError, match="without a bound database"):
        list(compiled.plan.iter_rows(()))
    bind_plan(compiled.plan, make_db([(1, NULL)], []))
    assert list(compiled.plan.iter_rows(())) == [(1,)]


def test_cached_engine_agrees_with_uncached_on_random_workload():
    """Property check: plan caching never changes results — the same random
    queries over fresh random databases, cached vs cache-disabled."""
    schema = validation_schema(4)
    cached = Engine(schema, "postgres")
    uncached = Engine(schema, "postgres", plan_cache_size=0)
    queries = [
        QueryGenerator(schema, rng=random.Random(s)).generate() for s in range(12)
    ]
    for round_number in range(3):
        for i, query in enumerate(queries):
            db = fill_database(
                schema,
                random.Random(round_number * 100 + i),
                DataFillerConfig(max_rows=4),
            )
            try:
                expected = uncached.execute(query, db)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    cached.execute(query, db)
                continue
            assert cached.execute(query, db).same_as(expected)
    assert cached.cache_info()["hits"] >= 24  # rounds 2..3 all hit
