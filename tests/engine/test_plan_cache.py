"""The engine plan cache: memoized plans, each a function of the database.

``Engine`` memoizes optimized plans keyed by the query AST (dialect and
optimize-flag are fixed per engine, so the (query, dialect, optimize)
triple is the effective key), and a cached plan executed over a different
database must behave exactly like a freshly compiled one: every
per-execution memo the optimizer introduces lives in the run, never in the
plan, so runs of one plan over different databases — one after another,
interleaved, or in two threads — never meet.
"""

import random
import sys
import threading

from repro.core import NULL, Database, Schema, validation_schema
from repro.core.bag import Bag
from repro.core.table import Table
from repro.engine import Engine, Planner
from repro.engine.operators import TableScan
from repro.generator import DataFillerConfig, fill_database
from repro.generator.queries import QueryGenerator
from repro.semantics import SqlSemantics
from repro.sql import annotate

from ..executor import run_rows

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


def test_unbound_planner_emits_table_scans_read_from_the_run_database():
    query = annotate("SELECT R.A FROM R", SCHEMA)
    compiled = Planner(SCHEMA, None, "postgres").compile(query)
    assert isinstance(compiled.plan.child, TableScan)
    assert run_rows(compiled.plan, db=make_db([(1, NULL)], [])) == [(1,)]
    assert run_rows(compiled.plan, db=make_db([(2, 3), (4, 5)], [])) == [(2,), (4,)]


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


# -- one plan, two databases at once -------------------------------------------

#: One statement per kind of run state: a closed hash-join build over a
#: filtered scan, a probe set and a correlated EXISTS memo, a cached
#: FROM-subquery, and builds over bare scans memoized on the tables.
STATEFUL_SQL = [
    "SELECT R.A, S.A FROM R, S WHERE R.A = S.A AND S.A > 0",
    "SELECT R.A FROM R WHERE R.B IN (SELECT S.A FROM S WHERE S.A > 1)",
    "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A < R.B)",
    "SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
    "SELECT R.A, U.X FROM R, (SELECT S.A AS X FROM S WHERE S.A > 1) AS U",
    "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)",
]

#: Two databases that answer every statement above differently.
DATABASES = [
    make_db([(1, 2), (2, 3), (3, 1), (NULL, 4)], [(1,), (2,)]),
    make_db([(1, 5), (2, 1), (4, 4), (3, NULL)], [(3,), (4,), (NULL,)]),
]


def oracle(query, db):
    return SqlSemantics(SCHEMA).run(query, db)


def as_table(compiled, rows):
    restored = (tuple(NULL if v is None else v for v in row) for row in rows)
    return Table(compiled.labels, Bag(restored))


def cached_plans():
    """Each statement of ``STATEFUL_SQL`` with its plan from a default
    engine's cache, after one execution over each database has filled the
    engine's build-side cache and the tables' memos."""
    engine = Engine(SCHEMA, "postgres")
    for sql in STATEFUL_SQL:
        query = annotate(sql, SCHEMA)
        for db in DATABASES:
            engine.execute(query, db)
        yield sql, query, engine._plan(query)


def test_two_runs_of_one_plan_iterated_alternately():
    for sql, query, compiled in cached_plans():
        runs = [compiled.run(db) for db in DATABASES]
        rows = [[], []]
        live = [0, 1]
        while live:
            for k in list(live):
                row = next(runs[k], None)
                if row is None:
                    live.remove(k)
                else:
                    rows[k].append(row)
        for db, got in zip(DATABASES, rows):
            assert as_table(compiled, got).same_as(oracle(query, db)), sql


def test_two_threads_run_one_cached_plan_over_different_databases():
    plans = list(cached_plans())
    expected = [[oracle(query, db) for db in DATABASES] for _sql, query, _c in plans]
    wrong = []

    def work(k):
        for _round in range(30):
            for (sql, _query, compiled), answers in zip(plans, expected):
                got = as_table(compiled, compiled.run(DATABASES[k]))
                if not got.same_as(answers[k]):
                    wrong.append((sql, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # More threads than cores, two per database.
        threads = [threading.Thread(target=work, args=(k % 2,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
