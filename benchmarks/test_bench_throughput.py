"""Experiment PERF (engineering): throughput of the main components.

The paper notes its implementation "is not for performance" (it computes
Cartesian products); these microbenchmarks document the cost of each
pipeline stage so regressions are visible.  pytest-benchmark measures:

* random query generation,
* parsing + printing round trips,
* formal-semantics evaluation,
* reference-engine execution — optimized (the default engine: pushdown,
  hash joins, cached subquery probes) and naive (``optimize=False``,
  product-then-filter), at the paper's 50-row table cap; the seed repo
  benchmarked 5-row tables only because the naive engine could not handle
  the paper's own scale,
* worst-case-optimal multiway joins (``GenericJoin``) against the
  ``wcoj=False`` ablation (DP-ordered binary hash joins) on cyclic
  triangle/4-cycle workloads, paired at the 50-row cap and at 5,000 rows
  (``scripts/bench.py --rows``),
* set-at-a-time subquery predicates (equality-correlated EXISTS/IN as
  keyed probes) against ``optimize=False`` on a selective-outer workload,
* scan kernels (filters over base-table scans as fused selections over
  column vectors) against the codegen-off leg (the same plans, one
  predicate-closure call per row) on scan-, join-input- and
  set-operation-shaped statements,
* the full Theorem 1 translation (to SQL-RA + desugaring).

``scripts/bench.py`` runs the same workloads standalone and writes
``BENCH_engine.json`` so the numbers are machine-readable across PRs.
"""

import random

import pytest

from repro.algebra import desugar, to_sqlra
from repro.core import Database, Schema, validation_schema
from repro.engine import Engine
from repro.generator import (
    DM_CONFIG,
    DataFillerConfig,
    PAPER_CONFIG,
    PAPER_ROW_CAP,
    QueryGenerator,
    fill_database,
)
from repro.semantics import STAR_COMPOSITIONAL, SqlSemantics
from repro.sql import annotate, parse_query, print_query
from tests.executor import CodegenOffEngine

SCHEMA = validation_schema()


def make_query(seed, config=PAPER_CONFIG):
    return QueryGenerator(SCHEMA, config, random.Random(seed)).generate()


def make_db(seed, rows=5):
    return fill_database(SCHEMA, random.Random(seed), DataFillerConfig(max_rows=rows))


# -- second-generation optimizer workloads ------------------------------------
#
# Hand-built adversarial inputs for the cost-based join ordering and the
# hash set operations: two big tables and one small one, with queries whose
# *syntactic* FROM order is the worst one (SMALL last, so a left-deep
# FROM-order plan cross-products BIGA x BIGB before the selective joins).

ADVERSARIAL_SCHEMA = Schema(
    {"BIGA": ("A", "B"), "BIGB": ("A", "B"), "SMALL": ("A", "B")}
)

JOIN_ORDER_SQL = (
    "SELECT BIGA.B FROM BIGA, BIGB, SMALL "
    "WHERE SMALL.A = BIGA.A AND SMALL.B = BIGB.A",
    "SELECT BIGA.B, BIGB.B FROM BIGA, BIGB, SMALL "
    "WHERE SMALL.A = BIGA.A AND SMALL.B = BIGB.A AND BIGA.B < BIGB.B",
    "SELECT SMALL.A FROM BIGA, BIGB, SMALL "
    "WHERE SMALL.A = BIGA.A AND BIGA.B = BIGB.B AND SMALL.B = 1",
)

SETOP_SQL = (
    "SELECT BIGA.A FROM BIGA UNION SELECT BIGB.A FROM BIGB",
    "SELECT BIGA.A, BIGA.B FROM BIGA UNION ALL SELECT BIGB.A, BIGB.B FROM BIGB",
    "SELECT BIGA.A, BIGA.B FROM BIGA INTERSECT SELECT BIGB.A, BIGB.B FROM BIGB",
    "SELECT BIGA.A, BIGA.B FROM BIGA EXCEPT SELECT BIGB.A, BIGB.B FROM BIGB",
    # Set operations under EXISTS: streaming stops at the first row, the
    # counted-multiset ablation materializes both sides per probe binding.
    "SELECT SMALL.A FROM SMALL WHERE EXISTS "
    "(SELECT BIGA.A FROM BIGA UNION ALL SELECT BIGB.A FROM BIGB)",
    "SELECT SMALL.A FROM SMALL WHERE EXISTS "
    "(SELECT BIGA.A FROM BIGA WHERE BIGA.A = SMALL.A "
    "UNION ALL SELECT BIGB.A FROM BIGB WHERE BIGB.A = SMALL.B)",
    "SELECT SMALL.A, SMALL.B FROM SMALL WHERE EXISTS "
    "(SELECT BIGA.B FROM BIGA WHERE BIGA.A = SMALL.A "
    "UNION SELECT BIGB.B FROM BIGB WHERE BIGB.B = SMALL.B)",
)


def adversarial_db(seed, big_rows=60, small_rows=3, domain=8):
    """One instance of the adversarial schema: two big tables, one tiny."""
    rng = random.Random(seed)

    def rows(n):
        return [(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)]

    return Database(
        ADVERSARIAL_SCHEMA,
        {"BIGA": rows(big_rows), "BIGB": rows(big_rows), "SMALL": rows(small_rows)},
    )


# -- worst-case-optimal join workload ------------------------------------------
#
# Cyclic equality graphs — the triangle and the 4-cycle — on skewed data
# built so that *every* binary join order is bad: each table has ``hub``
# rows pointing at a hot value, so whichever pair of relations a binary
# plan joins first produces a hub x hub intermediate that the third
# relation then filters away almost entirely.  The multiway GenericJoin
# intersects per-attribute tries instead and never materializes that
# intermediate.  A handful of genuine cycles (unique values, so the trie
# paths are cheap) keep the outputs non-empty for the digest gates.

WCOJ_SCHEMA = Schema(
    {"R": ("A", "B"), "S": ("A", "B"), "T": ("A", "B"), "U": ("A", "B")}
)

WCOJ_TRIANGLE_SQL = (
    "SELECT R.A, S.A, T.A FROM R, S, T "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A"
)

WCOJ_SQUARE_SQL = (
    "SELECT R.A, T.A FROM R, S, T, U "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = U.A AND U.B = R.A"
)


def wcoj_db(seed, rows):
    """One instance of the cyclic-join workload: ``rows`` rows per table,
    an eighth of them incident to each hot hub value."""
    rng = random.Random(seed)
    hub = max(rows // 8, 2)
    junk = iter(range(10_000_000 + seed * 1_000_000, 20_000_000))
    genuine = 8

    def block(a, b, n):
        return [
            (a if a is not None else next(junk),
             b if b is not None else next(junk))
            for _ in range(max(n, 0))
        ]

    # One hot hub value per join attribute: R.A=1, S.A=2, T.A=3, U.A=4.
    # Every edge of both cycles is hot on *both* endpoints (``hub`` rows
    # each side), so whichever pair of relations a binary plan joins
    # first materializes a hub x hub intermediate; T feeds two outgoing
    # edges (T.B = R.A closes the triangle, T.B = U.A continues the
    # 4-cycle), so it carries a hot block for each.
    tables = {
        "R": block(1, None, hub) + block(None, 2, hub),
        "S": block(2, None, hub) + block(None, 3, hub),
        "T": block(3, None, hub) + block(None, 1, hub) + block(None, 4, hub),
        "U": block(4, None, hub) + block(None, 1, hub),
    }
    # A few genuine triangles and squares (fresh unique values, so they
    # survive the trie intersection cheaply) keep the outputs — and the
    # digests the gates compare — non-empty.
    for _ in range(genuine):
        r, s, t = (next(junk) for _ in range(3))
        tables["R"].append((r, s))
        tables["S"].append((s, t))
        tables["T"].append((t, r))  # closes the triangle: T.B = R.A
        tables["U"].append((next(junk), next(junk)))  # keep table sizes equal
    for _ in range(genuine):
        r, s, t, u = (next(junk) for _ in range(4))
        tables["R"].append((r, s))
        tables["S"].append((s, t))
        tables["T"].append((t, u))
        tables["U"].append((u, r))  # closes the 4-cycle: U.B = R.A
    for data in tables.values():
        data += block(None, None, rows - len(data))
        rng.shuffle(data)
    return Database(WCOJ_SCHEMA, tables)


def wcoj_pairs(rows=50, databases=2):
    """The cyclic-join workload: triangle + 4-cycle on every database."""
    queries = [
        annotate(WCOJ_TRIANGLE_SQL, WCOJ_SCHEMA),
        annotate(WCOJ_SQUARE_SQL, WCOJ_SCHEMA),
    ]
    return [
        (query, wcoj_db(seed, rows)) for seed in range(databases) for query in queries
    ]


# -- subquery-predicate workload -------------------------------------------------
#
# Equality-correlated EXISTS / NOT EXISTS / IN / NOT IN and an uncorrelated
# IN, the shapes the optimizer answers set-at-a-time from one keyed build
# side.  The paired engine is ``optimize=False``, which re-runs the subquery
# per probing row, so every statement leads with a conjunct that keeps about
# one outer row in a hundred (C is never NULL: an unknown would not
# short-circuit the naive AND) — the naive leg stays feasible at 5,000 rows.
# Keys repeat about four times and hold ~5% NULLs on both sides.

SUBQUERY_SCHEMA = Schema({"R": ("A", "B", "C"), "S": ("A", "B")})

SUBQUERY_SQL = (
    "SELECT R.A FROM R WHERE R.C < {few} AND EXISTS "
    "(SELECT S.B FROM S WHERE S.A = R.A AND S.B < 4)",
    "SELECT R.A, R.B FROM R WHERE R.C < {few} AND NOT EXISTS "
    "(SELECT * FROM S WHERE S.A = R.A AND S.B = R.B)",
    "SELECT R.A FROM R WHERE R.C < {few} AND R.B IN "
    "(SELECT S.B FROM S WHERE S.A = R.A)",
    "SELECT R.A FROM R WHERE R.C < {few} AND R.B NOT IN "
    "(SELECT S.B FROM S WHERE R.A = S.A AND S.B < 6)",
    "SELECT R.A FROM R WHERE R.C < {few} AND R.A IN "
    "(SELECT S.A FROM S WHERE S.B < 2)",
)


def subquery_db(seed, rows):
    rng = random.Random(seed)
    keys = max(rows // 4, 2)

    def cell(domain):
        return None if rng.random() < 0.05 else rng.randrange(domain)

    return Database(
        SUBQUERY_SCHEMA,
        {
            "R": [(cell(keys), cell(8), rng.randrange(rows)) for _ in range(rows)],
            "S": [(cell(keys), cell(8)) for _ in range(rows)],
        },
    )


def subquery_pairs(rows=50, databases=2):
    """The subquery-predicate workload: every query on every database."""
    few = max(rows // 100, 5)
    queries = [annotate(sql.format(few=few), SUBQUERY_SCHEMA) for sql in SUBQUERY_SQL]
    return [
        (query, subquery_db(seed, rows))
        for seed in range(databases)
        for query in queries
    ]


# -- scan-kernel workload --------------------------------------------------------
#
# Filters over base-table scans in the three places they sit: under a
# projection, as a join input, and as set-operation operands — plus one whose
# range conjuncts lead an IN probe (the prefix split).  Ranges are fractions
# of the value domain (which scales with the table), so selectivities hold at
# any ``--rows``.

SCAN_SCHEMA = Schema({"R": ("A", "B", "C"), "S": ("A", "B"), "T": ("A", "B")})


def scan_db(seed, rows):
    """One instance of the scan-kernel workload schema: ~5% NULL cells,
    values drawn from a domain that scales with the table size."""
    rng = random.Random(seed)
    domain = max(rows, 2)

    def cell():
        return None if rng.random() < 0.05 else rng.randrange(domain)

    def make(n, arity):
        return [tuple(cell() for _ in range(arity)) for _ in range(n)]

    return Database(
        SCAN_SCHEMA,
        {
            "R": make(rows, 3),
            "S": make(rows, 2),
            "T": make(max(rows // 8, 1), 2),
        },
    )


SCAN_SQL = (
    "SELECT R.A, R.C FROM R WHERE R.B >= {lo} AND R.B < {hi}",
    "SELECT R.A FROM R WHERE R.B < {hi} AND R.C IS NOT NULL AND NOT (R.A = R.C)",
    "SELECT T.B, R.C FROM R, T WHERE R.A = T.A AND R.B >= {lo} AND R.B < {hi}",
    "SELECT R.A FROM R WHERE R.B < {hi} EXCEPT SELECT S.A FROM S WHERE S.B < {mid}",
    "SELECT DISTINCT R.B FROM R WHERE R.C < {lo} UNION SELECT S.B FROM S WHERE S.A < {lo}",
    "SELECT R.A FROM R WHERE R.B >= {lo} AND R.B < {hi} AND R.A IN "
    "(SELECT S.A FROM S WHERE S.B < {mid})",
)


def scan_pairs(rows=50, databases=2):
    """The scan-kernel workload: every query on every database."""
    domain = max(rows, 2)
    bounds = {"lo": domain // 10, "mid": domain // 4, "hi": domain // 5}
    queries = [annotate(sql.format(**bounds), SCAN_SCHEMA) for sql in SCAN_SQL]
    return [
        (query, scan_db(seed, rows)) for seed in range(databases) for query in queries
    ]


def join_order_pairs(databases=4, big_rows=60):
    """The adversarial-FROM-order workload: every query on every database."""
    queries = [annotate(sql, ADVERSARIAL_SCHEMA) for sql in JOIN_ORDER_SQL]
    return [
        (query, adversarial_db(seed, big_rows=big_rows))
        for seed in range(databases)
        for query in queries
    ]


def setop_pairs(databases=4, big_rows=400, small_rows=12):
    """The set-operation workload: big inputs, EXISTS-probed set ops."""
    queries = [annotate(sql, ADVERSARIAL_SCHEMA) for sql in SETOP_SQL]
    return [
        (query, adversarial_db(seed, big_rows=big_rows, small_rows=small_rows))
        for seed in range(databases)
        for query in queries
    ]


def test_bench_query_generation(benchmark):
    generator = QueryGenerator(SCHEMA)
    counter = iter(range(10_000_000))

    def generate():
        return generator.generate(seed=next(counter))

    benchmark(generate)


def test_bench_parse_print_roundtrip(benchmark):
    texts = [print_query(make_query(seed)) for seed in range(50)]

    def roundtrip():
        for text in texts:
            print_query(parse_query(text))

    benchmark(roundtrip)


def test_bench_semantics_evaluation(benchmark):
    sem = SqlSemantics(SCHEMA, star_style=STAR_COMPOSITIONAL)
    pairs = [(make_query(seed), make_db(seed)) for seed in range(20)]

    def evaluate():
        for query, db in pairs:
            try:
                sem.run(query, db)
            except Exception:
                pass

    benchmark(evaluate)


def engine_pairs():
    """The engine-execution workload, at the paper's 50-row table cap."""
    return [(make_query(seed), make_db(seed, rows=PAPER_ROW_CAP)) for seed in range(20)]


def run_workload(engine, pairs):
    for query, db in pairs:
        try:
            engine.execute(query, db)
        except Exception:
            pass


def test_bench_engine_execution(benchmark):
    engine = Engine(SCHEMA, "postgres")
    pairs = engine_pairs()
    benchmark(run_workload, engine, pairs)


def test_bench_engine_execution_naive(benchmark):
    """The optimize=False ablation: the paper's product-then-filter engine."""
    engine = Engine(SCHEMA, "postgres", optimize=False)
    pairs = engine_pairs()
    benchmark.pedantic(run_workload, args=(engine, pairs), rounds=3, iterations=1)


def test_bench_engine_compiled(benchmark):
    """Closure-compiled execution (the default engine), plan cache hot:
    plans compile once at cache admission and execute many times."""
    engine = Engine(SCHEMA, "postgres")
    pairs = engine_pairs()
    run_workload(engine, pairs)  # admit + compile every plan up front
    benchmark(run_workload, engine, pairs)


def test_bench_engine_interpreted(benchmark):
    """Ablation: the codegen-off leg — the same optimized plans, planned
    and lowered per execution (no plan cache), their predicates evaluated
    by the predicate closures alone (no scan kernel)."""
    engine = CodegenOffEngine(SCHEMA, "postgres")
    pairs = engine_pairs()
    run_workload(engine, pairs)
    benchmark(run_workload, engine, pairs)


# The ablation engines run with build_cache_size=0: these stages measure the
# *operators* (ordering, streaming), and cross-execution build-side sharing
# would otherwise absorb exactly the work being compared on the repeated
# (query, database) pairs of a timing loop.  Sharing has its own stage in
# scripts/bench.py (engine_repeat_shared vs engine_repeat_unshared).


def test_bench_join_order(benchmark):
    """Cost-based join ordering on the adversarial FROM-order workload."""
    engine = Engine(ADVERSARIAL_SCHEMA, "postgres", build_cache_size=0)
    pairs = join_order_pairs()
    benchmark(run_workload, engine, pairs)


def test_bench_join_order_from_order(benchmark):
    """Ablation: the same workload locked to syntactic FROM order."""
    engine = Engine(
        ADVERSARIAL_SCHEMA,
        "postgres",
        build_cache_size=0,
        optimizer_options={"reorder_joins": False},
    )
    pairs = join_order_pairs()
    benchmark(run_workload, engine, pairs)


def test_bench_setops(benchmark):
    """Streaming hash set operations on big UNION/INTERSECT/EXCEPT inputs."""
    engine = Engine(ADVERSARIAL_SCHEMA, "postgres", build_cache_size=0)
    pairs = setop_pairs()
    benchmark(run_workload, engine, pairs)


def test_bench_setops_counted(benchmark):
    """Ablation: the counted-multiset SetOpNode on the same workload."""
    engine = Engine(
        ADVERSARIAL_SCHEMA,
        "postgres",
        build_cache_size=0,
        optimizer_options={"hash_setops": False},
    )
    pairs = setop_pairs()
    benchmark(run_workload, engine, pairs)


@pytest.mark.parametrize("rows", (PAPER_ROW_CAP, 5000))
def test_bench_engine_wcoj(benchmark, rows):
    """Worst-case-optimal multiway joins on the cyclic workload, plan
    cache hot, at the paper's row cap and at 5,000 rows."""
    engine = Engine(WCOJ_SCHEMA, "postgres")
    pairs = wcoj_pairs(rows=rows)
    run_workload(engine, pairs)  # admit + compile every plan up front
    benchmark(run_workload, engine, pairs)


@pytest.mark.parametrize("rows", (PAPER_ROW_CAP, 5000))
def test_bench_engine_binary(benchmark, rows):
    """Ablation: the same cyclic workload with ``wcoj=False`` — DP-ordered
    binary hash joins, which must materialize a hub x hub intermediate."""
    engine = Engine(
        WCOJ_SCHEMA, "postgres", optimizer_options={"wcoj": False}
    )
    pairs = wcoj_pairs(rows=rows)
    run_workload(engine, pairs)
    benchmark(run_workload, engine, pairs)


@pytest.mark.parametrize("rows", (PAPER_ROW_CAP, 5000))
def test_bench_engine_subquery(benchmark, rows):
    """Keyed subquery probes on the correlated EXISTS/IN workload, at the
    paper's row cap and at 5,000 rows (build sides rebuilt every run)."""
    engine = Engine(SUBQUERY_SCHEMA, "postgres", build_cache_size=0)
    pairs = subquery_pairs(rows=rows)
    run_workload(engine, pairs)  # admit + compile every plan up front
    benchmark(run_workload, engine, pairs)


def test_bench_engine_subquery_naive(benchmark):
    """Ablation: ``optimize=False`` re-runs each subquery per probing row."""
    engine = Engine(SUBQUERY_SCHEMA, "postgres", optimize=False)
    pairs = subquery_pairs(rows=PAPER_ROW_CAP)
    benchmark.pedantic(run_workload, args=(engine, pairs), rounds=3, iterations=1)


@pytest.mark.parametrize("rows", (PAPER_ROW_CAP, 5000))
def test_bench_engine_scan(benchmark, rows):
    """Scan kernels on the filter-over-scan workload, plan cache hot, at
    the paper's row cap and at 5,000 rows (build sides rebuilt every run)."""
    engine = Engine(SCAN_SCHEMA, "postgres", build_cache_size=0)
    pairs = scan_pairs(rows=rows)
    run_workload(engine, pairs)  # admit + compile every plan up front
    benchmark(run_workload, engine, pairs)


@pytest.mark.parametrize("rows", (PAPER_ROW_CAP, 5000))
def test_bench_engine_scan_interpreted(benchmark, rows):
    """Ablation: the codegen-off leg, one predicate-closure call per row
    (and planning per execution)."""
    engine = CodegenOffEngine(SCAN_SCHEMA, "postgres", build_cache_size=0)
    pairs = scan_pairs(rows=rows)
    run_workload(engine, pairs)
    benchmark(run_workload, engine, pairs)


def test_bench_theorem1_translation(benchmark):
    queries = [make_query(seed, DM_CONFIG) for seed in range(10)]

    def translate():
        for query in queries:
            desugar(to_sqlra(query, SCHEMA), SCHEMA)

    benchmark(translate)
