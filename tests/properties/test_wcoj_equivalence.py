"""Differential property tests for multiway joins and DP join ordering.

The paper's methodology, aimed at the third-generation optimizer: on
≥500 random query/database pairs per dialect variant — a generator mix
tilted toward multi-table FROMs whose WHERE conjunctions form join
graphs — the default engine (worst-case-optimal ``GenericJoin`` on
cyclic graphs + Selinger-style DP ordering on acyclic ones), each
single ablation (``wcoj=False``, ``dp_join_order=False``), the double
ablation, and the naive product engine must produce the same bag
(columns, rows, multiplicities) or the same error class.  Join
ordering and the multiway operator are pure physical-plan choices, so
they have *no* semantic latitude: outcomes must match even where plans
raise.

A hand-built cyclic battery (the join workload of ``joins.py``) then
drives the ``GenericJoin`` path directly — triangles, 4-cycles,
self-join cycles, a multi-column variable, NULL-heavy data, residual
non-equality predicates — which the random mix never reaches; a second
leg runs it over tables that repeat rows on purpose, checking the default,
codegen-off and naive engines against the formal semantics, so bag
multiplicity in the leaves of the tries is exercised.  Finally a
hot-plan-cache battery executes the cyclic workload through one engine
across *reshaped* databases (small tables grown 100x between passes,
tripping the cardinality-feedback re-optimization) and demands
bit-identical outcomes before and after the re-planning.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import NULL, Database, validation_schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import STAR_COMPOSITIONAL, SqlSemantics
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

from ..executor import CodegenOffEngine
from .joins import CYCLIC_SCHEMA, cyclic_db, join_pairs, join_queries

SCHEMA = validation_schema()
TRIALS = 500
DATA = DataFillerConfig(max_rows=5)

#: PAPER_CONFIG tilted toward plain multi-table FROMs with big WHERE
#: conjunctions: equality chains between tables are what the DP orders,
#: and the occasional cycle is what selects the multiway join.
JOIN_MIX = replace(
    PAPER_CONFIG,
    setop_probability=0.1,
    from_subquery_probability=0.1,
    where_subquery_probability=0.15,
    constant_probability=0.3,
)

DIALECTS = [DIALECT_POSTGRES, DIALECT_ORACLE]

#: Every optimizer configuration under test, vs the naive oracle.
ABLATIONS = {
    "default": {},
    "no_wcoj": {"wcoj": False},
    "no_dp": {"dp_join_order": False},
    "no_wcoj_no_dp": {"wcoj": False, "dp_join_order": False},
}


def make_engines(schema, dialect):
    engines = {
        name: Engine(schema, dialect, optimizer_options=dict(options))
        for name, options in ABLATIONS.items()
    }
    engines["naive"] = Engine(schema, dialect, optimize=False)
    return engines


def run_battery(engines, pairs):
    failures = []
    for label, query, db in pairs:
        outcomes = {
            name: capture(lambda e=engine: e.execute(query, db))
            for name, engine in engines.items()
        }
        baseline = outcomes["naive"]
        for name, outcome in outcomes.items():
            # Same error class and same bag: the workloads are type-checked
            # over int-only data, so no data-dependent runtime error order
            # is in play and full error equality must hold.
            if outcome.error != baseline.error or not outcome.agrees_with(baseline):
                failures.append(f"{label}: {name} differs from naive")
    assert not failures, "; ".join(failures[:5])


def _pair(seed):
    rng = random.Random(seed)
    query = QueryGenerator(SCHEMA, JOIN_MIX, rng).generate()
    db = fill_database(SCHEMA, rng, DATA)
    return query, db


@pytest.mark.parametrize("dialect", DIALECTS)
def test_optimizer_ablations_coincide_on_random_workload(dialect):
    engines = make_engines(SCHEMA, dialect)
    run_battery(
        engines, ((f"seed {s}", *_pair(s)) for s in range(TRIALS))
    )


# -- the cyclic battery --------------------------------------------------------


@pytest.mark.parametrize("dialect", DIALECTS)
def test_optimizer_ablations_coincide_on_cyclic_workload(dialect):
    run_battery(make_engines(CYCLIC_SCHEMA, dialect), join_pairs())


def duplicate_db(seed, rows=6, domain=2, null_rate=0.1):
    """A join-workload instance whose every table draws its 2 to ``rows``
    rows from a pool of two to four rows over a two-value domain, so
    nearly every table repeats a row, the cycles close often, and the
    leaves of the tries hold several copies."""
    rng = random.Random(seed)

    def cell():
        return NULL if rng.random() < null_rate else rng.randrange(domain)

    def table():
        pool = [(cell(), cell()) for _ in range(rng.randint(2, 4))]
        return [rng.choice(pool) for _ in range(rng.randint(2, rows))]

    return Database(
        CYCLIC_SCHEMA, {name: table() for name in CYCLIC_SCHEMA.table_names}
    )


def repeats_a_row(table) -> bool:
    return max(Counter(table.bag).values(), default=0) > 1


@pytest.mark.parametrize("dialect", DIALECTS)
def test_cyclic_workload_over_duplicate_rows_matches_the_formal_semantics(dialect):
    """Bag multiplicity through the tries: the join workload over tables
    that repeat rows on purpose, on the default, codegen-off and naive
    engines, each against the formal semantics."""
    engines = {
        "default": Engine(CYCLIC_SCHEMA, dialect),
        "codegen-off": CodegenOffEngine(CYCLIC_SCHEMA, dialect),
        "naive": Engine(CYCLIC_SCHEMA, dialect, optimize=False),
    }
    semantics = SqlSemantics(CYCLIC_SCHEMA, star_style=STAR_COMPOSITIONAL)
    queries = join_queries()
    failures, pairs, with_duplicates, repeated_results = [], 0, 0, 0
    for seed in range(40):
        db = duplicate_db(seed)
        tables = [db.table(name) for name in CYCLIC_SCHEMA.table_names]
        with_duplicates += len(queries) * any(map(repeats_a_row, tables))
        for q, query in enumerate(queries):
            pairs += 1

            def oracle():
                check_query(query, CYCLIC_SCHEMA, star_style=STAR_COMPOSITIONAL)
                return semantics.run(query, db)

            expected = capture(oracle)
            repeated_results += not expected.is_error and repeats_a_row(expected.table)
            for name, engine in engines.items():
                outcome = capture(lambda: engine.execute(query, db))
                if outcome.error != expected.error or not outcome.agrees_with(expected):
                    failures.append(f"query {q} db {seed}: {name} differs from semantics")
    assert not failures, "; ".join(failures[:5])
    # The data repeats rows, and so do the answers: multiplicity is what
    # the leg is about, not an accident of a few pairs.
    assert 2 * with_duplicates >= pairs, (with_duplicates, pairs)
    assert 5 * repeated_results >= pairs, (repeated_results, pairs)


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_plan_cache_bit_identical_across_feedback_reordering(dialect):
    """Pass 1 plans against small tables; pass 2 rebinds the same cached
    plans against 100x-grown tables, tripping the drift-based
    re-optimization; pass 3 re-runs pass 2's databases hot.  Every pass
    must agree bit-identically with a fresh per-database engine."""
    engine = Engine(CYCLIC_SCHEMA, dialect)
    queries = join_queries()
    small = [cyclic_db(s, rows=4) for s in range(3)]
    big = [cyclic_db(100 + s, rows=400, domain=40) for s in range(3)]
    outcomes = {}
    for label, dbs in (("small", small), ("big", big), ("hot", big)):
        outcomes[label] = [
            capture(lambda: engine.execute(query, db))
            for db in dbs
            for query in queries
        ]
    info = engine.cache_info()
    assert info["hits"] >= 2 * len(big) * len(queries)
    # The 100x growth must actually trip the feedback loop at least once.
    assert info["reoptimizations"] > 0
    fresh = {
        label: [
            capture(lambda e=Engine(CYCLIC_SCHEMA, dialect): e.execute(query, db))
            for db in dbs
            for query in queries
        ]
        for label, dbs in (("small", small), ("big", big))
    }
    fresh["hot"] = fresh["big"]
    for label in outcomes:
        for i, (a, b) in enumerate(zip(outcomes[label], fresh[label])):
            assert a.error == b.error and a.agrees_with(b), f"{label} #{i} changed"
