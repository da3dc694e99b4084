"""Differential property tests for the second-generation optimizer.

The paper's methodology again, aimed at the new rewrites: on ≥500 random
query/database pairs per dialect variant — drawn from a generator mix
tilted toward set operations, multi-table FROM clauses and subqueries —
the fully-optimized engine, each single-ablation engine
(``reorder_joins=False`` / ``hash_setops=False``), and the naive
``optimize=False`` engine must produce the same bag (columns, rows,
multiplicities) or the same error class, on that mix and on the join
workload of ``joins.py``.  A cache-stress battery re-runs
a prefix of the workload through one engine twice (plan cache + build-side
cache hot) and demands bit-identical outcomes.
"""

import random
from dataclasses import replace

import pytest

from repro.core import validation_schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.validation.compare import capture

from .joins import CYCLIC_SCHEMA, join_pairs

SCHEMA = validation_schema()
TRIALS = 500
DATA = DataFillerConfig(max_rows=5)

#: PAPER_CONFIG with the second-generation rewrites' constructs boosted.
SECOND_GEN_CONFIG = replace(
    PAPER_CONFIG,
    setop_probability=0.45,
    from_subquery_probability=0.35,
    where_subquery_probability=0.35,
    correlation_probability=0.5,
)

DIALECTS = [DIALECT_POSTGRES, DIALECT_ORACLE]


def _pair(seed):
    rng = random.Random(seed)
    query = QueryGenerator(SCHEMA, SECOND_GEN_CONFIG, rng).generate()
    db = fill_database(SCHEMA, rng, DATA)
    return query, db


def assert_ablations_coincide(schema, dialect, pairs):
    engines = {
        "second-gen": Engine(schema, dialect),
        "no-reorder": Engine(
            schema, dialect, optimizer_options={"reorder_joins": False}
        ),
        "no-hash-setops": Engine(
            schema, dialect, optimizer_options={"hash_setops": False}
        ),
        "naive": Engine(schema, dialect, optimize=False),
    }
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


@pytest.mark.parametrize("dialect", DIALECTS)
def test_second_gen_and_ablations_coincide_with_naive(dialect):
    assert_ablations_coincide(SCHEMA, dialect, ((f"seed {s}", *_pair(s)) for s in range(TRIALS)))


@pytest.mark.parametrize("dialect", DIALECTS)
def test_second_gen_and_ablations_coincide_with_naive_on_joins(dialect):
    """The join workload, which the mix above hardly reaches."""
    assert_ablations_coincide(CYCLIC_SCHEMA, dialect, join_pairs())


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_caches_do_not_change_outcomes(dialect):
    """Second pass over the same pairs: every plan comes from the plan
    cache and every shareable build side from the build cache — outcomes
    must match the cold pass exactly."""
    engine = Engine(SCHEMA, dialect)
    # Few enough pairs that the shareable structures fit the build cache
    # (a sequential working set larger than the LRU would never re-hit).
    # Sharing engages from the second bind, so pass 2 harvests and pass 3
    # runs with both the plan cache and the build-side cache fully hot.
    pairs = [_pair(seed) for seed in range(40)]
    cold = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    hot = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    assert engine.build_cache_info()["hits"] > 0
    for seed, (a, b) in enumerate(zip(cold, hot)):
        assert a.error == b.error and a.agrees_with(b), f"seed {seed} changed"
