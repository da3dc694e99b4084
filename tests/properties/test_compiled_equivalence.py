"""Differential property tests for compiled (closure-generating) execution.

The paper's methodology, aimed at the compilation layer: on ≥500 random
query/database pairs per dialect variant — the second-generation
set-op/subquery-tilted generator mix — the closure-compiled engine
(``compiled=True``, the default), the interpreted engine
(``compiled=False``) and the naive interpreted engine (``optimize=False,
compiled=False``) must produce the same bag (columns, rows,
multiplicities) or the same error class.  Compilation is a pure lowering
of the same physical plan, so unlike the optimizer rewrites it has *no*
error-order latitude: outcomes must match even where plans raise.  The
same three engines also run the join workload of ``joins.py``.

A hot-plan-cache battery then re-runs a prefix of the workload through
one compiled engine twice more (plan cache and build-side cache hot, so
every plan executes through closures compiled at cache admission and
build sides restored from the content-keyed cache) and demands
bit-identical outcomes.

A third battery covers the engine's size rule for *single-use* plans
(``plan_cache_size=0``): the same workload with the break-even constant
forced to 0 (everything compiled) and to infinity (everything
interpreted) must agree on results, error classes and error messages.
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

#: PAPER_CONFIG tilted toward the constructs the compiler specializes:
#: set operations, multi-table FROMs, correlated subqueries.
COMPILED_MIX = replace(
    PAPER_CONFIG,
    setop_probability=0.45,
    from_subquery_probability=0.35,
    where_subquery_probability=0.35,
    correlation_probability=0.5,
)

DIALECTS = [DIALECT_POSTGRES, DIALECT_ORACLE]


def _pair(seed):
    rng = random.Random(seed)
    query = QueryGenerator(SCHEMA, COMPILED_MIX, rng).generate()
    db = fill_database(SCHEMA, rng, DATA)
    return query, db


def assert_tiers_coincide(schema, dialect, pairs):
    engines = {
        "compiled": Engine(schema, dialect),
        "interpreted": Engine(schema, dialect, compiled=False),
        "naive": Engine(schema, dialect, optimize=False, compiled=False),
    }
    failures = []
    for label, query, db in pairs:
        outcomes = {
            name: capture(lambda e=engine: e.execute(query, db))
            for name, engine in engines.items()
        }
        baseline = outcomes["interpreted"]
        for name, outcome in outcomes.items():
            # Same error class and same bag: the workloads are type-checked
            # over int-only data, so no data-dependent runtime error order
            # is in play and full error equality must hold.
            if outcome.error != baseline.error or not outcome.agrees_with(baseline):
                failures.append(f"{label}: {name} differs from interpreted")
    assert not failures, "; ".join(failures[:5])


@pytest.mark.parametrize("dialect", DIALECTS)
def test_compiled_interpreted_and_naive_coincide(dialect):
    assert_tiers_coincide(SCHEMA, dialect, ((f"seed {s}", *_pair(s)) for s in range(TRIALS)))


@pytest.mark.parametrize("dialect", DIALECTS)
def test_compiled_interpreted_and_naive_coincide_on_joins(dialect):
    """The join workload, which the mix above hardly reaches: hash-join
    and generic-join builds over NULL-heavy keys on every tier."""
    assert_tiers_coincide(CYCLIC_SCHEMA, dialect, join_pairs())


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_plan_cache_compiled_outcomes_are_bit_identical(dialect):
    """Passes 2 and 3 execute nothing but cache-admitted compiled plans
    (pass 2 also harvests build sides pass 3 restores); outcomes must
    match the cold pass exactly."""
    engine = Engine(SCHEMA, dialect)
    pairs = [_pair(seed) for seed in range(40)]
    cold = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    hot = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    assert engine.cache_info()["hits"] >= 2 * len(pairs)
    assert engine.build_cache_info()["hits"] > 0
    for seed, (a, b) in enumerate(zip(cold, hot)):
        assert a.error == b.error and a.agrees_with(b), f"seed {seed} changed"


@pytest.mark.parametrize("dialect", DIALECTS)
def test_single_use_lowering_is_invisible_on_either_side_of_the_constant(
    dialect, monkeypatch
):
    """The size rule only picks *which* implementation runs a single-use
    plan.  The same battery through a cache-less engine with the break-even
    constant forced to 0 (every plan compiled) and to infinity (every plan
    interpreted): tables, error classes and error messages bit-identical."""
    from repro.engine import engine as engine_module

    engine = Engine(SCHEMA, dialect, plan_cache_size=0)
    outcomes = {}
    for limit in (0, float("inf")):
        monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", limit)
        outcomes[limit] = []
        for seed in range(TRIALS):
            query, db = _pair(seed)
            outcomes[limit].append(capture(lambda: engine.execute(query, db)))
            if not outcomes[limit][-1].is_error:
                # The rule really did flip the tier under test.
                assert (engine._plan(query).run is not None) is (limit == 0)
    for seed, (a, b) in enumerate(zip(outcomes[0], outcomes[float("inf")])):
        assert a.error == b.error and a.detail == b.detail, f"seed {seed}"
        assert a.agrees_with(b), f"seed {seed}: compiled differs from interpreted"
