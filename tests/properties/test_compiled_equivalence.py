"""Differential property tests for generated code (the scan kernels).

The paper's methodology, aimed at code generation: on ≥500 random
query/database pairs per dialect variant — the second-generation
set-op/subquery-tilted generator mix — the default engine, the
codegen-off leg (the same optimized plans, filtering through the
predicate closures alone, :class:`~tests.executor.CodegenOffEngine`) and
the naive engine (``optimize=False``) must produce the same bag (columns,
rows, multiplicities) or the same error class.  Generated code is a pure
lowering of the same physical plan, so unlike the optimizer rewrites it
has *no* error-order latitude: outcomes must match even where plans
raise.  The same three engines also run the join workload of
``joins.py``.

A hot-plan-cache battery then re-runs a prefix of the workload through
one compiled engine twice more (plan cache and build-side cache hot, so
every plan executes through closures compiled at cache admission and
build sides served from the content-keyed cache) and demands
bit-identical outcomes; then it runs each cached plan over the *next*
pair's database, where only the formal semantics can say what is right —
a plan that kept any state from its own database would show there.  The
same battery runs again with every write to a plan node or predicate
forbidden once the engine has built the plan: plans are stateless.

A third battery covers the engine's size rule for *single-use* plans
(``plan_cache_size=0``): the same workload with the break-even constant
forced to 0 (everything with generated code) and to infinity (nothing
with it) must agree on results, error classes and error messages.
"""

import random
from dataclasses import replace

import pytest

from repro.core import validation_schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.engine.binding import iter_plan_nodes
from repro.engine.expressions import PredNode
from repro.engine.operators import (
    ExistsPred,
    ExistsProbe,
    InPred,
    PlanNode,
    SemiJoinProbe,
)
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

from ..executor import CodegenOffEngine
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
        "codegen-off": CodegenOffEngine(schema, dialect),
        "naive": Engine(schema, dialect, optimize=False),
    }
    failures = []
    for label, query, db in pairs:
        outcomes = {
            name: capture(lambda e=engine: e.execute(query, db))
            for name, engine in engines.items()
        }
        baseline = outcomes["codegen-off"]
        for name, outcome in outcomes.items():
            # Same error class and same bag: the workloads are type-checked
            # over int-only data, so no data-dependent runtime error order
            # is in play and full error equality must hold.
            if outcome.error != baseline.error or not outcome.agrees_with(baseline):
                failures.append(f"{label}: {name} differs from codegen-off")
    assert not failures, "; ".join(failures[:5])


@pytest.mark.parametrize("dialect", DIALECTS)
def test_compiled_interpreted_and_naive_coincide(dialect):
    assert_tiers_coincide(SCHEMA, dialect, ((f"seed {s}", *_pair(s)) for s in range(TRIALS)))


@pytest.mark.parametrize("dialect", DIALECTS)
def test_compiled_interpreted_and_naive_coincide_on_joins(dialect):
    """The join workload, which the mix above hardly reaches: hash-join
    and generic-join builds over NULL-heavy keys on every tier."""
    assert_tiers_coincide(CYCLIC_SCHEMA, dialect, join_pairs())


#: dialect -> the star style its formal semantics reads ``SELECT *`` with.
STAR_STYLES = {DIALECT_POSTGRES: STAR_COMPOSITIONAL, DIALECT_ORACLE: STAR_STANDARD}


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_plan_cache_compiled_outcomes_are_bit_identical(dialect):
    """Passes 2 and 3 execute nothing but cache-admitted compiled plans
    (build sides the earlier passes stored are served from the cache);
    outcomes must match the cold pass exactly.  A last pass runs the
    cached plan of pair ``i`` over the database of pair ``i + 1``, and
    must agree with the formal semantics there."""
    engine = Engine(SCHEMA, dialect)
    pairs = [_pair(seed) for seed in range(40)]
    cold = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    hot = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    hot_hits = engine.cache_info()["hits"], engine.build_cache_info()["hits"]
    failures = [
        f"seed {seed} changed"
        for seed, (a, b) in enumerate(zip(cold, hot))
        if a.error != b.error or not a.agrees_with(b)
    ]
    star_style = STAR_STYLES[dialect]
    semantics = SqlSemantics(SCHEMA, star_style=star_style)
    for seed, (query, _db) in enumerate(pairs):
        db = pairs[(seed + 1) % len(pairs)][1]

        def oracle():
            check_query(query, SCHEMA, star_style=star_style)
            return semantics.run(query, db)

        rotated = capture(lambda: engine.execute(query, db))
        if not rotated.agrees_with(capture(oracle)):
            failures.append(f"seed {seed} over db {seed + 1} differs from the semantics")
    assert not failures, f"{len(failures)} failures: " + "; ".join(failures[:5])
    plan_hits, build_hits = hot_hits
    assert plan_hits >= 2 * len(pairs) and build_hits > 0
    assert engine.cache_info()["hits"] == plan_hits + len(pairs)


def forbid_plan_writes(monkeypatch):
    """Once ``Engine._compile`` returns a plan, writing any attribute of its
    nodes and predicates raises."""
    frozen, built = set(), []

    def guarded(self, name, value):
        if id(self) in frozen:
            raise AttributeError(f"{type(self).__name__}.{name} written after planning")
        object.__setattr__(self, name, value)

    for kind in (PlanNode, PredNode, ExistsPred, ExistsProbe, InPred, SemiJoinProbe):
        monkeypatch.setattr(kind, "__setattr__", guarded)
    compile_query = Engine._compile

    def compile_frozen(self, query):
        compiled = compile_query(self, query)
        built.append(compiled)  # keeps the ids in ``frozen`` unique
        for node, pred in iter_plan_nodes(compiled.plan):
            frozen.add(id(pred if node is None else node))
        return compiled

    monkeypatch.setattr(Engine, "_compile", compile_frozen)
    return built


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_plan_cache_battery_writes_no_plan(dialect, monkeypatch):
    built = forbid_plan_writes(monkeypatch)
    test_hot_plan_cache_compiled_outcomes_are_bit_identical(dialect)
    assert len(built) >= 40


@pytest.mark.parametrize("dialect", DIALECTS)
def test_single_use_lowering_is_invisible_on_either_side_of_the_constant(
    dialect, monkeypatch
):
    """The size rule only picks whether a single-use plan gets generated
    code.  The same battery through a cache-less engine with the break-even
    constant forced to 0 (every plan with generated code) and to infinity
    (none): tables, error classes and error messages bit-identical."""
    from repro.engine import engine as engine_module

    engine = Engine(SCHEMA, dialect, plan_cache_size=0)
    outcomes = {}
    kernels = {}
    for limit in (0, float("inf")):
        monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", limit)
        before = engine.cache_info()["scan_kernels"]["selections"]
        outcomes[limit] = []
        for seed in range(TRIALS):
            query, db = _pair(seed)
            outcomes[limit].append(capture(lambda: engine.execute(query, db)))
        kernels[limit] = engine.cache_info()["scan_kernels"]["selections"] - before
    # The rule really did flip what runs: scan kernels on one side only.
    assert kernels[0] > 0 and kernels[float("inf")] == 0
    for seed, (a, b) in enumerate(zip(outcomes[0], outcomes[float("inf")])):
        assert a.error == b.error and a.detail == b.detail, f"seed {seed}"
        assert a.agrees_with(b), f"seed {seed}: generated code differs from codegen-off"
