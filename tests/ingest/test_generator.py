"""The FK-join-biased scenario query generator."""

import random

from repro.ingest import import_scenario
from repro.ingest.demo import library_scenario
from repro.ingest.generator import (
    DEFAULT_SCENARIO_CONFIG,
    SCALE_SCENARIO_CONFIG,
    ScenarioGenerator,
    config_for_scenario,
    scenario_generator,
)
from repro.semantics import STAR_COMPOSITIONAL
from repro.sql.ast import Select, SetOp
from repro.sql.printer import print_query
from repro.sql.typecheck import check_query
from repro.validation.compare import capture


def small_scenario():
    return library_scenario(80, seed=4)


def test_same_seed_same_query():
    scenario = small_scenario()
    a = scenario_generator(scenario, seed=5).generate()
    b = scenario_generator(scenario, seed=5).generate()
    assert print_query(a) == print_query(b)


def test_generate_seed_argument_reseeds():
    scenario = small_scenario()
    generator = ScenarioGenerator(scenario, rng=random.Random(0))
    first = print_query(generator.generate(seed=17))
    generator.generate(seed=99)
    assert print_query(generator.generate(seed=17)) == first


def test_memoized_value_pools_leave_the_query_stream_unchanged(monkeypatch):
    """``Scenario.value_pool`` is memoized per (table, column, limit); the
    stream of 200 seeds is byte-identical to one where every call
    recomputes its pool from the table."""
    from repro.ingest.scenario import Scenario

    scenario = small_scenario()

    def stream():
        generator = scenario_generator(scenario, seed=0)
        return "\n".join(print_query(generator.generate(seed=s)) for s in range(200))

    memoized = stream()
    assert scenario._pools
    pool = next(iter(scenario._pools))
    assert scenario.value_pool(*pool) is scenario._pools[pool]
    computed = Scenario.value_pool

    def recomputed(self, *args, **kwargs):
        self._pools.clear()
        return computed(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "value_pool", recomputed)
    assert stream().encode() == memoized.encode()


def test_setop_operands_share_arity():
    scenario = small_scenario()
    generator = scenario_generator(scenario, seed=0)
    seen_setop = False
    for seed in range(300):
        query = generator.generate(seed=seed)
        if isinstance(query, SetOp):
            seen_setop = True
            assert isinstance(query.left, Select)
            assert not query.left.is_star and not query.right.is_star
            assert len(query.left.items) == len(query.right.items)
    assert seen_setop


def test_generated_queries_typecheck_and_evaluate():
    """Every generated query must be a valid member of the fragment: it
    typechecks and executes under the repository's engine."""
    from repro.engine import DIALECT_POSTGRES, Engine

    scenario = small_scenario()
    engine = Engine(scenario.schema, DIALECT_POSTGRES, plan_cache_size=0)
    generator = scenario_generator(scenario, seed=0)
    for seed in range(150):
        query = generator.generate(seed=seed)

        def run():
            check_query(query, scenario.schema, star_style=STAR_COMPOSITIONAL)
            return engine.execute(query, scenario.database)

        outcome = capture(run)
        # Compile-time dialect errors (e.g. ordered int-vs-text) are
        # legitimate trial outcomes; crashes are not.
        assert outcome.is_error or outcome.table is not None


def test_joins_follow_fk_edges():
    """Multi-table FROM clauses only ever join along the scenario's FK
    graph, so intermediate sizes stay near the data size."""
    scenario = small_scenario()
    adjacent = set()
    for fk in scenario.fks:
        adjacent.add((fk.table, fk.ref_table))
        adjacent.add((fk.ref_table, fk.table))
    generator = scenario_generator(scenario, seed=0)
    multi = 0
    for seed in range(200):
        query = generator.generate(seed=seed)
        selects = (
            [query.left, query.right] if isinstance(query, SetOp) else [query]
        )
        for select in selects:
            tables = [item.table for item in select.from_items]
            if len(tables) > 1:
                multi += 1
                for a, b in zip(tables, tables[1:]):
                    assert (a, b) in adjacent
    assert multi > 0


def test_config_for_scenario_scales():
    assert config_for_scenario(library_scenario(100)) is (
        DEFAULT_SCENARIO_CONFIG
    )
    assert config_for_scenario(library_scenario(20000)) is (
        SCALE_SCENARIO_CONFIG
    )


def test_generator_over_imported_fixture(tmp_path):
    from pathlib import Path

    fixture = (
        Path(__file__).resolve().parent.parent / "fixtures" / "library.sql"
    )
    scenario = import_scenario(str(fixture))
    query = scenario_generator(scenario, seed=1).generate()
    assert print_query(query)
