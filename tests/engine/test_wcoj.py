"""The third-generation optimizer: worst-case-optimal multiway joins
(``GenericJoin``), Selinger-style DP join ordering, and the closed
cardinality-feedback loop.

Covers operator selection (cyclic vs acyclic equality graphs), the
leapfrog enumeration itself (NULL handling, multi-column variables,
empty tries), both ablation knobs, build-side sharing of the tries
across executions, and the feedback loop's re-optimization of
cached plans — including the PR's acceptance demo: a cached plan whose
join order changes after the tables it was planned against reshape,
with bit-identical output before and after.
"""

import itertools
from collections import Counter

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.engine.binding import iter_plan_nodes
from repro.engine.operators import (
    CrossJoin,
    GenericJoin,
    HashJoin,
    StaticScan,
)
from repro.engine.optimizer import (
    DP_MAX_CHILDREN,
    _is_cyclic,
    estimate_rows,
    optimize_plan,
)
from repro.engine.planner import Planner
from repro.sql import annotate

from ..executor import CodegenOffEngine, run_rows

SCHEMA = Schema(
    {"R": ("A", "B"), "S": ("A", "B"), "T": ("A", "B"), "U": ("A", "B")}
)

TRIANGLE = (
    "SELECT R.A, S.A, T.A FROM R, S, T "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A"
)

CHAIN = "SELECT R.A, T.B FROM R, S, T WHERE R.B = S.A AND S.B = T.A"


def make_db(**tables):
    return Database(SCHEMA, {name: tables.get(name, []) for name in SCHEMA.table_names})


def triangle_db():
    return make_db(
        R=[(1, 10), (2, 20), (3, 10), (NULL, 10)],
        S=[(10, 100), (20, 100), (10, 200)],
        T=[(100, 1), (100, 2), (200, 9), (100, NULL)],
    )


def compiled(db, sql, dialect=DIALECT_POSTGRES):
    return Planner(SCHEMA, db, dialect).compile(annotate(sql, SCHEMA))


def walk(plan):
    for node, _pred in iter_plan_nodes(plan):
        if node is not None:
            yield node


# -- operator selection -------------------------------------------------------


def test_cyclic_from_selects_generic_join():
    plan = optimize_plan(compiled(triangle_db(), TRIANGLE).plan)
    joins = [node for node in walk(plan) if isinstance(node, GenericJoin)]
    assert len(joins) == 1
    assert len(joins[0].children) == 3
    # Three equivalence classes, each spanning two children.
    assert len(joins[0].variables) == 3
    assert all(len(var) == 2 for var in joins[0].variables)
    assert not any(isinstance(n, (HashJoin, CrossJoin)) for n in walk(plan))


def test_acyclic_chain_stays_binary():
    plan = optimize_plan(compiled(triangle_db(), CHAIN).plan)
    assert not any(isinstance(node, GenericJoin) for node in walk(plan))
    assert any(isinstance(node, HashJoin) for node in walk(plan))


def test_wcoj_knob_ablates_to_binary_joins():
    plan = optimize_plan(compiled(triangle_db(), TRIANGLE).plan, wcoj=False)
    assert not any(isinstance(node, GenericJoin) for node in walk(plan))
    assert any(isinstance(node, HashJoin) for node in walk(plan))


def test_parallel_edges_alone_are_not_a_cycle():
    # Two edges between the same pair of children collapse to one simple
    # edge — a composite-key binary hash join handles them.
    sql = (
        "SELECT R.A FROM R, S, T "
        "WHERE R.A = S.A AND R.B = S.B AND S.B = T.A"
    )
    plan = optimize_plan(compiled(triangle_db(), sql).plan)
    assert not any(isinstance(node, GenericJoin) for node in walk(plan))


def test_is_cyclic():
    assert _is_cyclic(3, [(0, 1), (1, 2), (2, 0)])
    assert not _is_cyclic(3, [(0, 1), (1, 2)])
    assert not _is_cyclic(4, [(0, 1), (1, 2), (2, 3)])
    assert _is_cyclic(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # Parallel edges collapse; self-referential spans never arise (a
    # same-child equality stays a local filter, not a join edge).
    assert not _is_cyclic(2, [(0, 1), (0, 1)])


# -- the leapfrog enumeration -------------------------------------------------


def triangle_node(rows_r, rows_s, rows_t):
    # Variables in global column order: {R.B, S.A}, {S.B, T.A}, {R.A, T.B}.
    return GenericJoin(
        children=[
            StaticScan(rows_r, arity=2),
            StaticScan(rows_s, arity=2),
            StaticScan(rows_t, arity=2),
        ],
        variables=(
            ((0, 0), (2, 1)),  # R.A = T.B
            ((0, 1), (1, 0)),  # R.B = S.A
            ((1, 1), (2, 0)),  # S.B = T.A
        ),
    )


def test_generic_join_emits_concatenated_rows():
    node = triangle_node(
        [(1, 10)], [(10, 100)], [(100, 1)]
    )
    assert run_rows(node) == [(1, 10, 10, 100, 100, 1)]


def test_generic_join_null_never_matches():
    # In engine-land SQL NULL is plain None (the binder converts the core
    # sentinel); a NULL variable column drops the row at trie build.
    node = triangle_node(
        [(1, 10), (None, 10), (1, None)],
        [(10, 100), (None, 100)],
        [(100, 1), (100, None), (None, 1)],
    )
    assert run_rows(node) == [(1, 10, 10, 100, 100, 1)]


def test_generic_join_respects_typed_keys():
    # "1" and 1 are different keys, exactly as compare("=") treats them.
    node = triangle_node([("1", 10)], [(10, 100)], [(100, 1)])
    assert run_rows(node) == []
    node = triangle_node([("1", 10)], [(10, 100)], [(100, "1")])
    assert run_rows(node) == [("1", 10, 10, 100, 100, "1")]
    node = triangle_node([(1, "10")], [(10, 100), ("10", 100)], [(100, 1)])
    assert run_rows(node) == [(1, "10", "10", 100, 100, 1)]


def test_generic_join_duplicates_multiply():
    node = triangle_node(
        [(1, 10), (1, 10)], [(10, 100)], [(100, 1), (100, 1)]
    )
    assert len(run_rows(node)) == 4


def test_generic_join_empty_child_short_circuits():
    node = triangle_node([(1, 10)], [], [(100, 1)])
    assert run_rows(node) == []


def test_generic_join_multi_column_variable():
    # One child binds a variable with two local columns: rows where they
    # disagree (or are NULL) can never satisfy the class and are dropped
    # at trie build.
    node = GenericJoin(
        children=[StaticScan([(1, 1), (2, 3), (NULL, NULL)], arity=2),
                  StaticScan([(1,), (2,), (3,)], arity=1)],
        variables=(((0, 0), (0, 1), (1, 0)),),
    )
    assert run_rows(node) == [(1, 1, 1)]


def test_generic_join_tries_of_every_depth_match_the_product():
    """Children binding one, two and three variables (the trie build has
    a loop per depth), NULL-heavy and duplicate-heavy, against the filtered
    cross product; the held-row count excludes exactly the
    rows with a NULL variable column."""
    import random

    rng = random.Random(7)

    def rows(count, width):
        return [
            tuple(None if rng.random() < 0.15 else rng.randrange(3) for _ in range(width))
            for _ in range(count)
        ]

    children = [rows(18, 3), rows(10, 2), rows(10, 2), rows(6, 1)]
    variables = (
        ((0, 0), (1, 0), (3, 0)),
        ((0, 1), (1, 1), (2, 0)),
        ((0, 2), (2, 1)),
    )
    expected = Counter(
        x + y + z + w
        for x, y, z, w in itertools.product(*children)
        if all(
            len({(x, y, z, w)[c][i] for c, i in var}) == 1
            and (x, y, z, w)[var[0][0]][var[0][1]] is not None
            for var in variables
        )
    )
    assert expected
    held = sum(None not in row for row in children[0] + children[1] + children[2])
    held += len(children[3]) - children[3].count((None,))
    node = GenericJoin([StaticScan(c, arity=len(c[0])) for c in children], variables)
    assert Counter(run_rows(node)) == expected
    assert node._build_rows == held


def test_generic_join_rebind_resets_tries():
    db1 = triangle_db()
    db2 = make_db(R=[], S=[], T=[])
    query = annotate(TRIANGLE, SCHEMA)
    engine = Engine(SCHEMA, DIALECT_POSTGRES, build_cache_size=0)
    first = engine.execute(query, db1)
    assert not first.is_empty()
    assert engine.execute(query, db2).is_empty()
    assert engine.execute(query, db1).same_as(first)


# -- DP join ordering ---------------------------------------------------------


def test_dp_reorders_adversarial_chain():
    # An acyclic chain whose FROM order puts the big pair first; the DP
    # must order the selective 2-row T early instead.
    db = make_db(
        R=[(i, i % 5) for i in range(40)],
        S=[(i % 5, i % 7) for i in range(40)],
        T=[(0, 1), (2, 3)],
    )
    sql = "SELECT R.A FROM R, S, T WHERE R.B = S.A AND S.B = T.A"
    plan = optimize_plan(compiled(db, sql).plan)
    assert plan._cost_sensitive
    fast = Engine(SCHEMA, DIALECT_POSTGRES).execute(annotate(sql, SCHEMA), db)
    naive = Engine(SCHEMA, DIALECT_POSTGRES, optimize=False).execute(
        annotate(sql, SCHEMA), db
    )
    assert fast.same_as(naive)


def test_dp_knob_falls_back_to_greedy():
    db = triangle_db()
    plan = optimize_plan(compiled(db, CHAIN).plan, dp_join_order=False)
    assert plan._cost_sensitive
    assert any(isinstance(node, HashJoin) for node in walk(plan))


def test_dp_cap_is_sane():
    # 2^n subset DP: the cap bounds planning time, greedy takes over above.
    assert 4 <= DP_MAX_CHILDREN <= 16


def test_estimate_rows_generic_join():
    node = triangle_node([(1, 10)] * 8, [(10, 100)] * 8, [(100, 1)] * 8)
    est = estimate_rows(node)
    # Product of children shrunk by one selectivity factor per equated pair.
    assert 0 < est < 8 * 8 * 8


# -- execution tiers and build-side sharing -----------------------------------


@pytest.mark.parametrize("dialect", (DIALECT_POSTGRES, DIALECT_ORACLE))
def test_all_tiers_agree_on_cyclic_queries(dialect):
    db = triangle_db()
    query = annotate(TRIANGLE, SCHEMA)
    expected = Engine(SCHEMA, dialect, optimize=False).execute(query, db)
    for make in (Engine, CodegenOffEngine):
        got = make(SCHEMA, dialect).execute(query, db)
        assert got.same_as(expected), make.__name__


def test_build_sides_shared_across_executions():
    """Repeated executions over equal table contents: the GenericJoin's
    tries are harvested into the build-side cache and restored instead of
    rebuilt (hits appear from the third run — the cache follows the
    established miss-harvest-hit protocol of the HashJoin carriers)."""
    query = annotate(TRIANGLE, SCHEMA)
    engine = Engine(SCHEMA, DIALECT_POSTGRES)
    first = engine.execute(query, triangle_db())
    for _ in range(2):
        assert engine.execute(query, triangle_db()).same_as(first)
    info = engine.build_cache_info()
    assert info["hits"] >= 1 and info["misses"] >= 1


# -- the cardinality-feedback loop --------------------------------------------


def test_feedback_reorders_cached_plan_bit_identically():
    """The acceptance demo: a cached plan planned against one data shape
    is re-optimized — different join order — when the tables reshape, and
    both orders produce identical rows."""
    query = annotate(CHAIN, SCHEMA)
    engine = Engine(SCHEMA, DIALECT_POSTGRES)
    naive = Engine(SCHEMA, DIALECT_POSTGRES, optimize=False)

    def db(nr, ns, nt):
        return make_db(
            R=[(i, i % 7) for i in range(nr)],
            S=[(i % 7, i % 5) for i in range(ns)],
            T=[(i % 5, i) for i in range(nt)],
        )

    skew_t = db(300, 300, 3)
    skew_r = db(3, 300, 300)

    def plan_shape():
        (compiled_query,) = engine._plan_cache.values()
        return repr(compiled_query.plan)

    first = engine.execute(query, skew_t)
    shape_t = plan_shape()
    assert engine.execute(query, skew_t).same_as(first)  # cache hit, no drift
    assert engine.cache_info()["reoptimizations"] == 0
    reshaped = engine.execute(query, skew_r)
    shape_r = plan_shape()
    assert engine.cache_info()["reoptimizations"] == 1
    assert shape_t != shape_r, "the reshape must change the join order"
    assert first.same_as(naive.execute(query, skew_t))
    assert reshaped.same_as(naive.execute(query, skew_r))


def test_feedback_is_seeded_at_bind_time():
    """Satellite: table cardinalities are observed *before* the first
    plan, so even a fresh engine's first execution orders joins from the
    real sizes — no DEFAULT_TABLE_ROWS fallback, no unbind needed."""
    engine = Engine(SCHEMA, DIALECT_POSTGRES)
    engine.execute(annotate("SELECT R.A FROM R", SCHEMA), triangle_db())
    observed = engine.cache_info()["observed_rows"]
    # Every schema table is seeded, not just the scanned one.
    assert observed == {"R": 4, "S": 3, "T": 4, "U": 0}


def test_reoptimization_not_triggered_without_drift():
    query = annotate(CHAIN, SCHEMA)
    engine = Engine(SCHEMA, DIALECT_POSTGRES)
    db = triangle_db()
    engine.execute(query, db)
    engine.execute(query, db)
    engine.execute(query, db)
    info = engine.cache_info()
    assert info["hits"] == 2
    assert info["reoptimizations"] == 0
