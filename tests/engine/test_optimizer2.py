"""The second-generation optimizer: join ordering, hash set operations,
filter sinking through projections, and correlated FROM-subquery memos."""

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine, compile_plan
from repro.engine.operators import (
    CachedSubplan,
    CrossJoin,
    FilterOp,
    HashJoin,
    HashSetOp,
    MemoSubplan,
    ProjectOp,
    RemapOp,
    SetOpNode,
    StaticScan,
)
from repro.engine.optimizer import estimate_rows, optimize_plan
from repro.engine.planner import Planner
from repro.sql import annotate

from ..executor import run_rows


@pytest.fixture
def schema():
    return Schema({"BIG": ("A", "B"), "BIG2": ("A", "B"), "TINY": ("A", "B")})


@pytest.fixture
def db(schema):
    big = [(i % 4, i) for i in range(30)]
    big2 = [(i % 3, i + 1) for i in range(30)]
    tiny = [(1, 2), (2, 0), (NULL, 1)]
    return Database(schema, {"BIG": big, "BIG2": big2, "TINY": tiny})


def compiled(schema, db, sql, dialect=DIALECT_POSTGRES):
    return Planner(schema, db, dialect).compile(annotate(sql, schema))


def both_ways(schema, db, sql, dialect=DIALECT_POSTGRES, **options):
    fast = Engine(schema, dialect, optimizer_options=options or None).execute(
        annotate(sql, schema), db
    )
    naive = Engine(schema, dialect, optimize=False).execute(annotate(sql, schema), db)
    return fast, naive


def walk(plan):
    """Every plan node, descending into predicate subplans too."""
    from repro.engine.binding import iter_plan_nodes

    for node, _pred in iter_plan_nodes(plan):
        if node is not None:
            yield node


# -- join ordering ------------------------------------------------------------


ADVERSARIAL = (
    "SELECT BIG.B FROM BIG, BIG2, TINY "
    "WHERE TINY.A = BIG.A AND TINY.B = BIG2.A"
)


def test_adversarial_from_order_is_reordered(schema, db):
    plan = optimize_plan(compiled(schema, db, ADVERSARIAL).plan)
    remaps = [node for node in walk(plan) if isinstance(node, RemapOp)]
    assert remaps, "expected a RemapOp above the reordered join tree"
    # The reordered tree joins through hash joins, never a cross product.
    assert not any(isinstance(node, CrossJoin) for node in walk(plan))
    joins = [node for node in walk(plan) if isinstance(node, HashJoin)]
    assert len(joins) == 2


def test_reordering_is_ablatable(schema, db):
    plan = optimize_plan(compiled(schema, db, ADVERSARIAL).plan, reorder_joins=False)
    assert not any(isinstance(node, RemapOp) for node in walk(plan))
    # FROM order: BIG x BIG2 has no usable edge, so a cross join remains.
    assert any(isinstance(node, CrossJoin) for node in walk(plan))


def test_good_from_order_keeps_remap_free_plan(schema, db):
    sql = (
        "SELECT TINY.B FROM TINY, BIG, BIG2 "
        "WHERE TINY.A = BIG.A AND TINY.B = BIG2.A"
    )
    plan = optimize_plan(compiled(schema, db, sql).plan)
    assert not any(isinstance(node, RemapOp) for node in walk(plan))


def test_reordered_join_rows_match_naive(schema, db):
    fast, naive = both_ways(schema, db, ADVERSARIAL)
    assert fast.same_as(naive)
    assert not fast.is_empty()


def test_reordered_join_with_correlated_probe(schema, db):
    # The EXISTS probe references the full FROM row; it must still see the
    # original column layout above the remap.
    sql = (
        "SELECT BIG.B FROM BIG, BIG2, TINY "
        "WHERE TINY.A = BIG.A AND TINY.B = BIG2.A "
        "AND EXISTS (SELECT TINY.A FROM TINY WHERE TINY.A = BIG2.B)"
    )
    for dialect in (DIALECT_POSTGRES, DIALECT_ORACLE):
        fast, naive = both_ways(schema, db, sql, dialect)
        assert fast.same_as(naive)


def test_remap_op_restores_layout():
    scan = StaticScan([(1, 2, 3)], arity=3)
    assert run_rows(RemapOp(scan, (2, 0, 1))) == [(3, 1, 2)]
    assert RemapOp(scan, (2, 0, 1)).width() == 3


def test_estimate_rows_uses_bound_sizes(schema, db):
    c = compiled(schema, db, "SELECT BIG.A FROM BIG")
    # ProjectOp over a 30-row StaticScan.
    assert estimate_rows(c.plan) == 30.0
    filtered = compiled(schema, db, "SELECT TINY.A FROM TINY WHERE TINY.A = 1")
    assert estimate_rows(optimize_plan(filtered.plan)) < 3.0


# -- hash set operations ------------------------------------------------------


def test_setop_becomes_hash_setop(schema, db):
    c = compiled(schema, db, "SELECT BIG.A FROM BIG UNION SELECT BIG2.A FROM BIG2")
    assert isinstance(optimize_plan(c.plan), HashSetOp)
    assert isinstance(
        optimize_plan(c.plan, hash_setops=False), SetOpNode
    )


@pytest.mark.parametrize("op", ["UNION", "INTERSECT", "EXCEPT"])
@pytest.mark.parametrize("all_", [False, True])
def test_hash_setop_matches_counted_reference(op, all_):
    left = StaticScan([(1,), (1,), (2,), (None,), (None,), (3,)], arity=1)
    right = StaticScan([(1,), (None,), (4,), (4,)], arity=1)
    hashed = HashSetOp(op, all_, left, right)
    counted = SetOpNode(op, all_, left, right)
    assert sorted(run_rows(hashed), key=repr) == sorted(run_rows(counted), key=repr)


def test_hash_setop_streams_left_side():
    def first_row_only(row, outers):
        if row != (1,):
            raise AssertionError("streaming consumer must stop at one row")
        return True

    exploding = FilterOp(StaticScan([(1,), (2,)], arity=1), first_row_only)
    union = HashSetOp("UNION", True, exploding, StaticScan([(2,)], arity=1))
    assert next(compile_plan(union)(())) == (1,)


# -- filter sinking and FROM-subquery memos -----------------------------------


def test_filter_sinks_through_projection_into_cached_subquery(schema, db):
    sql = (
        "SELECT BIG.A FROM BIG, (SELECT TINY.A AS X FROM TINY) AS U "
        "WHERE U.X = 1 AND BIG.B = 2"
    )
    plan = optimize_plan(compiled(schema, db, sql).plan)
    cached = [node for node in walk(plan) if isinstance(node, CachedSubplan)]
    assert cached
    # The U.X = 1 filter moved inside the materialization, below the
    # subquery's projection.
    inner = cached[0].child
    assert isinstance(inner, ProjectOp)
    assert isinstance(inner.child, FilterOp)
    fast, naive = both_ways(schema, db, sql)
    assert fast.same_as(naive)


def test_correlated_from_subquery_is_memoized(schema, db):
    sql = (
        "SELECT BIG.A FROM BIG WHERE EXISTS "
        "(SELECT U.Y FROM (SELECT TINY.B AS Y FROM TINY WHERE TINY.A = BIG.A) AS U)"
    )
    plan = optimize_plan(compiled(schema, db, sql).plan)
    memos = [node for node in walk(plan) if isinstance(node, MemoSubplan)]
    assert memos, "correlated FROM-subquery should be wrapped in MemoSubplan"
    fast, naive = both_ways(schema, db, sql)
    assert fast.same_as(naive)


def test_memo_subplan_evaluates_once_per_binding():
    calls = []

    def spy(row, outers):
        calls.append(outers)
        return True

    memo = MemoSubplan(FilterOp(StaticScan([(1,)], arity=1), spy), ((1, 0),))
    outer_a, outer_b = (7, 0), (8, 0)
    run_rows(memo, (outer_a,))
    run_rows(memo, (outer_a,))
    run_rows(memo, ((7, 99),))  # same binding value at (1, 0): replayed
    assert len(calls) == 1
    run_rows(memo, (outer_b,))
    assert len(calls) == 2


# -- end-to-end equivalence on targeted shapes --------------------------------

QUERIES = [
    ADVERSARIAL,
    "SELECT BIG.A FROM BIG, BIG2, TINY WHERE TINY.A = BIG.A AND BIG.B = BIG2.B",
    "SELECT BIG.B, TINY.A FROM BIG, TINY WHERE TINY.B = BIG.A AND TINY.A IS NULL",
    "SELECT BIG.A FROM BIG UNION ALL SELECT BIG2.A FROM BIG2",
    "SELECT DISTINCT BIG.A FROM BIG INTERSECT SELECT TINY.A FROM TINY",
    "SELECT BIG.A, BIG.B FROM BIG EXCEPT SELECT BIG2.A, BIG2.B FROM BIG2",
    "SELECT TINY.A FROM TINY WHERE EXISTS "
    "(SELECT BIG.A FROM BIG WHERE BIG.A = TINY.A "
    "UNION ALL SELECT BIG2.A FROM BIG2 WHERE BIG2.A = TINY.B)",
    "SELECT BIG.A FROM BIG, (SELECT TINY.A AS X, TINY.B AS Y FROM TINY) AS U "
    "WHERE U.X = BIG.A AND U.Y = 2",
]


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("dialect", [DIALECT_POSTGRES, DIALECT_ORACLE])
def test_second_gen_optimizer_equals_naive(schema, db, sql, dialect):
    fast, naive = both_ways(schema, db, sql, dialect)
    assert fast.same_as(naive)


@pytest.mark.parametrize(
    "options",
    [{"reorder_joins": False}, {"hash_setops": False}],
    ids=["no-reorder", "no-hash-setops"],
)
@pytest.mark.parametrize("sql", QUERIES)
def test_ablated_optimizer_equals_naive(schema, db, sql, options):
    fast, naive = both_ways(schema, db, sql, **options)
    assert fast.same_as(naive)
