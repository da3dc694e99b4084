"""The plan-rewrite optimizer: structure and semantics of the rewrites."""

from collections import Counter

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.engine.expressions import ColumnRef, ComparePred, IsNullPred
from repro.engine.operators import (
    CachedSubplan,
    CrossJoin,
    ExistsPred,
    ExistsProbe,
    FilterOp,
    HashJoin,
    InPred,
    ProjectOp,
    SemiJoinProbe,
    StaticScan,
)
from repro.engine.optimizer import optimize_plan
from repro.engine.planner import Planner
from repro.semantics import SqlSemantics
from repro.sql import annotate

from ..executor import run_rows


@pytest.fixture
def schema():
    return Schema({"R": ("A", "B"), "S": ("A",), "T": ("C", "D")})


@pytest.fixture
def db(schema):
    return Database(
        schema,
        {
            "R": [(1, 2), (NULL, 4), (3, 2)],
            "S": [(1,), (3,), (NULL,)],
            "T": [(2, 1), (2, NULL), (5, 3)],
        },
    )


def compiled(schema, db, sql, dialect=DIALECT_POSTGRES):
    return Planner(schema, db, dialect).compile(annotate(sql, schema))


def both_ways(schema, db, sql, dialect=DIALECT_POSTGRES):
    fast = Engine(schema, dialect).execute(annotate(sql, schema), db)
    naive = Engine(schema, dialect, optimize=False).execute(annotate(sql, schema), db)
    return fast, naive


# -- structural expectations -------------------------------------------------


def test_equality_conjunct_becomes_hash_join(schema, db):
    c = compiled(schema, db, "SELECT R.A FROM R, S WHERE R.A = S.A")
    plan, _ = optimize_plan(c.plan)
    assert isinstance(plan, ProjectOp)
    assert isinstance(plan.child, HashJoin)
    assert plan.child.left_keys == (0,) and plan.child.right_keys == (0,)


def test_single_table_conjunct_pushed_below_join(schema, db):
    c = compiled(schema, db, "SELECT R.A FROM R, T WHERE R.B = 2 AND T.C = 5")
    plan, _ = optimize_plan(c.plan)
    # No equality across children: a cross join of two filtered scans.
    join = plan.child
    assert isinstance(join, CrossJoin)
    left, right = join.children
    assert isinstance(left, FilterOp) and isinstance(left.child, StaticScan)
    assert isinstance(right, FilterOp) and isinstance(right.child, StaticScan)
    # The pushed T-filter is re-indexed to the child's local layout.
    pred = right.predicate
    assert isinstance(pred, ComparePred)
    assert isinstance(pred.left, ColumnRef) and pred.left.index == 0


def test_closed_exists_becomes_cached_probe(schema, db):
    c = compiled(schema, db, "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S)")
    plan, _ = optimize_plan(c.plan)
    probe = plan.child.predicate
    assert isinstance(probe, ExistsProbe) and probe.closed


def test_equality_correlated_exists_becomes_keyed_probe(schema, db):
    c = compiled(
        schema, db, "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)"
    )
    plan, _ = optimize_plan(c.plan)
    probe = plan.child.predicate
    # Keyed on every column (two-valued), probing R.A, over a closed build
    # side that projects the inner key column only.
    assert isinstance(probe, SemiJoinProbe)
    assert probe.key_width == 1 and probe.group_width == 0
    assert probe.exprs == (ColumnRef(0, 0),) and not probe.negated
    assert probe.subplan.free_refs() == frozenset()
    assert probe.subplan.expressions == [ColumnRef(0, 0)]


def test_equality_correlated_in_becomes_grouped_probe(schema, db):
    c = compiled(
        schema,
        db,
        "SELECT R.A FROM R WHERE R.B NOT IN "
        "(SELECT DISTINCT T.C FROM T WHERE T.D = R.A AND T.C > 1)",
    )
    plan, _ = optimize_plan(c.plan)
    probe = plan.child.predicate
    assert isinstance(probe, SemiJoinProbe) and probe.negated
    # The correlation key R.A leads, the IN value R.B follows; the build
    # side is keyed by T.D and keeps the local conjunct T.C > 1.
    assert probe.key_width == probe.group_width == 1
    assert probe.exprs == (ColumnRef(0, 0), ColumnRef(0, 1))
    assert probe.subplan.expressions == [ColumnRef(0, 1), ColumnRef(0, 0)]
    assert isinstance(probe.subplan.child, FilterOp)
    assert probe.subplan.free_refs() == frozenset()


@pytest.mark.parametrize(
    "sql, kind",
    [
        # a reference two levels up
        (
            "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE EXISTS "
            "(SELECT T.C FROM T WHERE T.C = R.B))",
            ExistsProbe,
        ),
        # a non-equality correlation
        ("SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A < R.A)", ExistsProbe),
        # a correlation under OR
        (
            "SELECT R.A FROM R WHERE EXISTS "
            "(SELECT S.A FROM S WHERE S.A = R.A OR S.A = 1)",
            ExistsProbe,
        ),
        # an outer reference in the select list
        ("SELECT R.A FROM R WHERE R.B IN (SELECT R.A FROM S WHERE S.A = R.A)", InPred),
        # a set operation as body
        (
            "SELECT R.A FROM R WHERE R.B IN (SELECT T.C FROM T WHERE T.D = R.A "
            "UNION SELECT S.A FROM S)",
            InPred,
        ),
        # an outer-only equality
        ("SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE R.A = R.B)", ExistsProbe),
    ],
)
def test_other_correlated_shapes_keep_the_memo_path(schema, db, sql, kind):
    plan, _ = optimize_plan(compiled(schema, db, sql).plan)
    probe = plan.child.predicate
    assert type(probe) is kind
    if kind is ExistsProbe:
        assert not probe.closed and probe._refs
    else:
        assert probe._refs


def test_closed_in_becomes_semi_join_probe(schema, db):
    c = compiled(schema, db, "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)")
    plan, _ = optimize_plan(c.plan)
    probe = plan.child.predicate
    assert isinstance(probe, SemiJoinProbe)


def test_closed_from_subquery_cached_inside_correlated_exists(schema, db):
    c = compiled(
        schema,
        db,
        "SELECT R.A FROM R WHERE EXISTS "
        "(SELECT S.A FROM S, (SELECT T.C AS C FROM T) AS U "
        "WHERE S.A = R.A AND U.C = 2)",
    )
    plan, _ = optimize_plan(c.plan)
    probe = plan.child.predicate
    # The EXISTS is decorrelated on S.A = R.A; the closed remainder keeps
    # the FROM product, whose closed FROM-subquery is still materialized
    # once (with U.C = 2 sunk into it).
    assert isinstance(probe, SemiJoinProbe) and probe.key_width == 1
    assert probe.subplan.free_refs() == frozenset()
    cached = [
        node
        for node in _walk(probe.subplan)
        if isinstance(node, CachedSubplan)
    ]
    assert cached


def _walk(plan):
    yield plan
    for attr in ("child", "left", "right"):
        node = getattr(plan, attr, None)
        if node is not None:
            yield from _walk(node)
    for node in getattr(plan, "children", ()):
        yield from _walk(node)


def test_opaque_predicates_survive_untouched(schema, db):
    marker = lambda row, outers: True  # noqa: E731 - deliberately opaque
    plan = FilterOp(StaticScan([(1,)], arity=1), marker)
    optimized, _ = optimize_plan(plan)
    assert isinstance(optimized, FilterOp) and optimized.predicate is marker


# -- semantics of the new operators ------------------------------------------


JOIN_SCHEMA = Schema({"L": ("A", "B"), "R": ("A", "B")})

#: HashJoin inputs ``(left rows, right rows, key columns)``, both sides
#: keyed on the same columns.  Build keys are the raw values (a tuple of
#: them when composite), so each case pins one consequence of that.
HASH_JOIN_CASES = {
    "number-vs-string": (
        [(1, "a"), ("1", "b"), (2, "c")],
        [("1", "x"), (1, "y"), ("2", "z")],
        (0,),
    ),
    "composite-number-vs-string": (
        [(1, 2), ("1", 2), (1, "2"), ("1", "2")],
        [(1, 2), ("1", "2"), (1, "2"), (2, 1)],
        (0, 1),
    ),
    "null-on-build-side": (
        [(1, "a"), (2, "b")],
        [(None, "x"), (1, "y"), (None, "a")],
        (0,),
    ),
    "null-on-probe-side": ([(None, "a"), (1, "b")], [(1, "y"), (2, "a")], (0,)),
    "null-on-both-sides": ([(None, "a"), (1, "b")], [(None, "x"), (1, None)], (0,)),
    "composite-nulls": (
        [(1, None), (None, 1), (None, None), (1, 1)],
        [(1, None), (None, 1), (None, None), (1, 1), (1, 1)],
        (0, 1),
    ),
    "composite-null-on-build-side": (
        [(1, 2), (3, 4)],
        [(1, None), (None, 4), (1, 2)],
        (0, 1),
    ),
    "duplicate-keys": (
        [(1, "a"), (1, "a"), (2, "b")],
        [(1, "x"), (1, "y"), (1, "x"), (2, "b"), (3, "c")],
        (0,),
    ),
    "composite-duplicates": ([(1, 1), (1, 1)], [(1, 1), (1, 1), (1, 2)], (0, 1)),
}


def formal_join(left, right, keys):
    """The rows of ``L ⋈ R`` under the formal semantics, NULL as None."""
    def stored(rows):
        return [tuple(NULL if v is None else v for v in row) for row in rows]

    db = Database(JOIN_SCHEMA, {"L": stored(left), "R": stored(right)})
    on = " AND ".join(f"L.{column} = R.{column}" for column in ("A", "B")[: len(keys)])
    query = annotate(f"SELECT * FROM L, R WHERE {on}", JOIN_SCHEMA)
    table = SqlSemantics(JOIN_SCHEMA).run(query, db)
    return Counter(tuple(None if v is NULL else v for v in row) for row in table.bag)


@pytest.mark.parametrize("codegen", [True, False], ids=["codegen", "codegen-off"])
@pytest.mark.parametrize("case", sorted(HASH_JOIN_CASES))
def test_hash_join_keys_are_raw_values(case, codegen):
    left, right, keys = HASH_JOIN_CASES[case]
    node = HashJoin(StaticScan(left, arity=2), StaticScan(right, arity=2), keys, keys)
    rows = run_rows(node, kernels=codegen)
    assert Counter(rows) == formal_join(left, right, keys)


def test_hash_join_null_keys_never_match():
    left = StaticScan([(1,), (None,)], arity=1)
    right = StaticScan([(1,), (None,)], arity=1)
    join = HashJoin(left, right, (0,), (0,))
    assert run_rows(join) == [(1, 1)]


def test_hash_join_multiplicities():
    left = StaticScan([(1,), (1,)], arity=1)
    right = StaticScan([(1, 7), (1, 8)], arity=2)
    join = HashJoin(left, right, (0,), (0,))
    assert sorted(run_rows(join)) == [(1, 1, 7), (1, 1, 7), (1, 1, 8), (1, 1, 8)]


def test_cached_subplan_materializes_once_per_run():
    calls = []

    def spy(row, outers):
        calls.append(1)
        return True

    cached = CachedSubplan(FilterOp(StaticScan([(1,)], arity=1), spy))
    # Three probing rows, each asking for the subplan's rows.
    probed = FilterOp(StaticScan([(1,), (2,), (3,)], arity=1), ExistsPred(cached))
    assert run_rows(probed) == [(1,), (2,), (3,)]
    assert len(calls) == 1
    assert run_rows(probed) == [(1,), (2,), (3,)]
    assert len(calls) == 2  # a new run materializes afresh


def test_semi_join_probe_three_valued_null_handling(schema, db):
    # NOT IN against a set containing NULL is never satisfied (3VL).
    fast, naive = both_ways(
        schema, db, "SELECT R.B FROM R WHERE R.B NOT IN (SELECT S.A FROM S)"
    )
    assert fast.same_as(naive)
    assert fast.is_empty()


def test_semi_join_probe_null_probe_value(schema, db):
    fast, naive = both_ways(
        schema, db, "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)"
    )
    assert fast.same_as(naive)
    assert sorted(fast.bag) == [(1,), (3,)]


# -- end-to-end equivalence on targeted shapes --------------------------------

QUERIES = [
    "SELECT R.A FROM R, S WHERE R.A = S.A",
    "SELECT R.A, T.D FROM R, T WHERE R.B = T.C AND T.D IS NULL",
    "SELECT R.A FROM R, S, T WHERE R.A = S.A AND R.B = T.C",
    "SELECT R.A FROM R, T WHERE R.A < T.C AND T.C = 2",
    "SELECT DISTINCT R.B FROM R, S WHERE R.A = S.A OR R.B = 2",
    "SELECT R.A FROM R WHERE EXISTS (SELECT T.C FROM T WHERE T.C = R.B)",
    "SELECT R.A FROM R WHERE R.A NOT IN (SELECT T.D FROM T)",
    "SELECT S.A FROM S WHERE EXISTS (SELECT * FROM R, T WHERE R.A = T.D AND R.A = S.A)",
    "SELECT R.A FROM R, (SELECT S.A AS X FROM S) AS U WHERE R.A = U.X",
    "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S) AND R.B = 2",
]


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("dialect", [DIALECT_POSTGRES, DIALECT_ORACLE])
def test_optimized_equals_naive(schema, db, sql, dialect):
    fast, naive = both_ways(schema, db, sql, dialect)
    assert fast.same_as(naive)
