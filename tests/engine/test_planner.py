"""The engine's compile phase: scopes, positional resolution, star expansion."""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import (
    AmbiguousReferenceError,
    CompileError,
    UnboundReferenceError,
)
from repro.core.values import FullName
from repro.engine.expressions import ColumnRef, LiteralExpr
from repro.engine.planner import Planner
from repro.sql import annotate
from repro.sql.ast import Predicate

from ..executor import run_rows


@pytest.fixture
def schema():
    return Schema({"R": ("A", "B"), "S": ("A",)})


@pytest.fixture
def db(schema):
    return Database(schema, {"R": [(1, 2), (NULL, 4)], "S": [(1,)]})


def planner(schema, db, dialect="postgres"):
    return Planner(schema, db, dialect)


def test_labels_computed(schema, db):
    compiled = planner(schema, db).compile(annotate("SELECT R.B, R.A FROM R", schema))
    assert compiled.labels == ("B", "A")


def test_scan_converts_nulls_to_none(schema, db):
    compiled = planner(schema, db).compile(annotate("SELECT R.A FROM R", schema))
    rows = run_rows(compiled.plan)
    assert (None,) in rows


def test_local_reference_depth_zero(schema, db):
    p = planner(schema, db)
    compiled = p.compile(annotate("SELECT R.B FROM R", schema))
    expr = compiled.plan.expressions[0]
    assert isinstance(expr, ColumnRef)
    assert expr.depth == 0 and expr.index == 1


def test_correlated_reference_depth_one(schema, db):
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
        schema,
    )
    # Compiles without error; depth handling is verified behaviourally.
    compiled = planner(schema, db).compile(q)
    rows = run_rows(compiled.plan)
    assert rows == [(1,)]


def test_row_layout_concatenates_from_items(schema, db):
    q = annotate("SELECT S.A, R.B FROM R, S", schema)
    compiled = planner(schema, db).compile(q)
    exprs = compiled.plan.expressions
    # layout: R.A, R.B, S.A → S.A at index 2, R.B at index 1
    assert (exprs[0].depth, exprs[0].index) == (0, 2)
    assert (exprs[1].depth, exprs[1].index) == (0, 1)


def test_star_positional_in_postgres(schema, db):
    q = annotate("SELECT * FROM R, S", schema)
    compiled = planner(schema, db).compile(q)
    assert compiled.labels == ("A", "B", "A")
    assert [e.index for e in compiled.plan.expressions] == [0, 1, 2]


def test_star_by_name_in_oracle(schema, db):
    q = annotate("SELECT * FROM R, S", schema)
    compiled = planner(schema, db, "oracle").compile(q)
    assert compiled.labels == ("A", "B", "A")


def test_oracle_star_duplicate_rejected_at_compile(schema, db):
    q = annotate("SELECT * FROM (SELECT R.A, R.A FROM R) AS T", schema)
    with pytest.raises(AmbiguousReferenceError):
        planner(schema, db, "oracle").compile(q)


def test_oracle_star_under_exists_is_constant(schema, db):
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S)", schema
    )
    compiled = planner(schema, db, "oracle").compile(q)
    assert len(run_rows(compiled.plan.child.child)) >= 0  # compiles and runs


def test_unbound_reference_at_compile_time(schema, db):
    from repro.sql.ast import FromItem, Select, SelectItem, TRUE_COND

    q = Select(
        (SelectItem(FullName("Z", "A"), "A"),), (FromItem("R", "R"),), TRUE_COND
    )
    with pytest.raises(UnboundReferenceError):
        planner(schema, db).compile(q)


def test_ambiguous_explicit_reference_both_dialects(schema, db):
    q = annotate("SELECT T.A AS X FROM (SELECT R.A, R.A FROM R) AS T", schema)
    for dialect in ("postgres", "oracle"):
        with pytest.raises(AmbiguousReferenceError):
            planner(schema, db, dialect).compile(q)


def test_literal_terms_compiled(schema, db):
    q = annotate("SELECT 7, NULL FROM R", schema)
    compiled = planner(schema, db).compile(q)
    exprs = compiled.plan.expressions
    assert isinstance(exprs[0], LiteralExpr) and exprs[0].value == 7
    assert isinstance(exprs[1], LiteralExpr) and exprs[1].value is None


def test_non_binary_predicate_rejected(schema, db):
    q = annotate("SELECT R.A FROM R", schema)
    bad = q.__class__(
        q.items, q.from_items, Predicate("odd", (FullName("R", "A"),))
    )
    with pytest.raises(CompileError):
        planner(schema, db).compile(bad)


def test_inner_scope_shadows_outer_in_engine(schema):
    """A subquery FROM with the same alias re-binds the name at depth 0."""
    db = Database(schema, {"R": [(1, 2)], "S": [(2,)]})
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT R2.A FROM S AS R2 WHERE R2.A = 2)",
        schema,
    )
    compiled = Planner(schema, db).compile(q)
    assert run_rows(compiled.plan) == [(1,)]


def test_from_subquery_sees_outer_not_sibling(schema):
    db = Database(schema, {"R": [(1, 2)], "S": [(1,)]})
    # sibling's alias X must not be visible inside the FROM subquery
    q = annotate(
        "SELECT X.A FROM R AS X, (SELECT S.A AS Z FROM S) AS U WHERE U.Z = X.A",
        schema,
    )
    compiled = Planner(schema, db).compile(q)
    assert run_rows(compiled.plan) == [(1,)]
