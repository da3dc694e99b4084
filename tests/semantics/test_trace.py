"""The derivation tracer: a drop-in evaluator that records rule applications."""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import AmbiguousReferenceError
from repro.semantics import SqlSemantics
from repro.semantics.trace import TraceNode, TracingSemantics, format_trace
from repro.sql import annotate


@pytest.fixture
def schema():
    return Schema({"R": ("A",), "S": ("A",)})


@pytest.fixture
def db(schema):
    return Database(schema, {"R": [(1,), (NULL,)], "S": [(NULL,)]})


def test_tracer_is_a_drop_in_evaluator(schema, db):
    q = annotate(
        "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)", schema
    )
    plain = SqlSemantics(schema).run(q, db)
    traced = TracingSemantics(schema)
    assert traced.run(q, db).same_as(plain)


def test_trace_records_root_query(schema, db):
    sem = TracingSemantics(schema)
    q = annotate("SELECT R.A FROM R", schema)
    sem.run(q, db)
    assert sem.trace is not None
    assert sem.trace.kind == "query"
    assert "SELECT R.A AS A" in sem.trace.description
    assert "(x=0)" in sem.trace.description


def test_trace_contains_condition_applications(schema, db):
    sem = TracingSemantics(schema)
    q = annotate("SELECT R.A FROM R WHERE R.A = 1", schema)
    sem.run(q, db)

    def collect(node):
        yield node
        for child in node.children:
            yield from collect(child)

    nodes = list(collect(sem.trace))
    condition_nodes = [n for n in nodes if n.kind == "condition"]
    # one application per product row (2 rows in R)
    assert len(condition_nodes) == 2
    results = sorted(n.result for n in condition_nodes)
    assert results == ["t", "u"]  # 1 = 1 is t; NULL = 1 is u


def test_trace_shows_environments(schema, db):
    sem = TracingSemantics(schema)
    q = annotate("SELECT R.A FROM R WHERE R.A = 1", schema)
    sem.run(q, db)
    condition = sem.trace.children[0]
    assert "R.A=" in condition.environment


def test_trace_nested_subqueries(schema, db):
    sem = TracingSemantics(schema)
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
        schema,
    )
    sem.run(q, db)
    text = format_trace(sem.trace)
    # the EXISTS subquery appears with the switch set
    assert "(x=1)" in text
    # correlated comparisons appear with their environments
    assert "S.A = R.A" in text


def test_trace_records_errors(schema, db):
    sem = TracingSemantics(schema)
    q = annotate("SELECT T.A AS X FROM (SELECT R.A, R.A FROM R) AS T", schema)
    with pytest.raises(AmbiguousReferenceError):
        sem.run(q, db)
    text = format_trace(sem.trace)
    assert "error: AmbiguousReferenceError" in text


def test_format_trace_structure(schema, db):
    sem = TracingSemantics(schema)
    q = annotate("SELECT R.A FROM R WHERE TRUE AND TRUE", schema)
    sem.run(q, db)
    text = format_trace(sem.trace)
    lines = text.splitlines()
    assert lines[0].startswith("⟦")
    assert lines[-1].strip().startswith("=")
    assert any(line.startswith("    ") for line in lines)  # nesting


def test_format_trace_none():
    assert "no trace" in format_trace(None)


def test_result_truncation(schema):
    db = Database(schema, {"R": [(i,) for i in range(20)]})
    sem = TracingSemantics(schema, max_result_rows=3)
    q = annotate("SELECT R.A FROM R", schema)
    sem.run(q, db)
    assert "…" in sem.trace.result


def test_consecutive_runs_replace_trace(schema, db):
    sem = TracingSemantics(schema)
    q1 = annotate("SELECT R.A FROM R", schema)
    q2 = annotate("SELECT S.A FROM S", schema)
    sem.run(q1, db)
    first = sem.trace
    sem.run(q2, db)
    assert sem.trace is not first
    assert "S.A" in sem.trace.description


def test_every_visit_of_a_subquery_has_its_derivation(schema, db):
    """The default evaluator would answer the second visit of the
    uncorrelated subquery from its memo, leaving a result with nothing
    under it; the tracer takes the literal route instead."""
    sem = TracingSemantics(schema)
    assert sem.fast_from is False
    q = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S WHERE TRUE)", schema)
    assert sem.run(q, db).same_as(SqlSemantics(schema).run(q, db))
    visits = [
        child
        for condition in sem.trace.children
        for child in condition.children
        if child.kind == "query"
    ]
    assert len(visits) == 2  # one per row of R
    for visit in visits:
        assert [c.description for c in visit.children] == ["⟦TRUE⟧"]

