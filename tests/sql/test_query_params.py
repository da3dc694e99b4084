"""param(Q) for SQL, and the lemma it exists for: ⟦Q⟧_{D,η,x} depends on η
only through η ↾ param(Q)."""

import random

import pytest

from repro.algebra.params import params
from repro.algebra.translate import ChiRenaming, to_sqlra
from repro.core import validation_schema
from repro.core.env import EMPTY_ENV
from repro.core.errors import ReproError
from repro.core.schema import Schema
from repro.core.values import FullName
from repro.generator import (
    DM_CONFIG,
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from repro.sql.annotate import annotate
from repro.sql.ast import And, Exists, InQuery, Not, Or, SetOp
from repro.sql.labels import query_params

QUERIES = 500
VALIDATION = validation_schema()
DATA = DataFillerConfig(max_rows=6)


def names(*texts):
    return frozenset(FullName.parse(text) for text in texts)


@pytest.fixture
def schema():
    return Schema({"R": ("A", "B"), "S": ("A", "C")})


def where_subquery(text, schema):
    """The query under the first EXISTS / IN of an annotated query's WHERE."""
    return annotate(text, schema).where.query


def test_a_closed_query_has_no_parameters(schema):
    q = annotate("SELECT R.A FROM R, S WHERE R.A = S.A AND S.C IS NULL", schema)
    assert query_params(q, schema) == frozenset()


def test_where_and_select_list_references_are_parameters(schema):
    sub = where_subquery(
        "SELECT R.A FROM R WHERE EXISTS (SELECT R.B AS X FROM S WHERE S.A = R.A)",
        schema,
    )
    assert query_params(sub, schema) == names("R.A", "R.B")


def test_the_local_scope_shields_a_name(schema):
    sub = where_subquery(
        "SELECT R.A FROM R WHERE EXISTS (SELECT R.A FROM S AS R WHERE R.C = 1)",
        schema,
    )
    assert query_params(sub, schema) == frozenset()


def test_in_reads_its_left_terms_outside_the_subquery(schema):
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS "
        "(SELECT S.A FROM S WHERE R.B IN (SELECT T.A FROM S AS T WHERE T.C = S.C))",
        schema,
    )
    exists = q.where.query
    assert query_params(exists, schema) == names("R.B")
    assert query_params(exists.where.query, schema) == names("S.C")
    assert query_params(q, schema) == frozenset()


def test_a_from_subquery_is_not_shielded_by_its_own_from_clause(schema):
    """``R.A`` inside the FROM subquery is read from η, although the FROM
    clause that holds it binds an ``R.A`` of its own."""
    sub = where_subquery(
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S AS R, "
        "(SELECT S.C AS X FROM S WHERE S.A = R.A) AS T WHERE T.X = R.C)",
        schema,
    )
    assert query_params(sub, schema) == names("R.A")


def test_star_reads_no_names_and_set_operations_union(schema):
    sub = where_subquery(
        "SELECT R.A FROM R WHERE EXISTS "
        "(SELECT * FROM S WHERE S.A = R.A UNION SELECT * FROM S WHERE S.C = R.B)",
        schema,
    )
    assert isinstance(sub, SetOp)
    assert query_params(sub, schema) == names("R.A", "R.B")
    assert query_params(sub.left, schema) == names("R.A")


def test_not_a_query(schema):
    with pytest.raises(TypeError):
        query_params("R", schema)


# -- the lemma, on generated queries ------------------------------------------


def subqueries(query):
    """Every query nested in ``query``, at any depth, itself excluded."""
    if isinstance(query, SetOp):
        children = [query.left, query.right]
    else:
        children = [item.table for item in query.from_items if not item.is_base_table]
        conditions = [query.where]
        while conditions:
            condition = conditions.pop()
            if isinstance(condition, (InQuery, Exists)):
                children.append(condition.query)
            elif isinstance(condition, (And, Or)):
                conditions += [condition.left, condition.right]
            elif isinstance(condition, Not):
                conditions.append(condition.operand)
    for child in children:
        yield child
        yield from subqueries(child)


def outcome(fn):
    try:
        return fn()
    except ReproError as exc:
        return type(exc), exc.args


class LemmaChecker(SqlSemantics):
    """The literal evaluator, asking at every subquery it reaches whether
    the environment restricted to param(Q′) would have done as well."""

    def __init__(self, schema, star_style, param=query_params):
        super().__init__(schema, star_style=star_style, fast_from=False)
        self.param = param
        self.plain = SqlSemantics(schema, star_style=star_style, fast_from=False)
        self.visits = self.correlated_visits = 0
        self.counterexamples = []

    def evaluate(self, query, db, env=EMPTY_ENV, exists_context=False):
        if env is not EMPTY_ENV:
            self.visits += 1
            read = self.param(query, self.schema)
            self.correlated_visits += bool(read)
            full = outcome(lambda: self.plain.evaluate(query, db, env, exists_context))
            restricted = outcome(
                lambda: self.plain.evaluate(
                    query, db, env.restrict(read), exists_context
                )
            )
            if full != restricted:
                self.counterexamples.append((query, env))
        return super().evaluate(query, db, env, exists_context)


@pytest.mark.parametrize("star_style", (STAR_STANDARD, STAR_COMPOSITIONAL))
def test_a_query_depends_on_its_environment_through_its_parameters(star_style):
    checker = LemmaChecker(VALIDATION, star_style)
    for seed in range(QUERIES):
        rng = random.Random(seed)
        query = QueryGenerator(VALIDATION, PAPER_CONFIG, rng).generate()
        db = fill_database(VALIDATION, rng, DATA)
        assert query_params(query, VALIDATION) == frozenset()
        outcome(lambda: checker.run(query, db))
    assert checker.counterexamples == []
    # Not vacuous: subqueries were reached, most of them with names to read.
    assert checker.visits > 2 * QUERIES
    assert checker.correlated_visits > checker.visits // 2


def test_the_lemma_needs_every_parameter():
    """The same check with one name left out of param(Q′) finds
    counterexamples: the check can fail."""
    checker = LemmaChecker(
        VALIDATION,
        STAR_COMPOSITIONAL,
        param=lambda query, schema: sorted(query_params(query, schema), key=str)[1:],
    )
    for seed in range(100):
        rng = random.Random(seed)
        query = QueryGenerator(VALIDATION, PAPER_CONFIG, rng).generate()
        outcome(lambda: checker.run(query, fill_database(VALIDATION, rng, DATA)))
    assert len(checker.counterexamples) >= 3


def test_agrees_with_param_of_the_sqlra_translation():
    """Figure 9 maps a data manipulation query to SQL-RA under the renaming
    χ of full names; param(E) of the image is χ of param(Q), subquery by
    subquery."""
    compared = correlated = 0
    for seed in range(QUERIES):
        query = QueryGenerator(VALIDATION, DM_CONFIG, random.Random(seed)).generate()
        chi = ChiRenaming(query, VALIDATION)
        assert params(to_sqlra(query, VALIDATION, chi), VALIDATION) == frozenset()
        for sub in subqueries(query):
            expected = {chi(name) for name in query_params(sub, VALIDATION)}
            assert params(to_sqlra(sub, VALIDATION, chi), VALIDATION) == expected
            compared += 1
            correlated += bool(expected)
    assert compared > QUERIES and correlated > QUERIES // 4
