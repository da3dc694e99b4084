"""The evaluator's use of the ``param`` lemma: a subquery is evaluated once
per distinct binding of the names it reads, for the length of one run."""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.env import EMPTY_ENV, Environment
from repro.core.errors import AmbiguousReferenceError, UnboundReferenceError
from repro.core.values import FullName
from repro.semantics import SqlSemantics
from repro.semantics import evaluator as evaluator_module
from repro.sql import annotate
from repro.validation.compare import capture


class Counting(SqlSemantics):
    """Counts the applications of the Figure 5/7 rules."""

    evaluations = 0

    def _evaluate(self, query, db, env, exists_context):
        self.evaluations += 1
        return super()._evaluate(query, db, env, exists_context)


@pytest.fixture
def schema():
    return Schema({"E": ("dept", "name"), "D": ("dept", "head")})


@pytest.fixture
def db(schema):
    return Database(
        schema,
        {
            "E": [(10, "ann"), (10, "bob"), (20, "cat"), (NULL, "dan")],
            "D": [(10, "ann"), (20, NULL)],
        },
    )


def evaluations(schema, db, text, **kwargs):
    sem = Counting(schema, **kwargs)
    sem.run(annotate(text, schema), db)
    return sem.evaluations


UNCORRELATED = "SELECT E.name FROM E WHERE E.dept IN (SELECT D.dept FROM D)"
CORRELATED = (
    "SELECT E.name FROM E WHERE EXISTS (SELECT D.head FROM D WHERE D.dept = E.dept)"
)


def test_an_uncorrelated_subquery_is_evaluated_once(schema, db):
    assert evaluations(schema, db, UNCORRELATED) == 1 + 1
    assert evaluations(schema, db, UNCORRELATED, fast_from=False) == 1 + 4


def test_a_correlated_subquery_is_evaluated_once_per_distinct_binding(schema, db):
    # E.dept takes the values 10, 10, 20, NULL: three distinct bindings.
    assert evaluations(schema, db, CORRELATED) == 1 + 3
    assert evaluations(schema, db, CORRELATED, fast_from=False) == 1 + 4


def test_only_the_names_a_subquery_reads_key_it(schema, db):
    """E.name differs on every row; the subquery does not read it."""
    text = (
        "SELECT E.name FROM E WHERE E.name = 'x' OR EXISTS "
        "(SELECT D.head FROM D WHERE D.dept = E.dept)"
    )
    assert evaluations(schema, db, text) == 1 + 3


def test_param_is_computed_once_per_node(schema, db, monkeypatch):
    calls = []
    query_params = evaluator_module.query_params

    def counted(query, schema):
        calls.append(query)
        return query_params(query, schema)

    monkeypatch.setattr(evaluator_module, "query_params", counted)
    sem = SqlSemantics(schema)
    for text in (UNCORRELATED, CORRELATED):
        query = annotate(text, schema)
        sem.run(query, db)
        sem.run(query, db)
    assert len(calls) == 2


def test_the_memo_is_the_runs_not_the_evaluators(schema, db):
    sem = Counting(schema)
    query = annotate(UNCORRELATED, schema)
    emptied = Database(schema, {"E": [(10, "ann")], "D": []})
    assert sorted(sem.run(query, db).bag) == [("ann",), ("bob",), ("cat",)]
    assert sem._memo is None
    assert sem.run(query, emptied).is_empty()
    assert sem.evaluations == 2 + 2


def test_a_bare_evaluate_call_owns_and_drops_its_memo(schema, db):
    sem = Counting(schema)
    sub = annotate(CORRELATED, schema).where.query
    env = Environment({FullName("E", "dept"): 10})
    assert not sem.evaluate(sub, db, env, exists_context=True).is_empty()
    assert sem._memo is None and sem.evaluations == 1


def test_binding_states_are_keyed_not_just_values(schema, db):
    """One evaluator, one subquery, three environments that differ only in
    the state of ``E.dept``: bound, unbound, ambiguous."""
    sem = SqlSemantics(schema)
    sub = annotate(CORRELATED, schema).where.query
    name = FullName("E", "dept")
    ambiguous = Environment.from_bindings((name, name), (10, 10))
    environments = (Environment({name: 10}), EMPTY_ENV, ambiguous)
    assert len({env.binding_key((name,)) for env in environments}) == 3
    with pytest.raises(UnboundReferenceError):
        sem.evaluate(sub, db, EMPTY_ENV, exists_context=True)
    with pytest.raises(AmbiguousReferenceError):
        sem.evaluate(sub, db, ambiguous, exists_context=True)


def test_binding_keys_tell_equal_values_of_different_types_apart():
    name = FullName("R", "A")
    keys = {Environment({name: v}).binding_key((name,)) for v in (1, True, 1.0)}
    assert len(keys) == 3


def test_restrict_keeps_ambiguity_marks():
    a, b = FullName("R", "A"), FullName("R", "B")
    env = Environment.from_bindings((a, a, b), (1, 2, 3))
    restricted = env.restrict((a, FullName("S", "A")))
    assert restricted.bound_names() == ()
    with pytest.raises(AmbiguousReferenceError):
        restricted.lookup(a)
    with pytest.raises(UnboundReferenceError):
        restricted.lookup(b)


def test_labels_that_do_not_compute_are_left_to_the_rules(schema, db):
    """An unknown table in a branch evaluation never reaches: the analysis
    must not raise what Figures 5–7 would not.  (The subquery then goes
    unmemoized: param(Q) is not known.)"""
    wide = Schema({"E": ("dept", "name"), "D": ("dept", "head"), "Z": ("k",)})
    query = annotate(
        "SELECT E.name FROM E WHERE EXISTS "
        "(SELECT D.head FROM D WHERE D.dept = E.dept AND (TRUE OR EXISTS "
        "(SELECT Z.k FROM Z WHERE Z.k = E.dept)))",
        wide,
    )
    literal = SqlSemantics(schema, fast_from=False).run(query, db)
    sem = Counting(schema)
    assert sem.run(query, db).same_as(literal)
    assert sorted(literal.bag) == [("ann",), ("bob",), ("cat",)]
    assert sem.evaluations == 1 + 4


def test_both_routes_surface_the_first_error_in_product_order():
    """``T1.A = 1`` is UNKNOWN on the product's first row and true on its
    second; ``T1.B < T2.C OR S.X = 1`` raises a type clash on the first and
    an ambiguity error on the second.  Figure 5 visits the product in order,
    so the type clash surfaces, with the memo and without it."""
    schema = Schema({"T1": ("A", "B"), "T2": ("C",), "T3": ("E",)})
    db = Database(
        schema,
        {"T1": [(NULL, "x"), (1, 7)], "T2": [(5,)], "T3": [(1,)]},
    )
    query = annotate(
        "SELECT T1.A FROM T1, T2, (SELECT T3.E AS X, T3.E AS X FROM T3) AS S "
        "WHERE T1.A = 1 AND (T1.B < T2.C OR S.X = 1)",
        schema,
    )
    memo = capture(lambda: SqlSemantics(schema).run(query, db))
    literal = capture(lambda: SqlSemantics(schema, fast_from=False).run(query, db))
    assert memo.error == literal.error == "compile"
