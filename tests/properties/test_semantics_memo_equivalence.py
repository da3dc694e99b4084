"""The memoizing evaluator against the literal Figures 5–7 route, and the
canaries that show the comparison can fail.

The default :class:`~repro.semantics.SqlSemantics` evaluates a subquery
once per distinct binding of the names it reads (the ``param`` lemma of
Section 5); ``fast_from=False`` does not and is the reference.  Both
evaluate ⟦FROM τ:β WHERE θ⟧ by the one Figure 5 rule.  The battery asks
for the same outcome from both — the same table, or the same error class
with the same message — under both star styles and all three logics, on
the paper's generator mix and on one biased toward nested, correlated
subqueries over larger tables.  A random WHERE clause is rarely satisfied, so most top-level
results would come out the same whatever a subquery had answered: the
battery therefore also audits every answer the memo gives *when* it gives
it, against the literal route on that subquery under that environment.

A third regime swaps half the values for ints, bools, floats and a string
from a small domain, so that ordered comparisons raise: the error — class,
message, and the row it surfaces on — must be the literal route's too.

Two care points of the memo key cannot show in generated trials, so each
has a directed one.  A key that forgets the switch x: the generator never
puts one subquery *object* under both EXISTS and IN.  A key that equates
``1``, ``True`` and ``1.0``: the built-in predicates treat them alike, a
correlated subquery's table only ever feeds a truth value, and so the only
trace of a wrong-typed hit is the type-clash message that prints it, raised
by an *enclosing* subquery on a later row.

Each canary seeds one bug the memo's care points rule out and must trip
the battery: a gate none of them can trip would be gating nothing.  There
is no canary for "tables are memoized, errors are not" because that is the
shipped behaviour and it is exact: an evaluation that raises ends the run
(nothing inside the evaluator catches), so no later visit can ask the memo
for it — ``test_an_error_ends_the_run`` pins the premise.
"""

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core import NULL, Database, validation_schema
from repro.core.env import EMPTY_ENV, Environment
from repro.core.errors import ReproError
from repro.core.values import FullName
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from repro.semantics import evaluator as evaluator_module
from repro.sql.ast import (
    STAR,
    And,
    Exists,
    FromItem,
    InQuery,
    Predicate,
    Select,
    SelectItem,
    TRUE_COND,
)

SCHEMA = validation_schema()
STAR_STYLES = (STAR_STANDARD, STAR_COMPOSITIONAL)
LOGICS = ("3vl", "2vl-conflating", "2vl-syntactic")

PAPER_DATA = DataFillerConfig(max_rows=6)
#: Most WHERE atoms are subqueries and most references in them correlated.
#: One table fewer, 8 rows rather than scripts/bench.py's 12 and 200 seeds
#: keep the literal route's tail inside tier-1's budget (500 seeds at 12
#: rows cost 5 s per grid cell).
NESTED_MIX = replace(
    PAPER_CONFIG,
    tables=5,
    where_subquery_probability=0.6,
    correlation_probability=0.7,
)
NESTED_DATA = DataFillerConfig(max_rows=8)
#: mix -> (generator config, data config, seeds)
MIXES = {
    "paper": (PAPER_CONFIG, PAPER_DATA, 500),
    "nested": (NESTED_MIX, NESTED_DATA, 200),
}

#: Values that collide as dict keys across types, and a string for the
#: ordered comparisons to clash on.
MIXED_DOMAIN = (0, 1, False, True, 0.0, 1.0, "a")


def mixed_database(seed: int) -> Database:
    """A NESTED_DATA-sized instance with half its values from MIXED_DOMAIN."""
    rng = random.Random(seed)
    db = fill_database(SCHEMA, rng, NESTED_DATA)
    return Database(
        SCHEMA,
        {
            name: [
                tuple(
                    v if v is NULL or rng.random() < 0.5 else rng.choice(MIXED_DOMAIN)
                    for v in record
                )
                for record in db.table(name).bag
            ]
            for name in SCHEMA.table_names
        },
    )


def shared_subquery_trial():
    """One ``SELECT *`` subquery object under EXISTS (x = 1) and under IN
    (x = 0), correlated so that the memo is consulted for both."""
    r, s = FullName("R1", "A1"), FullName("S", "A1")
    shared = Select(STAR, (FromItem("R1", "S"),), Predicate("=", (s, r)))
    query = Select(
        (SelectItem(r, "A"),),
        (FromItem("R1", "R1"),),
        And(Exists(shared), InQuery((r, FullName("R1", "A2")), shared)),
    )
    tables = {name: [] for name in SCHEMA.table_names}
    tables["R1"] = [(1, 2), (1, 3), (4, 5)]
    return query, Database(SCHEMA, tables)


def typed_key_trial():
    """A FROM subquery keyed on ``R1.A1`` alone, inside an EXISTS that
    compares its column with ``R1.A2``: on the second row a key that
    equates ``True`` with the first row's ``1`` makes the clash print 1."""
    a1, a2, x = FullName("R1", "A1"), FullName("R1", "A2"), FullName("T", "X")
    inner = Select((SelectItem(a1, "X"),), (FromItem("R2", "S"),), TRUE_COND)
    exists = Select(STAR, (FromItem(inner, "T"),), Predicate("<", (a2, x)))
    query = Select((SelectItem(a1, "A"),), (FromItem("R1", "R1"),), Exists(exists))
    tables = {name: [] for name in SCHEMA.table_names}
    tables["R1"] = [(1, 5), (True, "a")]
    tables["R2"] = [(0, 0, 0)]
    return query, Database(SCHEMA, tables)


@lru_cache(maxsize=None)
def generated(mix, mixed_data):
    config, data, seeds = MIXES[mix]
    out = []
    for seed in range(seeds):
        rng = random.Random(seed)
        query = QueryGenerator(SCHEMA, config, rng).generate()
        db = mixed_database(seed) if mixed_data else fill_database(SCHEMA, rng, data)
        out.append((seed, query, db))
    return out


def trials(mix, mixed_data=False, seeds=None):
    yield from generated(mix, mixed_data)[:seeds]
    yield "shared-subquery", *shared_subquery_trial()
    yield "typed-key", *typed_key_trial()


def shown(table):
    """A table with its values' types showing."""
    return table.columns, sorted(map(repr, table.bag.counts().items()))


def outcome(semantics: SqlSemantics, query, db):
    """What a run comes to: a table, or an error class and its args."""
    try:
        return shown(semantics.run(query, db))
    except ReproError as exc:
        return type(exc), exc.args


class Audited(SqlSemantics):
    """The default evaluator with every memo hit checked on the spot: a
    subquery answered without evaluating anything is evaluated after all,
    by the literal route, and the two tables compared."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.literal = SqlSemantics(*args, fast_from=False, **kwargs)
        self.evaluations = self.wrong_hits = 0

    def run(self, query, db):
        self.wrong_hits = 0
        return super().run(query, db)

    def _evaluate(self, query, db, env, exists_context):
        self.evaluations += 1
        return super()._evaluate(query, db, env, exists_context)

    def evaluate(self, query, db, env=EMPTY_ENV, exists_context=False):
        before = self.evaluations
        table = super().evaluate(query, db, env, exists_context)
        if self.evaluations == before:
            try:
                expected = shown(self.literal.evaluate(query, db, env, exists_context))
            except ReproError as exc:
                expected = type(exc)
            self.wrong_hits += shown(table) != expected
        return table


def battery(star_style, logic="3vl", mix="nested", mixed_data=False, seeds=None):
    """Trials on which the default evaluator and the literal route differ,
    in the outcome or in any answer the memo gave on the way."""
    memoizing = Audited(SCHEMA, star_style=star_style, logic=logic)
    failures = []
    for seed, query, db in trials(mix, mixed_data, seeds):
        differs = outcome(memoizing, query, db) != outcome(memoizing.literal, query, db)
        if differs or memoizing.wrong_hits:
            failures.append(seed)
    return failures


def stale_answers(seeds=None):
    """Trials on which an evaluator that ran a query on database A answers
    for database B with anything but the literal route's outcome on B."""
    memoizing = Audited(SCHEMA, star_style=STAR_COMPOSITIONAL)
    failures = []
    for index, (seed, query, db_a) in enumerate(trials("nested", seeds=seeds)):
        db_b = fill_database(SCHEMA, random.Random(-1 - index), NESTED_DATA)
        outcome(memoizing, query, db_a)
        differs = outcome(memoizing, query, db_b) != outcome(memoizing.literal, query, db_b)
        if differs or memoizing.wrong_hits:
            failures.append(seed)
    return failures


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("star_style", STAR_STYLES)
def test_memoizing_evaluator_matches_the_literal_route(star_style, logic, mix):
    assert battery(star_style, logic, mix) == []


@pytest.mark.parametrize("star_style", STAR_STYLES)
def test_memoizing_evaluator_matches_the_literal_route_on_mixed_types(star_style):
    assert battery(star_style, mixed_data=True) == []


def test_nothing_outlives_a_run():
    assert stale_answers() == []


def test_an_error_ends_the_run():
    """Why no error is ever entered in the memo: the first one unwinds to
    the outermost call, which takes the memo down."""
    semantics = SqlSemantics(SCHEMA, star_style=STAR_COMPOSITIONAL)
    raised = 0
    for _seed, query, db in trials("nested", mixed_data=True):
        try:
            semantics.run(query, db)
        except ReproError:
            raised += 1
        assert semantics._memo is None
    assert raised >= 20


# -- canaries -------------------------------------------------------------------


def replace_the_memo(monkeypatch, factory=dict, keep=False):
    """Make ``SqlSemantics._memo`` hold ``factory()`` wherever a run would
    start an empty dict and, with ``keep``, ignore the run's taking it down."""
    held = {}

    def assign(self, value):
        if value is not None:
            held[id(self)] = factory()
        elif not keep:
            held.pop(id(self), None)

    monkeypatch.setattr(
        SqlSemantics,
        "_memo",
        property(lambda self: held.get(id(self)), assign),
        raising=False,
    )


def drop_a_name_from_the_key(monkeypatch):
    """Seeded bug: param(Q) misses one of the names Q reads."""
    query_params = evaluator_module.query_params
    monkeypatch.setattr(
        evaluator_module,
        "query_params",
        lambda query, schema: sorted(query_params(query, schema), key=str)[1:],
    )


def share_entries_across_the_switch(monkeypatch):
    """Seeded bug: the key forgets x, so ``SELECT *`` under EXISTS and the
    same node under IN answer for each other."""

    class SwitchBlind(dict):
        def get(self, key):
            return dict.get(self, (key[0], key[2]))

        def __setitem__(self, key, value):
            dict.__setitem__(self, (key[0], key[2]), value)

    replace_the_memo(monkeypatch, SwitchBlind)


def untyped_keys(monkeypatch):
    """Seeded bug: binding states are compared as Python compares them."""
    binding_key = Environment.binding_key
    monkeypatch.setattr(
        Environment,
        "binding_key",
        lambda self, full_names: binding_key(self, full_names)[0],
    )


def keep_the_memo_across_runs(monkeypatch):
    """Seeded bug: the memo is the evaluator's, not the run's."""
    replace_the_memo(monkeypatch, keep=True)


def test_the_memo_seam_is_faithful(monkeypatch):
    """The property the canaries plant changes nothing by itself."""
    replace_the_memo(monkeypatch)
    assert battery(STAR_STANDARD, seeds=100) == []
    assert stale_answers(seeds=100) == []


def test_a_dropped_key_name_trips_the_battery(monkeypatch):
    drop_a_name_from_the_key(monkeypatch)
    for star_style in STAR_STYLES:
        assert len(battery(star_style)) >= 5


def test_a_switch_blind_key_trips_the_battery(monkeypatch):
    share_entries_across_the_switch(monkeypatch)
    assert battery(STAR_STANDARD, seeds=0) == ["shared-subquery"]
    # PostgreSQL's star ignores the switch, so there the entries may be shared.
    assert battery(STAR_COMPOSITIONAL, seeds=100) == []


def test_untyped_keys_trip_the_battery(monkeypatch):
    untyped_keys(monkeypatch)
    assert battery(STAR_COMPOSITIONAL, seeds=0) == ["typed-key"]


def test_a_memo_kept_across_runs_trips_the_two_database_check(monkeypatch):
    keep_the_memo_across_runs(monkeypatch)
    assert len(stale_answers()) >= 3
