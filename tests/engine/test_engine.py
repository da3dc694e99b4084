"""The reference engine end to end, including its dialect behaviours."""

import gc
import random
import sys
import tracemalloc

import pytest

from repro.core import NULL, Database, Schema, validation_schema
from repro.core.bag import Bag
from repro.core.errors import (
    AmbiguousReferenceError,
    ArityMismatchError,
    CompileError,
    DuplicateAliasError,
    UnboundReferenceError,
    UnknownTableError,
)
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.engine import engine as engine_module
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.service import rows_from_json
from repro.sql import annotate, parse_query

from ..executor import CodegenOffEngine


@pytest.fixture
def schema():
    return Schema({"R": ("A",), "S": ("A", "B")})


@pytest.fixture
def db(schema):
    return Database(schema, {"R": [(1,), (2,), (NULL,)], "S": [(1, 5), (NULL, 6)]})


@pytest.fixture
def pg(schema):
    return Engine(schema, DIALECT_POSTGRES)


@pytest.fixture
def ora(schema):
    return Engine(schema, DIALECT_ORACLE)


def test_simple_scan(pg, schema, db):
    t = pg.execute(annotate("SELECT R.A FROM R", schema), db)
    assert t.columns == ("A",)
    assert sorted(t.bag, key=repr) == [(1,), (2,), (NULL,)]


def test_nulls_round_trip_the_boundary(pg, schema, db):
    """NULL→None on input, None→NULL on output."""
    t = pg.execute(annotate("SELECT S.B FROM S WHERE S.A IS NULL", schema), db)
    assert sorted(t.bag) == [(6,)]


def test_where_three_valued(pg, schema, db):
    t = pg.execute(annotate("SELECT R.A FROM R WHERE R.A > 1", schema), db)
    assert sorted(t.bag) == [(2,)]  # NULL row is unknown, dropped


def test_product_and_correlation(pg, schema, db):
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
        schema,
    )
    t = pg.execute(q, db)
    assert sorted(t.bag) == [(1,)]


def test_in_three_valued(pg, schema, db):
    q = annotate("SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)", schema)
    t = pg.execute(q, db)
    assert t.is_empty()  # S contains NULL, so NOT IN is never true


def test_distinct(pg, schema, db):
    q = annotate("SELECT DISTINCT 1 FROM R", schema)
    assert len(pg.execute(q, db)) == 1


def test_set_ops(pg, schema, db):
    q = annotate("SELECT R.A FROM R UNION ALL SELECT S.A FROM S", schema)
    assert len(pg.execute(q, db)) == 5


def test_except_matches_null_syntactically(pg, schema, db):
    q = annotate("SELECT R.A FROM R EXCEPT SELECT S.A FROM S", schema)
    t = pg.execute(q, db)
    assert sorted(t.bag) == [(2,)]


def test_unknown_table_error(pg, schema, db):
    q = parse_query("SELECT X.A FROM X AS X")
    with pytest.raises(UnknownTableError):
        pg.execute(q, db)


def test_duplicate_alias_error(pg, schema, db):
    q = parse_query("SELECT X.A FROM R AS X, S AS X")
    with pytest.raises(DuplicateAliasError):
        pg.execute(q, db)


def test_unbound_reference_error(pg, schema, db):
    q = parse_query("SELECT Z.A FROM R AS X")
    with pytest.raises(UnboundReferenceError):
        pg.execute(q, db)


def test_set_op_arity_error(pg, schema, db):
    q = annotate("SELECT R.A FROM R UNION SELECT S.A, S.B FROM S", schema)
    with pytest.raises(ArityMismatchError):
        pg.execute(q, db)


def test_in_arity_error(pg, schema, db):
    q = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A, S.B FROM S)", schema)
    with pytest.raises(ArityMismatchError):
        pg.execute(q, db)


class TestExample2Dialects:
    """Example 2: the dialect-defining behaviours of SELECT * expansion."""

    QUERY = "SELECT * FROM (SELECT R.A, R.A FROM R) AS T"
    NESTED = (
        "SELECT * FROM R WHERE EXISTS "
        "(SELECT * FROM (SELECT R.A, R.A FROM R) AS T)"
    )

    def test_postgres_accepts_duplicate_star(self, pg, schema, db):
        t = pg.execute(annotate(self.QUERY, schema), db)
        assert t.columns == ("A", "A")
        assert t.multiplicity((1, 1)) == 1

    def test_oracle_rejects_duplicate_star(self, ora, schema, db):
        with pytest.raises(AmbiguousReferenceError):
            ora.execute(annotate(self.QUERY, schema), db)

    def test_oracle_rejects_even_on_empty_table(self, ora, schema):
        """The error is a compile-time one: no data needed to trigger it."""
        empty = Database(Schema({"R": ("A",), "S": ("A", "B")}), {})
        with pytest.raises(AmbiguousReferenceError):
            ora.execute(annotate(self.QUERY, ora.schema), empty)

    def test_oracle_accepts_under_exists(self, ora, schema, db):
        t = ora.execute(annotate(self.NESTED, schema), db)
        assert t.columns == ("A",)
        assert len(t) == 3

    def test_postgres_accepts_under_exists(self, pg, schema, db):
        t = pg.execute(annotate(self.NESTED, schema), db)
        assert len(t) == 3

    def test_explicit_ambiguous_reference_rejected_by_both(self, pg, ora, schema, db):
        q = annotate("SELECT T.A AS X FROM (SELECT R.A, R.A FROM R) AS T", schema)
        for engine in (pg, ora):
            with pytest.raises(AmbiguousReferenceError):
                engine.execute(q, db)


def test_star_in_setop_under_exists_expands(ora, schema, db):
    """Set-operation operands are not 'directly under EXISTS': * expands."""
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS "
        "(SELECT * FROM (SELECT R.A, R.A FROM R) AS T "
        "UNION ALL SELECT S.A, S.B FROM S)",
        schema,
    )
    with pytest.raises(AmbiguousReferenceError):
        ora.execute(q, db)


def test_column_aliases_in_from(pg, schema, db):
    q = annotate(
        "SELECT N.X FROM (SELECT S.A, S.B FROM S) AS N(X, Y) WHERE N.Y = 5",
        schema,
    )
    t = pg.execute(q, db)
    assert t.columns == ("X",)
    assert sorted(t.bag) == [(1,)]


def test_unknown_dialect_rejected(schema):
    from repro.engine.planner import Planner

    with pytest.raises(ValueError):
        Planner(schema, Database(schema), "sqlite")


def test_nested_correlation_two_levels(pg, schema, db):
    q = annotate(
        "SELECT R.A FROM R WHERE EXISTS ("
        "SELECT S.A FROM S WHERE EXISTS ("
        "SELECT S2.A FROM S AS S2 WHERE S2.A = R.A AND S2.B = S.B))",
        schema,
    )
    t = pg.execute(q, db)
    assert sorted(t.bag) == [(1,)]


# -- execute_rows: the same execution, finished as wire rows -------------------
#
# ``Engine.execute`` and ``Engine.execute_rows`` share one plan-and-run
# driver and differ only in the finisher, so they must agree on
# every query: same labels, same bag once NULL is restored, same error
# class and message — plan cache cold and hot, on every row-wise tier.

PAPER_SCHEMA = validation_schema()
PAPER_TRIALS = 500
TIERS = {
    "default": Engine,
    "codegen-off": CodegenOffEngine,
    "naive": lambda schema, *args: Engine(schema, *args, optimize=False),
}


def paper_battery():
    pairs = []
    for seed in range(PAPER_TRIALS):
        rng = random.Random(seed)
        query = QueryGenerator(PAPER_SCHEMA, PAPER_CONFIG, rng).generate()
        db = fill_database(PAPER_SCHEMA, rng, DataFillerConfig(max_rows=6))
        pairs.append((query, db))
    return pairs


@pytest.fixture(scope="module")
def paper_pairs():
    return paper_battery()


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def rows_vs_table_failures(engine, pairs):
    """Every disagreement between the two entry points over ``pairs``.
    Odd seeds call ``execute_rows`` first, so it plans them cold and
    ``execute`` hits the cache; even seeds the other way round."""
    failures = []
    for seed, (query, db) in enumerate(pairs):
        entry_points = [engine.execute, engine.execute_rows]
        if seed % 2:
            entry_points.reverse()
        outcomes = {fn.__name__: _outcome(lambda: fn(query, db)) for fn in entry_points}
        table, wire = outcomes["execute"], outcomes["execute_rows"]
        if isinstance(table, tuple):
            if wire != table:
                failures.append(f"seed {seed}: errors differ: {wire} vs {table}")
            continue
        try:
            labels, rows = wire
            assert type(rows) is list, "rows must be materialized"
            assert not any(NULL in row for row in rows), "NULL leaked; None is NULL here"
            assert labels == table.columns and Bag(rows_from_json(rows)) == table.bag
            # Not just the same bag: the table iterates the very rows, in
            # emission order.
            assert rows_from_json(rows) == list(table.bag), "row order differs"
        except Exception as exc:
            failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    return failures


@pytest.mark.parametrize("dialect", [DIALECT_POSTGRES, DIALECT_ORACLE])
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_execute_rows_is_execute_without_the_bag(dialect, tier, paper_pairs):
    engine = TIERS[tier](PAPER_SCHEMA, dialect)
    assert rows_vs_table_failures(engine, paper_pairs) == []
    # The second call of every pair that plans at all was a cache hit
    # (a few oracle-dialect seeds fail to compile and admit nothing), on
    # every engine that keeps a plan cache.
    if engine.plan_cache_size:
        assert engine.cache_info()["hits"] >= PAPER_TRIALS * 9 // 10


def test_execute_rows_error_parity_leaves_the_plan_reusable():
    """A runtime error raised mid-iteration surfaces identically from both
    finishers, and the cached plan runs again on the next database."""
    schema = Schema({"R": ("A", "B")})
    query = annotate("SELECT R.A FROM R WHERE R.B < 3", schema)
    clash = Database(schema, {"R": [(1, 2), (2, "x")]})
    good = Database(schema, {"R": [(1, 2), (NULL, 1), (3, 9)]})
    for make in TIERS.values():
        engine = make(schema)
        table_error = _outcome(lambda: engine.execute(query, clash))
        assert table_error[0] is CompileError
        assert _outcome(lambda: engine.execute_rows(query, clash)) == table_error
        labels, rows = engine.execute_rows(query, good)
        assert (labels, sorted(rows, key=repr)) == (("A",), [(1,), (None,)])
        assert engine.execute(query, good).bag == Bag(rows_from_json(rows))
        assert engine.cache_info()["hits"] == (3 if engine.plan_cache_size else 0)
    # Compile-time errors never reach a finisher: same class and message.
    unknown = annotate("SELECT S.A FROM S", Schema({"S": ("A",)}))
    engine = Engine(schema)
    compile_error = _outcome(lambda: engine.execute(unknown, good))
    assert compile_error[0] is UnknownTableError
    assert _outcome(lambda: engine.execute_rows(unknown, good)) == compile_error


def test_execute_rows_checks_the_whole_result_shape():
    """Bag's per-record tuple/arity validation, once over the result."""
    assert engine_module._as_rows(("A",), iter([])) == (("A",), [])
    with pytest.raises(TypeError):
        engine_module._as_rows(("A",), iter([(1,), [2]]))
    with pytest.raises(ValueError, match="arity"):
        engine_module._as_rows(("A",), iter([(1,), (2, 3)]))
    with pytest.raises(ValueError, match="arity"):
        engine_module._as_rows(("A", "B"), iter([(1,), (2,)]))


#: Bytes per row an ``execute`` result may hold beyond its row tuples.  A
#: record-built bag holds its list, 8 bytes a row; counting the 20,000
#: distinct rows up front adds a hash table, +29.5 bytes a row (CPython
#: 3.11, 64-bit: 8.0 vs 37.5 measured by ``held_per_row`` below).
RESULT_BYTES_PER_ROW = 16


def held_per_row(rows=20_000):
    """Bytes per row a ``SELECT`` of ``rows`` distinct rows holds once it is
    iterated and ``len``'d, not counting its row tuples themselves."""
    schema = Schema({"R": ("A", "B")})
    db = Database(schema, {"R": [(i, -i) for i in range(rows)]})
    query = annotate("SELECT R.A, R.B FROM R WHERE R.A >= 0", schema)
    engine = Engine(schema)
    engine.execute(query, db)  # plan, lower and convert the table first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = engine.execute(query, db)
        assert sum(1 for _ in table) == len(table) == rows
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return (held - sum(map(sys.getsizeof, table))) / rows


def test_a_result_read_row_by_row_holds_no_hash_table():
    assert held_per_row() < RESULT_BYTES_PER_ROW


def test_an_eager_count_bag_would_exceed_the_bound(monkeypatch):
    """The bound above tells the two representations apart."""
    init = Bag.__init__

    def eager_init(self, records=()):
        init(self, records)
        self.counts()

    adopt = Bag._adopt.__func__

    def eager_adopt(cls, rows):
        bag = adopt(cls, rows)
        bag.counts()
        return bag

    monkeypatch.setattr(Bag, "__init__", eager_init)
    monkeypatch.setattr(Bag, "_adopt", classmethod(eager_adopt))
    assert held_per_row() > RESULT_BYTES_PER_ROW


def test_execute_builds_one_list_of_its_result_rows():
    """While ``execute`` runs a 20,000-row ``SELECT``, memory peaks within 4
    bytes a row of what its result retains: the result's list of rows is
    built once and kept by the bag, never copied (a copy is 8 bytes a
    row)."""
    rows = 20_000
    schema = Schema({"R": ("A", "B")})
    db = Database(schema, {"R": [(i, -i) for i in range(rows)]})
    query = annotate("SELECT R.A, R.B FROM R", schema)
    engine = Engine(schema)
    engine.execute(query, db)  # plan, lower and convert the table first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = engine.execute(query, db)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == rows
    assert peak - before <= retained - before + 4 * rows


# Canaries: each seeds one result-path bug and must trip the battery above
# (CI runs them by name and counts them, so a skipped canary fails).


def _canary_failures(monkeypatch, finisher, pairs):
    monkeypatch.setattr(engine_module, "_as_rows", finisher)
    return rows_vs_table_failures(Engine(PAPER_SCHEMA), pairs[:60])


def test_canary_unmaterialized_rows_trip_the_battery(monkeypatch, paper_pairs):
    """(b) the row iterator escapes un-consumed."""
    failures = _canary_failures(
        monkeypatch, lambda labels, rows: (labels, rows), paper_pairs
    )
    assert len(failures) > 30, failures[:3]


def test_canary_null_singleton_leak_trips_the_battery(monkeypatch, paper_pairs):
    """(c) rows reach the caller NULL-restored instead of carrying None."""
    failures = _canary_failures(
        monkeypatch,
        lambda labels, rows: (labels, list(engine_module._as_table(labels, rows).bag)),
        paper_pairs,
    )
    assert failures and all("NULL leaked" in f for f in failures), failures[:3]
