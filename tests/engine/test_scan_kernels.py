"""Scan kernels of generated code (:mod:`repro.engine.compile`).

A filter over a base-table scan runs its leading probe-free conjuncts as
one fused selection over the table's column vectors.  Pins the contracts
that lowering must keep:

* 3VL: the kept rows are the codegen-off leg's — and the formal
  semantics' — on every comparison operator, NULL operand and NULL test,
  and on strings under ``=`` and ``LIKE`` either way round;
* errors: a type clash surfaces as the codegen-off leg's ``CompileError``,
  same message, and only where the row-wise order reaches it — not behind
  a FALSE conjunct or a TRUE disjunct, not past the row an EXISTS stops at;
* kernel output feeds probes, joins, DISTINCT and set operations, and a
  cached kernel plan runs bit-identically over each database;
* a prefix kernel hands on the rows on which its conjuncts are UNKNOWN;
* column vectors are a per-column memo on the ``Table``: pivoted on first
  touch, shared by every plan and run, referenced by no plan;
* a fallback replays through the predicate closures and generates no
  code, and the kernel's source does not depend on literals or column
  positions;
* ``cache_info()["scan_kernels"]`` counts scans, rows, fallbacks and index
  lookups, and a scan is evaluated in growing batches, so an early stop
  stays cheap;
* a leading run of comparisons of one column with literals or outer-row
  values hands the kernel only the rows of the interval a sorted index of
  the column bisects to (plus the NULL rows when a conjunct follows), in
  table order: same rows, same emission order, same errors as the full
  scan, and one index per table and column.
"""

import gc
import itertools
import operator
import types

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.engine import Engine
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
from repro.engine.binding import iter_plan_nodes
from repro.engine.expressions import ColumnRef, ComparePred, LiteralExpr
from repro.engine.operators import FilterOp, GenericJoin, HashJoin, TableScan
from repro.semantics import SqlSemantics
from repro.sql import annotate
from repro.validation.compare import capture

from ..executor import CodegenOffEngine, lowered

SCHEMA = Schema({"R": ("A", "B", "C"), "S": ("A", "B")})


def make_db(rows_r, rows_s=()):
    return Database(SCHEMA, {"R": list(rows_r), "S": list(rows_s)})


def selections(engine):
    return engine.cache_info()["scan_kernels"]["selections"]


def assert_matches_codegen_off(text, db, kernel=True):
    """Run ``text`` on the default tier (cold, then on the hot plan cache)
    and on a single-use plan: same table as the codegen-off leg, or same
    error class *and message*.  With ``kernel``, each of those executions
    must have run a scan kernel.  Returns the codegen-off outcome."""
    query = annotate(text, SCHEMA)
    expected = capture(lambda: CodegenOffEngine(SCHEMA).execute(query, db))
    # No build-side cache, so the hot plan runs its kernels again instead
    # of reading a build the cold run stored.
    default = Engine(SCHEMA, build_cache_size=0)
    for engine in (default, default, Engine(SCHEMA, plan_cache_size=0)):
        before = selections(engine)
        outcome = capture(lambda: engine.execute(query, db))
        assert (outcome.error, outcome.detail) == (expected.error, expected.detail), text
        assert outcome.agrees_with(expected), text
        assert not kernel or selections(engine) > before, text
    return expected


@pytest.fixture(autouse=True)
def lower_every_plan(monkeypatch):
    # Single-use plans over a handful of rows take the kernel too.
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)


# -- three-valued logic -------------------------------------------------------

GRID_ROWS = [
    (a, b, 1) for a, b in itertools.product((NULL, 0, 1, 2), repeat=2)
]

GRID_ATOMS = [
    f"R.A {op} {right}"
    for op in ("=", "<>", "<", "<=", ">", ">=")
    for right in ("1", "R.B", "NULL")
] + [
    "1 < R.A",
    "NULL >= R.B",
    "R.A IS NULL",
    "R.B IS NOT NULL",
    "NULL IS NULL",
    "R.B >= 2",
    "R.A = 1 AND R.B IS NOT NULL",
    "R.A = 1 OR R.B = 2",
    "R.A <= 2 AND R.B <> 4",
    "(R.A IS NULL OR R.A < R.B) AND R.B IS NOT NULL",
]


@pytest.mark.parametrize("atom", GRID_ATOMS)
def test_three_valued_grid(atom):
    db = make_db(GRID_ROWS)
    semantics = SqlSemantics(SCHEMA)
    for condition in (
        atom,
        f"NOT ({atom})",
        f"{atom} AND R.B > 0",
        f"R.B > 0 AND NOT ({atom})",
        f"{atom} OR R.B IS NULL",
        f"NOT ({atom} OR R.B <= 1)",
    ):
        text = f"SELECT R.A, R.B FROM R WHERE {condition}"
        # A constant predicate folds away, and its filter with it.
        expected = assert_matches_codegen_off(text, db, kernel=atom != "NULL IS NULL")
        assert not expected.is_error
        assert expected.table.same_as(semantics.run(annotate(text, SCHEMA), db)), text


def test_whole_predicate_takes_the_kernel_and_counts_rows():
    db = make_db(GRID_ROWS)
    engine = Engine(SCHEMA)
    query = annotate("SELECT R.A FROM R WHERE R.A >= 1 AND R.B < 2", SCHEMA)
    assert len(engine.execute(query, db)) == 4
    assert engine.cache_info()["scan_kernels"] == {
        "selections": 1, "rows_in": 16, "rows_out": 4, "fallbacks": 0, "lookups": 0,
    }
    engine.execute(query, db)
    assert engine.cache_info()["scan_kernels"]["selections"] == 2
    # The codegen-off leg has no kernels to count.
    codegen_off = CodegenOffEngine(SCHEMA)
    codegen_off.execute(query, db)
    assert codegen_off.cache_info()["scan_kernels"]["selections"] == 0


def test_empty_table():
    engine = Engine(SCHEMA)
    db = make_db([])
    for text in (
        "SELECT R.A FROM R WHERE R.A < 1",
        "SELECT R.A FROM R WHERE R.A < 1 AND EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
    ):
        assert len(engine.execute(annotate(text, SCHEMA), db)) == 0
        assert_matches_codegen_off(text, db)
    info = engine.cache_info()["scan_kernels"]
    assert (info["rows_in"], info["rows_out"], info["fallbacks"]) == (0, 0, 0)


# -- strings and LIKE ---------------------------------------------------------

#: Each LIKE in ``LIKE_QUERIES`` holds on some row with its operands one way
#: round and not the other, so an operand swap changes every result.
STRING_DB = make_db(
    [
        ("ab", "ab", 1),
        ("ab", "ba", 2),
        (NULL, "ab", 3),
        ("", "%", 4),
        ("abc", "_b", 5),
        ("xyz", NULL, 6),
        ("a", "", 7),
    ],
    [(1, 0), (4, 0), (5, 0)],
)

LIKE_QUERIES = [
    "SELECT R.C FROM R WHERE R.A LIKE 'a%'",
    "SELECT R.C FROM R WHERE R.B LIKE '_b' AND R.A IS NOT NULL",
    "SELECT R.C FROM R WHERE '' LIKE R.B",
    # Prefix kernels: the literal-first LIKE leads an IN probe.
    "SELECT R.C FROM R WHERE '' LIKE R.B AND R.C IN (SELECT S.A FROM S)",
    "SELECT R.C FROM R WHERE 'ab' LIKE R.B AND R.C IN (SELECT S.A FROM S)",
]


@pytest.mark.parametrize(
    "text",
    LIKE_QUERIES
    + [
        "SELECT R.C FROM R WHERE R.A = R.B",
        "SELECT R.C FROM R WHERE NOT (R.A LIKE 'a%' OR R.A = 'xyz')",
        "SELECT R.C FROM R WHERE R.B IS NOT NULL AND "
        "NOT ('%' LIKE R.B AND R.C IN (SELECT S.A FROM S))",
    ],
)
def test_strings_and_like(text):
    assert not assert_matches_codegen_off(text, STRING_DB).is_error


def test_an_empty_string_literal_matches_an_empty_string_value():
    expected = assert_matches_codegen_off("SELECT R.C FROM R WHERE '' LIKE R.B", STRING_DB)
    assert sorted(expected.table.bag) == [(4,), (7,)]


def test_like_operand_swap_canary_trips_every_like_case(monkeypatch):
    """Gate the gate: with ``_LF``'s operands swapped in the fused LIKE
    body, no LIKE case above may still pass."""
    monkeypatch.setitem(compile_module._FUSE_BODY, "LIKE", "_LF({y}, {x})")
    for text in LIKE_QUERIES:
        with pytest.raises(AssertionError):
            assert_matches_codegen_off(text, STRING_DB)


# -- errors: exact class, message and reach -----------------------------------


@pytest.mark.parametrize(
    "text,rows",
    [
        ("SELECT R.A FROM R WHERE R.A < R.B", [("a", 1, 0)]),
        ("SELECT R.A FROM R WHERE R.A < 2", [(1, 0, 0), ("a", 0, 0)]),
        ("SELECT R.A FROM R WHERE R.A LIKE 'a%'", [(1, 0, 0)]),
        ("SELECT R.A FROM R WHERE NOT (R.A LIKE 'a%')", [("ab", 0, 0), (1, 0, 0)]),
        ("SELECT R.A FROM R WHERE R.A LIKE R.B", [("a%", 1, 0)]),
        # A prefix kernel falls back too.
        (
            "SELECT R.A FROM R WHERE R.A < 2 AND R.B IN (SELECT S.A FROM S)",
            [(1, 0, 0), ("a", 0, 0)],
        ),
    ],
)
def test_type_clashes_raise_exactly_the_interpreted_error(text, rows):
    assert assert_matches_codegen_off(text, make_db(rows)).error == "compile"


@pytest.mark.parametrize(
    "text,row,raises",
    [
        # Left FALSE: the row-wise AND never evaluates its raising right side.
        ("SELECT R.A FROM R WHERE R.A = 1 AND R.B < 2", (5, "b", 0), False),
        # Left UNKNOWN: it does, to split FALSE from UNKNOWN.
        ("SELECT R.A FROM R WHERE R.A = 1 AND R.B < 2", (NULL, "b", 0), True),
        # Left TRUE: the row-wise OR skips its raising right side.
        ("SELECT R.A FROM R WHERE R.A = 1 OR R.B < 2", (1, "b", 0), False),
        # Left FALSE or UNKNOWN: it does not.
        ("SELECT R.A FROM R WHERE R.A = 1 OR R.B < 2", (5, "b", 0), True),
        ("SELECT R.A FROM R WHERE R.A = 1 OR R.B < 2", (NULL, "b", 0), True),
    ],
)
def test_short_circuits_decide_whether_a_clash_surfaces(text, row, raises):
    assert assert_matches_codegen_off(text, make_db([row])).is_error is raises


def test_an_all_scalar_predicate_raises_per_scanned_row():
    # Evaluated once per row: raises on a non-empty table, not on an empty one.
    text = "SELECT S.A FROM S WHERE 1 < 'a'"
    assert assert_matches_codegen_off(text, make_db([], [(1, 1)])).error == "compile"
    assert not assert_matches_codegen_off(text, make_db([])).is_error


def test_type_clash_raises_the_interpreted_error():
    db = make_db([(1, 1, 1), ("x", 2, 2), (3, 3, 3)])
    expected = assert_matches_codegen_off("SELECT R.B FROM R WHERE R.A < 2", db)
    assert expected.error == "compile"
    assert expected.detail == "type clash in comparison: 'x' < 2"
    engine = Engine(SCHEMA)
    with pytest.raises(CompileError, match="type clash in comparison: 'x' < 2"):
        engine.execute(annotate("SELECT R.B FROM R WHERE R.A < 2", SCHEMA), db)
    assert engine.cache_info()["scan_kernels"]["fallbacks"] == 1


def test_clash_behind_a_false_conjunct_is_suppressed():
    # Row 2 would clash under ``R.A < 2`` but ``R.B = 1`` is FALSE on it.
    db = make_db([(1, 1, 1), ("x", 2, 2), (0, NULL, 3)])
    expected = assert_matches_codegen_off(
        "SELECT R.C FROM R WHERE R.B = 1 AND R.A < 2", db
    )
    assert sorted(expected.table.bag) == [(1,)]
    # ... whereas an UNKNOWN conjunct does not shield its right side.
    clashing = make_db([(1, 1, 1), ("x", NULL, 2)])
    expected = assert_matches_codegen_off(
        "SELECT R.C FROM R WHERE R.B = 1 AND R.A < 2", clashing
    )
    assert expected.detail == "type clash in comparison: 'x' < 2"


def test_exists_stops_before_a_later_clashing_row():
    rows_s = [(5, 1), (6, 2), ("x", 3)]
    db = make_db([(1, 1, 1), (2, 2, 2)], rows_s)
    text = "SELECT R.A FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A > 4)"
    expected = assert_matches_codegen_off(text, db)
    assert sorted(expected.table.bag) == [(1,), (2,)]  # first S row decides
    # With the clashing row first, the same probe raises — on every tier.
    clashing = make_db([(1, 1, 1)], rows_s[::-1])
    assert assert_matches_codegen_off(text, clashing).error == "compile"


def test_prefix_kernel_keeps_unknown_rows_for_a_raising_remainder():
    # ``R.A < 5`` is UNKNOWN on the only row, so the EXISTS still runs
    # there — and its comparison of ``'x'`` with ``R.B`` raises.
    text = (
        "SELECT R.C FROM R WHERE R.A < 5 AND "
        "EXISTS (SELECT S.A FROM S WHERE S.B < R.B)"
    )
    db = make_db([(NULL, 1, 1)], [(1, "x")])
    expected = assert_matches_codegen_off(text, db)
    assert expected.detail == "type clash in comparison: 'x' < 1"
    # A FALSE prefix does shield it.
    shielded = make_db([(7, 1, 1)], [(1, "x")])
    assert len(assert_matches_codegen_off(text, shielded).table) == 0


def test_prefix_kernel_hands_on_the_rows_its_conjuncts_do_not_refuse():
    db = make_db(
        [(i, i % 3, i) for i in range(40)] + [(NULL, 1, 99)],
        [(i, i) for i in range(2)],
    )
    engine = Engine(SCHEMA)
    query = annotate(
        "SELECT R.C FROM R WHERE R.A >= 10 AND R.A < 13 AND "
        "R.B IN (SELECT S.A FROM S)",
        SCHEMA,
    )
    assert sorted(engine.execute(query, db).bag) == [(10,), (12,)]
    # The IN probe saw four rows of 41: three in range, and the NULL one.
    assert engine.cache_info()["scan_kernels"] == {
        "selections": 1, "rows_in": 4, "rows_out": 4, "fallbacks": 0, "lookups": 1,
    }
    assert_matches_codegen_off(
        "SELECT R.C FROM R WHERE R.A >= 10 AND R.A < 13 AND R.B IN (SELECT S.A FROM S)",
        db,
    )


# -- the per-column memo ------------------------------------------------------


def test_vectors_are_pivoted_per_column_shared_and_unpinned():
    db = make_db([(1, 2, 3), (4, 5, 6)])
    table = db.table("R")
    engine = Engine(SCHEMA)
    # No filter, no kernel: the rows are converted, no column is pivoted.
    engine.execute(annotate("SELECT R.A FROM R", SCHEMA), db)
    assert table._scan_cols == [None, None, None] and selections(engine) == 0
    rows = table._scan_rows
    first = annotate("SELECT R.A FROM R WHERE R.B > 2", SCHEMA)
    second = annotate("SELECT R.C FROM R WHERE R.B < 9 AND R.C > 0", SCHEMA)
    engine.execute(first, db)
    # Only the column the kernel read was pivoted.
    assert table._scan_cols == [None, [2, 5], None] and selections(engine) == 1
    pivot = table._scan_cols[1]
    engine.execute(second, db)
    assert table._scan_cols[1] is pivot  # the second plan reused it
    assert table._scan_cols[2] == [3, 6] and table._scan_cols[0] is None
    # Another engine, another plan, a rebind of a cached one: still the
    # one conversion and the one pivot.
    Engine(SCHEMA).execute(first, db)
    engine.execute(first, db)
    assert table._scan_rows is rows and table._scan_cols[1] is pivot
    # Held by the table alone: no plan, closure or finished run keeps them.
    for memo in ("_scan_rows", "_scan_cols"):
        holders = gc.get_referrers(getattr(table, memo))
        assert [ref for ref in holders if not isinstance(ref, types.FrameType)] == [table]


def test_one_lowered_scan_pivots_the_vectors_of_each_run_database():
    plan = FilterOp(TableScan("R", 3), ComparePred(">", ColumnRef(0, 1), LiteralExpr(2)))
    compiled = lowered(plan)
    first, second = make_db([(1, 2, 3), (4, 5, 6)]), make_db([(7, 8, 9)])
    for _ in range(2):
        assert list(compiled.run(first)) == [(4, 5, 6)]
        assert list(compiled.run(second)) == [(7, 8, 9)]
    assert first.table("R")._scan_cols == [None, [2, 5], None]
    assert second.table("R")._scan_cols == [None, [8], None]


# -- code generation ----------------------------------------------------------


def test_a_fallback_replays_without_generating_code(monkeypatch):
    generated = []
    real = compile_module._compiled_code

    def spy(source):
        generated.append(source)
        return real(source)

    monkeypatch.setattr(compile_module, "_compiled_code", spy)
    engine = Engine(SCHEMA, plan_cache_size=0)
    query = annotate("SELECT R.A FROM R WHERE R.B >= 2 AND R.B < 9", SCHEMA)
    assert len(engine.execute(query, make_db([(1, 2, 3), (4, 5, 6)]))) == 2
    assert len(generated) == 1  # one code generation: the kernel's
    with pytest.raises(CompileError):
        engine.execute(query, make_db([(1, "x", 3)]))
    # The second single-use plan generates its kernel, and its fallback
    # replays through the predicate closures: nothing else is generated.
    assert len(generated) == 2 and generated[0] == generated[1]
    assert engine.cache_info()["scan_kernels"]["fallbacks"] == 1


def test_kernel_sources_are_literal_and_position_independent():
    wide = Schema({"W": tuple(f"C{i}" for i in range(8))})
    db = Database(wide, {"W": [tuple(range(i, i + 8)) for i in range(5)]})
    engine = Engine(wide, plan_cache_size=0)

    def run(column, other, literal):
        text = (
            f"SELECT W.C0 FROM W WHERE W.C{column} >= {literal} "
            f"AND W.C{column} < {literal + 3} AND W.C{other} <> {literal}"
        )
        return len(engine.execute(annotate(text, wide), db))

    for _ in range(2):  # a shape is cached from its second compilation on
        assert run(0, 1, 1) == 3
    before = len(compile_module._CODE_CACHE)
    counts = [
        run(column, other, literal)
        for literal in range(40)
        for column, other in itertools.permutations(range(8), 2)
    ]
    assert len(counts) > 2000 and len(set(counts)) > 1
    assert len(compile_module._CODE_CACHE) == before
    assert engine.cache_info()["scan_kernels"]["fallbacks"] == 0


def test_kernel_sources_are_independent_of_string_literals():
    """Quotes included: five hundred string literals through a whole-
    predicate kernel and a prefix kernel mint no code-cache entries, and
    every execution still matches the codegen-off leg."""
    db = make_db(
        [(1, "a", 0), (2, "", 0), (NULL, "it's", 0), (4, NULL, 0)],
        [(1, 0), (2, 0), (4, 0)],
    )
    shapes = (
        "SELECT R.A FROM R WHERE R.A >= {n} OR R.B = {s}",
        "SELECT R.A FROM R WHERE R.A < {n} AND R.B <> {s} "
        "AND R.A IN (SELECT S.A FROM S)",
    )
    strings = ["''", "''''", "'\"'", "'it''s'"] + [f"'s{i}'" for i in range(496)]

    def run_all(pairs):
        for shape in shapes:
            for n, text in pairs:
                assert_matches_codegen_off(shape.format(n=n, s=text), db)

    for _ in range(2):  # a shape is cached from its second compilation on
        run_all([(0, "'x'")])
    before = len(compile_module._CODE_CACHE)
    run_all(list(enumerate(strings)))
    assert len(compile_module._CODE_CACHE) == before


# -- batches ------------------------------------------------------------------


def test_a_scan_is_evaluated_in_growing_batches():
    rows = [(i, i % 7, 0) for i in range(30_000)]
    db = make_db(rows, [(1, 1)])
    engine = Engine(SCHEMA)
    # A full scan reads every row, in a handful of kernel calls.
    query = annotate("SELECT R.A FROM R WHERE R.B = 3", SCHEMA)
    assert len(engine.execute(query, db)) == sum(1 for r in rows if r[1] == 3)
    assert engine.cache_info()["scan_kernels"]["rows_in"] == len(rows)
    # An EXISTS that finds its row at once pays for the first batch only.
    stopping = Engine(SCHEMA)
    query = annotate(
        "SELECT S.A FROM S WHERE EXISTS (SELECT R.A FROM R WHERE R.B < 5)", SCHEMA
    )
    assert len(stopping.execute(query, db)) == 1
    assert stopping.cache_info()["scan_kernels"]["rows_in"] == compile_module._SCAN_BATCH


def test_fallback_replays_from_the_clashing_batch_on():
    rows = [(i, 1, 0) for i in range(2_000)]
    rows[1_500] = ("x", 1, 0)
    db = make_db(rows)
    text = "SELECT R.A FROM R WHERE R.A < 100"
    expected = assert_matches_codegen_off(text, db)
    assert expected.detail == "type clash in comparison: 'x' < 100"
    # Stop before the clash and nothing is raised, as on the codegen-off leg.
    engine = Engine(SCHEMA)
    early = annotate(
        "SELECT S.A FROM S WHERE EXISTS (SELECT R.B FROM R WHERE R.A < 100)", SCHEMA
    )
    assert len(engine.execute(early, make_db(rows, [(1, 1)]))) == 1
    assert engine.cache_info()["scan_kernels"]["fallbacks"] == 0


# -- kernels feeding other operators ------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S WHERE S.B <> 2)",
        "SELECT R.A FROM R WHERE R.B >= 2 AND R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.B AND S.B > 0)",
        "SELECT R.A FROM R WHERE R.B IS NOT NULL AND "
        "NOT (R.A IN (SELECT S.A FROM S) AND R.A = 1)",
        "SELECT R.A, S.A FROM R, S WHERE R.A = S.A AND S.B < 3",
        "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B > 1",
        "SELECT DISTINCT R.A FROM R WHERE R.B <> 4",
        "SELECT R.A FROM R WHERE R.B > 1 UNION SELECT S.A FROM S",
        "SELECT R.A FROM R INTERSECT ALL SELECT S.A FROM S WHERE S.B IS NOT NULL",
        "SELECT R.A FROM R WHERE R.C < 9 EXCEPT ALL SELECT S.A FROM S",
    ],
)
def test_kernels_feed_probes_joins_and_set_operations(text):
    db = make_db(
        [(1, 2, 3), (2, NULL, 3), (NULL, 4, 1), (3, 3, 3), (1, 2, 3)],
        [(1, 1), (3, 2), (NULL, 1), (2, NULL)],
    )
    assert not assert_matches_codegen_off(text, db).is_error


def test_a_cached_kernel_plan_rebinds_bit_identically():
    engine, fresh = Engine(SCHEMA), Engine(SCHEMA)
    query = annotate("SELECT R.A FROM R WHERE R.A < R.B OR R.A IS NULL", SCHEMA)
    dbs = [make_db([(1, 2, 0), (NULL, 1, 0), (2, 1, 0)]), make_db([(3, 4, 0), (4, 3, 0)])]
    first = [engine.execute(query, db) for db in dbs]
    again = [engine.execute(query, db) for db in dbs]  # cache hot
    cold = [fresh.execute(query, db) for db in dbs]
    for hot, rehot, ref in zip(first, again, cold):
        assert hot.same_as(rehot) and hot.same_as(ref)
    assert engine.cache_info()["hits"] >= 2 and selections(engine) == 4


# -- cardinality feedback -----------------------------------------------------


def test_build_sides_served_again_answer_as_built():
    schema = Schema({"E": ("S", "D"), "F": ("S", "D"), "G": ("S", "D")})
    edges = [(i % 5, (i * 3) % 5) for i in range(20)] + [(NULL, 1)]
    db = Database(schema, {"E": edges, "F": edges, "G": edges})
    for text, kind in (
        ("SELECT E.S FROM E, F WHERE E.D = F.S", HashJoin),
        (
            "SELECT E.S FROM E, F, G WHERE E.D = F.S AND F.D = G.S AND G.D = E.S",
            GenericJoin,
        ),
    ):
        engine = Engine(schema)
        query = annotate(text, schema)
        expected = SqlSemantics(schema).run(query, db)
        # Built, then served from the table memo: the hash join's build
        # side and every child's trie are bare scans.
        for _ in range(3):
            assert engine.execute(query, db).same_as(expected), text
        plan = engine._plan(query).plan
        assert any(isinstance(node, kind) for node, _pred in iter_plan_nodes(plan))


# -- sorted column indexes ----------------------------------------------------

#: 200 rows: ``A`` holds the even keys 10–108, about four rows each, scattered
#: over the table (so an interval's rows are not in table order until put
#: back), and NULL in nine rows; ``C`` is the row's position.
INDEX_ROWS = [
    (NULL if i % 23 == 5 else 10 + 2 * ((i * 7) % 50), i % 5, i) for i in range(200)
]
INDEX_DB = make_db(INDEX_ROWS, [(10, 14), (20, 20), (NULL, 6), (15, 19), (100, 200)])

COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def lookups(engine):
    return engine.cache_info()["scan_kernels"]["lookups"]


def assert_index_path(text, db, served=True):
    """Run ``text`` on the default tier (cold, then on the hot plan cache)
    and on a single-use plan: the codegen-off leg's rows *in its emission
    order*, or its error class and message.  Each of those executions must
    have looked an interval up in a sorted index if ``served``, and none
    may have otherwise.  On success, the codegen-off leg's table must be
    the formal semantics'.  Returns the codegen-off outcome of
    ``execute_rows``."""
    query = annotate(text, SCHEMA)
    codegen_off = CodegenOffEngine(SCHEMA)
    expected = capture(lambda: codegen_off.execute_rows(query, db))
    # No build-side cache, so the hot plan runs its kernels again instead
    # of reading a build the cold run stored.
    default = Engine(SCHEMA, build_cache_size=0)
    for engine in (default, default, Engine(SCHEMA, plan_cache_size=0)):
        before = lookups(engine)
        outcome = capture(lambda: engine.execute_rows(query, db))
        assert (outcome.error, outcome.detail) == (expected.error, expected.detail), text
        assert outcome.table == expected.table, text
        assert (lookups(engine) > before) is served, text
    if not expected.is_error:
        semantics = SqlSemantics(SCHEMA).run(query, db)
        assert codegen_off.execute(query, db).same_as(semantics), text
    return expected


def positions(rows, holds):
    """``[(C,), …]`` of the rows whose ``A`` is non-NULL and ``holds``, in
    table order."""
    return [(c,) for a, _b, c in rows if a is not NULL and holds(a)]


def test_equality_keeps_every_duplicate_key_in_table_order():
    for key in (10, 24, 108):
        expected = assert_index_path(f"SELECT R.C FROM R WHERE R.A = {key}", INDEX_DB)
        kept = expected.table[1]
        assert len(kept) >= 3 and kept == positions(INDEX_ROWS, lambda a: a == key)
    for key in (3, 25, 111):  # below, between and above the keys: served, empty
        expected = assert_index_path(f"SELECT R.C FROM R WHERE R.A = {key}", INDEX_DB)
        assert expected.table[1] == []


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
@pytest.mark.parametrize("key", [3, 10, 11, 14, 15, 60, 103, 104, 106, 108, 109, 160])
def test_ordered_comparisons_at_between_below_and_above_keys(op, key):
    holds = positions(INDEX_ROWS, lambda a: COMPARE[op](a, key))
    # An interval holding more than the kernels' share runs the full scan.
    served = len(holds) <= len(INDEX_ROWS) * compile_module._INDEX_SHARE
    text = f"SELECT R.C FROM R WHERE R.A {op} {key}"
    expected = assert_index_path(text, INDEX_DB, served)
    assert expected.table[1] == holds


@pytest.mark.parametrize(
    "condition,holds",
    [
        ("R.A >= 10 AND R.A < 20", lambda a: 10 <= a < 20),
        ("R.A > 10 AND R.A <= 20", lambda a: 10 < a <= 20),
        ("R.A >= 10 AND R.A <= 10", lambda a: a == 10),
        ("R.A = 10 AND R.A < 50", lambda a: a == 10),
        ("R.A > 13 AND R.A >= 10 AND R.A < 19", lambda a: 13 < a < 19),
        # Contradictory: an empty interval.
        ("R.A > 20 AND R.A < 10", lambda a: False),
        ("R.A = 10 AND R.A = 12", lambda a: False),
        ("R.A < 10 AND R.A >= 10", lambda a: False),
        # The literal on the left.
        ("14 > R.A", lambda a: a < 14),
        ("10 = R.A", lambda a: a == 10),
        ("14 <= R.A AND 22 >= R.A", lambda a: 14 <= a <= 22),
        ("R.A > 90 AND 96 > R.A", lambda a: 90 < a < 96),
    ],
)
def test_two_sided_contradictory_and_literal_first_runs(condition, holds):
    expected = assert_index_path(f"SELECT R.C FROM R WHERE {condition}", INDEX_DB)
    assert expected.table[1] == positions(INDEX_ROWS, holds)


def test_null_rows_are_skipped_by_a_whole_run_and_kept_for_a_remainder():
    expected = assert_index_path("SELECT R.C FROM R WHERE R.A < 16", INDEX_DB)
    assert expected.table[1] == positions(INDEX_ROWS, lambda a: a < 16)
    engine = Engine(SCHEMA)
    text = "SELECT R.C FROM R WHERE R.A < 16 AND R.B IN (SELECT S.A FROM S)"
    assert_index_path(text, INDEX_DB)
    engine.execute(annotate(text, SCHEMA), INDEX_DB)
    nulls = sum(a is NULL for a, _b, _c in INDEX_ROWS)
    # The prefix kernel saw the interval's rows and the NULL rows only.
    info = engine.cache_info()["scan_kernels"]
    assert info["lookups"] == 1
    assert info["rows_in"] == len(positions(INDEX_ROWS, lambda a: a < 16)) + nulls


def test_null_rows_reach_a_raising_remainder():
    # ``R.A < 10`` holds on no row and is UNKNOWN on the NULL ones, so the
    # EXISTS runs on those alone — and its ``'x' < R.B`` raises there.
    text = (
        "SELECT R.C FROM R WHERE R.A < 10 AND "
        "EXISTS (SELECT S.A FROM S WHERE S.B < R.B)"
    )
    expected = assert_index_path(text, make_db(INDEX_ROWS, [(1, "x")]))
    first_null = next(b for a, b, _c in INDEX_ROWS if a is NULL)
    assert expected.detail == f"type clash in comparison: 'x' < {first_null}"
    # Without NULLs in R.A nothing reaches it.
    no_nulls = [(10 if a is NULL else a, b, c) for a, b, c in INDEX_ROWS]
    assert assert_index_path(text, make_db(no_nulls, [(1, "x")])).table[1] == []


STRING_ROWS = [
    (NULL if a is NULL else f"k{a:03d}", b, c) for a, b, c in INDEX_ROWS
]


@pytest.mark.parametrize(
    "condition,holds",
    [
        ("R.A = 'k014'", lambda a: a == "k014"),
        ("R.A >= 'k010' AND R.A < 'k013'", lambda a: "k010" <= a < "k013"),
        ("'k100' < R.A", lambda a: a > "k100"),
        ("R.A < 'k'", lambda a: False),
        ("R.A > 'k108x'", lambda a: False),
    ],
)
def test_a_string_column(condition, holds):
    db = make_db(STRING_ROWS)
    expected = assert_index_path(f"SELECT R.C FROM R WHERE {condition}", db)
    assert expected.table[1] == positions(STRING_ROWS, holds)


@pytest.mark.parametrize(
    "rows,condition,error",
    [
        # Equality across the str boundary is FALSE, never an error ...
        (INDEX_ROWS, "R.A = 'k014'", False),
        (STRING_ROWS, "R.A = 14", False),
        # ... an ordered comparison is a type clash.
        (INDEX_ROWS, "R.A < 'k014'", True),
        (STRING_ROWS, "R.A >= 14", True),
        (STRING_ROWS, "14 > R.A AND R.B IN (SELECT S.A FROM S)", True),
        # A NULL literal makes the run UNKNOWN everywhere.
        (INDEX_ROWS, "R.A = NULL", False),
        (INDEX_ROWS, "R.A < NULL AND R.B IN (SELECT S.A FROM S)", False),
    ],
)
def test_operands_of_another_type_or_null_take_the_full_scan(rows, condition, error):
    db = make_db(rows, [(1, 1)])
    text = f"SELECT R.C FROM R WHERE {condition}"
    expected = assert_index_path(text, db, served=False)
    assert expected.is_error is error
    assert error or expected.table[1] == []


def test_a_mixed_type_column_gets_no_index():
    rows = [("s" if c % 40 == 3 else a, b, c) for a, b, c in INDEX_ROWS]
    db = make_db(rows)
    assert_index_path("SELECT R.C FROM R WHERE R.A = 14", db, served=False)
    expected = assert_index_path("SELECT R.C FROM R WHERE R.A < 6", db, served=False)
    assert expected.detail == "type clash in comparison: 's' < 6"
    assert db.table("R")._scan_builds[("sorted", 0)] == ()


def test_ints_past_64_bits():
    big = 2**70
    rows = [(NULL if a is NULL else big + a, b, c) for a, b, c in INDEX_ROWS]
    db = make_db(rows)
    for condition, holds in (
        (f"R.A = {big + 14}", lambda a: a == big + 14),
        (f"R.A >= {big + 10} AND R.A < {big + 20}", lambda a: big + 10 <= a < big + 20),
        (f"R.A < {big}", lambda a: False),
    ):
        expected = assert_index_path(f"SELECT R.C FROM R WHERE {condition}", db)
        assert expected.table[1] == positions(rows, holds)
    assert isinstance(db.table("R")._scan_builds[("sorted", 0)][2], tuple)
    # Within 64 bits the keys are a flat array, which a big operand still
    # bisects exactly.
    assert_index_path(f"SELECT R.C FROM R WHERE R.A > {big}", INDEX_DB)
    assert INDEX_DB.table("R")._scan_builds[("sorted", 0)][2].typecode == "q"


@pytest.mark.parametrize(
    "text",
    [
        "SELECT S.A FROM S WHERE EXISTS "
        "(SELECT R.C FROM R WHERE R.A >= S.A AND R.A <= S.B)",
        "SELECT S.A FROM S WHERE NOT EXISTS "
        "(SELECT R.C FROM R WHERE S.A < R.A AND R.A < S.B AND R.B = 1)",
        "SELECT S.A, S.B FROM S WHERE S.B IN "
        "(SELECT R.C FROM R WHERE R.A > S.A AND R.A <= S.B)",
    ],
)
def test_an_outer_row_operand_including_a_null_one(text):
    # S's rows bind the operands: keys, a key between keys, an interval
    # running past the last key, and NULL (that scan is not served).
    assert_index_path(text, INDEX_DB)
    only_null = make_db(INDEX_ROWS, [(NULL, 6)])
    assert_index_path(text, only_null, served=False)


def test_databases_with_equal_table_names_keep_their_own_indexes():
    # The same keys, shifted by one: every odd key is in ``shifted`` only.
    shifted_rows = [(a if a is NULL else a + 1, b, c) for a, b, c in INDEX_ROWS]
    shifted = make_db(shifted_rows)
    engine = Engine(SCHEMA)
    query = annotate("SELECT R.C FROM R WHERE R.A >= 14 AND R.A <= 15", SCHEMA)
    for db, rows in ((INDEX_DB, INDEX_ROWS), (shifted, shifted_rows)) * 2:
        kept = engine.execute_rows(query, db)[1]
        assert kept == positions(rows, lambda a: 14 <= a <= 15)
        assert_index_path("SELECT R.C FROM R WHERE R.A = 15", db)
    assert lookups(engine) == 4


def test_one_index_build_per_table_and_column(monkeypatch):
    built = []
    real = compile_module._sorted_index

    def spy(vector):
        built.append(vector)
        return real(vector)

    monkeypatch.setattr(compile_module, "_sorted_index", spy)
    db = make_db(INDEX_ROWS)
    texts = [f"SELECT R.C FROM R WHERE R.A = {k}" for k in (10, 12, 40)] + [
        "SELECT R.C FROM R WHERE R.B = 3 AND R.A < 9",
        "SELECT R.A FROM R WHERE 3 = R.B AND R.C < 9",
    ]
    # Cached plans, their rebinds, and single-use plans on fresh engines.
    cached = Engine(SCHEMA)
    for _ in range(2):
        for text in texts:
            cached.execute(annotate(text, SCHEMA), db)
            Engine(SCHEMA, plan_cache_size=0).execute(annotate(text, SCHEMA), db)
    vectors = db.table("R")._scan_cols
    assert len(built) == 2
    assert built[0] is vectors[0] and built[1] is vectors[1]
    # Another database's table builds its own.
    Engine(SCHEMA).execute(annotate(texts[0], SCHEMA), make_db(INDEX_ROWS))
    assert len(built) == 3
