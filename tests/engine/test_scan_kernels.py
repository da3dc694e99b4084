"""Scan kernels of the compiled tier (:mod:`repro.engine.compile`).

A filter over a base-table scan runs its leading probe-free conjuncts as
one fused selection over the table's column vectors.  Pins the contracts
that lowering must keep:

* 3VL: the kept rows are the interpreted tier's — and the formal
  semantics' — on every comparison operator, NULL operand and NULL test,
  and on strings under ``=`` and ``LIKE`` either way round;
* errors: a type clash surfaces as the interpreted tier's ``CompileError``,
  same message, and only where the row-wise order reaches it — not behind
  a FALSE conjunct or a TRUE disjunct, not past the row an EXISTS stops at;
* kernel output feeds probes, joins, DISTINCT and set operations, and a
  cached kernel plan rebinds bit-identically;
* a prefix kernel hands on the rows on which its conjuncts are UNKNOWN;
* column vectors are a per-column memo on the ``Table``: pivoted on first
  touch, shared by every plan, referenced by no unbound plan;
* the row-wise predicate is compiled on the first fallback only, and the
  kernel's source does not depend on literals or column positions;
* ``cache_info()["scan_kernels"]`` counts scans, rows and fallbacks, and a
  scan is evaluated in growing batches, so an early stop stays cheap.
"""

import itertools

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.engine import Engine
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
from repro.engine.binding import iter_plan_nodes
from repro.engine.operators import GenericJoin, HashJoin, TableScan
from repro.semantics import SqlSemantics
from repro.sql import annotate
from repro.validation.compare import capture

SCHEMA = Schema({"R": ("A", "B", "C"), "S": ("A", "B")})


def make_db(rows_r, rows_s=()):
    return Database(SCHEMA, {"R": list(rows_r), "S": list(rows_s)})


def selections(engine):
    return engine.cache_info()["scan_kernels"]["selections"]


def assert_matches_interpreted(text, db, kernel=True):
    """Run ``text`` on the default tier (cold, then on the hot plan cache)
    and on a single-use plan: same table as the interpreted tier, or same
    error class *and message*.  With ``kernel``, each of those executions
    must have run a scan kernel.  Returns the interpreted outcome."""
    query = annotate(text, SCHEMA)
    expected = capture(lambda: Engine(SCHEMA, compiled=False).execute(query, db))
    default = Engine(SCHEMA)
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
        expected = assert_matches_interpreted(text, db, kernel=atom != "NULL IS NULL")
        assert not expected.is_error
        assert expected.table.same_as(semantics.run(annotate(text, SCHEMA), db)), text


def test_whole_predicate_takes_the_kernel_and_counts_rows():
    db = make_db(GRID_ROWS)
    engine = Engine(SCHEMA)
    query = annotate("SELECT R.A FROM R WHERE R.A >= 1 AND R.B < 2", SCHEMA)
    assert len(engine.execute(query, db)) == 4
    assert engine.cache_info()["scan_kernels"] == {
        "selections": 1, "rows_in": 16, "rows_out": 4, "fallbacks": 0,
    }
    engine.execute(query, db)
    assert engine.cache_info()["scan_kernels"]["selections"] == 2
    # The interpreted tier has no kernels to count.
    interpreted = Engine(SCHEMA, compiled=False)
    interpreted.execute(query, db)
    assert interpreted.cache_info()["scan_kernels"]["selections"] == 0


def test_empty_table():
    engine = Engine(SCHEMA)
    db = make_db([])
    for text in (
        "SELECT R.A FROM R WHERE R.A < 1",
        "SELECT R.A FROM R WHERE R.A < 1 AND EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
    ):
        assert len(engine.execute(annotate(text, SCHEMA), db)) == 0
        assert_matches_interpreted(text, db)
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
    assert not assert_matches_interpreted(text, STRING_DB).is_error


def test_an_empty_string_literal_matches_an_empty_string_value():
    expected = assert_matches_interpreted("SELECT R.C FROM R WHERE '' LIKE R.B", STRING_DB)
    assert sorted(expected.table.bag) == [(4,), (7,)]


def test_like_operand_swap_canary_trips_every_like_case(monkeypatch):
    """Gate the gate: with ``_LF``'s operands swapped in the fused LIKE
    body, no LIKE case above may still pass."""
    monkeypatch.setitem(compile_module._FUSE_BODY, "LIKE", "_LF({y}, {x})")
    for text in LIKE_QUERIES:
        with pytest.raises(AssertionError):
            assert_matches_interpreted(text, STRING_DB)


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
    assert assert_matches_interpreted(text, make_db(rows)).error == "compile"


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
    assert assert_matches_interpreted(text, make_db([row])).is_error is raises


def test_an_all_scalar_predicate_raises_per_scanned_row():
    # Evaluated once per row: raises on a non-empty table, not on an empty one.
    text = "SELECT S.A FROM S WHERE 1 < 'a'"
    assert assert_matches_interpreted(text, make_db([], [(1, 1)])).error == "compile"
    assert not assert_matches_interpreted(text, make_db([])).is_error


def test_type_clash_raises_the_interpreted_error():
    db = make_db([(1, 1, 1), ("x", 2, 2), (3, 3, 3)])
    expected = assert_matches_interpreted("SELECT R.B FROM R WHERE R.A < 2", db)
    assert expected.error == "compile"
    assert expected.detail == "type clash in comparison: 'x' < 2"
    engine = Engine(SCHEMA)
    with pytest.raises(CompileError, match="type clash in comparison: 'x' < 2"):
        engine.execute(annotate("SELECT R.B FROM R WHERE R.A < 2", SCHEMA), db)
    assert engine.cache_info()["scan_kernels"]["fallbacks"] == 1


def test_clash_behind_a_false_conjunct_is_suppressed():
    # Row 2 would clash under ``R.A < 2`` but ``R.B = 1`` is FALSE on it.
    db = make_db([(1, 1, 1), ("x", 2, 2), (0, NULL, 3)])
    expected = assert_matches_interpreted(
        "SELECT R.C FROM R WHERE R.B = 1 AND R.A < 2", db
    )
    assert sorted(expected.table.bag) == [(1,)]
    # ... whereas an UNKNOWN conjunct does not shield its right side.
    clashing = make_db([(1, 1, 1), ("x", NULL, 2)])
    expected = assert_matches_interpreted(
        "SELECT R.C FROM R WHERE R.B = 1 AND R.A < 2", clashing
    )
    assert expected.detail == "type clash in comparison: 'x' < 2"


def test_exists_stops_before_a_later_clashing_row():
    rows_s = [(5, 1), (6, 2), ("x", 3)]
    db = make_db([(1, 1, 1), (2, 2, 2)], rows_s)
    text = "SELECT R.A FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A > 4)"
    expected = assert_matches_interpreted(text, db)
    assert sorted(expected.table.bag) == [(1,), (2,)]  # first S row decides
    # With the clashing row first, the same probe raises — on every tier.
    clashing = make_db([(1, 1, 1)], rows_s[::-1])
    assert assert_matches_interpreted(text, clashing).error == "compile"


def test_prefix_kernel_keeps_unknown_rows_for_a_raising_remainder():
    # ``R.A < 5`` is UNKNOWN on the only row, so the EXISTS still runs
    # there — and its comparison of ``'x'`` with ``R.B`` raises.
    text = (
        "SELECT R.C FROM R WHERE R.A < 5 AND "
        "EXISTS (SELECT S.A FROM S WHERE S.B < R.B)"
    )
    db = make_db([(NULL, 1, 1)], [(1, "x")])
    expected = assert_matches_interpreted(text, db)
    assert expected.detail == "type clash in comparison: 'x' < 1"
    # A FALSE prefix does shield it.
    shielded = make_db([(7, 1, 1)], [(1, "x")])
    assert len(assert_matches_interpreted(text, shielded).table) == 0


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
        "selections": 1, "rows_in": 41, "rows_out": 4, "fallbacks": 0,
    }
    assert_matches_interpreted(
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
    for query in (first, second):
        for node, _pred in iter_plan_nodes(engine._plan(query).plan):
            if isinstance(node, TableScan):
                assert node.data is None and node._columns is None


def test_hand_bound_scan_pivots_its_own_vectors():
    from repro.engine import compile_plan
    from repro.engine.expressions import ColumnRef, ComparePred, LiteralExpr
    from repro.engine.operators import FilterOp

    scan = TableScan("R", 3)
    plan = FilterOp(scan, ComparePred(">", ColumnRef(0, 1), LiteralExpr(2)))
    run = compile_plan(plan)
    scan.data = [(1, 2, 3), (4, 5, 6)]
    assert list(run(())) == [(4, 5, 6)]
    scan.data = [(7, 8, 9)]  # rebound by hand: the stale vectors are not read
    assert list(run(())) == [(7, 8, 9)]
    scan.data = None
    with pytest.raises(RuntimeError, match="without a bound database"):
        run(())


# -- code generation ----------------------------------------------------------


def test_row_wise_predicate_is_compiled_on_the_first_fallback_only(monkeypatch):
    compiled = []
    real = compile_module._compile_folded

    def spy(folded, stats):
        compiled.append(folded)
        return real(folded, stats)

    monkeypatch.setattr(compile_module, "_compile_folded", spy)
    engine = Engine(SCHEMA, plan_cache_size=0)
    query = annotate("SELECT R.A FROM R WHERE R.B >= 2 AND R.B < 9", SCHEMA)
    assert len(engine.execute(query, make_db([(1, 2, 3), (4, 5, 6)]))) == 2
    assert compiled == []  # one code generation: the kernel's
    with pytest.raises(CompileError):
        engine.execute(query, make_db([(1, "x", 3)]))
    assert len(compiled) == 1


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
    every execution still matches the interpreted tier."""
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
                assert_matches_interpreted(shape.format(n=n, s=text), db)

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
    expected = assert_matches_interpreted(text, db)
    assert expected.detail == "type clash in comparison: 'x' < 100"
    # Stop before the clash and nothing is raised, as on the interpreted tier.
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
    assert not assert_matches_interpreted(text, db).is_error


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


def test_build_sides_carry_the_row_count_they_were_built_with():
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
        for options in ({}, {"compiled": False}):
            engine = Engine(schema, **options)
            query = annotate(text, schema)
            for _ in range(3):  # built, harvested, restored from the cache
                engine.execute(query, db)
                plan = engine._plan(query).plan
                counts = [
                    count
                    for key, count in plan._observed_feedback["nodes"].items()
                    if key.endswith(kind.__name__)
                ]
                # The NULL-keyed row is in no build side: 20 rows per child.
                assert counts == [20 if kind is HashJoin else 60], (text, options)
