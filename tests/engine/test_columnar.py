"""The columnar batch backend (:mod:`repro.engine.columnar`).

Pins the contracts the vectorized tier must keep:

* batch execution agrees with the interpreted tier on every 3VL input —
  including *which* errors are raised, with which messages, and when
  short-circuit order suppresses them (the fused filters and the
  optimistic kernels both fall back to an exact per-row replay);
* plans round-trip through ``bind_plan(columnar=True)`` /
  ``unbind_plan``: cached plans pin no database rows or columns, and the
  per-:class:`~repro.core.table.Table` scan memos are computed once and
  reused across executions;
* the tier composes with the plan cache, the build-side cache and the
  cardinality feedback exactly like the row-wise tiers;
* invalid flag combinations are rejected eagerly, and — unlike the
  closure compiler — batch compilation applies to every single-use plan
  (``plan_cache_size=0``), whatever its size;
* generated fused filters and mask functions are keyed by shape: literals
  are bound as arguments, never spelled into the cached source.
"""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.engine import Engine, compile_columnar
from repro.engine.binding import bind_plan, iter_plan_nodes, unbind_plan
from repro.engine.operators import TableScan
from repro.sql import annotate

SCHEMA = Schema({"R": ("A", "B"), "S": ("A",)})


def make_db(rows_r, rows_s):
    return Database(SCHEMA, {"R": rows_r, "S": rows_s})


def engines():
    return (
        Engine(SCHEMA, "postgres", vectorized=True),
        Engine(SCHEMA, "postgres", compiled=False),
    )


def assert_tiers_agree(text, db):
    """Vectorized and interpreted outcomes must be bit-identical: same
    table or same error class and message."""
    query = annotate(text, SCHEMA)
    vectorized, interpreted = engines()
    outcomes = []
    for engine in (vectorized, interpreted):
        try:
            outcomes.append(("ok", engine.execute(query, db)))
        except Exception as exc:
            outcomes.append(("err", type(exc), str(exc)))
    tagged_v, tagged_i = outcomes
    if tagged_v[0] == "ok" and tagged_i[0] == "ok":
        assert tagged_v[1].same_as(tagged_i[1]), text
    else:
        assert tagged_v == tagged_i, text
    return tagged_i


# -- 3VL equivalence on hand-written grids ------------------------------------

#: Rows covering every 3VL corner: NULLs on either side, both strings,
#: and the str/int clashes the ordered comparisons raise on.
GRID_ROWS_R = [
    (1, 1),
    (1, 2),
    (2, 1),
    (NULL, 1),
    (1, NULL),
    (NULL, NULL),
    (3, 3),
]

GRID_QUERIES = [
    "SELECT R.A FROM R WHERE R.A = R.B",
    "SELECT R.A FROM R WHERE R.A <> 1",
    "SELECT R.A FROM R WHERE R.A < R.B",
    "SELECT R.A FROM R WHERE R.B >= 2",
    "SELECT R.A FROM R WHERE R.A IS NULL",
    "SELECT R.A FROM R WHERE R.B IS NOT NULL",
    "SELECT R.A FROM R WHERE R.A = 1 AND R.B IS NOT NULL",
    "SELECT R.A FROM R WHERE R.A = 1 OR R.B = 2",
    "SELECT R.A FROM R WHERE NOT (R.A = R.B)",
    "SELECT R.A FROM R WHERE NOT (R.A <= 2 AND R.B <> 4)",
    "SELECT R.A FROM R WHERE (R.A IS NULL OR R.A < R.B) AND R.B IS NOT NULL",
    # NULL literals: the comparison is UNKNOWN on every row.
    "SELECT R.A FROM R WHERE R.A = NULL",
    "SELECT R.A FROM R WHERE NOT (R.A < NULL)",
]


@pytest.mark.parametrize("text", GRID_QUERIES)
def test_vectorized_matches_interpreted_on_3vl_grid(text):
    assert_tiers_agree(text, make_db(GRID_ROWS_R, [(1,), (NULL,)]))


def test_string_rows_and_like():
    db = make_db([("ab", "ab"), ("ab", "ba"), (NULL, "ab")], [("ab",)])
    for text in (
        "SELECT R.A FROM R WHERE R.A = R.B",
        "SELECT R.A FROM R WHERE R.A LIKE 'a%'",
        "SELECT R.A FROM R WHERE NOT (R.A LIKE 'a%' OR R.A = 'xyz')",
        "SELECT R.A FROM R WHERE R.B LIKE '_b' AND R.A IS NOT NULL",
    ):
        assert_tiers_agree(text, db)


def test_type_clash_errors_match_interpreted_exactly():
    # Ordered comparison across the str/int boundary: the optimistic
    # kernel aborts and the per-row replay reproduces the interpreted
    # CompileError verbatim.
    for text, db in [
        ("SELECT R.A FROM R WHERE R.A < R.B", make_db([("a", 1)], [])),
        ("SELECT R.A FROM R WHERE R.A < 2", make_db([(1, 0), ("a", 0)], [])),
        ("SELECT R.A FROM R WHERE R.A LIKE 'a%'", make_db([(1, 0)], [])),
    ]:
        tag = assert_tiers_agree(text, db)
        assert tag[0] == "err" and tag[1] is CompileError, text


def test_shortcircuit_suppression_is_exact():
    # Left FALSE: the row-wise AND never evaluates its raising right side.
    assert_tiers_agree(
        "SELECT R.A FROM R WHERE R.A = 1 AND R.B < 2",
        make_db([(5, "b")], []),
    )
    # Left UNKNOWN: the row-wise AND *does* evaluate the right side (it
    # must split FALSE from UNKNOWN) — the error must surface.
    tag = assert_tiers_agree(
        "SELECT R.A FROM R WHERE R.A = 1 AND R.B < 2",
        make_db([(NULL, "b")], []),
    )
    assert tag[0] == "err" and tag[1] is CompileError
    # Left TRUE: the row-wise OR skips its raising right side.
    assert_tiers_agree(
        "SELECT R.A FROM R WHERE R.A = 1 OR R.B < 2",
        make_db([(1, "b")], []),
    )


def test_all_scalar_predicates_raise_per_selected_row():
    # A raising literal-only predicate evaluates once per row, so it
    # raises on a non-empty table and not at all on an empty one.
    text = "SELECT S.A FROM S WHERE 1 < 'a'"
    tag = assert_tiers_agree(text, make_db([], [(1,)]))
    assert tag[0] == "err" and tag[1] is CompileError
    assert_tiers_agree(text, make_db([], []))


def test_scalar_like_column_takes_scalar_first_kernel():
    # ``'lit' LIKE col`` with a probe in the tree runs on the kernel-mask
    # path, whose sv kernel takes (scalar, vector) — a flipped call used
    # to iterate the scalar instead, returning zero-length masks for the
    # empty-string literal and silently dropping every row.
    db = make_db([(1, ""), (2, "ab"), (3, NULL)], [(1,), (2,)])
    mask_path = (
        "SELECT R.A FROM R WHERE '' LIKE R.B AND R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE 'ab' LIKE R.B AND R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE NOT ('%' LIKE R.B AND R.A IN (SELECT S.A FROM S))",
    )
    for text in mask_path + ("SELECT R.A FROM R WHERE '' LIKE R.B",):
        assert_tiers_agree(text, db)
    # Not just agreeing on empty: the empty-string literal matches the
    # empty-string column value on both tiers.
    query = annotate(mask_path[0], SCHEMA)
    for engine in engines():
        assert [r for r in engine.execute(query, db).bag] == [(1,)]


def test_fused_and_mask_sources_are_literal_independent():
    """The fused single-pass filter and the kernel-mask path (forced by
    the IN probe) both bind literals as arguments: five hundred literals
    through one statement shape mint no code-cache entries, and every
    execution still agrees with the interpreted tier."""
    from repro.engine import compile as compile_module

    db = make_db(
        [(1, "a"), (2, ""), (NULL, "it's"), (4, NULL)], [(1,), (2,), (4,)]
    )
    shapes = (
        "SELECT R.A FROM R WHERE R.A >= {n} OR R.B = {s}",
        "SELECT R.A FROM R WHERE R.A < {n} AND R.B <> {s} "
        "AND R.A IN (SELECT S.A FROM S)",
    )
    strings = ["''", "''''", "'\"'", "'it''s'"]
    strings += [f"'s{i}'" for i in range(496)]

    def run_all(pairs):
        for shape in shapes:
            for n, text in pairs:
                assert_tiers_agree(shape.format(n=n, s=text), db)

    for _ in range(2):  # a shape is cached from its second compilation on
        run_all([(0, "'x'")])
    before = len(compile_module._CODE_CACHE)
    run_all(list(enumerate(strings)))
    assert len(compile_module._CODE_CACHE) == before


def test_probe_subqueries_stay_exact():
    db = make_db(
        [(1, 2), (2, NULL), (NULL, 4), (3, 3)], [(1,), (3,), (NULL,)]
    )
    for text in (
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S) AND R.B >= 2",
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
        "SELECT R.A FROM R WHERE NOT (R.A IN (SELECT S.A FROM S) AND R.A = 1)",
    ):
        assert_tiers_agree(text, db)


def test_joins_setops_distinct_agree():
    db = make_db([(1, 2), (2, NULL), (NULL, 4), (3, 3), (1, 2)], [(1,), (3,)])
    for text in (
        "SELECT R.A, S.A FROM R, S WHERE R.A = S.A",
        "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B > 1",
        "SELECT DISTINCT R.A FROM R",
        "SELECT R.A FROM R UNION SELECT S.A FROM S",
        "SELECT R.A FROM R INTERSECT ALL SELECT S.A FROM S",
        "SELECT R.A FROM R EXCEPT ALL SELECT S.A FROM S",
    ):
        assert_tiers_agree(text, db)


# -- bind/unbind round-trip ---------------------------------------------------


def test_columnar_plan_unbinds_and_table_memos_persist():
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db1 = make_db([(1, 2), (3, 4)], [(1,)])
    db2 = make_db([(1, 2), (3, 4)], [(3,)])
    assert [r for r in engine.execute(query, db1).bag] == [(1,)]
    assert [r for r in engine.execute(query, db2).bag] == [(3,)]
    plan = engine._plan(query).plan
    assert engine._plan(query).run is not None
    for node, _pred in iter_plan_nodes(plan):
        if isinstance(node, TableScan):
            assert node.data is None  # unbound: no database rows pinned
            assert node._columns is None  # ... and no column vectors either
    # The scan memos live on the (immutable) tables, not the plan: one
    # conversion + transposition per Table, reused across executions.
    table = db1.table("R")
    rows_memo, cols_memo = table._scan_rows, table._scan_cols
    assert rows_memo is not None and cols_memo is not None
    engine.execute(query, db1)
    assert table._scan_rows is rows_memo
    assert table._scan_cols is cols_memo


def test_bind_plan_pivots_no_column_nothing_reads():
    engine = Engine(SCHEMA, "postgres")  # row-wise, no filter: no columns needed
    query = annotate("SELECT R.A FROM R", SCHEMA)
    db = make_db([(1, 2)], [])
    engine.execute(query, db)
    assert db.table("R")._scan_rows is not None
    assert db.table("R")._scan_cols == [None, None]


def test_unbound_columnar_plan_refuses_to_run():
    query = annotate("SELECT R.A FROM R WHERE R.A = 1", SCHEMA)
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    db = make_db([(1, 2)], [])
    engine.execute(query, db)
    with pytest.raises(RuntimeError, match="without a bound database"):
        list(engine._plan(query).run(()))


def test_compile_columnar_direct_bind_roundtrip():
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    query = annotate("SELECT R.B FROM R WHERE R.A = 1", SCHEMA)
    compiled = engine._plan(query)
    run = compile_columnar(compiled.plan)
    db = make_db([(1, 7), (2, 8)], [])
    bind_plan(compiled.plan, db, columnar=True)
    try:
        assert list(run(())) == [(7,)]
    finally:
        unbind_plan(compiled.plan)


# -- engine composition -------------------------------------------------------


def test_vectorized_engine_uses_build_side_cache():
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db = make_db([(1, 2), (3, 4)], [(1,), (3,)])
    for _ in range(3):
        assert len(engine.execute(query, db)) == 2
    assert engine.build_cache_info()["hits"] > 0


def test_vectorized_observed_rows_feedback():
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    query = annotate("SELECT R.A, S.A FROM R, S WHERE R.A = S.A", SCHEMA)
    db = make_db([(1, 2), (2, 3), (3, 4)], [(1,), (2,)])
    engine.execute(query, db)
    observed = engine.cache_info()["observed_rows"]
    assert observed == {"R": 3, "S": 2}


def test_flag_composition_rejected_eagerly():
    with pytest.raises(ValueError, match="vectorized=True, optimize=False"):
        Engine(SCHEMA, "postgres", vectorized=True, optimize=False)
    with pytest.raises(ValueError, match="compiled=True, optimize=False"):
        Engine(SCHEMA, "postgres", compiled=True, optimize=False)
    with pytest.raises(ValueError, match="compiled=True, vectorized=True"):
        Engine(SCHEMA, "postgres", compiled=True, vectorized=True)


def test_vectorized_compiles_single_use_plans():
    """Unlike the closure tier, batch compilation has no size rule: an
    explicit ``vectorized=True`` engine batch-compiles even single-use
    plans over two rows, which the closure tier leaves interpreted."""
    query = annotate("SELECT R.A FROM R", SCHEMA)
    db = make_db([(1, 2), (NULL, 3)], [])
    rowwise = Engine(SCHEMA, "postgres", plan_cache_size=0)
    rowwise.execute(query, db)
    assert rowwise._plan(query).run is None
    single_use = Engine(SCHEMA, "postgres", vectorized=True, plan_cache_size=0)
    assert single_use._plan(query).run is not None
    result = single_use.execute(query, db)
    assert result.same_as(Engine(SCHEMA, "postgres").execute(query, db))


def test_hot_plan_cache_is_bit_identical():
    engine = Engine(SCHEMA, "postgres", vectorized=True)
    fresh = Engine(SCHEMA, "postgres", vectorized=True)
    query = annotate(
        "SELECT R.A FROM R WHERE R.A < R.B OR R.A IS NULL", SCHEMA
    )
    db1 = make_db([(1, 2), (NULL, 1), (2, 1)], [])
    db2 = make_db([(3, 4), (4, 3)], [])
    first = [engine.execute(query, db) for db in (db1, db2)]
    again = [engine.execute(query, db) for db in (db1, db2)]  # cache hot
    cold = [fresh.execute(query, db) for db in (db1, db2)]
    for hot, rehot, ref in zip(first, again, cold):
        assert hot.same_as(rehot) and hot.same_as(ref)
    assert engine.cache_info()["hits"] >= 2
