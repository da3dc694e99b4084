"""The closure-generating compiler (:mod:`repro.engine.compile`).

Pins the contracts the compiler must keep:

* a compiled predicate tree is one function that agrees with the
  interpreted ``PredNode`` chain on every 3VL input — including *which*
  errors are raised, and when;
* constant folding is exact: total comparisons fold, raising ones do not,
  and the 3VL connectives absorb constants only along the interpreted
  short-circuit order;
* compiled plans round-trip through ``bind_plan``/``unbind_plan``: cached
  compiled plans pin no database rows, per-execution memos reset, and the
  build-side cache keeps sharing structures;
* every plan is lowered, and code is generated when that pays: at
  plan-cache admission, or — for single-use plans (``plan_cache_size=0``)
  — once the rows bound under its scans reach ``SINGLE_USE_COMPILE_ROWS``;
  validation trials keep their predicate objects;
* generated sources are shape-keyed: literals, column indices and
  comparison operators never reach the process-wide code cache's keys, and
  the cache sheds its oldest entry, never everything, when full.
"""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.engine import Engine, compile_plan, compile_predicate
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
from repro.engine.binding import bind_plan, iter_plan_nodes
from repro.engine.compile import compile_row
from repro.engine.expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
)
from repro.engine.operators import FilterOp, StaticScan, TableScan
from repro.service.protocol import bind_parameters, expand_placeholders
from repro.sql import annotate

from ..executor import CodegenOffEngine, generated_code

SCHEMA = Schema({"R": ("A", "B"), "S": ("A",)})


def make_db(rows_r, rows_s):
    return Database(SCHEMA, {"R": rows_r, "S": rows_s})


def run(pred, row, outers=()):
    return pred(row, outers)


# -- predicate compilation ----------------------------------------------------


PRED_CASES = [
    ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred("<>", ColumnRef(0, 0), LiteralExpr(3)),
    ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred(">=", ColumnRef(0, 1), LiteralExpr(2)),
    IsNullPred(ColumnRef(0, 0)),
    IsNullPred(ColumnRef(0, 1), negated=True),
    AndPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        IsNullPred(ColumnRef(0, 1), negated=True),
    ),
    OrPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        ComparePred("=", ColumnRef(0, 1), LiteralExpr(2)),
    ),
    NotPred(ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1))),
    AndPred(
        OrPred(
            IsNullPred(ColumnRef(0, 0)),
            ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1)),
        ),
        NotPred(IsNullPred(ColumnRef(0, 1))),
    ),
]

ROWS = [
    (1, 1),
    (1, 2),
    (2, 1),
    (None, 1),
    (1, None),
    (None, None),
    ("a", "b"),
    ("a", "a"),
    ("1", 1),
]


@pytest.mark.parametrize("pred", PRED_CASES, ids=lambda p: type(p).__name__)
def test_compiled_predicate_matches_interpreted_on_3vl_grid(pred):
    compiled = compile_predicate(pred)
    for row in ROWS:
        try:
            expected = run(pred, row)
            raised = None
        except CompileError as exc:
            expected, raised = None, exc
        if raised is None:
            assert run(compiled, row) == expected, row
        else:
            with pytest.raises(CompileError) as caught:
                run(compiled, row)
            assert str(caught.value) == str(raised), row


def test_compiled_predicate_matches_interpreted_error_messages():
    pred = ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1))
    compiled = compile_predicate(pred)
    with pytest.raises(CompileError) as interpreted_err:
        run(pred, ("a", 1))
    with pytest.raises(CompileError) as compiled_err:
        run(compiled, ("a", 1))
    assert str(compiled_err.value) == str(interpreted_err.value)


def test_outer_references_compile_to_stack_lookups():
    pred = ComparePred("=", ColumnRef(0, 0), ColumnRef(2, 1))
    compiled = compile_predicate(pred)
    outers = ((7, 8), (9, 10))
    # depth 2 = the outermost of the two enclosing rows.
    assert run(compiled, (8,), outers) is run(pred, (8,), outers) is True
    assert run(compiled, (10,), outers) is False


def test_total_comparisons_over_literals_fold():
    for pred, expected in [
        (ComparePred("=", LiteralExpr(1), LiteralExpr(1)), True),
        (ComparePred("=", LiteralExpr(1), LiteralExpr(2)), False),
        (ComparePred("=", LiteralExpr(1), LiteralExpr("1")), False),
        (ComparePred("<>", LiteralExpr(1), LiteralExpr(2)), True),
        (ComparePred("=", LiteralExpr(None), LiteralExpr(1)), None),
        (IsNullPred(LiteralExpr(None)), True),
        (IsNullPred(LiteralExpr(3), negated=True), True),
    ]:
        compiled = compile_predicate(pred)
        assert isinstance(compiled, ConstPred)
        assert compiled.value is expected


def test_raising_comparisons_never_fold():
    """``1 < 'a'`` raises per evaluation in the interpreter; folding it at
    compile time would move (or suppress) the error."""
    pred = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    compiled = compile_predicate(pred)  # must not raise here
    assert not isinstance(compiled, ConstPred)
    with pytest.raises(CompileError):
        run(compiled, ())


def test_connective_absorption_is_shortcircuit_exact():
    raising = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    # AND with a left FALSE never evaluates its right side.
    folded = compile_predicate(AndPred(ConstPred(False), raising))
    assert isinstance(folded, ConstPred) and folded.value is False
    # OR with a left TRUE never evaluates its right side.
    folded = compile_predicate(OrPred(ConstPred(True), raising))
    assert isinstance(folded, ConstPred) and folded.value is True
    # ... but a right-side constant cannot drop a raising left side.
    compiled = compile_predicate(AndPred(raising, ConstPred(False)))
    with pytest.raises(CompileError):
        run(compiled, ())
    # AND TRUE / OR FALSE are exact identities.
    keep = ComparePred("=", ColumnRef(0, 0), LiteralExpr(1))
    for combined in (AndPred(keep, ConstPred(True)), OrPred(keep, ConstPred(False))):
        compiled = compile_predicate(combined)
        assert run(compiled, (1,)) is True
        assert run(compiled, (2,)) is False
        assert run(compiled, (None,)) is None


def test_compile_row_builds_projection_tuples():
    row_fn = compile_row((ColumnRef(0, 1), LiteralExpr("x"), ColumnRef(1, 0)))
    assert row_fn((1, 2), ((9,),)) == (2, "x", 9)
    single = compile_row((ColumnRef(0, 0),))
    assert single((5,), ()) == (5,)


def test_filter_with_false_predicate_still_drains_its_child():
    """A filter tested per row iterates its child even when no row can
    pass; a child that raises mid-iteration must raise when the predicate
    folds to a constant too."""

    def boom(row, outers):
        raise CompileError("boom")

    plan = FilterOp(
        FilterOp(StaticScan([(1,), (2,)], arity=1), boom), ConstPred(False)
    )
    compiled = compile_plan(plan)
    with pytest.raises(CompileError):
        list(compiled(()))


# -- engine integration -------------------------------------------------------


def test_compiled_engine_matches_interpreted_on_handwritten_queries():
    queries = [
        "SELECT R.A, R.B FROM R WHERE R.A = 1 OR R.B IS NULL",
        "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B > 1",
        "SELECT DISTINCT R.B FROM R WHERE R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
        "SELECT R.A FROM R UNION SELECT S.A FROM S",
        "SELECT R.A FROM R EXCEPT ALL SELECT S.A FROM S",
        "SELECT R.A FROM R WHERE NOT (R.A <= 2 AND R.B <> 4)",
    ]
    db = make_db([(1, 2), (2, NULL), (NULL, 4), (3, 3)], [(1,), (3,), (NULL,)])
    compiled_engine = Engine(SCHEMA, "postgres")
    interpreted_engine = CodegenOffEngine(SCHEMA, "postgres")
    for text in queries:
        query = annotate(text, SCHEMA)
        compiled = compiled_engine.execute(query, db)
        interpreted = interpreted_engine.execute(query, db)
        assert compiled.same_as(interpreted), text


def test_compiled_plan_unbinds_and_rebinds():
    """A cached compiled plan must pin no rows between executions, and the
    compiled closures must see each execution's freshly bound data."""
    engine = Engine(SCHEMA, "postgres")
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db1 = make_db([(1, 2), (3, 4)], [(1,)])
    db2 = make_db([(1, 2), (3, 4)], [(3,)])
    assert [r for r in engine.execute(query, db1).bag] == [(1,)]
    assert [r for r in engine.execute(query, db2).bag] == [(3,)]
    plan = engine._plan(query).plan
    assert generated_code(engine._plan(query).run)
    for node, _pred in iter_plan_nodes(plan):
        if isinstance(node, TableScan):
            assert node.data is None  # unbound: no database rows pinned
    # Executing the unbound plan fails loudly.
    with pytest.raises(RuntimeError, match="without a bound database"):
        list(engine._plan(query).run(()))


def test_compiled_engine_uses_build_side_cache():
    engine = Engine(SCHEMA, "postgres")
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db = make_db([(1, 2), (3, 4)], [(1,), (3,)])
    for _ in range(3):
        assert len(engine.execute(query, db)) == 2
    assert engine.build_cache_info()["hits"] > 0


def test_compilation_hooks_in_at_plan_cache_admission_or_size():
    query = annotate("SELECT R.A FROM R WHERE R.B > 0", SCHEMA)
    cached_engine = Engine(SCHEMA, "postgres")
    assert generated_code(cached_engine._plan(query).run)
    single_use = Engine(SCHEMA, "postgres", plan_cache_size=0)
    assert not generated_code(single_use._plan(query).run)  # nothing bound yet
    naive = Engine(SCHEMA, "postgres", optimize=False)
    assert not generated_code(naive._plan(query).run)
    # All three still agree, of course.
    db = make_db([(1, 2)], [(1,)])
    results = [
        engine.execute(query, db)
        for engine in (cached_engine, single_use, naive)
    ]
    assert results[0].same_as(results[1]) and results[0].same_as(results[2])


def test_single_use_plans_compile_at_the_break_even_constant():
    """The same query on a cache-less engine: no generated code one bound
    row below ``SINGLE_USE_COMPILE_ROWS``, generated code at it.  Bound
    rows are summed per scan, subquery plans included."""
    limit = engine_module.SINGLE_USE_COMPILE_ROWS
    query = annotate(
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S) AND R.B > 0", SCHEMA
    )
    rows_s = [(i,) for i in range(10)]
    engine = Engine(SCHEMA, "postgres", plan_cache_size=0)
    reference = CodegenOffEngine(SCHEMA, "postgres")
    for rows_in_r, compiled in ((limit - 11, False), (limit - 10, True)):
        db = make_db([(i % 7, i) for i in range(rows_in_r)], rows_s)
        result = engine.execute(query, db)
        # The engine keeps the cardinalities it was last bound to, so the
        # plan it would build for that database can be inspected.
        assert generated_code(engine._plan(query).run) is compiled
        assert not generated_code(reference._plan(query).run)
        assert result.same_as(reference.execute(query, db))


def test_single_use_ablation_never_compiles():
    query = annotate("SELECT R.A FROM R WHERE R.B > 0", SCHEMA)
    db = make_db(
        [(i, i) for i in range(engine_module.SINGLE_USE_COMPILE_ROWS * 2)], []
    )
    ablated = CodegenOffEngine(SCHEMA, "postgres")
    ablated.execute(query, db)
    assert not generated_code(ablated._plan(query).run)
    assert ablated.cache_info()["scan_kernels"]["selections"] == 0


# -- the shape-keyed code cache -------------------------------------------------


SCHEMA_TEXT = Schema({"T": ("N", "S")})


def _execute_literals(literals):
    """One statement shape, planned fresh (single-use engine) once per
    literal — bound the way prepared statements and ad-hoc clients vary
    them; returns each execution's row count."""
    db = Database(
        SCHEMA_TEXT,
        {"T": [(1, "a"), (-5, ""), (NULL, "it's"), (7, 'say "hi"')]},
    )
    engine = Engine(SCHEMA_TEXT, "postgres", plan_cache_size=0)
    templates = {}
    for column in ("T.N", "T.S"):
        sql, count = expand_placeholders(
            f"SELECT T.N FROM T WHERE {column} = $1 OR {column} <> $2"
        )
        templates[column] = annotate(sql, SCHEMA_TEXT), count
    counts = []
    for literal in literals:
        template, count = templates["T.S" if isinstance(literal, str) else "T.N"]
        query = bind_parameters(template, [literal, literal], count)
        counts.append(len(engine.execute(query, db)))
        assert engine._plan(query).run is not None
    return counts


def test_code_cache_is_keyed_by_shape_not_literal(monkeypatch):
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)
    cache = compile_module._CODE_CACHE
    ints = list(range(-500, 500))
    strings = ["", "'", '"', "it's", 'say "hi"', "\\n", "%_", "None"] + [
        f"s{i}" for i in range(992)
    ]
    _execute_literals([0, "x"])  # the two shapes themselves, once
    before = len(cache)
    counts = _execute_literals(ints) + _execute_literals(strings)
    assert len(cache) == before
    # ``col = k OR col <> k`` is TRUE exactly on the non-NULL rows.
    assert counts == [3] * len(ints) + [4] * len(strings)
    # NULL is part of the shape (the comparison folds to UNKNOWN), so it
    # may mint entries of its own — a constant number, and no rows.
    assert _execute_literals([None]) == [0]
    assert len(cache) <= before + 2


def _hoisted_values(fn):
    return [d for d in fn.__defaults__ or () if not callable(d)]


def test_null_and_boolean_literals_stay_folded_into_the_shape():
    column = ColumnRef(0, 0)
    for folded in (None, True, False):
        pred = compile_predicate(ComparePred("<", column, LiteralExpr(folded)))
        assert _hoisted_values(pred) == [0]  # the column index only
    pred = compile_predicate(ComparePred("=", column, LiteralExpr(-7)))
    assert _hoisted_values(pred) == [0, -7]
    assert pred((-7,), ()) is True and pred((True,), ()) is False
    assert compile_predicate(
        ComparePred("=", column, LiteralExpr(True))
    )((1,), ()) is True  # exactly what the interpreted ``_eq`` says


def test_literals_columns_and_operators_share_one_compilation():
    cache = compile_module._CODE_CACHE

    def pred(op, index, literal):
        return compile_predicate(
            AndPred(
                ComparePred(op, ColumnRef(0, index), LiteralExpr(literal)),
                NotPred(ComparePred("=", ColumnRef(0, 0), LiteralExpr(1))),
            )
        )

    pred("=", 1, 0)  # a shape is cached from its second compilation on
    first = pred("<", 0, 5)
    before = len(cache)
    others = [pred(">=", 1, "x"), pred("LIKE", 1, "a%"), pred("<>", 0, 2.5)]
    assert len(cache) == before
    assert all(other.__code__ is first.__code__ for other in others)
    # ... and each still carries its own operands.
    assert first((3, "x"), ()) is True
    assert others[0]((3, "x"), ()) is True
    assert others[0]((3, "a"), ()) is False
    assert others[1]((3, "abc"), ()) is True
    with pytest.raises(CompileError, match="type clash"):
        first(("x", "y"), ())


def test_code_cache_admits_a_shape_the_second_time_it_is_compiled(monkeypatch):
    """One-off shapes — most of what a stream of generated single-use
    queries compiles — never enter the cache; a recurring shape pays one
    extra compilation, then hits."""
    monkeypatch.setattr(compile_module, "_CODE_CACHE", {})
    monkeypatch.setattr(compile_module, "_COMPILED_ONCE", {})
    cache = compile_module._CODE_CACHE
    first = compile_module._compiled_code("x = 1\n")
    assert cache == {} and len(compile_module._COMPILED_ONCE) == 1
    second = compile_module._compiled_code("x = 1\n")
    assert second is not first and cache == {"x = 1\n": second}
    assert compile_module._COMPILED_ONCE == {}
    assert compile_module._compiled_code("x = 1\n") is second
    # The memory of one-offs is bounded like the cache itself.
    monkeypatch.setattr(compile_module, "_CODE_CACHE_MAX", 3)
    for i in range(10):
        compile_module._compiled_code(f"y = {i}\n")
    assert len(compile_module._COMPILED_ONCE) == 3 and len(cache) == 1


def test_code_cache_overflow_drops_the_oldest_entry_only(monkeypatch):
    monkeypatch.setattr(compile_module, "_CODE_CACHE", {})
    monkeypatch.setattr(compile_module, "_COMPILED_ONCE", {})
    monkeypatch.setattr(compile_module, "_CODE_CACHE_MAX", 3)
    cache = compile_module._CODE_CACHE
    sources = [f"x{i} = {i}\n" for i in range(5)]

    def admit(source):
        compile_module._compiled_code(source)  # first compilation: noted
        return compile_module._compiled_code(source)  # second: cached

    for source in sources[:3]:
        admit(source)
    kept = compile_module._compiled_code(sources[1])
    admit(sources[3])
    assert list(cache) == sources[1:4]  # oldest gone, nothing else
    assert compile_module._compiled_code(sources[1]) is kept
    admit(sources[4])
    assert list(cache) == sources[2:5]


def test_compiled_single_use_plans_die_by_refcount(monkeypatch):
    """A generated function's globals must not contain the function: that
    cycle would leave every single-use plan (and the probe sets its
    predicates captured) to the cyclic collector."""
    import gc
    import weakref

    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)
    engine = Engine(SCHEMA, "postgres", plan_cache_size=0)
    query = annotate(
        "SELECT R.A FROM R WHERE R.B > 1 AND R.A IN (SELECT S.A FROM S) "
        "AND EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
        SCHEMA,
    )
    db = make_db([(1, 4), (3, 4)], [(1,), (4,)])
    gc.collect()
    gc.disable()
    try:
        pred = compile_predicate(ComparePred("<", ColumnRef(0, 0), LiteralExpr(3)))
        planned = engine._plan(query)
        assert planned.run is not None
        bind_plan(planned.plan, db)
        assert list(planned.run(())) == [(1,)]
        dead = [weakref.ref(pred), weakref.ref(planned.plan), weakref.ref(planned.run)]
        del pred, planned
        assert [ref() for ref in dead] == [None, None, None]
    finally:
        gc.enable()
