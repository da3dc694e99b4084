"""The executor's lowering (:mod:`repro.engine.compile`).

Pins the contracts the lowering must keep:

* a predicate tree lowers to composed closures that agree with the formal
  semantics' own 3VL connectives and comparisons on every input, evaluated
  in the engine's left-to-right order — including *which* errors are
  raised, and when;
* constant folding is exact: total comparisons fold, raising ones do not,
  and the 3VL connectives absorb constants only along the row-wise
  short-circuit order;
* a lowered plan is a function of the database it runs over: cached plans
  hold no rows and no state between runs, each run reads its own
  database, and the build-side cache keeps sharing structures;
* scan kernels are the only generated code, and they are generated when
  that pays: at plan-cache admission, or — for single-use plans
  (``plan_cache_size=0``) — once the rows bound under a plan's scans reach
  ``SINGLE_USE_COMPILE_ROWS``; validation trials filter through closures
  alone;
* kernel sources are shape-keyed: literals and column indices never reach
  the process-wide code cache's keys, and the cache sheds its oldest entry,
  never everything, when full.
"""

import dataclasses

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.core.truth import FALSE, TRUE, UNKNOWN, Truth, conj, disj, neg
from repro.engine import Engine, compile_predicate
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
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
from repro.engine.operators import FilterOp, StaticScan
from repro.semantics.predicates import default_registry
from repro.service.protocol import bind_parameters, expand_placeholders
from repro.sql import annotate
from repro.sql.ast import Predicate

from ..executor import CodegenOffEngine, generated_code, generated_functions, lowered

SCHEMA = Schema({"R": ("A", "B"), "S": ("A",)})


def make_db(rows_r, rows_s):
    return Database(SCHEMA, {"R": rows_r, "S": rows_s})


# -- the reference: the formal semantics' own logic ---------------------------

#: The oracle's comparisons (Section 2's collection P).
REGISTRY = default_registry()

#: Truth value -> the engine's representation of it.
AS_ENGINE = {TRUE: True, FALSE: False, UNKNOWN: None}


def reference(pred, row, outers=()) -> Truth:
    """``pred`` over ``row`` under the formal semantics' connectives
    (``conj`` / ``disj`` / ``neg``) and comparisons, NULL as None, in the
    engine's evaluation order: an AND or OR evaluates its right side unless
    its left side alone decides it."""

    def value(expr):
        if isinstance(expr, LiteralExpr):
            return expr.value
        return row[expr.index] if expr.depth == 0 else outers[-expr.depth][expr.index]

    if isinstance(pred, ConstPred):
        return {True: TRUE, False: FALSE, None: UNKNOWN}[pred.value]
    if isinstance(pred, ComparePred):
        args = (value(pred.left), value(pred.right))
        if None in args:
            return UNKNOWN
        return Truth.from_bool(REGISTRY.holds(pred.op, args))
    if isinstance(pred, IsNullPred):
        return Truth.from_bool((value(pred.expr) is None) is not pred.negated)
    if isinstance(pred, AndPred):
        left = reference(pred.left, row, outers)
        return FALSE if left is FALSE else conj(left, reference(pred.right, row, outers))
    if isinstance(pred, OrPred):
        left = reference(pred.left, row, outers)
        return TRUE if left is TRUE else disj(left, reference(pred.right, row, outers))
    if isinstance(pred, NotPred):
        return neg(reference(pred.operand, row, outers))
    raise TypeError(pred)


def assert_agrees(pred, row, outers=()):
    """The closure of ``pred`` gives the reference's truth value on ``row``,
    or raises a ``CompileError`` exactly where the reference does."""
    closure = compile_predicate(pred)
    try:
        expected = AS_ENGINE[reference(pred, row, outers)]
    except CompileError:
        with pytest.raises(CompileError):
            closure(row, outers)
        return
    assert closure(row, outers) is expected, (row, outers)


# -- predicate lowering -------------------------------------------------------


PRED_CASES = [
    ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred("<>", ColumnRef(0, 0), LiteralExpr(3)),
    ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred(">=", ColumnRef(0, 1), LiteralExpr(2)),
    ComparePred("<=", LiteralExpr("a"), ColumnRef(0, 1)),
    ComparePred(">", ColumnRef(0, 0), LiteralExpr(None)),
    ComparePred("LIKE", ColumnRef(0, 0), LiteralExpr("a%")),
    ComparePred("=", ColumnRef(0, 0), LiteralExpr(True)),
    IsNullPred(ColumnRef(0, 0)),
    IsNullPred(ColumnRef(0, 1), negated=True),
    AndPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        IsNullPred(ColumnRef(0, 1), negated=True),
    ),
    AndPred(
        ComparePred("<", ColumnRef(0, 1), ColumnRef(0, 0)),
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
    ),
    OrPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        ComparePred("=", ColumnRef(0, 1), LiteralExpr(2)),
    ),
    NotPred(ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1))),
    NotPred(
        AndPred(
            ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
            ComparePred("<", ColumnRef(0, 1), LiteralExpr(2)),
        )
    ),
    NotPred(
        OrPred(
            ComparePred("<>", ColumnRef(0, 0), LiteralExpr(1)),
            ComparePred(">", ColumnRef(0, 1), LiteralExpr(1)),
        )
    ),
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
    (1, "1"),
]


@pytest.mark.parametrize("pred", PRED_CASES, ids=lambda p: type(p).__name__)
def test_predicate_closures_match_the_formal_semantics_on_3vl_grid(pred):
    for row in ROWS:
        assert_agrees(pred, row)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_predicate_closures_word_type_clashes_as_the_engine_does(op):
    """Where the oracle finds a type clash, the closure raises the
    engine's ``CompileError``, worded with the operator and both operands,
    whichever operand is a column."""
    for pred in (
        ComparePred(op, ColumnRef(0, 0), ColumnRef(0, 1)),
        ComparePred(op, ColumnRef(0, 0), LiteralExpr(1)),
        AndPred(ComparePred(op, ColumnRef(0, 0), LiteralExpr(1)), ConstPred(True)),
    ):
        with pytest.raises(CompileError):
            reference(pred, ("a", 1))
        with pytest.raises(CompileError) as caught:
            compile_predicate(pred)(("a", 1), ())
        assert str(caught.value) == f"type clash in comparison: 'a' {op} 1"


def test_an_and_evaluates_its_right_side_on_left_unknown_rows():
    """A left-UNKNOWN AND still runs its right side (only it can tell
    FALSE from UNKNOWN), so the right side's error surfaces; a left-FALSE
    AND never runs it, nor does a left-TRUE OR."""
    raising = ComparePred("<", ColumnRef(0, 1), LiteralExpr(1))
    for left in (
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),  # the leaf shape
        ComparePred("=", LiteralExpr(1), ColumnRef(0, 0)),
    ):
        for row, raises in (((None, "x"), True), ((2, "x"), False)):
            pred = AndPred(left, raising)
            assert_agrees(pred, row)
            if raises:
                with pytest.raises(CompileError):
                    compile_predicate(pred)(row, ())
            else:
                assert compile_predicate(pred)(row, ()) is False
        assert compile_predicate(OrPred(left, raising))((1, "x"), ()) is True


def test_outer_references_lower_to_stack_lookups():
    pred = ComparePred("=", ColumnRef(0, 0), ColumnRef(2, 1))
    outers = ((7, 8), (9, 10))
    # depth 2 = the outermost of the two enclosing rows.
    assert compile_predicate(pred)((8,), outers) is True
    assert compile_predicate(pred)((10,), outers) is False
    for row in ((8,), (10,), (None,)):
        assert_agrees(pred, row, outers)
        assert_agrees(AndPred(IsNullPred(ColumnRef(1, 0)), pred), row, outers)


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
        folded = compile_module._fold_predicate(pred)
        assert isinstance(folded, ConstPred)
        assert folded.value is expected
        assert compile_predicate(pred)((), ()) is expected
        assert_agrees(pred, ())


def test_raising_comparisons_never_fold():
    """``1 < 'a'`` raises per evaluation; folding it at lowering would
    move (or suppress) the error."""
    pred = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    assert compile_module._fold_predicate(pred) is pred
    closure = compile_predicate(pred)  # must not raise here
    with pytest.raises(CompileError):
        closure((), ())


def test_connective_absorption_is_shortcircuit_exact():
    fold = compile_module._fold_predicate
    raising = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    # AND with a left FALSE never evaluates its right side.
    folded = fold(AndPred(ConstPred(False), raising))
    assert isinstance(folded, ConstPred) and folded.value is False
    # OR with a left TRUE never evaluates its right side.
    folded = fold(OrPred(ConstPred(True), raising))
    assert isinstance(folded, ConstPred) and folded.value is True
    # ... but a right-side constant cannot drop a raising left side.
    with pytest.raises(CompileError):
        compile_predicate(AndPred(raising, ConstPred(False)))((), ())
    # AND TRUE / OR FALSE are exact identities.
    keep = ComparePred("=", ColumnRef(0, 0), LiteralExpr(1))
    for combined in (AndPred(keep, ConstPred(True)), OrPred(keep, ConstPred(False))):
        assert fold(combined) is keep
        closure = compile_predicate(combined)
        assert closure((1,), ()) is True
        assert closure((2,), ()) is False
        assert closure((None,), ()) is None


def test_row_closures_build_projection_tuples():
    row_fn = compile_module._row_fn((ColumnRef(0, 1), LiteralExpr("x"), ColumnRef(1, 0)))
    assert row_fn((1, 2), ((9,),)) == (2, "x", 9)
    assert compile_module._row_fn((ColumnRef(0, 0),))((5,), ()) == (5,)
    assert compile_module._row_fn((ColumnRef(0, 1), ColumnRef(0, 0)))((5, 6), ()) == (6, 5)


def test_filter_with_false_predicate_still_drains_its_child():
    """A filter tested per row iterates its child even when no row can
    pass; a child that raises mid-iteration must raise when the predicate
    folds to a constant too."""

    def boom(row, outers):
        raise CompileError("boom")

    plan = FilterOp(
        FilterOp(StaticScan([(1,), (2,)], arity=1), boom), ConstPred(False)
    )
    with pytest.raises(CompileError):
        list(lowered(plan).run(None))


@pytest.mark.parametrize("right", ["column", "literal"])
@pytest.mark.parametrize("cache", [True, False], ids=["cached", "single-use"])
def test_an_unknown_comparison_operator_raises_only_on_non_null_operands(cache, right):
    """The formal semantics evaluates a predicate only over non-NULL
    arguments: ``R.A ~ t`` is UNKNOWN on a NULL row, an error on a row of
    two non-NULL operands, and nothing at all over an empty table — never
    an error at planning."""
    query = annotate("SELECT R.A FROM R WHERE R.A = R.B", SCHEMA)
    where = query.where
    operand = where.args[1] if right == "column" else 1
    query = dataclasses.replace(query, where=Predicate("~", (where.args[0], operand)))
    kwargs = {} if cache else {"plan_cache_size": 0}
    engine = Engine(SCHEMA, "postgres", **kwargs)
    assert list(engine.execute(query, make_db([(NULL, 1)], [])).bag) == []
    with pytest.raises(CompileError, match="unknown comparison operator: ~"):
        engine.execute(query, make_db([(1, 1)], []))
    assert list(engine.execute(query, make_db([], [])).bag) == []


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


def test_a_cached_plan_runs_over_the_database_it_is_given():
    """A cached plan — a scan kernel in it — holds no rows between
    executions, and each run of it reads the database it is given."""
    import gc
    import types

    engine = Engine(SCHEMA, "postgres")
    query = annotate(
        "SELECT R.A FROM R WHERE R.B > 0 AND R.A IN (SELECT S.A FROM S)", SCHEMA
    )
    db1 = make_db([(1, 2), (3, 4)], [(1,)])
    db2 = make_db([(1, 2), (3, 4)], [(3,)])
    assert [r for r in engine.execute(query, db1).bag] == [(1,)]
    assert [r for r in engine.execute(query, db2).bag] == [(3,)]
    compiled = engine._plan(query)
    assert generated_code(compiled)
    for db, expected in ((db1, [(1,)]), (db2, [(3,)]), (db1, [(1,)])):
        assert list(compiled.run(db)) == expected
    # The scanned rows are held by their table alone: not by the plan, its
    # closures or a finished run.
    for db in (db1, db2):
        for name in ("R", "S"):
            table = db.table(name)
            holders = [
                ref
                for ref in gc.get_referrers(table._scan_rows)
                if not isinstance(ref, types.FrameType)
            ]
            assert holders == [table], name


def test_compiled_engine_uses_build_side_cache():
    # A probe set over a filtered scan: a build over a bare scan would be
    # memoized on the table instead.
    engine = Engine(SCHEMA, "postgres")
    query = annotate(
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S WHERE S.A > 0)", SCHEMA
    )
    db = make_db([(1, 2), (3, 4)], [(1,), (3,)])
    for _ in range(3):
        assert len(engine.execute(query, db)) == 2
    assert engine.build_cache_info()["hits"] > 0


def test_compilation_hooks_in_at_plan_cache_admission_or_size():
    query = annotate("SELECT R.A FROM R WHERE R.B > 0", SCHEMA)
    cached_engine = Engine(SCHEMA, "postgres")
    assert generated_code(cached_engine._plan(query))
    single_use = Engine(SCHEMA, "postgres", plan_cache_size=0)
    assert not generated_code(single_use._plan(query))  # nothing bound yet
    naive = Engine(SCHEMA, "postgres", optimize=False)
    assert not generated_code(naive._plan(query))
    # All three still agree, of course.
    db = make_db([(1, 2)], [(1,)])
    results = [
        engine.execute(query, db)
        for engine in (cached_engine, single_use, naive)
    ]
    assert results[0].same_as(results[1]) and results[0].same_as(results[2])


#: Filters over scans, joins and subqueries, outer references, probes,
#: projections of columns and of literals, set operations.
KERNEL_BATTERY = [
    "SELECT R.A, R.B FROM R WHERE R.A = 1 OR R.B IS NULL",
    "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B > 1",
    "SELECT R.B, R.A FROM R, S WHERE R.A < S.A OR R.B IS NULL",
    "SELECT DISTINCT R.B FROM R WHERE R.A IN (SELECT S.A FROM S WHERE S.A > R.B)",
    "SELECT R.A FROM R WHERE EXISTS (SELECT R.B FROM S WHERE S.A = R.B AND S.A > 1)",
    "SELECT R.A FROM R WHERE R.B > 0 AND R.A NOT IN (SELECT S.A FROM S)",
    "SELECT R.A FROM R WHERE NOT (R.A <= 2 AND R.B <> 4)",
    "SELECT R.A FROM R UNION SELECT S.A FROM S WHERE S.A < 3",
    "SELECT N.X FROM (SELECT R.A, R.B FROM R WHERE R.B > 1) AS N(X, Y) WHERE N.Y < 4",
    "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S, R AS T WHERE S.A = T.B)",
]


def test_scan_kernels_are_the_only_generated_code(monkeypatch):
    """Every lowered plan — cached, single-use with kernels forced on, and
    naive — holds no generated function but scan kernels: predicates,
    probe values and projected rows are closures."""
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)
    db = make_db([(1, 2), (2, NULL), (NULL, 4), (3, 3)], [(1,), (3,), (NULL,)])
    engines = {
        "cached": Engine(SCHEMA, "postgres"),
        "single-use": Engine(SCHEMA, "postgres", plan_cache_size=0),
        "naive": Engine(SCHEMA, "postgres", optimize=False),
    }
    kernels = dict.fromkeys(engines, 0)
    for text in KERNEL_BATTERY:
        query = annotate(text, SCHEMA)
        results = []
        for name, engine in engines.items():
            results.append(engine.execute(query, db))
            generated = generated_functions(engine._plan(query))
            assert set(generated) <= {"_fsel"}, (name, text)
            kernels[name] += len(generated)
        assert all(result.same_as(results[0]) for result in results), text
    # The walk does see kernels, where there are any.
    assert kernels["cached"] >= 8 and kernels["single-use"] >= 8
    assert kernels["naive"] == 0


def test_single_use_plans_compile_at_the_break_even_constant():
    """The same query on a cache-less engine: no scan kernel one bound row
    below ``SINGLE_USE_COMPILE_ROWS``, a kernel at it.  Bound rows are
    summed per scan, subquery plans included."""
    limit = engine_module.SINGLE_USE_COMPILE_ROWS
    query = annotate(
        "SELECT R.A FROM R WHERE R.B > 0 AND R.A IN (SELECT S.A FROM S)", SCHEMA
    )
    rows_s = [(i,) for i in range(10)]
    engine = Engine(SCHEMA, "postgres", plan_cache_size=0)
    reference = CodegenOffEngine(SCHEMA, "postgres")
    for rows_in_r, compiled in ((limit - 11, False), (limit - 10, True)):
        db = make_db([(i % 7, i) for i in range(rows_in_r)], rows_s)
        result = engine.execute(query, db)
        # The engine keeps the cardinalities it was last bound to, so the
        # plan it would build for that database can be inspected.
        assert generated_code(engine._plan(query)) is compiled
        assert not generated_code(reference._plan(query))
        assert result.same_as(reference.execute(query, db))


def test_single_use_ablation_never_compiles():
    query = annotate("SELECT R.A FROM R WHERE R.B > 0", SCHEMA)
    db = make_db(
        [(i, i) for i in range(engine_module.SINGLE_USE_COMPILE_ROWS * 2)], []
    )
    ablated = CodegenOffEngine(SCHEMA, "postgres")
    ablated.execute(query, db)
    assert not generated_code(ablated._plan(query))
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
        assert engine._plan(query).root is not None
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


def _kernel(op, index, literal):
    """The scan kernel of ``column op literal AND NOT (B = 1)``."""
    return compile_module._compile_fused(
        AndPred(
            ComparePred(op, ColumnRef(0, index), LiteralExpr(literal)),
            NotPred(ComparePred("=", ColumnRef(0, 1), LiteralExpr(1))),
        )
    )


def _select(fused, rows):
    kernel, columns = fused
    vectors = {column: iter([row[column] for row in rows]) for column in columns}
    return kernel(rows, vectors, ())


def test_literals_and_columns_share_one_kernel_compilation():
    cache = compile_module._CODE_CACHE
    _kernel("<", 2, 0)  # a shape is cached from its second compilation on
    first = _kernel("<", 0, 5)
    before = len(cache)
    others = [_kernel("<", 2, "x"), _kernel("<", 0, 1.5)]
    assert len(cache) == before
    assert all(other[0].__code__ is first[0].__code__ for other in others)
    # ... and each still carries its own operands.
    rows = [(3, 1, "x"), (2, 0, "a"), (1, 2, "y")]
    assert _select(first, rows) == [(2, 0, "a"), (1, 2, "y")]
    assert _select(others[0], rows) == [(2, 0, "a")]
    assert _select(others[1], rows) == [(1, 2, "y")]
    # A type clash raises Python's own error, for the scan to replay.
    with pytest.raises(TypeError):
        _select(first, [("x", 0, "y")])


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
    """A generated kernel's globals must not contain the kernel: that cycle
    would leave every single-use plan (and the probe sets its predicates
    captured) to the cyclic collector."""
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
        pred, _columns = compile_module._compile_fused(
            ComparePred("<", ColumnRef(0, 0), LiteralExpr(3))
        )
        planned = engine._plan(query)
        assert planned.root is not None
        assert list(planned.run(db)) == [(1,)]
        dead = [weakref.ref(pred), weakref.ref(planned.plan), weakref.ref(planned.root)]
        del pred, planned
        assert [ref() for ref in dead] == [None, None, None]
    finally:
        gc.enable()
