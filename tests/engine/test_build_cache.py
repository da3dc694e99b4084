"""Cross-execution build-side sharing: hits on repeated content, automatic
invalidation on rebind, LRU bounds, the no-row-pinning guarantee, and the
builds over bare scans memoized on the table."""

import sys
from collections import Counter

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import Engine
from repro.engine.binding import BuildSideCache, iter_plan_nodes
from repro.engine.operators import TableScan
from repro.sql import annotate

from ..executor import CodegenOffEngine, run_rows


@pytest.fixture
def schema():
    return Schema({"R": ("A", "B"), "S": ("A",), "T": ("C", "D")})


CONTENT = {
    "R": [(1, 2), (NULL, 4), (3, 2), (3, 5)],
    "S": [(1,), (3,), (NULL,)],
    "T": [(2, 1), (2, NULL), (5, 3)],
}

JOIN_SQL = "SELECT R.A FROM R, S WHERE R.A = S.A"
PROBE_SQL = "SELECT R.A FROM R WHERE R.B IN (SELECT T.C FROM T)"
CORRELATED_SQL = (
    "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)"
)


def make_db(schema, content=CONTENT):
    return Database(schema, {name: list(rows) for name, rows in content.items()})


# -- the cache itself ---------------------------------------------------------


def test_cache_lru_and_counters():
    cache = BuildSideCache(maxsize=2)
    miss = cache.lookup(("a",))
    assert miss is not cache.lookup(("a",)) or True  # sentinel, not None
    cache.store(("a",), 1)
    cache.store(("b",), 2)
    assert cache.lookup(("a",)) == 1
    cache.store(("c",), 3)  # evicts ("b",): ("a",) was freshened
    assert cache.evictions == 1
    assert cache.lookup(("a",)) == 1
    assert len(cache) == 2
    info = cache.info()
    assert info["size"] == 2 and info["maxsize"] == 2
    cache.clear()
    assert len(cache) == 0


def test_cache_round_trips_falsy_values():
    cache = BuildSideCache()
    cache.store(("k",), False)  # a closed EXISTS that found nothing
    assert cache.lookup(("k",)) is False


# -- sharing through the engine -----------------------------------------------


@pytest.mark.parametrize("sql", [JOIN_SQL, PROBE_SQL, CORRELATED_SQL])
def test_repeated_content_hits_and_agrees(schema, sql):
    engine = Engine(schema)
    naive = Engine(schema, optimize=False)
    query = annotate(sql, schema)
    first = engine.execute(query, make_db(schema))
    # Sharing engages from the second bind (a once-executed plan can never
    # hit), so the second run misses-and-harvests and the third run hits.
    second = engine.execute(query, make_db(schema))
    assert engine.build_cache_info()["hits"] == 0
    assert engine.build_cache_info()["misses"] > 0
    third = engine.execute(query, make_db(schema))
    assert engine.build_cache_info()["hits"] > 0
    assert first.same_as(second) and second.same_as(third)
    assert third.same_as(naive.execute(query, make_db(schema)))


def test_rebind_to_different_content_invalidates(schema):
    """Different table contents must miss: stale probe sets would lie."""
    engine = Engine(schema)
    query = annotate(PROBE_SQL, schema)
    changed = dict(CONTENT, T=[(99, 1)])  # R.B IN (SELECT T.C ...) flips
    engine.execute(query, make_db(schema))
    engine.execute(query, make_db(schema))  # harvested under CONTENT's key
    hits_before = engine.build_cache_info()["hits"]
    result = engine.execute(query, make_db(schema, changed))
    assert engine.build_cache_info()["hits"] == hits_before  # pure misses
    naive = Engine(schema, optimize=False).execute(query, make_db(schema, changed))
    assert result.same_as(naive)
    # And back: the original content is still cached.
    engine.execute(query, make_db(schema))
    assert engine.build_cache_info()["hits"] > hits_before


def test_correlated_memo_survives_cache_round_trip(schema):
    """Per-binding memo dicts are shared objects; the reset between
    executions must re-bind fresh dicts, never clear the cached one."""
    engine = Engine(schema)
    query = annotate(CORRELATED_SQL, schema)
    reference = None
    for _ in range(3):
        result = engine.execute(query, make_db(schema))
        if reference is None:
            reference = result
        assert result.same_as(reference)
    assert engine.build_cache_info()["hits"] > 0


def test_disabled_build_cache(schema):
    engine = Engine(schema, build_cache_size=0)
    query = annotate(JOIN_SQL, schema)
    first = engine.execute(query, make_db(schema))
    second = engine.execute(query, make_db(schema))
    assert first.same_as(second)
    assert engine.build_cache_info() == {
        "hits": 0, "misses": 0, "cross_hits": 0, "evictions": 0,
        "size": 0, "entries": 0, "bytes": 0, "maxsize": 0, "max_bytes": 0,
        "kinds": {
            kind: {"entries": 0, "bytes": 0}
            for kind in ("hash_join", "tries", "probes", "memos")
        },
    }


def test_clear_build_cache(schema):
    engine = Engine(schema)
    query = annotate(JOIN_SQL, schema)
    engine.execute(query, make_db(schema))
    engine.clear_build_cache()
    assert engine.build_cache_info()["size"] == 0
    engine.execute(query, make_db(schema))  # still correct after clearing
    assert engine.build_cache_info()["misses"] > 0


# -- cross-query sharing -------------------------------------------------------


def test_cross_query_sharing_between_different_statements(schema):
    """Two different queries embedding the same subquery over the same table
    contents share one build side — the key is the normalized subplan text
    plus content, not plan identity."""
    engine = Engine(schema)
    left = annotate(PROBE_SQL, schema)
    # Different outer query, identical IN-subquery: same probe set.
    right = annotate(
        "SELECT R.B FROM R WHERE R.B IN (SELECT T.C FROM T)", schema
    )
    for _ in range(2):  # populate under `left` (engages from second bind)
        engine.execute(left, make_db(schema))
    cross_before = engine.build_cache_info()["cross_hits"]
    result = engine.execute(right, make_db(schema))
    info = engine.build_cache_info()
    assert info["cross_hits"] > cross_before
    naive = Engine(schema, optimize=False).execute(right, make_db(schema))
    assert result.same_as(naive)


def test_cross_query_hashjoin_build_side_shared(schema):
    """Different probe sides against the same build side share the hash
    table: the signature keys only the build (right) subtree and keys."""
    engine = Engine(schema)
    a = annotate(JOIN_SQL, schema)
    b = annotate("SELECT R.B FROM R, S WHERE R.A = S.A", schema)
    for _ in range(2):
        engine.execute(a, make_db(schema))
    cross_before = engine.build_cache_info()["cross_hits"]
    result = engine.execute(b, make_db(schema))
    assert engine.build_cache_info()["cross_hits"] > cross_before
    naive = Engine(schema, optimize=False).execute(b, make_db(schema))
    assert result.same_as(naive)


def test_cross_query_same_text_different_plan_objects(schema):
    """Two engines' worth of isolation is not required *within* one engine:
    re-annotating the same SQL yields a distinct AST object but the same
    structural plan, which still shares."""
    engine = Engine(schema)
    for _ in range(2):
        engine.execute(annotate(PROBE_SQL, schema), make_db(schema))
    hits_before = engine.build_cache_info()["hits"]
    engine.execute(annotate(PROBE_SQL, schema), make_db(schema))
    assert engine.build_cache_info()["hits"] > hits_before


def test_sharing_engages_first_bind_on_warm_cache(schema):
    """A brand-new statement against a warm cache participates from its
    first execution — the service's steady-state case."""
    engine = Engine(schema)
    for _ in range(2):
        engine.execute(annotate(JOIN_SQL, schema), make_db(schema))
    assert len(engine._build_cache) > 0
    fresh = annotate("SELECT S.A FROM S, R WHERE S.A = R.A", schema)
    misses_before = engine.build_cache_info()["misses"]
    hits_before = engine.build_cache_info()["hits"]
    engine.execute(fresh, make_db(schema))
    info = engine.build_cache_info()
    # First bind did bookkeeping: either it hit a shared entry or at least
    # recorded misses for its own carriers.
    assert info["hits"] > hits_before or info["misses"] > misses_before


# -- byte budgets --------------------------------------------------------------


def test_build_cache_byte_budget_enforced():
    cache = BuildSideCache(maxsize=100, max_bytes=4096)
    big = [tuple(range(20))] * 40
    for i in range(10):
        cache.store((f"k{i}",), list(big))
        assert cache.bytes <= 4096
    assert cache.evictions > 0
    info = cache.info()
    assert info["bytes"] == cache.bytes and info["max_bytes"] == 4096


@pytest.mark.parametrize("max_bytes", [None, 1 << 20])
def test_info_bytes_equal_the_eager_estimate(max_bytes, monkeypatch):
    """Without a byte budget entries are stored unsized and ``info()``
    sizes them on demand; ``bytes`` must read exactly as if every store
    had walked its value — through evictions, re-stores of the identical
    object, a memo dict that grew in between, and replaced values."""
    from repro.engine import binding

    walks = []
    estimate = binding.estimate_bytes

    def counting(value, _depth=0):
        if _depth == 0:
            walks.append(value)
        return estimate(value, _depth)

    monkeypatch.setattr(binding, "estimate_bytes", counting)
    cache = BuildSideCache(maxsize=3, max_bytes=max_bytes)
    table = {i: [(i, "x" * i)] for i in range(30)}
    memo = {(1,): True}
    rows = [(i, None) for i in range(50)]

    def expected():
        return sum(estimate(entry[0]) for entry in cache._entries.values())

    cache.store(("table",), table, owner=1, rows=30)
    cache.store(("memo",), memo, owner=1)
    cache.store(("rows",), rows, owner=2, rows=50)
    if max_bytes is None:
        assert walks == [] and cache.bytes == 0  # nothing sized on store
    assert cache.info()["bytes"] == expected()
    memo[(2,)] = False  # a harvested memo gains a key between executions
    cache.store(("memo",), memo, owner=1)
    cache.store(("table",), table, owner=1)  # identical object: no re-walk
    cache.store(("flag",), False, owner=3)  # evicts the LRU entry ("rows")
    assert cache.evictions == 1 and cache.lookup(("rows",)) is not rows
    cache.store(("rows",), rows[:10], owner=2)  # evicts ("memo",)
    cache.store(("flag",), [1, 2, 3], owner=3)  # same key, new value
    walked_before_info = len(walks)
    assert cache.info()["bytes"] == expected() == cache.bytes
    assert cache.info()["bytes"] == expected()  # memoized: idempotent
    if max_bytes is None:
        # info() sized only what was stored since the last reading: the
        # grown memo was evicted before anyone asked, and the identical
        # table kept its earlier size.
        assert len(walks) == walked_before_info + 2
        assert cache.lookup_entry(("table",)) == (table, 30)
    cache.clear()
    assert cache.info()["bytes"] == 0


def test_engine_build_cache_byte_budget(schema):
    engine = Engine(schema, build_cache_bytes=1)  # nothing fits
    query = annotate(JOIN_SQL, schema)
    for _ in range(3):
        engine.execute(query, make_db(schema))
    info = engine.build_cache_info()
    assert info["bytes"] <= 1
    assert info["entries"] == 0
    assert info["evictions"] > 0


def test_engine_plan_cache_byte_budget(schema):
    budget = 4096
    engine = Engine(schema, plan_cache_bytes=budget)
    db = make_db(schema)
    for i in range(50):
        engine.execute(annotate(f"SELECT R.A FROM R WHERE R.A = {i}", schema), db)
    info = engine.cache_info()
    assert info["bytes"] <= budget
    assert info["entries"] < 50
    assert info["evictions"] > 0
    # Unbudgeted engines still report sizes.
    plain = Engine(schema)
    plain.execute(annotate(JOIN_SQL, schema), db)
    assert plain.cache_info()["entries"] == 1
    assert plain.cache_info()["bytes"] > 0


# -- no pinning ---------------------------------------------------------------


def test_cached_plans_pin_no_database_rows(schema):
    """After execute, cached plans are unbound and neither the plan cache
    nor the build-side cache keeps the Database object alive."""
    engine = Engine(schema)
    query = annotate(PROBE_SQL, schema)
    db = make_db(schema)
    engine.execute(query, db)
    for compiled in engine._plan_cache.values():
        for node, _pred in iter_plan_nodes(compiled.plan):
            if isinstance(node, TableScan):
                assert node.data is None
    # No cache holds a reference to the Database itself (entries are copies
    # made at bind time): executing must not change its reference count.
    before = sys.getrefcount(db)
    engine.execute(query, db)
    assert sys.getrefcount(db) == before


def test_plans_unbound_even_with_sharing_hits(schema):
    engine = Engine(schema)
    query = annotate(JOIN_SQL, schema)
    engine.execute(query, make_db(schema))
    engine.execute(query, make_db(schema))
    engine.execute(query, make_db(schema))  # third run restores from cache
    assert engine.build_cache_info()["hits"] > 0
    for compiled in engine._plan_cache.values():
        for node, _pred in iter_plan_nodes(compiled.plan):
            if isinstance(node, TableScan):
                assert node.data is None


# -- where the bytes go, and that they go nowhere else --------------------------

KEYED_SQL = [
    PROBE_SQL,
    CORRELATED_SQL,
    "SELECT R.A FROM R WHERE R.B NOT IN (SELECT T.D FROM T WHERE T.C = R.A)",
]


def test_info_breaks_entries_and_bytes_down_by_carrier_kind(schema):
    engine = Engine(schema)
    statements = [JOIN_SQL, *KEYED_SQL, "SELECT U.A FROM (SELECT S.A FROM S) AS U, R"]
    for sql in statements:
        query = annotate(sql, schema)
        engine.execute(query, make_db(schema))
        engine.execute(query, make_db(schema))  # second bind: harvested
    info = engine.build_cache_info()
    kinds = info["kinds"]
    assert set(kinds) == {"hash_join", "tries", "probes", "memos"}
    assert kinds["hash_join"]["entries"] == 1
    assert kinds["probes"]["entries"] == 3
    assert kinds["memos"]["entries"] == 1  # the cached FROM-subquery
    assert kinds["tries"] == {"entries": 0, "bytes": 0}
    assert sum(kind["entries"] for kind in kinds.values()) == info["entries"]
    assert sum(kind["bytes"] for kind in kinds.values()) == info["bytes"]
    assert all(kind["bytes"] > 0 for kind in kinds.values() if kind["entries"])


def test_probe_build_sides_survive_unbind_in_the_build_cache_only(schema):
    """After ``unbind_plan`` the only reference to a probe's index is the
    cache entry: no plan node, predicate or compiled closure keeps a second
    copy (or the first) alive."""
    import gc
    import types

    engine = Engine(schema)
    for sql in KEYED_SQL:
        query = annotate(sql, schema)
        engine.execute(query, make_db(schema))
        engine.execute(query, make_db(schema))
    for compiled in engine._plan_cache.values():
        for _node, pred in iter_plan_nodes(compiled.plan):
            assert getattr(pred, "_build", None) is None
    entries = list(engine._build_cache._entries.values())
    assert len(entries) == len(KEYED_SQL)

    def holders(obj):
        return [
            ref
            for ref in gc.get_referrers(obj)
            if not isinstance(ref, types.FrameType) and ref is not entries
        ]

    for entry in entries:
        build = entry[0]
        index, null_rows = build
        assert holders(build) == [entry]
        assert holders(index) == [build]
        for group in index.values() if isinstance(index, dict) else ():
            assert holders(group) == [index]


def test_probe_entry_is_smaller_than_the_typed_key_triple():
    """The representation this one replaced kept ``(frozenset of typed key
    tuples, NULL-holding rows, distinct rows)`` per probe."""
    from repro.engine.binding import estimate_bytes
    from repro.engine.operators import build_probe_index

    def typed_key(values):
        # The tagged key the engine once built: None for a NULL anywhere.
        if None in values:
            return None
        return tuple((isinstance(v, str), v) for v in values)

    def old_triple(rows):
        distinct = list(dict.fromkeys(rows))
        keys = frozenset(filter(None, map(typed_key, distinct)))
        return keys, [row for row in distinct if None in row], distinct

    one = [(i % 700,) for i in range(1000)] + [(None,)]
    two = [(i % 700, str(i % 13)) for i in range(1000)] + [(None, "x"), (5, None)]
    for rows, width in ((one, 1), (two, 2)):
        new = estimate_bytes(build_probe_index(iter(rows), 0, width))
        assert new < estimate_bytes(old_triple(rows)) / 2


# -- builds memoized on the table -----------------------------------------------
#
# A closed build over a bare base-table scan — a hash-join partition, a probe
# set over a projection of the scan's columns — is a pure function of the
# immutable Table, so it is memoized there under its signature: single-use
# engines (the ad-hoc path, the live campaign) rebuild nothing the same
# table has already built.  Every result below is checked against the
# formal semantics, with and without generated code.

MEMO_SCHEMA = Schema({"R": ("A", "B"), "T": ("C", "D")})

MEMO_CONTENT = {
    "R": [(1, 2), (NULL, 4), (3, 2), (3, 5), (1, NULL), (2, 5)],
    "T": [(1, 2), (3, NULL), (NULL, 5), (1, 2), (3, 4), (2, 5), (NULL, NULL)],
}

#: One table joined on two different columns in one plan.
TWO_COLUMN_JOIN_SQL = (
    "SELECT R.A, X.C, Y.D FROM R, T AS X, T AS Y WHERE R.A = X.C AND R.B = Y.D"
)

#: Single-use statements over the same tables, each answered from a build
#: over a bare scan of ``T``.  Consecutive pairs share ``T`` but not the
#: build signature: another key column, key width or projected column.
MEMO_SQL = [
    "SELECT R.A, T.D FROM R, T WHERE R.A = T.C",
    "SELECT R.A, T.C FROM R, T WHERE R.B = T.D",
    "SELECT R.A, T.D FROM R, T WHERE R.A = T.C AND R.B = T.D",
    "SELECT R.A FROM R WHERE R.A IN (SELECT T.C FROM T)",
    "SELECT R.A FROM R WHERE R.A IN (SELECT T.D FROM T)",
    "SELECT R.B FROM R WHERE R.B NOT IN (SELECT T.D FROM T)",
    "SELECT R.B FROM R WHERE R.B NOT IN (SELECT T.C FROM T)",
    "SELECT R.A FROM R WHERE R.B IN (SELECT T.D FROM T WHERE T.C = R.A)",
    "SELECT R.A FROM R WHERE R.B NOT IN (SELECT T.C FROM T WHERE T.D = R.A)",
    "SELECT R.A FROM R WHERE EXISTS (SELECT T.D FROM T WHERE T.C = R.A)",
    "SELECT R.A FROM R WHERE NOT EXISTS (SELECT T.C FROM T WHERE T.D = R.B)",
]


def memo_db(content=MEMO_CONTENT):
    return make_db(MEMO_SCHEMA, content)


def single_use_engines(tier, monkeypatch):
    """A factory of fresh single-use engines (``plan_cache_size=0``, as the
    ad-hoc path builds them) on ``tier``: the size rule gives every plan
    generated code (``"codegen"``), or none (``"codegen-off"``)."""
    if tier == "codegen-off":
        return lambda: CodegenOffEngine(MEMO_SCHEMA, build_cache_size=0)
    from repro.engine import engine as engine_module

    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)
    return lambda: Engine(MEMO_SCHEMA, plan_cache_size=0, build_cache_size=0)


@pytest.fixture(params=["codegen", "codegen-off"])
def single_use(request, monkeypatch):
    return single_use_engines(request.param, monkeypatch)


def assert_formal(engine, sql, db):
    """``engine``'s answer to ``sql`` over ``db`` is the formal semantics'."""
    from repro.semantics import SqlSemantics

    query = annotate(sql, MEMO_SCHEMA)
    expected = SqlSemantics(MEMO_SCHEMA).run(query, db)
    assert engine.execute(query, db).same_as(expected), sql


def memo_of(db, table="T"):
    return dict(db.table(table)._scan_builds or {})


def test_one_table_joined_on_two_columns_in_one_plan(single_use):
    db = memo_db()
    assert_formal(single_use(), TWO_COLUMN_JOIN_SQL, db)
    assert set(memo_of(db)) == {("hash", (0,)), ("hash", (1,))}
    assert_formal(single_use(), TWO_COLUMN_JOIN_SQL, db)  # both hit


def test_single_use_statements_over_one_database(single_use):
    """Each statement builds under its own signature, and reads back
    nothing another statement built: run forwards, then backwards, every
    answer the formal semantics'."""
    db = memo_db()
    for sql in MEMO_SQL + MEMO_SQL[::-1]:
        assert_formal(single_use(), sql, db)
    assert len(memo_of(db)) == 9  # EXISTS' key set is the flat IN's set


def test_databases_with_the_same_table_names_keep_their_own_builds(single_use):
    other = {
        "R": MEMO_CONTENT["R"],
        "T": [(2, 5), (5, 2), (NULL, 2), (3, 3)],
    }
    first, second = memo_db(), memo_db(other)
    for sql in MEMO_SQL:
        assert_formal(single_use(), sql, first)
        assert_formal(single_use(), sql, second)
    assert memo_of(first).keys() == memo_of(second).keys()
    for signature, build in memo_of(first).items():
        assert memo_of(second)[signature] is not build


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT R.A, T.C FROM R, T WHERE R.A = T.C",
        "SELECT R.A, T.C FROM R, T WHERE R.A = T.C AND R.B = T.D",
        "SELECT R.A FROM R WHERE R.A NOT IN (SELECT T.C FROM T)",
        "SELECT R.A FROM R WHERE R.A IN (SELECT T.C FROM T)",
    ],
)
def test_null_keys_on_both_sides_hit_and_miss(single_use, sql):
    # NULL keys in every position of both tables, single and composite.
    content = {
        "R": [(1, 2), (NULL, 2), (1, NULL), (NULL, NULL), (3, 4)],
        "T": [(1, 2), (NULL, 2), (1, NULL), (NULL, NULL), (3, 4), (1, 2)],
    }
    db = memo_db(content)
    assert_formal(single_use(), sql, db)  # miss: builds
    assert memo_of(db)
    assert_formal(single_use(), sql, db)  # hit: reads the build back


def test_probe_sets_over_a_projected_scan(single_use):
    """Flat, grouped and ``NOT IN``-with-NULL probe sets over ``π(T)``:
    each one is memoized under its shape, and built once."""
    db = memo_db()
    cases = {
        "SELECT R.A FROM R WHERE R.A IN (SELECT T.C FROM T)": ("probe", 0, 1, (0,)),
        "SELECT R.A FROM R WHERE R.B IN (SELECT T.D FROM T WHERE T.C = R.A)": (
            "probe", 1, 2, (0, 1),
        ),
        "SELECT R.A FROM R WHERE R.A NOT IN (SELECT T.D FROM T)": ("probe", 0, 1, (1,)),
    }
    for sql, signature in cases.items():
        assert_formal(single_use(), sql, db)
        assert signature in memo_of(db)
        build = memo_of(db)[signature]
        assert_formal(single_use(), sql, db)
        assert memo_of(db)[signature] is build
    # The NOT IN set holds a NULL: no R.A survives it.
    assert memo_of(db)[("probe", 0, 1, (1,))][1] == ((None,),)


@pytest.mark.parametrize("codegen", [True, False], ids=["codegen", "codegen-off"])
def test_hand_installed_scan_rows_do_not_read_the_memo(codegen):
    """Rows put on a ``TableScan`` by hand, not by ``bind_plan``, are the
    build's input, whatever the bound table has memoized."""
    from repro.engine.binding import bind_plan
    from repro.engine.operators import (
        HashJoin,
        ProjectOp,
        SemiJoinProbe,
        StaticScan,
        FilterOp,
    )
    from repro.engine.expressions import ColumnRef

    db = memo_db()
    scan = TableScan("T", 2)
    join = HashJoin(StaticScan([(1,), (3,), (5,)], arity=1), scan, (0,), (0,))
    probe = SemiJoinProbe(
        [ColumnRef(0, 0)], ProjectOp(TableScan("T", 2), [ColumnRef(0, 0)]), False
    )
    filtered = FilterOp(StaticScan([(1,), (3,), (5,)], arity=1), probe)

    def run(plan):
        return Counter(run_rows(plan, codegen=codegen))

    bind_plan(join, db)
    assert run(join) == Counter({(1, 1, 2): 2, (3, 3, None): 1, (3, 3, 4): 1})
    bind_plan(filtered, db)
    assert run(filtered) == Counter([(1,), (3,)])
    assert ("hash", (0,)) in memo_of(db) and ("probe", 0, 1, (0,)) in memo_of(db)
    # After binding: the scan's memo tuple no longer matches its rows.
    bind_plan(join, db)
    scan.data = [(5, 9)]
    assert run(join) == Counter([(5, 5, 9)])
    bind_plan(filtered, db)
    probe.subplan.child.data = [(5, 9)]
    assert run(filtered) == Counter([(5,)])
    # Never bound: no memo tuple at all.
    fresh = TableScan("T", 2, data=[(3, 7)])
    assert run(HashJoin(StaticScan([(3,)], arity=1), fresh, (0,), (0,))) == Counter(
        [(3, 3, 7)]
    )


@pytest.mark.parametrize("codegen", [True, False], ids=["codegen", "codegen-off"])
def test_build_rows_equal_on_hit_and_miss(codegen):
    from repro.engine.binding import bind_plan
    from repro.engine.operators import HashJoin, StaticScan

    db = memo_db()
    join = HashJoin(StaticScan([(1,), (3,)], arity=1), TableScan("T", 2), (0,), (0,))
    seen = []
    for _ in range(2):
        bind_plan(join, db)  # resets the per-execution table
        rows = run_rows(join, codegen=codegen)
        seen.append((Counter(rows), join._build_rows, join._table))
    (rows, miss, built), (again, hit, restored) = seen
    assert rows == again and restored is built
    # T's rows whose key is NULL-free.
    assert miss == hit == sum(1 for c, _d in MEMO_CONTENT["T"] if c is not NULL)


def test_second_single_use_query_builds_nothing(single_use, monkeypatch):
    from repro.engine import operators

    builds = []
    real = operators._partition

    def spy(rows, key_of, composite):
        builds.append(len(rows))
        return real(rows, key_of, composite)

    monkeypatch.setattr(operators, "_partition", spy)
    sql = "SELECT R.A, T.D FROM R, T WHERE R.A = T.C"
    db = memo_db()
    assert_formal(single_use(), sql, db)
    assert builds == [len(MEMO_CONTENT["T"])]
    assert_formal(single_use(), sql, db)
    assert len(builds) == 1
    # A new Database with equal contents: its own tables, its own build.
    assert_formal(single_use(), sql, memo_db())
    assert len(builds) == 2


def test_threads_racing_on_one_table_memo_all_answer_right():
    """Builds race benignly: two threads that miss together build equal
    values, and whichever lands in the memo, every answer is exact."""
    import threading

    from repro.semantics import SqlSemantics

    db = memo_db()
    queries = [annotate(sql, MEMO_SCHEMA) for sql in MEMO_SQL]
    expected = [SqlSemantics(MEMO_SCHEMA).run(query, db) for query in queries]
    wrong = []

    def work(offset):
        for round_ in range(20):
            for i in range(len(queries)):
                i = (i + offset) % len(queries)
                engine = Engine(MEMO_SCHEMA, plan_cache_size=0, build_cache_size=0)
                if not engine.execute(queries[i], db).same_as(expected[i]):
                    wrong.append(MEMO_SQL[i])
            if round_ % 5 == 4:
                db.table("T")._scan_builds = None  # race the dict's creation too

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
