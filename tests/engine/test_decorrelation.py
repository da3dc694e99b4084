"""Set-at-a-time subquery predicates: equality-correlated EXISTS/IN as keyed
probes, checked against the formal semantics of Figures 5-7.

Every case runs on both dialects, on every execution tier, cold and with
the plan and build-side caches hot, and must produce the table the formal
semantics produces — the naive engine is only a second witness.
"""

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.engine.operators import build_probe_index
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from repro.sql import annotate

from ..properties.decorrelation import keyed_probe_count

SCHEMA = Schema({"R": ("A", "B"), "S": ("A", "B"), "T": ("C", "D")})

CONTENT = {
    # Outer keys: a match, NULL, a key the inner side lacks, a string key,
    # the number spelled like that string, and a key whose group holds NULL.
    "R": [(1, 2), (NULL, 4), (3, 2), ("1", 2), (5, "x"), (7, NULL), (9, 9), (1, 2)],
    # Inner keys: duplicates, NULL keys, NULL values inside a group.
    "S": [(1, 2), (1, 2), (1, 3), (NULL, 4), (NULL, NULL), ("1", 2), (5, "x"), (7, NULL), (7, 7)],
    "T": [(2, 1), (2, NULL), (5, 3), (4, 7)],
}

VARIANTS = [
    (DIALECT_POSTGRES, STAR_COMPOSITIONAL),
    (DIALECT_ORACLE, STAR_STANDARD),
]

TIERS = [
    {},
    {"compiled": False},
    {"plan_cache_size": 0},
]

#: (sql, decorrelated probes expected in the plan)
CASES = [
    # NULL in the outer key, NULL in the inner key: neither ever matches.
    ("SELECT R.A FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A = R.A)", 1),
    # NOT EXISTS keeps the NULL-key rows: EXISTS is two-valued.
    ("SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.B FROM S WHERE S.A = R.A)", 1),
    ("SELECT R.A FROM R WHERE NOT (NOT EXISTS (SELECT S.B FROM S WHERE R.A = S.A))", 1),
    # ... also where unknown and false differ: under OR with an unknown.
    (
        "SELECT R.A FROM R WHERE NOT (EXISTS (SELECT S.B FROM S WHERE S.A = R.A) "
        "OR R.B = 2)",
        1,
    ),
    # Correlated IN / NOT IN: the 3VL fold over the key's group only.
    ("SELECT R.A, R.B FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)", 1),
    # Group of key 7 holds a NULL value: NOT IN is unknown there, and
    # true for keys without a group (3, 9) and for the NULL key.
    ("SELECT R.A, R.B FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)", 1),
    # NULL on the left of a correlated IN: unknown iff the group is non-empty.
    ("SELECT R.A FROM R WHERE NOT (R.B IN (SELECT S.B FROM S WHERE S.A = R.A))", 1),
    # An empty group because the local conjunct removes it.
    (
        "SELECT R.A FROM R WHERE R.B NOT IN "
        "(SELECT S.B FROM S WHERE S.A = R.A AND S.B = 100)",
        1,
    ),
    # A literal on the left, and a two-column IN under a one-column key.
    ("SELECT R.A FROM R WHERE 2 IN (SELECT S.B FROM S WHERE S.A = R.A)", 1),
    (
        "SELECT R.A FROM R WHERE (R.B, 2) NOT IN "
        "(SELECT S.B, S.B FROM S WHERE S.A = R.A)",
        1,
    ),
    # Two-column correlation, EXISTS and IN.
    ("SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A = R.A AND S.B = R.B)", 1),
    (
        "SELECT R.A FROM R WHERE R.A NOT IN "
        "(SELECT S.A FROM S WHERE S.A = R.A AND R.B = S.B)",
        1,
    ),
    # The same outer column against two inner columns.
    ("SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A AND S.B = R.A)", 1),
    # SELECT * under EXISTS (a constant in the Oracle dialect), DISTINCT body.
    ("SELECT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.A = R.A)", 1),
    ("SELECT R.A FROM R WHERE EXISTS (SELECT DISTINCT S.B FROM S WHERE S.A = R.A)", 1),
    ("SELECT R.A FROM R WHERE R.B IN (SELECT DISTINCT S.B FROM S WHERE S.A = R.A)", 1),
    # A FROM-subquery and a join inside the body.
    (
        "SELECT R.A FROM R WHERE EXISTS (SELECT U.X FROM "
        "(SELECT S.A AS X, S.B AS Y FROM S WHERE S.B IS NOT NULL) AS U, T "
        "WHERE U.X = R.A AND T.C = U.Y)",
        1,
    ),
    # A closed subquery inside the local remainder.
    (
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A "
        "AND S.B IN (SELECT T.C FROM T))",
        1,
    ),
    # Nested: the inner probe's probing row is the middle query's row.
    (
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A AND "
        "NOT EXISTS (SELECT T.C FROM T WHERE T.C = S.B))",
        2,
    ),
    # The probing row is a join row.
    (
        "SELECT R.A, T.C FROM R, T WHERE R.B = T.C AND "
        "EXISTS (SELECT S.A FROM S WHERE S.A = R.A AND S.B = T.C)",
        1,
    ),
    # Uncorrelated IN through the same kernel: one column, two columns,
    # a NULL on either side, a literal on the left.
    ("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", 0),
    ("SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S WHERE S.A IS NOT NULL)", 0),
    ("SELECT R.A FROM R WHERE R.B NOT IN (SELECT T.C FROM T)", 0),
    ("SELECT R.A FROM R WHERE NOT (R.B NOT IN (SELECT T.D FROM T))", 0),
    ("SELECT R.A FROM R WHERE (R.A, R.B) IN (SELECT S.A, S.B FROM S)", 0),
    ("SELECT R.A FROM R WHERE NOT ((R.A, R.B) NOT IN (SELECT S.A, S.B FROM S))", 0),
    ("SELECT R.A FROM R WHERE 7 NOT IN (SELECT S.B FROM S WHERE S.A = 1)", 0),
    ("SELECT R.A FROM R WHERE R.B IN (SELECT S.B FROM S WHERE 1 = 2)", 0),
    # Shapes that stay on the memo path.
    ("SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A <> R.B)", 0),
    ("SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A OR S.B = 3)", 0),
    ("SELECT R.A FROM R WHERE R.B IN (SELECT R.A FROM S WHERE S.A = R.A)", 0),
]


def make_db(content=CONTENT):
    return Database(SCHEMA, {name: list(rows) for name, rows in content.items()})


@pytest.mark.parametrize("dialect,star_style", VARIANTS)
@pytest.mark.parametrize("sql,probes", CASES)
def test_every_tier_agrees_with_the_formal_semantics(dialect, star_style, sql, probes):
    query = annotate(sql, SCHEMA)
    db = make_db()
    expected = SqlSemantics(SCHEMA, star_style=star_style).run(query, db)
    naive = Engine(SCHEMA, dialect, optimize=False).execute(query, db)
    assert naive.same_as(expected)
    for options in TIERS:
        engine = Engine(SCHEMA, dialect, **options)
        assert keyed_probe_count(engine._plan(query).plan) == probes, options
        # Cold, then harvesting, then restored from the build-side cache.
        for _ in range(3):
            assert engine.execute(query, make_db()).same_as(expected), options


def test_expected_rows_of_the_null_cases():
    """The answers themselves, so the oracle and the engine cannot both
    drift: NULL keys on either side never match, NOT EXISTS keeps them."""
    engine = Engine(SCHEMA)
    db = make_db()

    def rows(sql):
        return sorted(engine.execute(annotate(sql, SCHEMA), db).bag, key=repr)

    assert rows(CASES[0][0]) == sorted([(1,), (1,), ("1",), (5,), (7,)], key=repr)
    assert rows(CASES[1][0]) == sorted([(NULL,), (3,), (9,)], key=repr)
    # NOT IN: group of 1 is {2, 3}, of '1' is {2}, of 5 is {'x'} — all hit;
    # group of 7 is {NULL, 7} — unknown for R.B = NULL; 3, 9, NULL: no group.
    assert rows(CASES[5][0]) == sorted([(NULL, 4), (3, 2), (9, 9)], key=repr)


def test_string_and_number_keys_never_meet():
    for width, key_width in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        rows = [(1,) * width, ("1",) * width]
        index, null_rows = build_probe_index(iter(rows), key_width, width)
        assert len(index) == 2 and null_rows == ()


def test_exists_and_in_over_one_subquery_share_one_build_side():
    """The signature is the closed remainder's, not the probing
    statement's: a two-valued EXISTS and a 3VL IN reuse one entry."""
    engine = Engine(SCHEMA)
    db = make_db()
    exists = annotate(
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A = R.A AND S.B <> 3)",
        SCHEMA,
    )
    isin = annotate(
        "SELECT R.B FROM R WHERE R.B NOT IN (SELECT S.A FROM S WHERE S.B <> 3)", SCHEMA
    )
    engine.execute(exists, db)
    engine.execute(exists, db)  # second bind: harvested
    before = engine.build_cache_info()
    engine.execute(isin, db)
    after = engine.build_cache_info()
    assert after["cross_hits"] == before["cross_hits"] + 1
    assert after["entries"] == before["entries"]
