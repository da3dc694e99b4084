"""Gate the gate: with one executor, the formal semantics must catch an
operator bug on its own.

Every plan runs through the closures of :mod:`repro.engine.compile`, so the
engine legs of a battery no longer check one implementation of an operator
against another: a bug in an operator's one implementation is in every
engine at once, the naive one included wherever it shares the operator.  The
comparison with the formal semantics has to carry the operator check by
itself.  Three bugs, seeded into the shipped source:

* (a) ``EXCEPT ALL`` inverts its right-count test, cancelling a left row
  where the right side has no copy left and emitting it where it has one;
* (b) the leapfrog step of ``GenericJoin._solve`` probes only the first of
  the other children a join variable involves;
* (c) ``INTERSECT`` (distinct) never records what it emitted.

Each must trip a leg that compares the default engine with the formal
semantics and nothing else: fixed set-operation shapes over the
duplicate-heavy instances of ``joins.py`` for (a) and (c) — the random
mixes' WHERE clauses keep so few rows that an ``INTERSECT`` rarely sees a
duplicate — and the join workload of ``joins.py`` for (b).  The legs run
green in tier-1 as a gate of their own.  A gate no bug can trip would be
gating nothing.
"""

import inspect
import textwrap

import pytest

from repro.engine import DIALECT_POSTGRES, Engine
from repro.engine import compile as compile_module
from repro.engine import operators
from repro.semantics import STAR_COMPOSITIONAL, SqlSemantics
from repro.sql import annotate
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

from .joins import CYCLIC_SCHEMA, cyclic_db, join_pairs

#: Every set operation, with and without ALL, flat and under IN.
SETOP_SQL = (
    "SELECT R.A FROM R UNION SELECT S.A FROM S",
    "SELECT R.A FROM R UNION ALL SELECT S.A FROM S",
    "SELECT R.A FROM R INTERSECT SELECT S.A FROM S",
    "SELECT R.A, R.B FROM R INTERSECT SELECT S.B, S.A FROM S",
    "SELECT R.B FROM R INTERSECT ALL SELECT T.A FROM T",
    "SELECT R.A FROM R EXCEPT SELECT S.A FROM S",
    "SELECT R.A FROM R EXCEPT ALL SELECT S.A FROM S",
    "SELECT R.A, R.B FROM R EXCEPT ALL SELECT T.A, T.B FROM T",
    "SELECT U.A FROM U WHERE U.B IN (SELECT S.A FROM S INTERSECT SELECT T.A FROM T)",
)


def setop_pairs(databases=40):
    """``(label, query, db)``: every set-operation shape over each of
    ``databases`` of the join workload's instances."""
    queries = [annotate(sql, CYCLIC_SCHEMA) for sql in SETOP_SQL]
    return (
        (f"query {q} db {s}", query, cyclic_db(s))
        for s in range(databases)
        for q, query in enumerate(queries)
    )


#: leg name -> its ``(label, query, db)`` workload over ``CYCLIC_SCHEMA``.
LEGS = {"set operations": setop_pairs, "joins": join_pairs}


def oracle_disagreements(leg):
    """The pairs of ``leg`` on which the default engine and the formal
    semantics disagree; an error the engine lets escape counts too."""
    engine = Engine(CYCLIC_SCHEMA, DIALECT_POSTGRES)
    semantics = SqlSemantics(CYCLIC_SCHEMA, star_style=STAR_COMPOSITIONAL)
    failures = []
    for label, query, db in LEGS[leg]():

        def oracle():
            check_query(query, CYCLIC_SCHEMA, star_style=STAR_COMPOSITIONAL)
            return semantics.run(query, db)

        try:
            fast = capture(lambda: engine.execute(query, db))
        except Exception as exc:
            failures.append(f"{label}: engine raised {type(exc).__name__}")
            continue
        if not fast.agrees_with(capture(oracle)):
            failures.append(f"{label}: engine vs semantics differ")
    return failures


def mutated(function, old, new):
    """``function`` recompiled from its own source with the one occurrence
    of ``old`` replaced by ``new``, over its module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec")
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def except_all_count_inverted(monkeypatch):
    """Seeded bug (a)."""
    buggy = mutated(
        compile_module._compile_hash_setop,
        "if right_counts[row] > 0:",
        "if not right_counts[row] > 0:",
    )
    monkeypatch.setattr(compile_module, "_compile_hash_setop", buggy)


def leapfrog_probes_one_child(monkeypatch):
    """Seeded bug (b)."""
    buggy = mutated(
        operators.GenericJoin._solve,
        "rest = [c for c in involved if c != smallest]",
        "rest = [c for c in involved if c != smallest][:1]",
    )
    monkeypatch.setattr(operators.GenericJoin, "_solve", buggy)


def intersect_forgets_emitted(monkeypatch):
    """Seeded bug (c)."""
    buggy = mutated(
        compile_module._compile_hash_setop,
        "if row in right_rows and row not in emitted:\n"
        "                    emitted.add(row)",
        "if row in right_rows and row not in emitted:\n"
        "                    pass",
    )
    monkeypatch.setattr(compile_module, "_compile_hash_setop", buggy)


#: bug -> the oracle leg that must catch it.
BUGS = {
    except_all_count_inverted: "set operations",
    leapfrog_probes_one_child: "joins",
    intersect_forgets_emitted: "set operations",
}


def test_oracle_legs_are_green_without_a_seeded_bug():
    for leg in LEGS:
        assert oracle_disagreements(leg) == [], leg


@pytest.mark.parametrize("seed_bug", BUGS)
def test_seeded_operator_bug_trips_the_oracle_leg(seed_bug, monkeypatch):
    seed_bug(monkeypatch)
    failures = oracle_disagreements(BUGS[seed_bug])
    # Several pairs see it: a lone detection would be one generator tweak
    # away from none.
    assert len(failures) >= 3, failures
