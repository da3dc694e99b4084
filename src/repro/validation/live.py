"""Differential testing against a *live* DBMS: SQLite via the stdlib.

This is the paper's actual methodology pointed at a real engine: generate a
query, run it through the repository's implementations *and* through
``sqlite3``, and compare result bags.  Because SQLite's dialect is not the
paper's fragment, disagreement does not always mean a bug — the module's
job is to separate the three possible verdicts:

* **agree** — same bag of rows (3VL-aware: Python ``None`` ↔ ``NULL``);
* **classified divergence** — a *known, documented* dialect gap, reported
  with its class name (:data:`DIVERGENCE_CLASSES`) and counted separately;
* **mismatch** — an unclassified disagreement.  This is the signal the
  campaign exists to surface; CI gates on it being zero.

Known divergence classes
------------------------

``sqlite-no-bag-setop``
    SQLite has no ``INTERSECT ALL`` / ``EXCEPT ALL`` (bag set operations).
    Detected at translation time; the query never reaches SQLite.
``sqlite-no-from-column-aliases``
    SQLite rejects ``FROM (…) AS T(A, B)`` column aliasing (a construct the
    Figure 10 translation emits).  Also detected at translation time.
``dialect-ambiguity``
    Under the ``oracle`` variant the repository rejects ambiguous
    ``SELECT *`` output columns at compile time (as Oracle does); SQLite
    happily executes the query.
``dialect-type-order``
    The repository's ordered comparisons (``<`` etc.) reject int-vs-text
    operands as a compile-time type clash (as PostgreSQL does); SQLite
    orders values by storage class instead and returns rows.
``sqlite-limit``
    SQLite resource limits (expression-tree depth, parser stack, compound
    SELECT width) that the repository's evaluators do not share.

Comparison is by **bag**, not by column name: SQLite's ``description``
names follow its own aliasing rules and differ harmlessly from ℓ(Q).  Arity
still must match.  The repository's engine-vs-semantics comparison inside
the same trial keeps the full Section 4 criterion (names and order).
"""

from __future__ import annotations

import random
import sqlite3
import time
from collections import Counter
from typing import Dict, Iterable, Optional, Tuple

from .. import faults
from ..core.values import NULL, Null
from ..engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from ..ingest.generator import (
    ScenarioGenerator,
    ScenarioGeneratorConfig,
    config_for_scenario,
)
from ..ingest.scenario import Scenario
from ..semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from ..sql.ast import Query, Select, SetOp
from ..sql.printer import print_query
from ..sql.typecheck import check_query
from .compare import ERROR_AMBIGUOUS, ERROR_COMPILE, capture

__all__ = [
    "DIVERGENCE_CLASSES",
    "DialectGapError",
    "translate_query",
    "load_scenario",
    "classify_repro_error",
    "classify_sqlite_error",
    "LiveSqliteRunner",
]

DIVERGENCE_CLASSES = (
    "sqlite-no-bag-setop",
    "sqlite-no-from-column-aliases",
    "dialect-ambiguity",
    "dialect-type-order",
    "sqlite-limit",
)

#: Messages of SQLite resource-limit errors (class ``sqlite-limit``),
#: matched case-insensitively.
_SQLITE_LIMIT_MARKS = (
    "parser stack overflow",
    "expression tree is too large",
    "too many terms in compound select",
    "too many from clause terms",
)


class DialectGapError(Exception):
    """A query uses a construct SQLite cannot express; carries its class."""

    def __init__(self, divergence_class: str, message: str):
        super().__init__(message)
        self.divergence_class = divergence_class


# -- translation ---------------------------------------------------------------


def _scan_gaps(query: Query) -> None:
    if isinstance(query, SetOp):
        if query.all and query.op in ("INTERSECT", "EXCEPT"):
            raise DialectGapError(
                "sqlite-no-bag-setop",
                f"SQLite has no {query.op} ALL",
            )
        _scan_gaps(query.left)
        _scan_gaps(query.right)
        return
    assert isinstance(query, Select)
    for item in query.from_items:
        if item.column_aliases is not None:
            raise DialectGapError(
                "sqlite-no-from-column-aliases",
                f"SQLite rejects column aliases on FROM item {item.alias}",
            )
        if not item.is_base_table:
            _scan_gaps(item.table)
    _scan_condition_gaps(query.where)


def _scan_condition_gaps(condition) -> None:
    for attr in ("left", "right", "operand"):
        sub = getattr(condition, attr, None)
        if sub is not None and not isinstance(sub, (int, str)):
            _scan_condition_gaps(sub)
    sub_query = getattr(condition, "query", None)
    if sub_query is not None:
        _scan_gaps(sub_query)


def translate_query(query: Query) -> str:
    """SQLite SQL for a fully-annotated query of the validated fragment.

    The surface syntax is the ``postgres`` printing (SQLite understands
    ``EXCEPT``, not ``MINUS``); constructs SQLite cannot express raise
    :class:`DialectGapError` with their divergence class.
    """
    _scan_gaps(query)
    return print_query(query, "postgres")


# -- loading -------------------------------------------------------------------


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def load_scenario(conn: sqlite3.Connection, scenario: Scenario) -> None:
    """Create and fill the scenario's tables.

    Columns are declared **without** a type, giving them BLOB affinity: no
    coercion on insert, so SQLite stores exactly the ints and strings the
    repository's evaluators see and comparisons behave identically on both
    sides.
    """
    for name in scenario.schema.table_names:
        attrs = scenario.schema.attributes(name)
        conn.execute(
            f"CREATE TABLE {_quote(name)} "
            f"({', '.join(_quote(a) for a in attrs)})"
        )
        table = scenario.database.table(name)
        conn.executemany(
            f"INSERT INTO {_quote(name)} VALUES "
            f"({', '.join('?' for _ in attrs)})",
            (
                tuple(None if isinstance(v, Null) else v for v in record)
                for record in table.bag
            ),
        )


# -- classification ------------------------------------------------------------


def classify_repro_error(error: str, detail: str) -> Optional[str]:
    """The divergence class when the repository errors but SQLite runs."""
    if error == ERROR_AMBIGUOUS:
        return "dialect-ambiguity"
    if error == ERROR_COMPILE and "type clash" in detail:
        return "dialect-type-order"
    return None


#: Messages of *transient* SQLite errors, worth retrying: they come from
#: contention, not from the query, so a bounded retry either clears them
#: (restoring the fault-free outcome) or gives up with the error.
_SQLITE_TRANSIENT_MARKS = ("database is locked", "database table is locked")


def _is_transient(exc: sqlite3.OperationalError) -> bool:
    if isinstance(exc, faults.InjectedFault):
        return True
    message = str(exc).lower()
    return any(mark in message for mark in _SQLITE_TRANSIENT_MARKS)


def classify_sqlite_error(exc: sqlite3.Error) -> Optional[str]:
    """The divergence class when SQLite errors but the repository runs."""
    message = str(exc).lower()
    if any(mark in message for mark in _SQLITE_LIMIT_MARKS):
        return "sqlite-limit"
    return None


# -- bag comparison ------------------------------------------------------------


def _normalize(rows: Iterable[Tuple]) -> Counter:
    return Counter(
        tuple(NULL if value is None else value for value in row) for row in rows
    )


def bags_match(table, sqlite_rows) -> bool:
    """Same multiset of rows, after ``None`` → ``NULL`` normalization."""
    return table.bag.counts() == _normalize(sqlite_rows)


# -- the runner ----------------------------------------------------------------


class LiveSqliteRunner:
    """Per-trial comparator: repository engine (+semantics) vs live SQLite.

    ``variant`` selects the dialect pairing exactly as
    :class:`~repro.validation.runner.ValidationRunner` does.  When the
    scenario is small enough (``total_rows <= semantics_limit``) the formal
    semantics joins the comparison as a third side; above that the
    product-shaped evaluator is infeasible and the trial is engine-vs-SQLite
    only.
    """

    def __init__(
        self,
        scenario: Scenario,
        variant: str = "postgres",
        generator_config: Optional[ScenarioGeneratorConfig] = None,
        semantics_limit: int = 64,
        transient_retries: int = 2,
    ):
        if variant not in ("postgres", "oracle"):
            raise ValueError(f"unknown variant {variant!r}")
        self.scenario = scenario
        self.variant = variant
        self.transient_retries = max(0, int(transient_retries))
        self.generator_config = (
            generator_config
            if generator_config is not None
            else config_for_scenario(scenario)
        )
        if variant == "postgres":
            self.star_style = STAR_COMPOSITIONAL
            dialect = DIALECT_POSTGRES
        else:
            self.star_style = STAR_STANDARD
            dialect = DIALECT_ORACLE
        # Fresh query every trial: the plan cache can never hit (see the
        # identical setting in ValidationRunner).  Unlike there, plans over
        # an imported database bind thousands of rows, so the engine's
        # size rule generates code for them (2-3x on a 10,000-row
        # scenario); on a scenario small enough for the semantics side
        # they keep their predicate objects.
        self.engine = Engine(scenario.schema, dialect, plan_cache_size=0)
        self.use_semantics = scenario.total_rows <= semantics_limit
        self.semantics = (
            SqlSemantics(scenario.schema, star_style=self.star_style)
            if self.use_semantics
            else None
        )
        self.conn = sqlite3.connect(":memory:")
        load_scenario(self.conn, self.scenario)
        self.label = f"live-sqlite[{variant}]"

    def close(self) -> None:
        self.conn.close()

    # -- trial ------------------------------------------------------------------

    def run_trial(self, seed: int) -> Dict[str, object]:
        from ..campaigns.backends import (
            CODE_AGREE,
            CODE_AGREE_BOTH_ERROR,
            CODE_CLASSIFIED,
            CODE_MISMATCH,
        )

        started = time.perf_counter()
        generator = ScenarioGenerator(
            self.scenario, self.generator_config, random.Random(seed)
        )
        query = generator.generate()

        def engine_side():
            check_query(query, self.scenario.schema, star_style=self.star_style)
            return self.engine.execute(query, self.scenario.database)

        engine_outcome = capture(engine_side)

        def record(code: int, **extra) -> Dict[str, object]:
            out: Dict[str, object] = {"seed": seed, "code": code}
            out.update(extra)
            out["ms"] = round((time.perf_counter() - started) * 1e3, 3)
            return out

        # Internal three-way leg first: our own implementations must agree
        # unconditionally — any gap here is a bug, never a dialect artifact.
        if self.semantics is not None:
            def semantics_side():
                check_query(
                    query, self.scenario.schema, star_style=self.star_style
                )
                return self.semantics.run(query, self.scenario.database)

            semantics_outcome = capture(semantics_side)
            if not semantics_outcome.agrees_with(engine_outcome):
                return record(
                    CODE_MISMATCH,
                    detail=(
                        "semantics vs engine disagree: "
                        f"{print_query(query)}"
                    ),
                )

        # SQLite leg.
        try:
            sql = translate_query(query)
        except DialectGapError as gap:
            return record(
                CODE_CLASSIFIED, **{"class": gap.divergence_class}
            )
        sqlite_rows = None
        sqlite_error: Optional[sqlite3.Error] = None
        # A transient OperationalError (the shape of "database is locked",
        # or an injected fault) is retried a bounded number of times: the
        # trial's outcome stays a pure function of its seed because a
        # retry that succeeds yields exactly the fault-free result, and a
        # *deterministic* error reproduces identically on every retry.
        for attempt in range(self.transient_retries + 1):
            sqlite_error = None
            try:
                if faults.fire("live.transient"):
                    raise faults.InjectedOperationalError(
                        "injected transient sqlite error"
                    )
                cursor = self.conn.execute(sql)
                sqlite_rows = cursor.fetchall()
                sqlite_arity = len(cursor.description)
                break
            except sqlite3.OperationalError as exc:
                sqlite_error = exc
                if attempt < self.transient_retries and _is_transient(exc):
                    continue
                break
            except sqlite3.Error as exc:
                sqlite_error = exc
                break

        if engine_outcome.is_error and sqlite_error is not None:
            return record(CODE_AGREE_BOTH_ERROR)
        if engine_outcome.is_error:
            divergence = classify_repro_error(
                engine_outcome.error, engine_outcome.detail
            )
            if divergence is not None:
                return record(CODE_CLASSIFIED, **{"class": divergence})
            return record(
                CODE_MISMATCH,
                detail=(
                    f"repro raised {engine_outcome.error} "
                    f"({engine_outcome.detail}) but SQLite returned "
                    f"{len(sqlite_rows)} row(s): {sql}"
                ),
            )
        if sqlite_error is not None:
            divergence = classify_sqlite_error(sqlite_error)
            if divergence is not None:
                return record(CODE_CLASSIFIED, **{"class": divergence})
            return record(
                CODE_MISMATCH,
                detail=(
                    f"SQLite raised {type(sqlite_error).__name__} "
                    f"({sqlite_error}) but repro returned "
                    f"{len(engine_outcome.table)} row(s): {sql}"
                ),
            )

        table = engine_outcome.table
        if table.arity != sqlite_arity:
            return record(
                CODE_MISMATCH,
                detail=(
                    f"arity differs: repro {table.arity} vs "
                    f"SQLite {sqlite_arity}: {sql}"
                ),
            )
        if not bags_match(table, sqlite_rows):
            return record(
                CODE_MISMATCH,
                detail=(
                    f"row bags differ ({len(table)} vs "
                    f"{len(sqlite_rows)} rows): {sql}"
                ),
            )
        return record(CODE_AGREE)
