"""Set-up shared by the workloads over the library database, and the oracle.

The database is ``library_scenario`` synthesized from the run's seed, then
exported to a SQLite file and imported back, because that round trip is how
a real database reaches this system.  The independent oracle is stdlib
``sqlite3`` loaded with the same rows.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from obs_common import multiset_digest

from repro.ingest import export_sqlite, import_scenario
from repro.ingest.demo import library_scenario
from repro.sql import annotate
from repro.validation.live import load_scenario, translate_query

#: Layer metrics every library-backed workload reports for its set-up.
INGEST_METRICS = (
    "ingest.synth_s",
    "ingest.export_s",
    "ingest.import_s",
    "validation.sqlite_load_s",
)


class LibraryData:
    """The imported scenario, its SQLite file, and the loaded oracle."""

    def __init__(self, rows: int, seed: int, workdir: Path):
        self.timings: Dict[str, float] = {}
        started = time.perf_counter()
        synthesized = library_scenario(rows, seed=seed)
        self.timings["ingest.synth_s"] = time.perf_counter() - started

        self.path = str(workdir / f"library-{rows}-{seed}.sqlite")
        started = time.perf_counter()
        export_sqlite(synthesized, self.path)
        self.timings["ingest.export_s"] = time.perf_counter() - started

        started = time.perf_counter()
        self.scenario = import_scenario(self.path, sample_rows=0)
        self.timings["ingest.import_s"] = time.perf_counter() - started

        started = time.perf_counter()
        self.conn = sqlite3.connect(":memory:")
        load_scenario(self.conn, self.scenario)
        self.timings["validation.sqlite_load_s"] = time.perf_counter() - started

    @property
    def schema(self):
        return self.scenario.schema

    @property
    def database(self):
        return self.scenario.database

    @property
    def domain(self) -> int:
        """Exclusive upper end of the synthesizer's non-key integer columns
        (``year``, ``due``, ``joined``, ``copies``), as ``library_scenario``
        sizes it."""
        return max(16, self.scenario.total_rows // 16)

    def rows_of(self, table: str) -> int:
        return len(self.database.table(table))

    def close(self) -> None:
        self.conn.close()


class Oracle:
    """Expected result digests from ``sqlite3``, one per distinct statement.

    ``canary`` hands the gate one deliberately wrong row, to show that the
    gate can fail.
    """

    def __init__(self, data: LibraryData, canary: bool = False):
        self.data = data
        self.canary = canary
        self.sqlite_s = 0.0

    def sqlite_text(self, sql: str) -> str:
        return translate_query(annotate(sql, self.data.schema))

    def rows(self, sql: str) -> List[tuple]:
        text = self.sqlite_text(sql)
        started = time.perf_counter()
        rows = self.data.conn.execute(text).fetchall()
        self.sqlite_s += time.perf_counter() - started
        return rows

    def digest(self, sql: str) -> str:
        rows: List[Sequence[object]] = self.rows(sql)
        if self.canary:
            self.canary = False
            rows = rows + [tuple([-1] * (len(rows[0]) if rows else 1))]
        return multiset_digest(rows)

    def digests(self, statements: Iterable[str]) -> Dict[str, str]:
        return {sql: self.digest(sql) for sql in dict.fromkeys(statements)}


def check_results(
    result, expected: Dict[str, str], observed: Iterable[tuple], what: str
) -> None:
    """Count every observed ``(key, digest)`` that differs from the oracle."""
    for key, digest in observed:
        if expected.get(key) != digest:
            result.fail(1, f"{what}: wrong result for {key[:160]}")


def inline(sql: str, params: Sequence[int]) -> str:
    """``sql`` with each ``$k`` replaced by its integer literal."""
    for index in range(len(params), 0, -1):
        sql = sql.replace(f"${index}", str(params[index - 1]))
    return sql
