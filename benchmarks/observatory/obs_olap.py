"""``engine_olap``: the library user's path, in process, with no transport.

Nine statement classes over the library database, many distinct literals
each, shuffled, every distinct query executed twice non-adjacently: the
first execution misses the plan cache (plan, optimize, compile, bind,
execute) and the second hits it, and join build sides are shareable across
literals.
"""

from __future__ import annotations

import random
import time
from statistics import fmean, median
from typing import Dict, List, Optional, Tuple

from obs_common import (
    SpanRecorder,
    digest_of,
    multiset_digest,
    rss_mb,
    share,
    summarize,
)
from obs_data import INGEST_METRICS, LibraryData, Oracle, check_results

from repro.engine import Engine
from repro.service import row_to_json
from repro.sql import annotate, check_query, parse_query

CLASSES = (
    "scan_filter",
    "fk_join2",
    "fk_join4",
    "semijoin_in",
    "antijoin_not_in",
    "exists_corr",
    "setop",
    "union_distinct",
    "cyclic",
)


def statement(kind: str, lo: int, domain: int) -> str:
    """One statement of class ``kind`` with its literals derived from ``lo``.

    Range widths are fractions of the value domain, so selectivities hold
    at any database size.  ``exists_corr`` keeps a selective outer conjunct
    (about a dozen books) and a small inner table: with a selective outer
    the engine evaluates the correlated subquery per outer row on first
    execution, and a large inner table would make this one class the whole
    window.  ``cyclic`` is a two-variable cycle (author and publisher) over
    a self-join of ``books``.
    """
    def hi(fraction: float) -> int:
        return lo + max(1, int(domain * fraction))

    if kind == "scan_filter":
        return (
            "SELECT L.loan_id, L.due FROM loans AS L "
            f"WHERE L.due >= {lo} AND L.due < {hi(0.1)}"
        )
    if kind == "fk_join2":
        return (
            "SELECT B.title, A.name FROM books AS B, authors AS A "
            f"WHERE B.author_id = A.author_id AND B.year >= {lo} AND B.year < {hi(0.2)}"
        )
    if kind == "fk_join4":
        return (
            "SELECT L.loan_id, B.title, A.name, M.member_name "
            "FROM loans AS L, books AS B, authors AS A, members AS M "
            "WHERE L.book_id = B.book_id AND B.author_id = A.author_id "
            f"AND L.member_id = M.member_id AND L.due >= {lo} AND L.due < {hi(0.025)}"
        )
    if kind == "semijoin_in":
        return (
            "SELECT B.book_id, B.title FROM books AS B WHERE B.book_id IN "
            f"(SELECT L.book_id FROM loans AS L WHERE L.due >= {lo} AND L.due < {hi(0.1)})"
        )
    if kind == "antijoin_not_in":
        return (
            f"SELECT M.member_id FROM members AS M WHERE M.joined >= {lo} "
            f"AND M.joined < {hi(0.25)} AND M.member_id NOT IN "
            "(SELECT L.member_id FROM loans AS L WHERE L.member_id IS NOT NULL "
            f"AND L.due < {hi(0.5)})"
        )
    if kind == "exists_corr":
        return (
            f"SELECT B.book_id FROM books AS B WHERE B.year >= {lo} AND B.year < {lo + 4} "
            "AND EXISTS (SELECT A.name FROM authors AS A "
            f"WHERE A.author_id = B.author_id AND A.author_id > {lo})"
        )
    if kind == "setop":
        return (
            f"SELECT L.book_id FROM loans AS L WHERE L.due < {hi(0.1)} "
            f"EXCEPT SELECT S.book_id FROM stock AS S WHERE S.copies < {hi(0.5)}"
        )
    if kind == "union_distinct":
        return (
            f"SELECT DISTINCT B.author_id FROM books AS B WHERE B.year < {hi(0.1)} "
            f"UNION SELECT A.author_id FROM authors AS A WHERE A.author_id < {lo}"
        )
    if kind == "cyclic":
        return (
            "SELECT B1.book_id, B2.book_id FROM books AS B1, books AS B2, authors AS A "
            "WHERE B1.author_id = A.author_id AND B2.author_id = A.author_id "
            f"AND B1.publisher_id = B2.publisher_id AND B1.year >= {lo} AND B1.year < {hi(0.01)}"
        )
    raise ValueError(kind)


def interleave_twice(items: List, rng: random.Random) -> List:
    """Each item twice, shuffled, with no item next to its own repeat."""
    first = list(items)
    rng.shuffle(first)
    second = list(items)
    rng.shuffle(second)
    if first[-1] == second[0] and len(second) > 1:
        second[0], second[1] = second[1], second[0]
    return first + second


class EngineOlap:
    name = "engine_olap"

    def __init__(self, args):
        self.args = args
        literals = args.passes if args.smoke else round(7.5 * args.seconds)
        #: distinct literals per class per pass, and in the warm-up pass
        self.per_pass = max(1, literals // args.passes)
        self.warm = max(1, -(-self.per_pass * args.passes // 20))
        self.rows = args.rows
        self.data = None

    @property
    def sizes(self) -> Dict[str, object]:
        distinct = len(CLASSES) * self.per_pass * self.args.passes
        return {
            "rows": self.rows,
            "classes": len(CLASSES),
            "literals_per_class": self.per_pass * self.args.passes,
            "executions": 2 * distinct,
            "warmup_executions": 2 * len(CLASSES) * self.warm,
        }

    # -- set-up ------------------------------------------------------------------

    def setup(self, workdir) -> None:
        args = self.args
        self.data = LibraryData(self.rows, args.seed, workdir)
        domain = self.data.domain
        rng = random.Random(f"engine_olap/{args.seed}")
        wanted = self.per_pass * args.passes + self.warm
        # Literals stay in the lower half of the domain so every range
        # [lo, lo + width) lies inside it.
        pool = range(1, max(wanted + 1, domain // 2))
        drawn = {kind: rng.sample(pool, wanted) for kind in CLASSES}
        self.passes: List[List[Tuple[str, str]]] = []
        for index in range(args.passes + 1):
            count = self.warm if index == args.passes else self.per_pass
            offset = index * self.per_pass
            distinct = [
                (kind, statement(kind, lo, domain))
                for kind in CLASSES
                for lo in drawn[kind][offset : offset + count]
            ]
            self.passes.append(interleave_twice(distinct, rng))
        self.warmup = self.passes.pop()
        self.engine = Engine(self.data.schema)
        self.warm_results = self.run_pass(self.engine, self.warmup)

    def prepare_oracle(self, result) -> None:
        oracle = Oracle(self.data, canary=self.args.canary)
        self.expected = oracle.digests(
            sql for ops in self.passes + [self.warmup] for _kind, sql in ops
        )
        result.notes["oracle_s"] = oracle.sqlite_s
        self.verify(result, self.warm_results)

    def teardown(self) -> None:
        if self.data is not None:
            self.data.close()
            self.data = None

    # -- the operation -------------------------------------------------------------

    def run_pass(self, engine, ops):
        """Execute ``ops``; returns wall and CPU seconds and, per operation,
        its latency and the table or the exception it produced.  Results are
        reduced to digests by :meth:`verify`, after the clock has stopped."""
        schema, db = self.data.schema, self.data.database
        latencies: List[Optional[float]] = []
        produced = []
        cpu0 = time.process_time()
        started = time.perf_counter()
        for _kind, sql in ops:
            t0 = time.perf_counter()
            try:
                produced.append(engine.execute(annotate(sql, schema), db))
            except Exception as exc:  # a failed operation has no latency sample
                produced.append(exc)
                latencies.append(None)
                continue
            latencies.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        return (wall, cpu, latencies), ops, produced

    def verify(self, result, outcome) -> List[Tuple[str, str]]:
        """Check one pass's results against the oracle; returns its digests."""
        _timing, ops, produced = outcome
        observed = []
        for (_kind, sql), table in zip(ops, produced):
            if isinstance(table, Exception):
                result.fail(1, f"{self.name}: {type(table).__name__}: {table}")
            else:
                observed.append((sql, multiset_digest(row_to_json(r) for r in table.bag)))
        check_results(result, self.expected, observed, self.name)
        return observed

    # -- untraced run ----------------------------------------------------------------

    def measure(self, result) -> None:
        engine, self.engine = self.engine, None
        outcomes = [self.run_pass(engine, ops) for ops in self.passes]
        digests: List[Tuple[str, str]] = []
        for outcome in outcomes:
            digests.extend(self.verify(result, outcome))
        result.attempted = sum(len(ops) for ops in self.passes)
        summary = summarize([outcome[0] for outcome in outcomes])
        result.samples = summary.pop("samples")
        result.end_to_end.update(summary)
        result.end_to_end["peak_rss_mb"] = rss_mb()
        result.workload_digest = digest_of(self.passes, self.warmup)
        result.result_digest = digest_of(sorted(set(digests)))
        result.notes["window_s"] = sum(outcome[0][0] for outcome in outcomes)

    # -- traced run --------------------------------------------------------------------

    def trace(self, result, recorder: SpanRecorder) -> None:
        schema, db = self.data.schema, self.data.database
        ops = [op for pass_ops in self.passes for op in pass_ops]
        # Two legs over the same operations, each on a fresh default engine.
        reference = self.run_pass(Engine(schema), ops)
        reference_digests = self.verify(result, reference)

        engine = Engine(schema)
        seen = set()
        first: List[float] = []
        repeat: List[float] = []
        by_class: Dict[str, List[float]] = {kind: [] for kind in CLASSES}
        rows_out = 0
        observed = []
        typecheck: List[float] = []
        traced_wall = 0.0
        for op, (kind, sql) in enumerate(ops):
            root = recorder.open("op", -1, op)
            t0 = time.perf_counter()
            parsed = parse_query(sql)
            t1 = time.perf_counter()
            query = annotate(parsed, schema)
            t2 = time.perf_counter()
            table = engine.execute(query, db)
            t3 = time.perf_counter()
            recorder.add("sql.parse", t0, t1, root, op)
            recorder.add("sql.annotate", t1, t2, root, op)
            recorder.add("engine.execute", t2, t3, root, op)
            recorder.close(root)
            traced_wall += recorder.spans[root][2] - recorder.spans[root][1]
            (repeat if sql in seen else first).append((t3 - t2) * 1e3)
            seen.add(sql)
            by_class[kind].append((t3 - t2) * 1e3)
            rows_out += len(table)
            observed.append((sql, multiset_digest(row_to_json(r) for r in table.bag)))
            # Not part of the operation (Engine.execute does not call it);
            # timed here because this is where the statements are.
            t4 = time.perf_counter()
            check_query(query, schema)
            typecheck.append((time.perf_counter() - t4) * 1e3)
        check_results(result, self.expected, observed, self.name)
        result.result_digest = digest_of(sorted(set(observed)))
        if result.result_digest != digest_of(sorted(set(reference_digests))):
            result.fail(1, f"{self.name}: traced results differ from untraced")

        sqlite_s = 0.0
        oracle = Oracle(self.data)
        texts = {sql: oracle.sqlite_text(sql) for _kind, sql in ops}
        for _kind, sql in ops:
            t0 = time.perf_counter()
            self.data.conn.execute(texts[sql]).fetchall()
            sqlite_s += time.perf_counter() - t0

        info = engine.cache_info()
        build = info["build"]
        engine_s = sum(recorder.durations("engine.execute"))
        layer = result.per_layer
        layer.update({name: self.data.timings[name] for name in INGEST_METRICS})
        layer["sql.parse_ms"] = fmean(recorder.durations("sql.parse")) * 1e3
        layer["sql.annotate_ms"] = fmean(recorder.durations("sql.annotate")) * 1e3
        layer["sql.typecheck_ms"] = fmean(typecheck)
        layer["engine.execute_ms"] = engine_s * 1e3 / len(ops)
        layer["engine.first_execute_ms"] = median(first)
        layer["engine.repeat_execute_ms"] = median(repeat)
        for kind in CLASSES:
            layer[f"engine.exec_ms.{kind}"] = fmean(by_class[kind])
        layer["engine.plan_cache.hit_share"] = share(
            info["hits"], info["hits"] + info["misses"]
        )
        layer["engine.plan_cache.evictions"] = info["evictions"]
        layer["engine.build_cache.hit_share"] = share(
            build["hits"], build["hits"] + build["misses"]
        )
        layer["engine.build_cache.bytes"] = build["bytes"]
        layer["engine.rows_out_per_s"] = rows_out / engine_s
        layer["engine.vs_sqlite_ratio"] = engine_s / sqlite_s
        layer["validation.sqlite_ms"] = sqlite_s * 1e3 / len(ops)
        reference_wall = reference[0][0]
        layer["trace_overhead_share"] = (traced_wall - reference_wall) / reference_wall
        result.attempted = 2 * len(ops)
        result.samples = len(ops)
        result.notes["class_share_of_window"] = {
            kind: round(share(sum(by_class[kind]), engine_s * 1e3), 4) for kind in CLASSES
        }
        result.notes["rows_out_per_execution"] = round(rows_out / len(ops), 1)
