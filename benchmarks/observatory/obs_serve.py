"""``serve_point``, ``serve_stream`` and ``serve_adhoc``: one service, used
three ways.

The service runs in its own process (``obs_server.py``) and one spawned
load generator (``obs_loadgen.py``) drives it in a closed loop.  The traced
run has the load generator record a client-side span around every request
of every other pass, and replays those requests in this process, layer by
layer, through the public pieces the
server composes: ``expand_placeholders``, ``annotate``, ``bind_parameters``,
``Engine.execute``, ``row_to_json`` and ``rows_from_json``.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from statistics import fmean, median
from typing import Dict, List, Sequence, Tuple

from obs_common import (
    HERE,
    SpanRecorder,
    digest_of,
    multiset_digest,
    percentile,
    share,
    summarize,
)
from obs_data import INGEST_METRICS, LibraryData, Oracle, check_results, inline

from repro.engine import Engine
from repro.service import (
    ServiceClient,
    bind_parameters,
    expand_placeholders,
    row_to_json,
    rows_from_json,
)
from repro.service.server import DEFAULT_BATCH_ROWS
from repro.sql import annotate, check_query, parse_query

#: Connections of the closed loop: one per core of the 2-core box.
CONNECTIONS = 2

ZIPF_S = 1.1
POINT_VALUES = 1024

#: (parameter domain, draws in ten, statement).  The semijoin costs twice
#: what the others do when nothing is cached; drawn as often as they are, it
#: put the median request of ``serve_adhoc`` on the edge between two
#: statements' costs (p45 and p55 a third apart), where it moved by 10-20%
#: from run to run.
POINT_STATEMENTS = (
    ("books", 3,
     "SELECT B.title, A.name FROM books AS B, authors AS A "
     "WHERE B.author_id = A.author_id AND B.book_id = $1"),
    ("books", 3,
     "SELECT B.title, P.pub_name, A.name FROM books AS B, publishers AS P, authors AS A "
     "WHERE B.publisher_id = P.publisher_id AND B.author_id = A.author_id "
     "AND B.book_id = $1"),
    ("members", 1,
     "SELECT M.member_id, M.member_name FROM members AS M WHERE M.member_id = $1 "
     "AND M.member_id IN (SELECT L.member_id FROM loans AS L)"),
    ("copies", 3,
     "SELECT S.copies, R.branch_city FROM stock AS S, branches AS R "
     "WHERE S.branch_id = R.branch_id AND S.copies = $1"),
)

#: (statement, the three fractions of the value domain it is bound to)
STREAM_STATEMENTS = (
    ("SELECT L.loan_id, L.due FROM loans AS L WHERE L.due < $1", (0.15, 0.25, 0.35)),
    ("SELECT L.loan_id, B.title FROM loans AS L, books AS B "
     "WHERE L.book_id = B.book_id AND L.due < $1", (0.15, 0.25, 0.35)),
    ("SELECT B.book_id, B.title, A.name FROM books AS B, authors AS A "
     "WHERE B.author_id = A.author_id AND B.year < $1", (0.3, 0.5, 0.7)),
    ("SELECT B.book_id, B.title FROM books AS B WHERE B.year < $1 "
     "AND B.book_id IN (SELECT L.book_id FROM loans AS L)", (0.6, 0.8, 1.0)),
)


class ChildProcess:
    """A spawned helper talking line by line over its pipes."""

    def __init__(self, script: str, *argv: str):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / script), *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def say(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def hear(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.process.args[1]} exited unexpectedly")
        return line.strip()

    def stop(self, farewell: str = "") -> None:
        """End the child and wait until it has."""
        try:
            if farewell and self.process.poll() is None:
                self.say(farewell)
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Serve:
    """One of the three service workloads; ``mode`` picks which."""

    def __init__(self, args, mode: str):
        self.args = args
        self.mode = mode
        self.name = f"serve_{mode}"
        rate = {"point": 1000, "stream": 130, "adhoc": 190}[mode]
        per_pass = (
            20 if args.smoke else max(80, round(rate * args.seconds / args.passes))
        )
        self.per_pass = per_pass
        self.warm = max(2, -(-per_pass * args.passes // 20))
        self.rows = args.rows
        self.data = None
        self.server = None

    @property
    def sizes(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "requests": self.per_pass * self.args.passes,
            "warmup_requests": self.warm,
            "connections": CONNECTIONS,
            "loop": "closed",
            "statements": 4,
        }

    # -- the request sequence ---------------------------------------------------------

    def plan_requests(self) -> None:
        """``self.requests``: (statement index, params) per request, warm-up
        last; all drawn from the run's seed."""
        rng = random.Random(f"{self.name}/{self.args.seed}")
        count = self.per_pass * self.args.passes + self.warm
        data = self.data
        if self.mode == "stream":
            self.statements = [sql for sql, _fractions in STREAM_STATEMENTS]
            bindings = [
                [[int(data.domain * f)] for f in fractions]
                for _sql, fractions in STREAM_STATEMENTS
            ]
            self.requests = [
                (s, rng.choice(bindings[s]))
                for s in (rng.randrange(4) for _ in range(count))
            ]
            return
        self.statements = [sql for _column, _draws, sql in POINT_STATEMENTS]
        domains = {
            "books": data.rows_of("books"),
            "members": data.rows_of("members"),
            "copies": data.domain,
        }
        values = []
        for column, _draws, _sql in POINT_STATEMENTS:
            size = domains[column]
            values.append(rng.sample(range(size), min(POINT_VALUES, size)))
        weights = [[1.0 / (rank + 1) ** ZIPF_S for rank in range(len(v))] for v in values]
        draws = [draws for _column, draws, _sql in POINT_STATEMENTS]
        self.requests = [
            (s, rng.choices(values[s], weights[s]))
            for s in rng.choices(range(4), draws, k=count)
        ]

    def key(self, request: Tuple[int, Sequence[object]]) -> str:
        """The request as literal SQL: what the oracle runs, and what
        ``serve_adhoc`` sends."""
        s, params = request
        return inline(self.statements[s], params)

    # -- set-up ------------------------------------------------------------------------

    def setup(self, workdir) -> None:
        self.workdir = workdir
        self.data = LibraryData(self.rows, self.args.seed, workdir)
        self.plan_requests()
        self.server = ChildProcess("obs_server.py")
        self.url = json.loads(self.server.hear())["url"]
        self.service_timings = asyncio.run(self.boot())

    async def boot(self) -> Dict[str, float]:
        data = self.data
        schema = {t: list(data.schema.attributes(t)) for t in data.schema.table_names}
        tables = {
            t: [row_to_json(r) for r in data.database.table(t).bag]
            for t in data.schema.table_names
        }
        timings = {}
        async with ServiceClient(self.url) as client:
            started = time.perf_counter()
            await client.load(schema, tables)
            timings["service.load_s"] = time.perf_counter() - started
            self.statement_ids = []
            started = time.perf_counter()
            if self.mode != "adhoc":
                for sql in self.statements:
                    self.statement_ids.append(await client.prepare(sql))
            timings["service.prepare_ms"] = (
                (time.perf_counter() - started) * 1e3 / 4 if self.statement_ids else 0.0
            )
            self.warm_results = []
            for request in self.requests[-self.warm:]:
                route, text, params = self.wire(request)
                reply = await (
                    client.execute(text, params) if route == "execute" else client.query(text)
                )
                self.warm_results.append((self.key(request), multiset_digest(reply.rows)))
        return timings

    def wire(self, request) -> Tuple[str, str, list]:
        s, params = request
        if self.mode == "adhoc":
            return "query", self.key(request), []
        return "execute", self.statement_ids[s], list(params)

    def prepare_oracle(self, result) -> None:
        oracle = Oracle(self.data, canary=self.args.canary)
        self.expected = oracle.digests(self.key(r) for r in self.requests)
        result.notes["oracle_s"] = oracle.sqlite_s
        check_results(result, self.expected, self.warm_results, f"{self.name} warm-up")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop("quit")
            self.server = None
        if self.data is not None:
            self.data.close()
            self.data = None

    # -- driving the load generator -------------------------------------------------------

    def usage(self) -> dict:
        self.server.say("usage")
        return json.loads(self.server.hear())

    def stats(self) -> dict:
        async def fetch():
            async with ServiceClient(self.url) as client:
                return await client.stats()

        return asyncio.run(fetch())

    def drive(self, passes: List[Tuple[int, int]], label: str, traced: Sequence[bool] = ()):
        """Run ``passes`` (index ranges of ``self.requests``) through one
        load-generator process, which records spans in the passes ``traced``
        marks.  Returns, per pass, what it served and the server's CPU
        seconds, then the server's peak memory and its ``/stats`` before
        and after."""
        job_path = self.workdir / f"{self.name}-{label}-job.json"
        out_path = self.workdir / f"{self.name}-{label}-served.json"
        job = {
            "url": self.url,
            "connections": CONNECTIONS,
            "requests": [self.wire(r) for r in self.requests],
            "passes": [
                (start, end, index < len(traced) and traced[index])
                for index, (start, end) in enumerate(passes)
            ],
            "out": str(out_path),
        }
        job_path.write_text(json.dumps(job))
        generator = ChildProcess("obs_loadgen.py", str(job_path))
        try:
            if generator.hear() != "ready":
                raise RuntimeError("load generator did not get ready")
            stats = [self.stats()]
            usage = self.usage()
            cpu = []
            for _ in passes:
                generator.say("go")
                if generator.hear() != "pass":
                    raise RuntimeError("load generator lost a pass")
                before, usage = usage, self.usage()
                cpu.append(usage["cpu_s"] - before["cpu_s"])
            stats.append(self.stats())
            if generator.hear() != "done":
                raise RuntimeError("load generator did not finish")
        finally:
            generator.stop()
        served = json.loads(out_path.read_text())
        return served, cpu, usage["rss_mb"], stats

    def account(self, result, passes, served) -> List[list]:
        """Check every reply against the oracle.  Returns per pass the
        latencies in ms (``None`` for a failed request)."""
        timings = []
        digests = []
        for (start, end), outcome in zip(passes, served):
            replies = {index: rest for index, *rest in outcome["served"]}
            latencies = []
            for index in range(start, end):
                t0, t1, digest, error = replies.get(index, (0, 0, None, "no reply"))
                key = self.key(self.requests[index])
                if error is None and digest == self.expected[key]:
                    latencies.append((t1 - t0) * 1e3)
                    digests.append((key, digest))
                    continue
                latencies.append(None)
                what = error if error is not None else "wrong result"
                result.fail(1, f"{self.name}: {what} for {key[:120]}")
            timings.append(latencies)
        result.result_digest = digest_of(sorted(set(digests)))
        return timings

    def pass_ranges(self, indices: Sequence[int]) -> List[Tuple[int, int]]:
        return [(i * self.per_pass, (i + 1) * self.per_pass) for i in indices]

    def gate_degradation(self, result, before: dict, after: dict) -> Dict[str, int]:
        """Fallbacks and 429s over the window: any of them is a failure."""
        b, a = before["degradation"], after["degradation"]
        counts = {
            "service.tier_fallbacks": a["tier_fallbacks"] - b["tier_fallbacks"],
            "service.rejected_429": a["overload_rejections"] - b["overload_rejections"],
        }
        for name, count in counts.items():
            if count:
                result.fail(count, f"{self.name}: {name} = {count}")
        return counts

    # -- untraced run --------------------------------------------------------------------

    def measure(self, result) -> None:
        passes = self.pass_ranges(range(self.args.passes))
        served, cpu, rss, stats = self.drive(passes, "timed")
        result.attempted = self.per_pass * len(passes)
        latencies = self.account(result, passes, served)
        self.gate_degradation(result, *stats)
        summary = summarize(
            [(outcome["wall"], cpu_s, ms) for outcome, cpu_s, ms in zip(served, cpu, latencies)]
        )
        result.samples = summary.pop("samples")
        result.end_to_end.update(summary)
        result.end_to_end["peak_rss_mb"] = rss
        result.workload_digest = digest_of(self.statements, self.requests, self.sizes)
        result.notes["window_s"] = sum(outcome["wall"] for outcome in served)

    # -- traced run ------------------------------------------------------------------------

    def trace(self, result, recorder: SpanRecorder) -> None:
        # Reference and traced passes alternate, so that a drift of the
        # machine does not read as tracing overhead.  Each pass sends
        # requests of its own: sending a pass twice would warm the caches
        # whose hit shares this run reports.
        passes = self.pass_ranges(range(2 * (self.args.passes // 2)))
        marks = [index % 2 == 1 for index in range(len(passes))]
        served, _cpu, _rss, stats = self.drive(passes, "traced", marks)
        latencies = self.account(result, passes, served)
        traced = [
            ms for pass_ms, mark in zip(latencies, marks) if mark
            for ms in pass_ms if ms is not None
        ]
        for outcome in served:
            recorder.spans.extend(tuple(span) for span in outcome["spans"])
        counts = self.gate_degradation(result, *stats)

        requests = [
            self.requests[i]
            for (start, end), mark in zip(passes, marks) if mark
            for i in range(start, end)
        ]
        replay = self.replay(recorder, requests)
        layer = result.per_layer
        layer.update({name: self.data.timings[name] for name in INGEST_METRICS})
        layer.update(self.service_timings)
        layer.update(counts)
        layer.update(self.cache_deltas(*stats))
        layer.update(replay)
        in_process = sum(
            replay[name]
            for name in (
                "sql.parse_ms", "sql.annotate_ms", "service.protocol.bind_ms",
                "service.engine_ms", "service.protocol.encode_ms",
                "service.client.decode_ms",
            )
        )
        layer["service.transport.residual_ms"] = percentile(traced, 0.5) - in_process
        traced_wall = sum(o["wall"] for o, mark in zip(served, marks) if mark)
        reference_wall = sum(o["wall"] for o, mark in zip(served, marks) if not mark)
        layer["trace_overhead_share"] = (traced_wall - reference_wall) / reference_wall
        result.attempted = self.per_pass * len(passes)
        result.samples = len(traced)

    @staticmethod
    def cache_deltas(before: dict, after: dict) -> Dict[str, float]:
        def tenant(stats):
            tenants = stats["tenants"]
            return next(iter(tenants.values())) if tenants else {
                "plan_cache": {"hits": 0, "misses": 0, "entries": 0},
                "build_cache": {"hits": 0, "misses": 0, "cross_hits": 0, "bytes": 0},
            }

        b, a = tenant(before), tenant(after)
        plan = {k: a["plan_cache"][k] - b["plan_cache"][k] for k in ("hits", "misses", "entries")}
        build = {
            k: a["build_cache"][k] - b["build_cache"][k]
            for k in ("hits", "misses", "cross_hits")
        }
        return {
            "service.plan_cache.hit_share": share(plan["hits"], plan["hits"] + plan["misses"]),
            # /stats has no eviction counter: every miss admits one plan, so
            # the misses that did not grow the cache evicted an entry.
            "service.plan_cache.evictions": max(0, plan["misses"] - plan["entries"]),
            "service.build_cache.hit_share": share(
                build["hits"], build["hits"] + build["misses"]
            ),
            "service.build_cache.cross_hit_share": share(
                build["cross_hits"], build["hits"] + build["misses"]
            ),
            "service.build_cache.bytes": a["build_cache"]["bytes"],
        }

    def replay(self, recorder: SpanRecorder, requests) -> Dict[str, float]:
        """The request sequence again, in this process, one public call per
        layer.  Unlike the server's statement table, the replay does not
        memoize bound statements, so ``bind_ms`` is the cost of a binding
        the server has not seen among its last 64."""
        schema, db = self.data.schema, self.data.database
        adhoc = self.mode == "adhoc"
        expand: List[float] = []
        templates = []
        for sql in self.statements:
            t0 = time.perf_counter()
            template, count = expand_placeholders(sql)
            expand.append((time.perf_counter() - t0) * 1e3)
            templates.append((annotate(template, schema), count))
        engine = Engine(schema)
        spans: Dict[str, List[float]] = {
            name: [] for name in ("parse", "annotate", "bind", "engine", "encode", "decode")
        }
        typecheck: List[float] = []
        rows_out: List[int] = []
        bytes_out: List[int] = []
        for op, request in enumerate(requests):
            s, params = request
            t0 = time.perf_counter()
            if adhoc:
                parsed = parse_query(self.key(request))
                t1 = time.perf_counter()
                query = annotate(parsed, schema)
                t2 = t3 = time.perf_counter()
                # What POST /query builds: an engine that caches nothing.
                table = Engine(schema, plan_cache_size=0, build_cache_size=0).execute(query, db)
            else:
                t1 = t2 = t0
                query = bind_parameters(templates[s][0], list(params), templates[s][1])
                t3 = time.perf_counter()
                table = engine.execute(query, db)
            t4 = time.perf_counter()
            lines = [json.dumps({"labels": [str(c) for c in table.columns]}).encode()]
            batch: List[list] = []
            for record in table.bag:
                batch.append(row_to_json(record))
                if len(batch) >= DEFAULT_BATCH_ROWS:
                    lines.append(json.dumps({"rows": batch}).encode())
                    batch = []
            if batch:
                lines.append(json.dumps({"rows": batch}).encode())
            lines.append(json.dumps({"done": True, "row_count": len(table)}).encode())
            t5 = time.perf_counter()
            decoded = 0
            for line in lines:
                decoded += len(rows_from_json(json.loads(line).get("rows", ())))
            t6 = time.perf_counter()
            root = len(recorder.spans)
            recorder.add("service.replay", t0, t6, -1, op)
            for name, start, end in (
                ("parse", t0, t1), ("annotate", t1, t2), ("bind", t2, t3),
                ("engine", t3, t4), ("encode", t4, t5), ("decode", t5, t6),
            ):
                spans[name].append((end - start) * 1e3)
                recorder.add(f"service.replay.{name}", start, end, root, op)
            rows_out.append(decoded)
            bytes_out.append(sum(len(line) + 1 for line in lines))
            if adhoc:
                t7 = time.perf_counter()
                check_query(query, schema)
                typecheck.append((time.perf_counter() - t7) * 1e3)
        return {
            "service.protocol.expand_ms": 0.0 if adhoc else fmean(expand),
            "sql.parse_ms": median(spans["parse"]),
            "sql.annotate_ms": median(spans["annotate"]),
            "sql.typecheck_ms": median(typecheck) if typecheck else 0.0,
            "service.protocol.bind_ms": median(spans["bind"]),
            "service.engine_ms": median(spans["engine"]),
            "service.protocol.encode_ms": median(spans["encode"]),
            "service.client.decode_ms": median(spans["decode"]),
            "service.rows_per_response": fmean(rows_out),
            "service.bytes_per_response": fmean(bytes_out),
        }
