"""End-to-end service tests: wire protocol, streaming, backpressure, auth,
and the concurrency battery (async clients vs the serial engine oracle)."""

import asyncio
import json
import random

import pytest

from repro.core import NULL, Database, Schema
from repro.engine import Engine
from repro.service import (
    DEFAULT_TENANT,
    QueryService,
    ResultSet,
    ServiceClient,
    ServiceError,
    ServiceThread,
)
from repro.service.protocol import bind_parameters, expand_placeholders
from repro.sql import annotate

SCHEMA_JSON = {"R": ["A", "B"], "S": ["A", "C"], "T": ["C"]}
TABLES_JSON = {
    "R": [[1, 2], [3, None], [1, 2], [4, 6], [5, 2]],
    "S": [[1, 10], [3, 30], [None, 50]],
    "T": [[2], [6], [None]],
}


def make_db():
    schema = Schema({t: tuple(cols) for t, cols in SCHEMA_JSON.items()})
    tables = {
        t: [tuple(NULL if v is None else v for v in row) for row in rows]
        for t, rows in TABLES_JSON.items()
    }
    return Database(schema, tables)


@pytest.fixture(scope="module")
def service_url():
    service = QueryService(secret="test-secret", batch_rows=2)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        yield thread.url, service


def run(coro):
    return asyncio.run(coro)


# -- basic round trips --------------------------------------------------------


def test_health_load_prepare_execute(service_url):
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="test-secret", tenant="basic") as c:
            assert (await c.health()) == {"ok": True}
            loaded = await c.load(SCHEMA_JSON, TABLES_JSON)
            assert loaded["tables"] == {"R": 5, "S": 3, "T": 3}
            sid = await c.prepare("SELECT R.B FROM R WHERE R.A = $1")
            result = await c.execute(sid, [1])
            assert result.labels == ["B"]
            assert sorted(map(tuple, result.rows)) == [(2,), (2,)]
            assert result.row_count == 2
            # NULL crosses the wire as null, both directions.
            null_result = await c.execute(sid, [3])
            assert null_result.rows == [[None]]
            assert null_result.records() == [(NULL,)]
            return await c.query("SELECT R.A FROM R, S WHERE R.A = S.A")

    adhoc = run(go())
    assert sorted(map(tuple, adhoc.rows)) == [(1,), (1,), (3,)]


def test_streaming_batches_reassemble(service_url):
    """batch_rows=2 forces multi-chunk streams; the client must reassemble
    rows across chunk boundaries losslessly."""
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="test-secret", tenant="stream") as c:
            await c.load(SCHEMA_JSON, TABLES_JSON)
            return await c.query("SELECT R.A, R.B FROM R")

    result = run(go())
    assert result.row_count == 5
    assert len(result.rows) == 5
    expected = sorted(
        (a, NULL if b is None else b) for a, b in TABLES_JSON["R"]
    )
    assert sorted(result.records()) == expected


def test_errors_are_structured(service_url):
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="test-secret", tenant="errs") as c:
            await c.load(SCHEMA_JSON, TABLES_JSON)
            with pytest.raises(ServiceError) as unknown_stmt:
                await c.execute("no-such-statement", [])
            assert unknown_stmt.value.status == 404
            with pytest.raises(ServiceError) as unknown_db:
                await c.prepare("SELECT R.A FROM R", database="nope")
            assert unknown_db.value.status == 404
            sid = await c.prepare("SELECT R.B FROM R WHERE R.A = $1")
            with pytest.raises(ServiceError) as bad_arity:
                await c.execute(sid, [1, 2])
            assert bad_arity.value.status == 400
            assert "parameter" in bad_arity.value.message
            with pytest.raises(ServiceError) as bad_sql:
                await c.query("SELECT nothing FROM nowhere")
            assert bad_sql.value.status == 400
            # The connection survives every error: a good request still works.
            result = await c.execute(sid, [1])
            assert result.row_count == 2

    run(go())


def test_auth_required(service_url):
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="wrong") as c:
            with pytest.raises(ServiceError) as err:
                await c.health()
            assert err.value.status == 401
        async with ServiceClient(url) as c:  # no secret at all
            with pytest.raises(ServiceError) as err:
                await c.stats()
            assert err.value.status == 401

    run(go())


def test_statement_ids_do_not_leak_across_tenants(service_url):
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="test-secret", tenant="owner") as c:
            await c.load(SCHEMA_JSON, TABLES_JSON)
            sid = await c.prepare("SELECT R.A FROM R")
        async with ServiceClient(url, secret="test-secret", tenant="thief") as c:
            with pytest.raises(ServiceError) as err:
                await c.execute(sid, [])
            assert err.value.status == 404

    run(go())


def test_adhoc_queries_take_the_single_use_size_rule(monkeypatch):
    """``POST /query`` plans on a fresh single-use engine, so it generates
    code for a plan exactly when the engine's size rule says so: over four
    times ``SINGLE_USE_COMPILE_ROWS`` rows it does, over a 6-row table it
    does not.  It admits nothing: the tenant engine's plan cache is
    untouched, and a never-seen shape compiled once leaves the
    process-wide code cache empty.  Its rows are the prepared path's."""
    from repro.engine import compile as compile_module
    from repro.engine import engine as engine_module

    lowered = []
    real = engine_module.compile_plan

    def spy(plan, stats, codegen):
        if codegen:
            lowered.append(plan)
        return real(plan, stats, codegen)

    monkeypatch.setattr(engine_module, "compile_plan", spy)
    big = [[i, i % 7] for i in range(4 * engine_module.SINGLE_USE_COMPILE_ROWS)]
    small = [[i, i % 7] for i in range(6)]
    sql = "SELECT {t}.A FROM {t} WHERE {t}.B = 3"
    service = QueryService()
    with ServiceThread(service) as thread:

        async def prepared():
            async with ServiceClient(thread.url) as c:
                await c.load({"R": ["A", "B"], "S": ["A", "B"]}, {"R": big, "S": small})
                sid = await c.prepare(sql.format(t="R").replace("= 3", "= $1"))
                return await c.execute(sid, [3])

        async def adhoc(table):
            async with ServiceClient(thread.url) as c:
                return await c.query(sql.format(t=table))

        expected = run(prepared())
        (engine,) = service.registry.tenant(DEFAULT_TENANT).engines.values()
        plans = engine.cache_info()
        monkeypatch.setattr(compile_module, "_CODE_CACHE", {})
        monkeypatch.setattr(compile_module, "_COMPILED_ONCE", {})
        before = len(lowered)
        over_big = run(adhoc("R"))
        assert len(lowered) == before + 1
        assert compile_module._COMPILED_ONCE and not compile_module._CODE_CACHE
        over_small = run(adhoc("S"))
        assert len(lowered) == before + 1
        after = engine.cache_info()
    for counter in ("size", "hits", "misses", "evictions"):
        assert after[counter] == plans[counter], counter
    assert sorted(map(tuple, over_big.rows)) == sorted(map(tuple, expected.rows))
    assert len(over_big.rows) == sum(1 for _a, b in big if b == 3)
    assert sorted(map(tuple, over_small.rows)) == [(3,)]


# -- backpressure -------------------------------------------------------------


def test_slow_reader_backpressure():
    """A slow client suspends the producer at the bounded write buffer: the
    stream must still be in flight while the client sits on unread data,
    and be lossless once the client drains it."""
    rows = 4000
    service = QueryService(buffer_bytes=4096, batch_rows=64)
    schema = Schema({"R": ("A", "B")})
    # ~2 KB per row: the full stream (~8 MB) cannot fit in kernel socket
    # buffers, so an unthrottled producer would need the client to read.
    db = Database(schema, {"R": [(i, f"pad-{i:06d}" * 200) for i in range(rows)]})
    service.install_database(db)

    with ServiceThread(service) as thread:
        url = thread.url

        async def go():
            slow = ServiceClient(url)
            await slow.connect()
            await slow._send_request("POST", "/query", {"sql": "SELECT R.A, R.B FROM R"})
            # Give the producer time to run: with an unbounded buffer it
            # would finish the whole stream; with the 4 KiB bound it must
            # stall in drain() long before ~1 MB of rows fit.
            await asyncio.sleep(0.5)
            async with ServiceClient(url) as observer:
                stats = await observer.stats()
            assert stats["streams_in_flight"] == 1, "producer should be suspended"
            # Drain at full speed: everything arrives, nothing lost.
            status, headers = await slow._read_head()
            assert status == 200
            result = ResultSet()
            pending = b""
            while True:
                size_line = await slow._reader.readline()
                size = int(size_line.split(b";", 1)[0], 16)
                if size == 0:
                    await slow._reader.readline()
                    break
                pending += await slow._reader.readexactly(size)
                await slow._reader.readline()
                while b"\n" in pending:
                    line, pending = pending.split(b"\n", 1)
                    if line.strip():
                        obj = json.loads(line)
                        if "rows" in obj:
                            result.rows.extend(obj["rows"])
                        elif obj.get("done"):
                            result.row_count = obj["row_count"]
            await slow.close()
            return result

        result = asyncio.run(go())
        assert result.row_count == rows
        assert len(result.rows) == rows
        assert sorted(r[0] for r in result.rows) == list(range(rows))


# -- the concurrency battery --------------------------------------------------

BATTERY_STATEMENTS = [
    ("SELECT R.B FROM R WHERE R.A = $1", [[1], [3], [4], [99]]),
    ("SELECT R.A FROM R WHERE R.B IN (SELECT T.C FROM T)", [[]]),
    ("SELECT R.B FROM R WHERE R.B IN (SELECT T.C FROM T)", [[]]),
    ("SELECT R.A FROM R, S WHERE R.A = S.A", [[]]),
    ("SELECT R.B FROM R, S WHERE R.A = S.A", [[]]),
    (
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.A)"
        " AND R.B = $1",
        [[2], [6]],
    ),
]


def canon(records):
    """Multiset of records in a canonical order (NULL is not orderable)."""
    return sorted(records, key=repr)


def battery_oracle():
    """Serial ground truth: every (sql, params) through a plain Engine."""
    db = make_db()
    engine = Engine(db.schema, "postgres")
    expected = {}
    for sql, bindings in BATTERY_STATEMENTS:
        template, count = expand_placeholders(sql)
        query = annotate(template, db.schema)
        for params in bindings:
            terms = [NULL if p is None else p for p in params]
            bound = bind_parameters(query, terms, count)
            table = engine.execute(bound, db)
            expected[(sql, tuple(params))] = canon(table.bag)
    return expected


def test_concurrency_battery_matches_serial_oracle():
    """8 async clients x 200 mixed prepared executions: every streamed
    result bit-identical to the serial engine, cross-query build-cache
    hits observed, and no statement id usable from another tenant."""
    clients, per_client = 8, 200
    service = QueryService(batch_rows=3)
    service.install_database(make_db(), tenant="battery")
    service.install_database(make_db(), tenant="bystander")
    expected = battery_oracle()

    with ServiceThread(service) as thread:
        url = thread.url

        async def client_run(index):
            rng = random.Random(1000 + index)
            mismatches = []
            async with ServiceClient(url, tenant="battery") as c:
                prepared = {}
                for sql, _bindings in BATTERY_STATEMENTS:
                    prepared[sql] = await c.prepare(sql)
                for _ in range(per_client):
                    sql, bindings = rng.choice(BATTERY_STATEMENTS)
                    params = rng.choice(bindings)
                    result = await c.execute(prepared[sql], params)
                    got = canon(result.records())
                    want = expected[(sql, tuple(params))]
                    if got != want:
                        mismatches.append((sql, params, got, want))
                return prepared, mismatches

        async def go():
            results = await asyncio.gather(*(client_run(i) for i in range(clients)))
            for _prepared, mismatches in results:
                assert not mismatches, f"diverged from oracle: {mismatches[:3]}"
            # No leakage: another tenant cannot execute any battery id.
            async with ServiceClient(url, tenant="bystander") as c:
                for sid in results[0][0].values():
                    with pytest.raises(ServiceError) as err:
                        await c.execute(sid, [])
                    assert err.value.status == 404
            async with ServiceClient(url, tenant="battery") as c:
                return await c.stats()

        stats = asyncio.run(go())

    battery = stats["tenants"]["battery"]
    assert battery["executions"] == clients * per_client
    assert battery["build_cache"]["cross_hits"] > 0, (
        "different statements sharing subplan shapes must hit each other's "
        "build sides"
    )
    assert battery["plan_cache"]["hits"] > 0


def test_stats_shape(service_url):
    url, _service = service_url

    async def go():
        async with ServiceClient(url, secret="test-secret", tenant="shape") as c:
            await c.load(SCHEMA_JSON, TABLES_JSON)
            sid = await c.prepare("SELECT R.A FROM R")
            await c.execute(sid, [])
            return await c.stats()

    stats = run(go())
    assert {"uptime_s", "statement_evictions", "tenants", "requests"} <= set(stats)
    entry = stats["tenants"]["shape"]
    assert entry["databases"] == ["default"]
    assert entry["statements"] == 1
    for cache in (entry["plan_cache"], entry["build_cache"]):
        assert {"hits", "misses", "entries", "bytes"} <= set(cache)
