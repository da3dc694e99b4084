"""The service's graceful-degradation ladder under injected faults.

Rungs, in order of severity: execution-tier fallback (compiled tier dies
→ retry interpreted, never serve wrong), per-request deadlines (started
streams abort with an error trailer), overload admission (429 +
Retry-After), per-tenant circuit breaker (503 + Retry-After), and the
SIGTERM drain (in-flight streams finish or abort cleanly — never
truncated mid-chunk).
"""

import asyncio
import json
import socket
import time

import pytest

from repro import faults
from repro.core import NULL, Database, Schema
from repro.faults import FaultPlan
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceError,
    ServiceThread,
)

SCHEMA_JSON = {"R": ["A", "B"]}
TABLES_JSON = {"R": [[i, i * 10] for i in range(1, 9)]}


def make_db(rows=None):
    schema = Schema({"R": ("A", "B")})
    tables = {"R": rows or [(i, i * 10) for i in range(1, 9)]}
    return Database(schema, tables)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    faults.uninstall()


def query_rows(url, sql="SELECT R.A FROM R", **client_kw):
    async def go():
        async with ServiceClient(url, **client_kw) as client:
            result = await client.query(sql)
            return sorted(map(tuple, result.rows))

    return run(go())


EXPECTED = sorted((i,) for i in range(1, 9))


# -- execution-tier fallback ---------------------------------------------------


def test_tier_fallback_serves_the_same_rows():
    service = QueryService()
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        with faults.active(FaultPlan(0, {"server.exec_error": 1.0},
                                     {"server.exec_error": 1})):
            assert query_rows(thread.url) == EXPECTED
        assert service.tier_fallbacks == 1
        assert service.internal_errors == 0
        # No faults: the fallback counter stays put.
        assert query_rows(thread.url) == EXPECTED
        assert service.tier_fallbacks == 1


def test_both_tiers_failing_is_a_clean_500_never_wrong_rows():
    service = QueryService()
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        with faults.active(FaultPlan(0, {"server.exec_error": 1.0})):
            with pytest.raises(ServiceError) as excinfo:
                query_rows(thread.url)
        assert excinfo.value.status == 500
        assert "injected" in excinfo.value.message
        assert service.tier_fallbacks == 1  # it tried the interpreted tier


def test_fallback_counts_surface_in_stats():
    service = QueryService()
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        plan = FaultPlan(0, {"server.exec_error": 1.0}, {"server.exec_error": 1})
        with faults.active(plan):
            query_rows(thread.url)

            async def go():
                async with ServiceClient(thread.url) as client:
                    return await client.stats()

            stats = run(go())
        degradation = stats["degradation"]
        assert degradation["tier_fallbacks"] == 1
        assert degradation["draining"] is False
        assert stats["faults"]["injected"]["server.exec_error"] == 1


# -- deadlines -----------------------------------------------------------------


def test_deadline_rejects_a_slow_request_with_503():
    service = QueryService(request_deadline_s=0.05)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        # server.slow sleeps 0.25s before execution: past the deadline.
        with faults.active(FaultPlan(0, {"server.slow": 1.0}, {"server.slow": 1})):
            with pytest.raises(ServiceError) as excinfo:
                query_rows(thread.url)
        assert excinfo.value.status == 503
        assert service.deadline_timeouts == 1
        # The service recovered: the next request is served normally.
        assert query_rows(thread.url) == EXPECTED


# -- overload admission --------------------------------------------------------


def test_admission_cap_sheds_with_429():
    service = QueryService(max_inflight=0)  # everything is "excess"
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        with pytest.raises(ServiceError) as excinfo:
            query_rows(thread.url)
        assert excinfo.value.status == 429
        assert service.overload_rejections == 1


def test_retry_after_header_on_429():
    service = QueryService(max_inflight=0)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        status, headers, sock, _rest = raw_request(thread.url, "GET", "/health")
        sock.close()
        assert status == 429
        assert headers.get("retry-after") == "1"


# -- circuit breaker -----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_trips_after_threshold_and_half_opens():
    clock = FakeClock()
    service = QueryService(breaker_threshold=2, breaker_reset_s=30.0, clock=clock)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        with faults.active(FaultPlan(0, {"server.exec_error": 1.0})):
            for _ in range(2):  # two hard failures trip the breaker
                with pytest.raises(ServiceError):
                    query_rows(thread.url)
            with pytest.raises(ServiceError) as excinfo:
                query_rows(thread.url)
            assert excinfo.value.status == 503
            assert "circuit open" in excinfo.value.message
        assert service.breaker_rejections == 1
        # Other tenants are unaffected: breakers are per tenant.
        async def other_tenant():
            async with ServiceClient(thread.url, tenant="other") as client:
                await client.load(SCHEMA_JSON, TABLES_JSON)
                return await client.query("SELECT R.A FROM R")

        assert run(other_tenant()).row_count == 8
        # Past the reset window the breaker half-opens; a clean probe
        # closes it for good.
        clock.now = 31.0
        assert query_rows(thread.url) == EXPECTED
        assert query_rows(thread.url) == EXPECTED
        breakers = service._breakers["public"]
        assert breakers.failures == 0 and breakers.trips == 1


# -- stream integrity under faults --------------------------------------------


def test_injected_mid_stream_disconnect_drops_the_connection():
    """The client must see a hard drop (never a short-but-parsing result)."""
    service = QueryService(batch_rows=1)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        with faults.active(FaultPlan(0, {"server.disconnect": 1.0},
                                     {"server.disconnect": 1})):
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                query_rows(thread.url)
        # The stream bookkeeping unwound.
        assert service.streams_in_flight == 0
        # And the service still works.
        assert query_rows(thread.url) == EXPECTED


# -- graceful drain ------------------------------------------------------------


def raw_request(url, method, path, body=b"", timeout=10.0, rcvbuf=None):
    """One request on a raw socket; returns (status, headers, sock, rest)
    with the connection left open for manual body reads."""
    host, port = url.replace("http://", "").split(":")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        # A tiny receive buffer shrinks the TCP window, so a reader that
        # stops reading backs the server up after a few hundred KB instead
        # of letting kernel buffers swallow the whole stream.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(timeout)
    sock.connect((host, int(port)))
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    sock.sendall(head)
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(4096)
    head_part, rest = data.split(b"\r\n\r\n", 1)
    lines = head_part.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, sock, rest


def read_chunked_lines(sock, pending):
    """Drain a chunked NDJSON response to EOF; returns the decoded lines."""
    data = pending
    sock.settimeout(10.0)
    while True:
        try:
            chunk = sock.recv(65536)
        except (ConnectionError, OSError):
            break
        if not chunk:
            break
        data += chunk
    body = b""
    rest = data
    while rest:
        size_line, _sep, rest = rest.partition(b"\r\n")
        if not size_line:
            continue
        size = int(size_line.split(b";", 1)[0], 16)
        if size == 0:
            break
        body += rest[:size]
        rest = rest[size + 2:]  # skip chunk CRLF
    return [json.loads(line) for line in body.split(b"\n") if line.strip()]


def test_drain_aborts_a_slow_reader_with_an_error_trailer():
    """SIGTERM drain vs a reader that never reads: the stream must end
    with the abort trailer at a batch boundary — complete chunks, a
    parseable error line, never mid-chunk truncation."""
    rows = [(i, "x" * 800) for i in range(20000)]  # ~16 MB on the wire
    service = QueryService(batch_rows=8, buffer_bytes=2048, drain_grace_s=0.2)
    service.install_database(make_db(rows))
    with ServiceThread(service) as thread:
        payload = json.dumps({"sql": "SELECT R.B FROM R"}).encode()
        status, _headers, sock, rest = raw_request(
            thread.url, "POST", "/query", payload, rcvbuf=4096
        )
        assert status == 200
        # Let the server fill the bounded buffer and suspend in drain().
        deadline = time.time() + 10
        while service.streams_in_flight == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert service.streams_in_flight == 1
        thread.shutdown(drain_s=0.2)
        lines = read_chunked_lines(sock, rest)
        sock.close()
    assert lines, "the stream carried no complete lines at all"
    trailer = lines[-1]
    assert trailer.get("aborted") is True
    assert "shutting down" in trailer["error"]
    # Every line before the trailer is a complete, well-formed record.
    assert lines[0].get("labels") == ["B"]
    for line in lines[1:-1]:
        assert "rows" in line
    assert service.aborted_streams == 1


# The boundary slice batching introduces: a result of exactly k × batch_rows
# rows has no partial tail, so the last full batch's chunk is followed only
# by the done line — an abort arriving right there must still win.


def raw_query_lines(url, sql="SELECT R.A FROM R"):
    """POST /query on a raw socket; the status and every decoded NDJSON line
    that arrived before the connection closed."""
    payload = json.dumps({"sql": sql}).encode()
    status, _headers, sock, rest = raw_request(url, "POST", "/query", payload)
    lines = read_chunked_lines(sock, rest)
    sock.close()
    return status, lines


class _NthCheck(FaultPlan):
    """Fires ``site`` on exactly its ``nth`` check."""

    def __init__(self, site, nth):
        super().__init__(0, {})
        self.site, self.nth = site, nth

    def fire(self, site):
        super().fire(site)
        return site == self.site and self.checks[site] == self.nth


@pytest.mark.parametrize("k", [1, 2])
def test_disconnect_after_the_last_full_batch_never_reaches_done(k):
    service = QueryService(batch_rows=8 // k)
    service.install_database(make_db())  # 8 rows: exactly k batches
    with ServiceThread(service) as thread:
        with faults.active(_NthCheck("server.disconnect", k)):
            status, lines = raw_query_lines(thread.url)
        assert status == 200
        # Every row left in whole batches; the hard drop came instead of
        # the done line (and instead of the chunk terminator).
        assert [sorted(line) for line in lines] == [["labels"]] + [["rows"]] * k
        assert sum(len(line["rows"]) for line in lines[1:]) == 8
        assert service.streams_in_flight == 0
        assert query_rows(thread.url) == EXPECTED


@pytest.mark.parametrize("k", [1, 2])
def test_deadline_after_the_last_full_batch_ends_with_the_abort_trailer(k):
    service = QueryService(batch_rows=8 // k, request_deadline_s=0.2)
    service.install_database(make_db())
    write_chunk = service._write_chunk
    calls = []

    async def stall_after_kth(writer, lines):
        await write_chunk(writer, lines)
        calls.append(len(lines))
        if len(calls) == k:
            await asyncio.sleep(30)  # the deadline cancels us here

    service._write_chunk = stall_after_kth
    with ServiceThread(service) as thread:
        status, lines = raw_query_lines(thread.url)
    assert status == 200
    assert [sorted(line) for line in lines[:-1]] == [["labels"]] + [["rows"]] * k
    assert sum(len(line["rows"]) for line in lines[1:-1]) == 8
    assert lines[-1] == {"error": "request deadline exceeded", "aborted": True}
    assert service.aborted_streams == 1 and service.deadline_timeouts == 1


def test_drain_lets_short_streams_finish():
    service = QueryService(drain_grace_s=5.0)
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        assert query_rows(thread.url) == EXPECTED
        thread.shutdown(drain_s=5.0)
        # Post-drain: new requests on a fresh connection are refused (the
        # listener is closed), and the service reports draining.
        with pytest.raises((ConnectionError, OSError)):
            query_rows(thread.url)
        assert service._draining


def test_draining_rejects_new_requests_on_open_connections():
    """During the drain window an already-open connection gets a clean
    503 + Retry-After instead of a hangup mid-request."""
    service = QueryService()
    service.install_database(make_db())
    with ServiceThread(service) as thread:
        async def go():
            async with ServiceClient(thread.url) as client:
                await client.health()  # connection established + proven
                service._draining = True  # the drain window is open
                with pytest.raises(ServiceError) as excinfo:
                    await client.health()
                return excinfo.value.status

        assert run(go()) == 503
