"""The always-on asyncio query service.

A stdlib-only HTTP/1.1 server (``asyncio.start_server`` — no third-party
frameworks, per the repo's dependency rule) in front of the engine:

* ``POST /prepare``   ``{sql, tenant?, database?}`` → ``{statement,
  params}``: parse + annotate once, returns an unguessable statement id
  scoped to the tenant.
* ``POST /execute``   ``{statement, params?, tenant?}``: bind parameter
  values into the frozen template, run through the tenant's engine (plan
  cache + cross-query build-side sharing), stream the result.
* ``POST /query``     ``{sql, tenant?, database?}``: the ad-hoc path —
  parse, plan and execute from scratch on an *uncached*, interpreted
  engine.  This is deliberate admission policy, not a missing
  optimization: only prepared statements admit plans and generate code,
  so one-off queries can never churn a tenant's caches or the process's
  code cache (and the bench's cold leg measures exactly this path).
* ``POST /load``      ``{name?, schema, tables, tenant?}``: install a
  database for a tenant (rows carry NULL as JSON null).
* ``GET /stats``, ``GET /health``.

Streaming and backpressure
--------------------------

Results stream as newline-delimited JSON objects in a chunked response:
``{"labels": …}``, then ``{"rows": [...]}`` batches of ``batch_rows``
records, then ``{"done": true, "row_count": n}``.  Each connection's
write buffer is bounded (``buffer_bytes`` high-water mark) and the
producer ``await``\\ s ``writer.drain()`` after every batch — a slow
client suspends *its own* response coroutine at the bounded buffer while
other connections keep being served.

One representation runs from the last operator to the socket:
``Engine.execute_rows`` returns the executor's own rows — a list of
tuples, ``None`` for NULL, materialized before the plan is unbound and
shape-checked once as a whole — and a batch is a slice of it handed to
one ``json.dumps`` (a tuple renders as an array, ``None`` as ``null``):
no bag, no per-row Python; the bound buffer governs the wire, not the
execution.  Row order on the wire is unspecified — a result is a bag
(Section 3) — so clients compare results as multisets.

Engine executions run synchronously on the event loop, which serializes
them: plans and build caches are mutable single-threaded structures, and
the service's concurrency lives in overlapped I/O (parse/execute of one
request proceeds while other connections stream), matching the engine's
thread-free design.  Authentication reuses the shared transport's
secret header (:mod:`repro.service.transport`).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from .. import faults
from ..core.errors import ReproError
from ..core.schema import Database, Schema
from ..core.values import NULL
from ..engine import Engine
from .protocol import ProtocolError
from .registry import ServiceRegistry
from .transport import AUTH_HEADER, check_secret

__all__ = ["QueryService", "ServiceThread", "DEFAULT_TENANT"]

DEFAULT_TENANT = "public"
DEFAULT_DATABASE = "default"

#: Result records per streamed JSON batch.
DEFAULT_BATCH_ROWS = 256

#: Per-connection write-buffer high-water mark (bytes): the backpressure
#: bound — drain() suspends the producer once this much is unsent.
DEFAULT_BUFFER_BYTES = 64 * 1024

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadRequest(Exception):
    def __init__(
        self, message: str, status: int = 400, retry_after: Optional[int] = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class _StreamAbort(Exception):
    """An in-flight stream must end now (drain deadline, injected drop);
    the handler writes the error trailer so the client can tell a clean
    abort from silent truncation."""


class _CircuitBreaker:
    """Per-tenant failure breaker: trip after ``threshold`` consecutive
    server-side failures, reject with Retry-After until ``reset_s`` has
    passed, then allow one probe through (half-open)."""

    def __init__(self, threshold: int, reset_s: float):
        self.threshold = threshold
        self.reset_s = reset_s
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    def retry_after(self, now: float) -> Optional[int]:
        """Seconds the caller should wait, or None when requests may pass."""
        if self.opened_at is None:
            return None
        remaining = self.reset_s - (now - self.opened_at)
        if remaining <= 0:
            # Half-open: let this request probe; one more failure re-opens.
            self.opened_at = None
            self.failures = max(0, self.threshold - 1)
            return None
        return max(1, math.ceil(remaining))

    def record(self, ok: bool, now: float) -> None:
        if ok:
            self.failures = 0
            return
        self.failures += 1
        if self.failures >= self.threshold and self.opened_at is None:
            self.opened_at = now
            self.trips += 1

    def snapshot(self, now: float) -> Dict[str, object]:
        """Read-only view for /stats (no half-open transition side effect)."""
        open_now = (
            self.opened_at is not None and (now - self.opened_at) < self.reset_s
        )
        return {"open": open_now, "failures": self.failures, "trips": self.trips}


class QueryService:
    """The service state plus its asyncio protocol handlers."""

    def __init__(
        self,
        secret: Optional[str] = None,
        dialect: str = "postgres",
        plan_cache_size: int = 256,
        plan_cache_bytes: Optional[int] = None,
        build_cache_size: int = 128,
        build_cache_bytes: Optional[int] = None,
        max_statement_bytes: Optional[int] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        request_deadline_s: Optional[float] = None,
        max_inflight: Optional[int] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        drain_grace_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if batch_rows < 1 or buffer_bytes < 1:
            raise ValueError("batch_rows and buffer_bytes must be >= 1")
        self.secret = secret
        self.batch_rows = batch_rows
        self.buffer_bytes = buffer_bytes
        self.registry = ServiceRegistry(
            dialect=dialect,
            plan_cache_size=plan_cache_size,
            plan_cache_bytes=plan_cache_bytes,
            build_cache_size=build_cache_size,
            build_cache_bytes=build_cache_bytes,
            max_statement_bytes=max_statement_bytes,
        )
        self.requests = 0
        self.streams_in_flight = 0
        # -- degradation ladder -------------------------------------------
        self.request_deadline_s = request_deadline_s
        self.max_inflight = max_inflight
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.drain_grace_s = drain_grace_s
        self._clock = clock
        self._breakers: Dict[str, _CircuitBreaker] = {}
        self._inflight = 0
        self._draining = False
        self._abort_streams = False
        self.tier_fallbacks = 0
        self.deadline_timeouts = 0
        self.overload_rejections = 0
        self.breaker_rejections = 0
        self.aborted_streams = 0
        self.internal_errors = 0
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- databases -----------------------------------------------------------

    def install_database(
        self, db: Database, name: str = DEFAULT_DATABASE, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Install a database for a tenant (also used by ``repro serve`` for
        the boot-time default)."""
        self.registry.tenant(tenant).add_database(name, db)

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self, drain_s: Optional[float] = None) -> None:
        """Graceful drain (the SIGTERM path): stop accepting, answer new
        requests on existing connections with 503, let in-flight work run
        to completion within the grace window, then abort stragglers — a
        cancelled stream carries its error trailer, never a silent
        mid-chunk truncation."""
        self._draining = True
        await self.stop()
        grace = self.drain_grace_s if drain_s is None else drain_s
        deadline = self._clock() + max(0.0, grace)
        while self._inflight and self._clock() < deadline:
            await asyncio.sleep(0.02)
        self._abort_streams = True
        lingering = list(self._conn_tasks)
        for task in lingering:
            task.cancel()
        if lingering:
            # Bounded: a peer that never reads must not hold up process
            # exit — its abort trailer is in the transport buffer and will
            # flush (or fail) as the socket closes in the background.
            await asyncio.wait(lingering, timeout=1.0)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        transport = writer.transport
        if transport is not None:
            transport.set_write_buffer_limits(high=self.buffer_bytes)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                self.requests += 1
                keep_alive = headers.get("connection", "keep-alive") != "close"
                writer._repro_started = False  # any response bytes sent yet?
                self._inflight += 1
                try:
                    if self._draining:
                        # Refuse new work during SIGTERM drain; in-flight
                        # streams get the grace period, new requests are
                        # told where to go instead.
                        await self._send_json(
                            writer,
                            {"error": "service is shutting down"},
                            status=503,
                            headers={"Retry-After": "1"},
                        )
                        keep_alive = False
                    elif (
                        self.max_inflight is not None
                        and self._inflight > self.max_inflight
                    ):
                        # Overload admission: shed the excess request with
                        # a clean 429 instead of queueing into collapse.
                        self.overload_rejections += 1
                        await self._send_json(
                            writer,
                            {"error": "too many in-flight requests"},
                            status=429,
                            headers={"Retry-After": "1"},
                        )
                    elif self.request_deadline_s is not None:
                        await asyncio.wait_for(
                            self._route(method, path, headers, body, writer),
                            timeout=self.request_deadline_s,
                        )
                    else:
                        await self._route(method, path, headers, body, writer)
                except _BadRequest as exc:
                    retry = getattr(exc, "retry_after", None)
                    await self._send_json(
                        writer,
                        {"error": str(exc)},
                        status=exc.status,
                        headers=(
                            {"Retry-After": str(retry)} if retry else None
                        ),
                    )
                except (ReproError, ProtocolError, ValueError, KeyError) as exc:
                    await self._send_json(
                        writer,
                        {"error": str(exc), "kind": type(exc).__name__},
                        status=400,
                    )
                except asyncio.TimeoutError:
                    # Deadline: the route coroutine was cancelled cleanly
                    # (a started stream already wrote its error trailer).
                    self.deadline_timeouts += 1
                    if not writer._repro_started:
                        await self._send_json(
                            writer,
                            {"error": "request deadline exceeded"},
                            status=503,
                            headers={"Retry-After": "1"},
                        )
                    keep_alive = False
                except ConnectionError:
                    # The peer is gone (really, or via server.disconnect):
                    # nothing to answer, the outer handler closes quietly.
                    raise
                except Exception as exc:
                    # Never die with a stack trace on the socket: even an
                    # unexpected server-side failure is a clean JSON 500
                    # (a started stream already carries its error trailer).
                    self.internal_errors += 1
                    if not writer._repro_started:
                        await self._send_json(
                            writer,
                            {"error": str(exc), "kind": type(exc).__name__},
                            status=500,
                        )
                    keep_alive = False
                finally:
                    self._inflight -= 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # The drain grace expired and shutdown() cancelled this
            # connection (a streaming response already wrote its abort
            # trailer); end quietly instead of logging cancellation noise.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        # One readuntil for the whole head: request line + headers arrive
        # in a single scan instead of a readline per header.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return None
        if len(head) > _MAX_HEADER_BYTES:
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        if (headers.get("transfer-encoding") or "").lower() == "chunked":
            chunks = []
            while True:
                size_line = await reader.readline()
                size = int(size_line.split(b";", 1)[0], 16)
                if size == 0:
                    while True:
                        trailer = await reader.readline()
                        if trailer in (b"\r\n", b"\n", b""):
                            break
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readline()  # chunk CRLF
            body = b"".join(chunks)
        else:
            length = int(headers.get("content-length") or 0)
            if length > _MAX_BODY_BYTES:
                return None
            if length:
                body = await reader.readexactly(length)
        return method, path, headers, body

    # -- responses -----------------------------------------------------------

    _STATUS_TEXT = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                    404: "Not Found", 409: "Conflict",
                    429: "Too Many Requests", 500: "Internal Server Error",
                    503: "Service Unavailable"}

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        payload: dict,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {self._STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"{extra}"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        writer._repro_started = True
        writer.write(head + body)
        await writer.drain()

    async def _stream_result(self, writer: asyncio.StreamWriter, labels, rows) -> None:
        """Chunked newline-delimited JSON with drain-per-batch backpressure.

        The abort contract: a stream that cannot run to completion — the
        request deadline cancelled it, a SIGTERM drain ran out of grace,
        or an injected disconnect — ends with an ``{"error": …,
        "aborted": true}`` trailer line and the chunk terminator, at a
        batch boundary.  A reader therefore always sees either the
        ``done`` trailer, the error trailer, or a hard connection drop;
        never a silently short result that parses as complete.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("latin-1")
        writer._repro_started = True
        writer.write(head)
        self.streams_in_flight += 1
        try:
            # NDJSON lines coalesce into one HTTP chunk per rows batch (the
            # labels ride with the first batch, the done trailer with the
            # last), so a small result is a single chunk + terminator.
            lines: List[bytes] = [
                json.dumps({"labels": [str(l) for l in labels]}).encode()
            ]
            count = len(rows)
            for start in range(0, count, self.batch_rows):
                batch = rows[start : start + self.batch_rows]
                lines.append(json.dumps({"rows": batch}).encode())
                if len(batch) == self.batch_rows:
                    await self._write_chunk(writer, lines)
                    lines = []
                    if self._abort_streams:
                        raise _StreamAbort("service is shutting down")
                    if faults.fire("server.disconnect"):
                        raise faults.InjectedConnectionError(
                            "injected mid-stream disconnect"
                        )
            lines.append(
                json.dumps({"done": True, "row_count": count}).encode()
            )
            await self._write_chunk(writer, lines)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except asyncio.CancelledError:
            # Cancellation (deadline, or drain grace expired): finish the
            # response with the error trailer (no drain — we are being
            # cancelled) so the client sees an explicit abort, then let
            # the cancellation continue.
            self.aborted_streams += 1
            reason = (
                "service is shutting down"
                if self._abort_streams
                else "request deadline exceeded"
            )
            self._write_abort_trailer(writer, reason)
            raise
        except _StreamAbort as abort:
            self.aborted_streams += 1
            self._write_abort_trailer(writer, str(abort))
        finally:
            self.streams_in_flight -= 1

    def _write_abort_trailer(self, writer: asyncio.StreamWriter, reason: str) -> None:
        try:
            data = json.dumps({"error": reason, "aborted": True}).encode() + b"\n"
            writer.write(
                f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n0\r\n\r\n"
            )
        except (ConnectionError, OSError, RuntimeError):
            pass  # the socket is already gone; nothing cleaner to say

    async def _write_chunk(self, writer: asyncio.StreamWriter, lines: List[bytes]) -> None:
        data = b"\n".join(lines) + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        # The backpressure contract: suspend here whenever the connection's
        # bounded write buffer is above its high-water mark.
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(self, method, path, headers, body, writer) -> None:
        if not check_secret(headers.get(AUTH_HEADER.lower()), self.secret):
            await self._send_json(writer, {"error": "unauthorized"}, status=401)
            return
        if method == "GET" and path == "/health":
            await self._send_json(writer, {"ok": True})
            return
        if method == "GET" and path == "/stats":
            stats = self.registry.stats()
            stats["requests"] = self.requests
            stats["streams_in_flight"] = self.streams_in_flight
            now = self._clock()
            stats["degradation"] = {
                "tier_fallbacks": self.tier_fallbacks,
                "deadline_timeouts": self.deadline_timeouts,
                "overload_rejections": self.overload_rejections,
                "breaker_rejections": self.breaker_rejections,
                "aborted_streams": self.aborted_streams,
                "internal_errors": self.internal_errors,
                "draining": self._draining,
                "breakers": {
                    name: breaker.snapshot(now)
                    for name, breaker in sorted(self._breakers.items())
                },
            }
            plan = faults.current()
            stats["faults"] = plan.counts() if plan is not None else None
            await self._send_json(writer, stats)
            return
        if method != "POST":
            raise _BadRequest(f"unknown route {method} {path}", status=404)
        try:
            payload = json.loads(body.decode() or "{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"bad JSON body: {exc}")
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        tenant_name = str(payload.get("tenant") or DEFAULT_TENANT)
        if path == "/load":
            await self._send_json(writer, self._do_load(tenant_name, payload))
        elif path == "/prepare":
            await self._send_json(writer, self._do_prepare(tenant_name, payload))
        elif path == "/execute":
            await self._do_execute(tenant_name, payload, writer)
        elif path == "/query":
            await self._do_query(tenant_name, payload, writer)
        else:
            raise _BadRequest(f"unknown route {method} {path}", status=404)

    # -- route bodies --------------------------------------------------------

    def _do_load(self, tenant_name: str, payload: dict) -> dict:
        name = str(payload.get("name") or DEFAULT_DATABASE)
        schema_json = payload.get("schema")
        if not isinstance(schema_json, dict) or not schema_json:
            raise _BadRequest("'schema' must map table names to column lists")
        schema = Schema({t: tuple(cols) for t, cols in schema_json.items()})
        tables = {
            t: [
                tuple(NULL if v is None else v for v in row)
                for row in rows
            ]
            for t, rows in (payload.get("tables") or {}).items()
        }
        db = Database(schema, tables)
        self.registry.tenant(tenant_name).add_database(name, db)
        return {
            "database": name,
            "tables": {t: len(db.table(t)) for t in schema.table_names},
        }

    def _do_prepare(self, tenant_name: str, payload: dict) -> dict:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise _BadRequest("'sql' must be a non-empty string")
        database = str(payload.get("database") or DEFAULT_DATABASE)
        try:
            statement_id, statement = self.registry.prepare(
                tenant_name, sql, database
            )
        except KeyError as exc:
            raise _BadRequest(str(exc.args[0]), status=404)
        return {"statement": statement_id, "params": statement.param_count}

    def _resolve_database(self, tenant, statement, payload) -> Database:
        name = payload.get("database") or statement.database
        db = tenant.databases.get(str(name))
        if db is None:
            raise _BadRequest(f"unknown database {name!r}", status=404)
        return db

    # -- degradation ladder ----------------------------------------------------

    def _breaker_for(self, tenant_name: str) -> _CircuitBreaker:
        breaker = self._breakers.get(tenant_name)
        if breaker is None:
            breaker = self._breakers[tenant_name] = _CircuitBreaker(
                self.breaker_threshold, self.breaker_reset_s
            )
        return breaker

    def _check_breaker(self, tenant_name: str) -> None:
        """Raise a 503 + Retry-After when the tenant's breaker is open."""
        retry = self._breaker_for(tenant_name).retry_after(self._clock())
        if retry is not None:
            self.breaker_rejections += 1
            raise _BadRequest(
                f"tenant {tenant_name!r} circuit open after repeated "
                f"failures; retry in {retry}s",
                status=503,
                retry_after=retry,
            )

    def _execute_guarded(self, engine, tenant, tenant_name: str, query, db):
        """Run a query with tier fallback under the tenant's breaker.

        A failure of the *primary* (cached/compiled) tier that is not an
        expected client error is retried once on a fresh uncached engine —
        parse-to-interpretation from scratch (``compiled=False``: a
        different implementation from either primary, whatever the
        tenant's size), sharing nothing but the content-pure memos on the
        immutable tables.  Either the retry produces the same-semantics
        answer (counted in ``tier_fallbacks``), or the request fails
        loudly; a wrong answer is never served quietly.  Consecutive hard failures trip the
        tenant's circuit breaker.
        """
        breaker = self._breaker_for(tenant_name)
        try:
            try:
                if faults.fire("server.exec_error"):
                    raise faults.InjectedCrash(
                        "injected execution failure (primary tier)"
                    )
                result = engine.execute_rows(query, db)
            except (ReproError, ProtocolError, ValueError, KeyError):
                raise  # a client-visible 400, not a tier failure
            except Exception:
                self.tier_fallbacks += 1
                fallback = Engine(
                    db.schema,
                    tenant.dialect,
                    compiled=False,
                    plan_cache_size=0,
                    build_cache_size=0,
                )
                if faults.fire("server.exec_error"):
                    raise faults.InjectedCrash(
                        "injected execution failure (fallback tier)"
                    )
                result = fallback.execute_rows(query, db)
        except (ReproError, ProtocolError, ValueError, KeyError):
            raise
        except Exception:
            breaker.record(False, self._clock())
            raise
        breaker.record(True, self._clock())
        return result

    async def _do_execute(self, tenant_name: str, payload: dict, writer) -> None:
        statement_id = str(payload.get("statement") or "")
        statement = self.registry.lookup(tenant_name, statement_id)
        if statement is None:
            # Unknown here covers "another tenant's id" by construction:
            # lookups only ever see the requesting tenant's table.
            raise _BadRequest(f"unknown statement {statement_id!r}", status=404)
        params = payload.get("params") or []
        if not isinstance(params, list):
            raise _BadRequest("'params' must be an array")
        self._check_breaker(tenant_name)
        tenant = self.registry.tenant(tenant_name)
        db = self._resolve_database(tenant, statement, payload)
        bound = statement.bind(params)
        if faults.fire("server.slow"):
            await asyncio.sleep(0.25)
        engine = tenant.engine_for(db.schema)
        labels, rows = self._execute_guarded(engine, tenant, tenant_name, bound, db)
        statement.executions += 1
        tenant.executions += 1
        await self._stream_result(writer, labels, rows)

    async def _do_query(self, tenant_name: str, payload: dict, writer) -> None:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise _BadRequest("'sql' must be a non-empty string")
        self._check_breaker(tenant_name)
        tenant = self.registry.tenant(tenant_name)
        name = str(payload.get("database") or DEFAULT_DATABASE)
        db = tenant.databases.get(name)
        if db is None:
            raise _BadRequest(f"unknown database {name!r}", status=404)
        from ..sql import annotate

        if faults.fire("server.slow"):
            await asyncio.sleep(0.25)
        # Ad-hoc admission policy: a fresh single-use engine — parse, plan
        # and execute from scratch, no plan admitted, no build-side cache
        # churned.  The plan is lowered by the engine's single-use size
        # rule (``SINGLE_USE_COMPILE_ROWS``), and a one-off shape cannot
        # evict the prepared path's kernels: generated code enters the
        # process-wide code cache only on its second compilation.  Builds
        # over bare base-table scans are memoized on the tenant's tables.
        engine = Engine(
            db.schema,
            tenant.dialect,
            plan_cache_size=0,
            build_cache_size=0,
        )
        query = annotate(sql, db.schema)
        labels, rows = self._execute_guarded(engine, tenant, tenant_name, query, db)
        tenant.executions += 1
        await self._stream_result(writer, labels, rows)


class ServiceThread:
    """Run a :class:`QueryService` on a background event loop thread.

    The synchronous harness the benchmark and tests use: the server lives
    on its own loop; the caller gets ``url`` and drives clients from
    wherever it likes.  Context-manager protocol shuts the loop down.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self.url: Optional[str] = None

    def __enter__(self) -> "ServiceThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("query service failed to start")
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot():
            host, port = await self.service.start(self._host, self._port)
            self.url = f"http://{host}:{port}"
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # Drain: close the listener and cancel still-open connection
        # handlers inside the loop before it is discarded.
        self._loop.run_until_complete(self.service.stop())
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def shutdown(self, drain_s: Optional[float] = None, timeout: float = 30.0) -> None:
        """Graceful drain from the caller's thread (the SIGTERM analogue):
        blocks until in-flight streams finish or the grace expires."""
        assert self._loop is not None, "service thread is not running"
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain_s), self._loop
        )
        future.result(timeout=timeout)

    def __exit__(self, *exc) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
