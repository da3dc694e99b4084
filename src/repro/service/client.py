"""Asyncio client for the query service.

:class:`ServiceClient` holds one keep-alive HTTP/1.1 connection per
instance (request pipelined serially per client; concurrency = many
clients, which is exactly how the bench's N-client load generator and the
concurrency battery use it).  Responses come back either as a plain JSON
object or — for ``/execute`` and ``/query`` — as the service's chunked
newline-delimited JSON stream, which :meth:`_read_stream` folds into a
:class:`ResultSet`.

``query_once`` / ``request_once`` are blocking conveniences for the CLI:
one connection, one request, one ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from .protocol import rows_from_json
from .transport import AUTH_HEADER

__all__ = ["ServiceClient", "ServiceError", "ResultSet", "request_once", "query_once"]


class ServiceError(Exception):
    """A non-2xx answer from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


@dataclass
class ResultSet:
    """A fully received streamed result."""

    labels: List[str] = field(default_factory=list)
    rows: List[list] = field(default_factory=list)
    row_count: int = 0

    def records(self) -> List[tuple]:
        """Rows as engine records (JSON null back to NULL)."""
        return rows_from_json(self.rows)


class ServiceClient:
    """One keep-alive connection to a :class:`~repro.service.server.QueryService`."""

    def __init__(self, url: str, secret: Optional[str] = None, tenant: Optional[str] = None):
        parts = urlsplit(url)
        if parts.hostname is None or parts.port is None:
            raise ValueError(f"service url needs host and port: {url!r}")
        self.host = parts.hostname
        self.port = parts.port
        self.secret = secret
        self.tenant = tenant
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = None
            self._writer = None

    # -- request plumbing ----------------------------------------------------

    def _payload(self, payload: Optional[dict]) -> Optional[dict]:
        if payload is not None and self.tenant is not None:
            payload = {"tenant": self.tenant, **payload}
        return payload

    async def _send_request(self, method: str, path: str, payload: Optional[dict]) -> None:
        await self.connect()
        assert self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if self.secret:
            head.append(f"{AUTH_HEADER}: {self.secret}")
        if body:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        request = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        self._writer.write(request)
        await self._writer.drain()

    async def _read_head(self) -> Tuple[int, Dict[str, str]]:
        assert self._reader is not None
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("service closed the connection") from exc
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _read_body(self, headers: Dict[str, str]) -> bytes:
        assert self._reader is not None
        if (headers.get("transfer-encoding") or "").lower() == "chunked":
            chunks = []
            while True:
                size_line = await self._reader.readline()
                size = int(size_line.split(b";", 1)[0], 16)
                if size == 0:
                    await self._reader.readline()
                    break
                chunks.append(await self._reader.readexactly(size))
                await self._reader.readline()
            return b"".join(chunks)
        length = int(headers.get("content-length") or 0)
        return await self._reader.readexactly(length) if length else b""

    async def _request_json(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        await self._send_request(method, path, self._payload(payload))
        status, headers = await self._read_head()
        body = await self._read_body(headers)
        reply = json.loads(body.decode() or "{}")
        if status != 200:
            raise ServiceError(status, str(reply.get("error", body.decode())))
        return reply

    async def _request_stream(self, path: str, payload: dict) -> ResultSet:
        """POST and fold the NDJSON stream; plain-JSON errors raise."""
        await self._send_request("POST", path, self._payload(payload))
        status, headers = await self._read_head()
        if status != 200 or "ndjson" not in (headers.get("content-type") or ""):
            body = await self._read_body(headers)
            reply = json.loads(body.decode() or "{}")
            raise ServiceError(status, str(reply.get("error", body.decode())))
        assert self._reader is not None
        result = ResultSet()
        # Chunk boundaries and line boundaries are independent: split each
        # chunk once and carry only the unterminated tail into the next.
        tail = b""
        aborted: Optional[str] = None
        done = False
        while True:
            try:
                size_line = await self._reader.readline()
                if not size_line.strip():
                    raise ConnectionError("service dropped the stream")
                size = int(size_line.split(b";", 1)[0], 16)
                if size == 0:
                    await self._reader.readline()
                    break
                chunk = await self._reader.readexactly(size)
                *lines, tail = (tail + chunk).split(b"\n")
                await self._reader.readline()
            except asyncio.IncompleteReadError as exc:
                raise ConnectionError("service dropped mid-chunk") from exc
            for line in lines:
                if not line.strip():
                    continue
                obj = json.loads(line)
                if "labels" in obj:
                    result.labels = obj["labels"]
                elif "rows" in obj:
                    result.rows.extend(obj["rows"])
                elif obj.get("done"):
                    result.row_count = obj["row_count"]
                    done = True
                elif "error" in obj:
                    # The server's abort trailer: the stream ended early
                    # on purpose (deadline, drain, injected drop).
                    aborted = str(obj["error"])
        if aborted is not None:
            raise ServiceError(200, f"stream aborted: {aborted}")
        if not done:
            # The terminator arrived without a done trailer: the stream
            # was cut mid-flight; never hand back a short result as
            # complete.
            raise ConnectionError("stream ended without a done trailer")
        return result

    # -- API -----------------------------------------------------------------

    async def health(self) -> dict:
        return await self._request_json("GET", "/health")

    async def stats(self) -> dict:
        return await self._request_json("GET", "/stats")

    async def load(self, schema: Dict[str, list], tables: Dict[str, list], name: str = "default") -> dict:
        return await self._request_json(
            "POST", "/load", {"name": name, "schema": schema, "tables": tables}
        )

    async def prepare(self, sql: str, database: Optional[str] = None) -> str:
        payload: dict = {"sql": sql}
        if database is not None:
            payload["database"] = database
        reply = await self._request_json("POST", "/prepare", payload)
        return reply["statement"]

    async def execute(
        self,
        statement: str,
        params: Optional[list] = None,
        database: Optional[str] = None,
    ) -> ResultSet:
        payload: dict = {"statement": statement, "params": params or []}
        if database is not None:
            payload["database"] = database
        return await self._request_stream("/execute", payload)

    async def query(self, sql: str, database: Optional[str] = None) -> ResultSet:
        payload: dict = {"sql": sql}
        if database is not None:
            payload["database"] = database
        return await self._request_stream("/query", payload)


# -- blocking conveniences for the CLI --------------------------------------


def request_once(
    url: str,
    method: str,
    path: str,
    payload: Optional[dict] = None,
    secret: Optional[str] = None,
    tenant: Optional[str] = None,
) -> dict:
    """One blocking JSON request on a fresh connection."""

    async def go() -> dict:
        async with ServiceClient(url, secret=secret, tenant=tenant) as client:
            return await client._request_json(method, path, payload)

    return asyncio.run(go())


def query_once(
    url: str,
    sql: str,
    params: Optional[list] = None,
    secret: Optional[str] = None,
    tenant: Optional[str] = None,
    database: Optional[str] = None,
    prepare: bool = False,
) -> ResultSet:
    """One blocking query on a fresh connection.

    With ``prepare=True`` (or any ``params``), the statement is prepared
    first and executed through the prepared path; otherwise it takes the
    ad-hoc ``/query`` path.
    """

    async def go() -> ResultSet:
        async with ServiceClient(url, secret=secret, tenant=tenant) as client:
            if prepare or params:
                statement = await client.prepare(sql, database=database)
                return await client.execute(statement, params or [], database=database)
            return await client.query(sql, database=database)

    return asyncio.run(go())
