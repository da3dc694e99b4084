"""The served result path: ``Engine.execute_rows`` → slice → one
``json.dumps`` per batch → chunked NDJSON → ``ServiceClient``.

Wire compatibility (labels first, no empty ``rows`` line, every batch but
the last full, one ``done`` line with the right ``row_count``, every line
byte-identical to the per-row encoding it replaced) and equivalence (the
decoded rows are exactly ``Engine.execute(...).bag`` as a multiset) at
every batch boundary, over NULLs, duplicates and strings the encoder must
escape.  Then the client's line reassembly at every chunk offset, the
construction-time batching checks, and the canaries: seeded result-path
bugs that must trip the battery (CI runs them by name and counts them).
"""

import asyncio
import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.core import NULL, Database, Schema
from repro.core.bag import Bag
from repro.engine import Engine
from repro.engine import engine as engine_module
from repro.service import (
    QueryService,
    ResultSet,
    ServiceClient,
    ServiceThread,
    row_to_json,
)
from repro.sql import annotate

BATCH = 4
SIZES = [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH]
SCHEMA = Schema({"R": ("A", "B")})
SQL = "SELECT R.A, R.B FROM R"
#: NULLs, a duplicated row, and strings JSON must escape or pass through.
VALUES = [
    (1, 'say "hi"'),
    (NULL, "two\nlines\r\n"),
    (1, 'say "hi"'),
    (3, NULL),
    (4, "naïve — 結果   \\ /"),
    (NULL, NULL),
    (5, ""),
    (6, "\x00\t'"),
]


def make_db(n):
    return Database(SCHEMA, {"R": VALUES[:n]})


def post_raw(url, path, payload):
    """One POST on a fresh connection; the de-chunked body as raw NDJSON
    lines, and whether the chunk terminator arrived."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    conn.request(
        "POST", path, body=json.dumps(payload), headers={"Connection": "close"}
    )
    response = conn.getresponse()
    try:
        body, complete = response.read(), True
    except http.client.IncompleteRead as exc:
        body, complete = exc.partial, False
    conn.close()
    return response.status, body.split(b"\n")[:-1], complete


def check_result_path(n, route="query"):
    """Serve the first ``n`` rows with ``batch_rows=BATCH`` and hold the
    response — raw and through the client — to the contract."""
    db = make_db(n)
    expected = Engine(SCHEMA).execute(annotate(SQL, SCHEMA), db)
    service = QueryService(batch_rows=BATCH)
    service.install_database(db)
    with ServiceThread(service) as thread:

        async def through_client():
            async with ServiceClient(thread.url) as client:
                if route == "query":
                    return await client.query(SQL)
                return await client.execute(await client.prepare(SQL), [])

        result = asyncio.run(through_client())
        payload = {"sql": SQL}
        status, lines, complete = post_raw(thread.url, "/query", payload)
    assert status == 200 and complete
    objects = [json.loads(line) for line in lines]
    assert objects[0] == {"labels": ["A", "B"]}
    assert objects[-1] == {"done": True, "row_count": n}
    batches = [obj["rows"] for obj in objects[1:-1]]
    assert all(set(obj) == {"rows"} for obj in objects[1:-1])
    tail = [n % BATCH] if n % BATCH else []
    assert [len(batch) for batch in batches] == [BATCH] * (n // BATCH) + tail
    # Byte-identical to the encoding this path replaced.
    for line, batch in zip(lines[1:-1], batches):
        assert line == json.dumps({"rows": [row_to_json(r) for r in batch]}).encode()
    # Equivalence: what the client decodes is the engine's bag.
    raw = ResultSet(rows=[row for batch in batches for row in batch])
    for decoded in (result, raw):
        assert Bag(decoded.records()) == expected.bag
    assert result.labels == list(expected.columns) and result.row_count == n


@pytest.mark.parametrize("route", ["query", "execute"])
@pytest.mark.parametrize("n", SIZES)
def test_wire_format_and_bag_equivalence_at_every_batch_boundary(n, route):
    check_result_path(n, route)


# -- client line reassembly ---------------------------------------------------


class _NullWriter:
    def write(self, data):
        pass

    async def drain(self):
        pass


def _fold(pieces):
    """Feed ``pieces`` as the HTTP chunks of one streamed response through
    the client, over a real StreamReader and a writer that goes nowhere."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        for piece in pieces:
            reader.feed_data(b"%x\r\n%s\r\n" % (len(piece), piece))
        reader.feed_data(b"0\r\n\r\n")
        reader.feed_eof()
        client = ServiceClient("http://stub:1")
        client._reader, client._writer = reader, _NullWriter()
        return await client._request_stream("/query", {"sql": SQL})

    return asyncio.run(go())


def test_client_reassembles_lines_at_every_chunk_offset():
    """Chunk and line boundaries are independent: one response re-chunked
    at every byte offset (and byte by byte, and coalesced into a single
    chunk) folds to the same result."""
    rows = [row_to_json(r) for r in VALUES[:5]]
    stream = b"".join(
        json.dumps(obj).encode() + b"\n"
        for obj in (
            {"labels": ["A", "B"]},
            {"rows": rows[:3]},
            {"rows": rows[3:]},
            {"done": True, "row_count": 5},
        )
    )
    whole = _fold([stream])
    assert (whole.labels, whole.rows, whole.row_count) == (["A", "B"], rows, 5)
    splits = [[stream[:k], stream[k:]] for k in range(1, len(stream))]
    splits.append([stream[k : k + 1] for k in range(len(stream))])
    for pieces in splits:
        assert _fold(pieces) == whole


# -- construction-time checks -------------------------------------------------


@pytest.mark.parametrize("kwargs", [{"batch_rows": 0}, {"batch_rows": -1}, {"buffer_bytes": 0}])
def test_nonsensical_batching_is_rejected_at_construction(kwargs):
    with pytest.raises(ValueError, match="must be >= 1"):
        QueryService(**kwargs)


def test_serve_batch_rows_zero_is_a_usage_error():
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--batch-rows", "0"])
    assert "--batch-rows must be at least 1" in str(excinfo.value)


# -- canaries -----------------------------------------------------------------


def test_canary_dropped_tail_batch_trips_the_battery(monkeypatch):
    """(a) the partial batch after the last full one never leaves."""
    stream = QueryService._stream_result

    async def drop_tail(self, writer, labels, rows):
        await stream(self, writer, labels, rows[: len(rows) // BATCH * BATCH])

    monkeypatch.setattr(QueryService, "_stream_result", drop_tail)
    for n in SIZES:
        if n % BATCH:
            with pytest.raises(AssertionError):
                check_result_path(n)
        else:
            check_result_path(n)


def test_canary_null_singleton_leak_is_a_clean_failure(monkeypatch):
    """(c) NULL reaches the encoder un-restored-to-None: the request fails
    (counted, stream cut before any row bytes) — never a 200 that parses."""
    monkeypatch.setattr(
        engine_module,
        "_as_rows",
        lambda labels, rows: (labels, list(engine_module._as_table(labels, rows).bag)),
    )
    with pytest.raises(ConnectionError):
        check_result_path(2 * BATCH)
    service = QueryService(batch_rows=BATCH)
    service.install_database(make_db(2 * BATCH))
    with ServiceThread(service) as thread:
        _status, lines, complete = post_raw(thread.url, "/query", {"sql": SQL})
    assert not complete and service.internal_errors == 1
    assert not any(b"done" in line or b"rows" in line for line in lines)
