"""The load generator: one process, a closed loop over a few connections.

Closed loop because every caller of this service (campaign workers, the
bench, the ``repro`` CLI) waits for its reply before sending the next
request, and the server executes queries synchronously on its event loop:
``connections`` callers keep it saturated without measuring a scheduler.

Reads a job file (``argv[1]``), connects and prints ``ready``.  Then, for
each pass, waits for ``go`` on stdin, runs the pass, reduces its replies to
digests (outside the timed wall) and prints ``pass``; after the last pass it
writes the result file and prints ``done``.  A pass the job marks as traced
records a client-side span around every request while it runs.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import sys
import time

from obs_common import SpanRecorder, multiset_digest, use_repo_sources

clock = time.perf_counter


async def run_pass(clients, requests, start, end, served, recorder):
    """Send ``requests[start:end]``, each connection taking the next unsent
    request as soon as its previous reply is complete.  With a ``recorder``
    every request is wrapped in a span."""
    from repro.service import ServiceError

    cursor = iter(range(start, end))

    async def caller(client):
        for index in cursor:
            route, text, params = requests[index]
            span = recorder.open("service.client.request", -1, index) if recorder else None
            t0 = clock()
            try:
                if route == "execute":
                    reply = await client.execute(text, params)
                else:
                    reply = await client.query(text)
            except (ServiceError, ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                served[index] = (t0, clock(), None, f"{type(exc).__name__}: {exc}")
                await client.close()
            else:
                served[index] = (t0, clock(), reply.rows, None)
            if recorder:
                recorder.close(span)

    started = clock()
    await asyncio.gather(*(caller(client) for client in clients))
    return clock() - started


def reduce_replies(served, memo):
    """Swap each reply's rows for their digest.  Equal raw bytes mean equal
    rows, so a repeated reply reuses its digest."""
    reduced = []
    for index, (t0, t1, rows, error) in sorted(served.items()):
        digest = None
        if error is None:
            raw = hashlib.blake2b(json.dumps(rows).encode(), digest_size=16).digest()
            digest = memo.get(raw)
            if digest is None:
                digest = memo[raw] = multiset_digest(rows)
        reduced.append([index, t0, t1, digest, error])
    return reduced


async def generate(job) -> list:
    from repro.service import ServiceClient

    clients = [ServiceClient(job["url"]) for _ in range(job["connections"])]
    for client in clients:
        await client.connect()
    print("ready", flush=True)
    memo: dict = {}
    passes = []
    gc.disable()
    try:
        for start, end, traced in job["passes"]:
            if sys.stdin.readline().strip() != "go":
                break
            served: dict = {}
            recorder = SpanRecorder() if traced else None
            wall = await run_pass(clients, job["requests"], start, end, served, recorder)
            passes.append({
                "wall": wall,
                "served": reduce_replies(served, memo),
                "spans": recorder.spans if traced else [],
            })
            gc.collect()
            print("pass", flush=True)
    finally:
        gc.enable()
        for client in clients:
            await client.close()
    return passes


def main() -> int:
    use_repo_sources()
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    outcome = asyncio.run(generate(job))
    with open(job["out"], "w") as handle:
        json.dump(outcome, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
