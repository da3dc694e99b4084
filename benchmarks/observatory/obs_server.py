"""The served program, in a process of its own so that its CPU time and peak
memory are the service's alone: a default ``QueryService`` on a
``ServiceThread``.

Prints ``{"url": ...}`` once listening, then answers ``usage`` lines on
stdin with this process's CPU seconds and peak resident set, and exits on
``quit`` or when stdin closes (the parent died).
"""

from __future__ import annotations

import json
import sys
import time

from obs_common import rss_mb, use_repo_sources


def main() -> int:
    use_repo_sources()
    from repro.service import QueryService, ServiceThread

    with ServiceThread(QueryService()) as thread:
        print(json.dumps({"url": thread.url}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                usage = {"cpu_s": time.process_time(), "rss_mb": rss_mb()}
                print(json.dumps(usage), flush=True)
            elif command == "quit":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
