"""Shared plumbing of the observatory benchmark: statistics, spans, digests.

Everything here is the benchmark's own code.  The program under test is
reached only through ``repro``'s public entry points, imported by the
workload modules after :func:`use_repo_sources` has put ``src/`` on the
path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"


def use_repo_sources() -> None:
    """Put the program's ``src/`` on ``sys.path``: this checkout's, or the
    one ``run.py --src`` names (inherited by the child processes).  The
    command line may not name it, so ``run.py`` cannot rely on
    ``PYTHONPATH``."""
    src = Path(os.environ.get("OBSERVATORY_SRC") or SRC)
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"observatory: no program to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def share(part: float, whole: float) -> float:
    return float(part / whole) if whole else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's measure)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


# -- process accounting ----------------------------------------------------------


def rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    Read from ``VmHWM``, the high-water mark of this process's own address
    space: ``ru_maxrss`` also remembers the peak of whichever process spawned
    this one, so a child of a large parent would report the parent.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- digests -----------------------------------------------------------------------


def digest_of(*parts: object) -> str:
    """SHA-256 over the canonical JSON of ``parts``."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def multiset_digest(rows: Iterable[Sequence[object]]) -> str:
    """Order-independent digest of a result: rows carry ``None`` for NULL.

    Both sides of every comparison (our engine, the served response, the
    ``sqlite3`` oracle) are reduced with this one function, so two results
    have equal digests exactly when they are the same multiset of rows.
    """
    lines = sorted(json.dumps(list(row), separators=(",", ":")) for row in rows)
    body = "\n".join(lines).encode()
    return f"{len(lines)}:{hashlib.sha256(body).hexdigest()[:24]}"


# -- spans ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans: ``(name, start, end, parent, op)``; written at the end.

    The benchmark wraps these around its own calls into each layer; there
    are no spans inside the program.  ``parent`` is the index of the
    enclosing span (-1 for a root) and ``op`` the operation id shared by
    the spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []

    def open(self, name: str, parent: int, op: int) -> int:
        """Reserve a slot for a span that encloses later ones."""
        self.spans.append((name, time.perf_counter(), 0.0, parent, op))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        name, start, _end, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> None:
        self.spans.append((name, start, end, parent, op))

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent, _op), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _o in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


# -- environment -------------------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (absent in a bare export)."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "nogit"


def environment() -> Dict[str, object]:
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1m": round(load1, 2),
        "utc": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
    }


# -- results -----------------------------------------------------------------------------


class GateFailure(Exception):
    """A correctness or determinism gate failed; the run must exit non-zero."""


class WorkloadResult:
    """What one run of one workload measured."""

    def __init__(self, name: str, sizes: Dict[str, object]):
        self.name = name
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples = 0
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.workload_digest = ""
        self.result_digest = ""
        self.notes: Dict[str, object] = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def to_json(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "sizes": self.sizes,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "samples": self.samples,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "workload_digest": self.workload_digest,
            "result_digest": self.result_digest,
            "notes": self.notes,
        }


#: One timed pass: wall seconds, CPU seconds of the process running the
#: program, and a latency in ms per operation (``None``: it failed).
PassTiming = Tuple[float, float, Sequence[Optional[float]]]


def summarize(passes: Sequence[PassTiming]) -> Dict[str, float]:
    """The four timing metrics of one timed window, on every workload alike.

    ``ops_per_s`` and ``cpu_ms_per_op`` are medians over the passes, so a
    pass that met a slow spell of the machine does not set them.  The two
    percentiles pool the raw latency of every operation that succeeded
    (``None`` marks a failed operation: no sample).
    """
    latencies = [ms for _wall, _cpu, pass_ms in passes for ms in pass_ms if ms is not None]
    return {
        "ops_per_s": statistics.median(len(ms) / wall for wall, _cpu, ms in passes),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p95_ms": percentile(latencies, 0.95),
        "cpu_ms_per_op": statistics.median(cpu * 1e3 / len(ms) for _wall, cpu, ms in passes),
        "samples": len(latencies),
    }
