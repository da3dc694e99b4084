"""Distributed campaigns: a coordinator/worker layer over the executor.

The campaign core (:mod:`repro.campaigns.executor`) shards a seed range
across local cores; this module takes the same contract — trials are pure
functions of their seed, aggregation is order-independent — past one
machine.  The division of labour:

* a **coordinator** partitions the seed range ``[base_seed, base_seed +
  trials)`` into contiguous *leases*, records their lifecycle in a lease
  journal, and merges the workers' ``campaign-checkpoint/v1`` files into
  one aggregate whose ``outcome_digest`` is bit-identical to a
  single-machine run of the whole range;
* **workers** run their leased sub-range with the unchanged
  :func:`repro.campaigns.run_campaign` (file-based mode) or an in-process
  backend loop (HTTP mode) and hand the records back.

Two transports cover the deployment spectrum:

* **file-based / offline** (:class:`FileCoordinator`) — the coordinator
  writes the journal plus a ``plan.sh`` of ``repro work --seed-range A:B
  --checkpoint F`` command lines; workers run them anywhere the checkpoint
  directory is reachable (shared filesystem, rsync, artifact upload) and
  the coordinator polls the files, re-issues leases whose worker went
  silent, and merges.  No network path between the processes is required.
* **HTTP** (:class:`Coordinator` + :class:`CoordinatorServer` +
  :func:`work_remote`) — ``repro coordinate --serve PORT`` serves leases
  over a tiny stdlib JSON protocol and ``repro work --coordinator URL``
  polls for them, so workers on other hosts need nothing but the URL.

Fault tolerance is lease re-issue plus deduplicating merge: a lease whose
worker misses its deadline is marked expired in the journal and handed out
again; if the first worker was merely slow, both sets of records arrive
and the duplicates collapse (trials are seed-pure, so any record for a
seed equals any other).  Records that *disagree* raise
:class:`~repro.campaigns.checkpoint.CheckpointConflict` — corruption must
not be merged silently.

Lease journal (``campaign-leases/v1``)
--------------------------------------

Line 1 is a JSON header::

    {"schema": "campaign-leases/v1", "spec": {...}, "base_seed": 0,
     "trials": 100000, "lease_trials": 500}

Every other line is one lifecycle event::

    {"event": "issue", "lease": "lease-0003.a1", "lo": 1500, "hi": 2000,
     "worker": "w1", "attempt": 1, "checkpoint": ".../lease-0003.a1.w1.jsonl",
     "t": 1700000000.0}
    {"event": "complete", "lease": "lease-0003.a1", "t": ...}
    {"event": "expire", "lease": "lease-0003.a1", "reason": "timeout", "t": ...}

The journal is append-only and torn-line tolerant (same reader rules as
checkpoints), so a killed coordinator resumes by replaying it: live leases
stay assigned, expired ranges are re-issued, and the merge re-reads the
worker checkpoint files themselves — the journal carries no trial records.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import socket
import threading
import time
import urllib.error
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..service.transport import JsonHttpServer, JsonRequestHandler, http_json

from .aggregate import Aggregator, CampaignResult
from .backends import CampaignSpec
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointConflict,
    CheckpointWriter,
    load_checkpoint,
    merge_checkpoints,
    read_jsonl,
)

__all__ = [
    "LEASE_SCHEMA",
    "Lease",
    "Coordinator",
    "CoordinatorServer",
    "FileCoordinator",
    "partition_leases",
    "load_journal",
    "work_command",
    "work_remote",
]

LEASE_SCHEMA = "campaign-leases/v1"

#: Default seconds a lease may stay unfinished before it is re-issued.
DEFAULT_LEASE_TIMEOUT_S = 600.0

#: Default number of issues a seed range gets before it is quarantined.
DEFAULT_MAX_LEASE_ATTEMPTS = 5


def partition_leases(
    base_seed: int,
    trials: int,
    parts: Optional[int] = None,
    lease_trials: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``[base_seed, base_seed+trials)``.

    ``lease_trials`` fixes the range size directly; otherwise the span is
    split into ``parts`` equal pieces (the last may be shorter).
    """
    if trials <= 0:
        return []
    if lease_trials is None:
        lease_trials = math.ceil(trials / max(1, parts or 1))
    lease_trials = max(1, lease_trials)
    end = base_seed + trials
    return [
        (lo, min(lo + lease_trials, end))
        for lo in range(base_seed, end, lease_trials)
    ]


@dataclass
class Lease:
    """One issued sub-range of a campaign's seed span."""

    lease_id: str
    lo: int
    hi: int  # exclusive
    worker: str = ""
    attempt: int = 1
    checkpoint: Optional[str] = None
    state: str = "issued"  # issued | completed | expired | quarantined
    issued_at: float = 0.0

    @property
    def trials(self) -> int:
        return self.hi - self.lo

    def seeds(self) -> range:
        return range(self.lo, self.hi)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.lease_id,
            "lo": self.lo,
            "hi": self.hi,
            "worker": self.worker,
            "attempt": self.attempt,
        }
        if self.checkpoint is not None:
            payload["checkpoint"] = self.checkpoint
        return payload


def load_journal(
    path: str,
) -> Tuple[Optional[Dict[str, object]], List[Dict[str, object]]]:
    """Read ``(header, events)`` from a lease journal (same forgiving rules
    as checkpoints: torn or malformed lines are skipped)."""
    return read_jsonl(
        path, lambda payload: isinstance(payload.get("event"), str)
    )


def work_command(
    spec: CampaignSpec, lease: Lease, python: str = "python"
) -> List[str]:
    """The ``repro work`` argv that executes ``lease`` offline.

    The worker reuses :func:`repro.campaigns.run_campaign` unchanged —
    ``--seed-range`` maps to ``base_seed``/``trials``, ``--resume`` makes
    re-running the same command after a crash continue its own file.
    """
    argv = [
        python,
        "-m",
        "repro",
        "work",
        "--seed-range",
        f"{lease.lo}:{lease.hi}",
        "--checkpoint",
        str(lease.checkpoint),
        "--kind",
        spec.kind,
        "--variant",
        spec.variant,
        "--rows",
        str(spec.rows),
        "--resume",
    ]
    if spec.tables is not None:
        argv[-1:-1] = ["--tables", str(spec.tables)]
    return argv


class Coordinator:
    """Transport-agnostic lease bookkeeping + merging for one campaign.

    Thread-safe (the HTTP server drives it from handler threads).  The
    coordinator owns the campaign's :class:`Aggregator`; records submitted
    for any lease — live, expired, or unknown — are folded in with
    duplicate seeds deduplicated and conflicting ones rejected, so a slow
    worker racing its re-issued lease is harmless.  With ``checkpoint``
    the accepted records are also streamed to a normal
    ``campaign-checkpoint/v1`` file (and ``resume=True`` folds an existing
    one back in before handing out leases).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        trials: int,
        base_seed: int = 0,
        lease_trials: Optional[int] = None,
        lease_target_s: Optional[float] = None,
        journal_path: Optional[str] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.spec = spec
        self.trials = trials
        self.base_seed = base_seed
        self.lease_timeout_s = lease_timeout_s
        self.max_lease_attempts = max(1, int(max_lease_attempts))
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._active: Dict[str, Lease] = {}
        self._completed: List[Lease] = []
        # Issue counts per (lo, hi) range; a range that burns through
        # max_lease_attempts issues without completing is poison — some
        # seed in it keeps killing workers — and is quarantined instead of
        # wedging the campaign in an endless re-issue loop.
        self._range_attempts: Dict[Tuple[int, int], int] = {}
        self._quarantined: List[Lease] = []
        self._workers: set = set()
        self.aggregator = Aggregator(spec.label, base_seed, trials)

        self.resumed_trials = 0
        self._writer: Optional[CheckpointWriter] = None
        if checkpoint is not None:
            header = {
                "schema": CHECKPOINT_SCHEMA,
                "spec": spec.to_json(),
                "base_seed": base_seed,
                "trials": trials,
            }
            fresh = True
            if resume:
                existing, records = load_checkpoint(checkpoint, strict=True)
                if existing is not None:
                    if existing.get("spec") != header["spec"] or existing.get(
                        "base_seed"
                    ) != base_seed:
                        raise ValueError(
                            f"{checkpoint}: existing checkpoint belongs to a "
                            "different campaign"
                        )
                    for record in records:
                        if self.aggregator.add(record):
                            self.resumed_trials += 1
                    fresh = False
            self._writer = CheckpointWriter(checkpoint, header, fresh=fresh)

        if lease_trials is None and lease_target_s is not None:
            # Adaptive lease sizing: the checkpoints already record per-trial
            # wall times (``ms``), so a resumed campaign sizes each lease to
            # roughly ``lease_target_s`` of work at the observed median —
            # long enough to amortize the HTTP round trip, short enough
            # that an expired lease re-issues little.
            p50 = self.aggregator.timing_percentiles().get("p50", 0.0)
            if p50 > 0:
                lease_trials = max(1, int(lease_target_s * 1000.0 / p50))
        self.lease_trials_used: Optional[int] = lease_trials
        if lease_trials is None:
            lease_trials = min(500, max(1, trials))
            self.lease_trials_used = lease_trials
        pending = [
            (lo, hi)
            for lo, hi in partition_leases(
                base_seed, trials, lease_trials=lease_trials
            )
            if any(self.aggregator.code_at(seed) == 0 for seed in range(lo, hi))
        ]
        self._pending = deque(pending)

        self._journal: Optional[CheckpointWriter] = None
        if journal_path is not None:
            self._journal = CheckpointWriter(
                journal_path,
                {
                    "schema": LEASE_SCHEMA,
                    "spec": spec.to_json(),
                    "base_seed": base_seed,
                    "trials": trials,
                    "lease_trials": lease_trials,
                },
                fresh=not resume,
            )

    # -- lease lifecycle -----------------------------------------------------

    def acquire(self, worker: str) -> Optional[Lease]:
        """Hand out the next pending range, or None when none is pending.

        Expired leases are recycled first, so a worker joining late picks
        up a dead worker's range before anything new.
        """
        with self._lock:
            self._workers.add(worker)
            self._expire_stale_locked()
            if not self._pending:
                return None
            lo, hi = self._pending.popleft()
            self._seq += 1
            attempt = self._range_attempts.get((lo, hi), 0) + 1
            self._range_attempts[(lo, hi)] = attempt
            lease = Lease(
                lease_id=f"lease-{self._seq:04d}",
                lo=lo,
                hi=hi,
                worker=worker,
                attempt=attempt,
                issued_at=self._clock(),
            )
            self._active[lease.lease_id] = lease
            self._journal_event(
                "issue",
                lease=lease.lease_id,
                lo=lo,
                hi=hi,
                worker=worker,
                attempt=lease.attempt,
            )
            return lease

    def submit(
        self,
        lease_id: str,
        records: Sequence[Dict[str, object]],
        worker: Optional[str] = None,
    ) -> Dict[str, object]:
        """Fold a lease's records in; returns acceptance counters.

        Unknown or expired lease ids are accepted too — their records are
        just as valid, and deduplication handles any overlap with the
        re-issued lease.  :class:`CheckpointConflict` is raised at the
        first record that contradicts an already-folded outcome (each record
        is checked *and* added before the next is checked, so a batch that
        contradicts itself is caught too); the valid records folded before the
        conflict stay folded and checkpointed.
        """
        with self._lock:
            if worker is not None:
                self._workers.add(worker)
            accepted = []
            conflict: Optional[CheckpointConflict] = None
            for record in records:
                existing = self.aggregator.code_at(record["seed"])
                if existing and record["code"] != existing:
                    conflict = CheckpointConflict(
                        f"lease {lease_id}: seed {record['seed']} submitted "
                        f"with code {record['code']}, but code {existing} is "
                        "already recorded"
                    )
                    break
                if self.aggregator.add(record):
                    accepted.append(record)
            if self._writer is not None and accepted:
                self._writer.write_records(accepted)
            if conflict is not None:
                raise conflict
            lease = self._active.pop(lease_id, None)
            if lease is not None:
                lease.state = "completed"
                self._completed.append(lease)
                self._journal_event("complete", lease=lease_id)
            return {
                "accepted": len(accepted),
                "duplicates": len(records) - len(accepted),
                "known_lease": lease is not None,
                "done": self._done_locked(),
            }

    def expire_stale(self) -> List[Lease]:
        """Expire overdue leases, returning them (their ranges re-queue)."""
        with self._lock:
            return self._expire_stale_locked()

    def _expire_stale_locked(self) -> List[Lease]:
        now = self._clock()
        expired = [
            lease
            for lease in self._active.values()
            if now - lease.issued_at > self.lease_timeout_s
        ]
        for lease in expired:
            del self._active[lease.lease_id]
            if lease.attempt >= self.max_lease_attempts:
                # Poison lease: every issue of this range has died.  Report
                # it and move on — re-issuing forever would wedge the
                # campaign behind one bad seed range.
                lease.state = "quarantined"
                self._quarantined.append(lease)
                self._journal_event(
                    "quarantine",
                    lease=lease.lease_id,
                    lo=lease.lo,
                    hi=lease.hi,
                    attempts=lease.attempt,
                    reason="max lease attempts exhausted",
                )
            else:
                lease.state = "expired"
                self._pending.append((lease.lo, lease.hi))
                self._journal_event(
                    "expire", lease=lease.lease_id, reason="timeout"
                )
        return expired

    # -- results -------------------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return self._done_locked()

    def _quarantined_pending_locked(self) -> int:
        """Seeds inside quarantined ranges still lacking a record.

        Computed live: a slow first worker's late submit can still fill a
        quarantined range's seeds (deduplication makes that harmless), and
        those seeds must not be counted as abandoned twice.
        """
        return sum(
            1
            for lease in self._quarantined
            for seed in range(lease.lo, lease.hi)
            if self.aggregator.code_at(seed) == 0
        )

    def _done_locked(self) -> bool:
        # A campaign with quarantined ranges finishes — visibly incomplete
        # (the status reports exactly which seeds were abandoned) — rather
        # than wedging on ranges no worker survives.
        done = self.aggregator.completed >= self.trials
        if not done and self._quarantined:
            done = (
                self.aggregator.completed + self._quarantined_pending_locked()
                >= self.trials
                and not self._pending
                and not self._active
            )
        return done

    def quarantined(self) -> List[Dict[str, object]]:
        """The quarantined leases, with their still-missing seed counts."""
        with self._lock:
            return [
                {
                    "id": lease.lease_id,
                    "lo": lease.lo,
                    "hi": lease.hi,
                    "worker": lease.worker,
                    "attempts": lease.attempt,
                    "pending": sum(
                        1
                        for seed in range(lease.lo, lease.hi)
                        if self.aggregator.code_at(seed) == 0
                    ),
                }
                for lease in self._quarantined
            ]

    def status(self) -> Dict[str, object]:
        with self._lock:
            return {
                "trials": self.trials,
                "base_seed": self.base_seed,
                "completed": self.aggregator.completed,
                "mismatches": len(self.aggregator.mismatches),
                "pending_ranges": len(self._pending),
                "lease_trials": self.lease_trials_used,
                "active_leases": [lease.to_json() for lease in self._active.values()],
                "workers": sorted(self._workers),
                "quarantined_ranges": len(self._quarantined),
                "quarantined_pending": self._quarantined_pending_locked(),
                "done": self._done_locked(),
            }

    def result(self, elapsed_s: float = 0.0) -> CampaignResult:
        with self._lock:
            return self.aggregator.finalize(
                elapsed_s=elapsed_s,
                jobs=max(1, len(self._workers)),
                resumed_trials=self.resumed_trials,
            )

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self._journal is not None:
            self._journal.close()

    def _journal_event(self, event: str, **fields) -> None:
        if self._journal is not None:
            record = {"event": event, "t": round(time.time(), 3)}
            record.update(fields)
            self._journal.write_records([record])


# -- HTTP transport ----------------------------------------------------------
#
# The wire mechanics (JSON framing, chunked submits, shared-secret auth,
# the threaded server wrapper, the retrying client) live in
# :mod:`repro.service.transport` — one transport for the campaign
# coordinator and the always-on query service.  This section only maps
# coordinator operations onto it.


class _CoordinatorHandler(JsonRequestHandler):
    """JSON-over-HTTP front end: POST /lease, POST /submit, GET /status."""

    @property
    def coordinator(self) -> Coordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if not self._authorized():
            return
        if self.path == "/status":
            self._send(self.coordinator.status())
        else:
            self._send({"error": f"unknown path {self.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802
        if not self._authorized():
            return
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send({"error": str(exc)}, 400)
            return
        coordinator = self.coordinator
        if self.path == "/lease":
            worker = str(payload.get("worker") or "anonymous")
            try:
                lease = coordinator.acquire(worker)
            except Exception as exc:  # e.g. a torn journal write
                # Same contract as /submit: a clean 500, not a stack trace.
                # The worker simply polls again; an issued-but-unanswered
                # lease expires and re-queues.
                self._send({"error": f"{type(exc).__name__}: {exc}"}, 500)
                return
            self._send(
                {
                    "spec": coordinator.spec.to_json(),
                    "lease": lease.to_json() if lease is not None else None,
                    "done": coordinator.done,
                }
            )
        elif self.path == "/submit":
            try:
                outcome = coordinator.submit(
                    str(payload.get("lease")),
                    payload.get("records") or [],
                    worker=payload.get("worker"),
                )
            except CheckpointConflict as exc:
                self._send({"error": str(exc)}, 409)
                return
            except Exception as exc:  # e.g. a torn checkpoint write
                # A clean 500 instead of a stack trace and a dropped
                # socket: the worker treats it as a failed submit and the
                # lease re-issues (already-folded records deduplicate).
                self._send({"error": f"{type(exc).__name__}: {exc}"}, 500)
                return
            self._send(outcome)
        else:
            self._send({"error": f"unknown path {self.path}"}, 404)

class CoordinatorServer(JsonHttpServer):
    """The shared threaded HTTP server wrapped around a :class:`Coordinator`.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address either way.  With a ``secret``, every request must carry
    it in the shared transport's auth header.  Use as a context manager or
    call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        secret: Optional[str] = None,
    ):
        self.coordinator = coordinator
        super().__init__(
            _CoordinatorHandler,
            host=host,
            port=port,
            secret=secret,
            name="repro-coordinator",
            coordinator=coordinator,
        )


def _http_json(
    url: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 60.0,
    **options,
) -> Dict[str, object]:
    return http_json(url, payload, timeout_s=timeout, **options)


def _run_lease_local(
    spec: CampaignSpec, lo: int, hi: int, jobs: int
) -> List[Dict[str, object]]:
    """Run one leased seed range through :func:`run_campaign(jobs=N)
    <repro.campaigns.executor.run_campaign>` and read the records back
    from a local checkpoint.

    This is how an HTTP worker uses all its cores: the lease becomes a
    miniature local campaign (seed-sharded over ``jobs`` processes,
    checkpointed to a temporary file), and the records — seed-pure, so
    bit-identical to serial execution at any ``jobs`` — are read back
    from the checkpoint in seed order for submission.
    """
    import tempfile

    from .executor import run_campaign

    with tempfile.TemporaryDirectory(prefix="repro-work-") as tmp:
        path = os.path.join(tmp, f"lease-{lo}-{hi}.jsonl")
        run_campaign(spec, trials=hi - lo, base_seed=lo, jobs=jobs, checkpoint=path)
        _header, records = load_checkpoint(path)
    by_seed: Dict[int, Dict[str, object]] = {}
    for record in records:
        seed = record["seed"]
        if lo <= seed < hi and seed not in by_seed:
            by_seed[seed] = record
    return [by_seed[seed] for seed in sorted(by_seed)]


def work_remote(
    url: str,
    worker: Optional[str] = None,
    poll_s: float = 1.0,
    max_idle_polls: Optional[int] = None,
    jobs: int = 1,
    timeout_s: float = 60.0,
    retries: int = 0,
    backoff_s: float = 0.5,
    secret: Optional[str] = None,
    chunked: bool = False,
) -> Dict[str, object]:
    """Worker loop for ``repro work --coordinator URL``.

    Polls ``/lease``, runs each leased seed range with a backend built
    once from the coordinator's spec, and posts the records to
    ``/submit``; returns a summary once the coordinator reports the
    campaign done (or after ``max_idle_polls`` consecutive empty polls).
    With ``jobs > 1`` each lease runs through the parallel local executor
    instead (:func:`_run_lease_local`), so one remote worker saturates
    all its cores; seed-purity keeps the submitted records — and the
    campaign digest — bit-identical to serial execution.
    With ``retries > 0`` a connection-level failure — the shape of a
    coordinator *restart*, not a finished campaign — is retried with
    exponential backoff (``backoff_s`` doubling per attempt, requests
    capped at ``timeout_s``) before the worker gives up, so a worker
    outlives a coordinator bounce and simply re-acquires a lease from the
    resumed campaign.  A coordinator that stays unreachable past the
    retry budget ends the loop cleanly rather than crashing: an
    unsubmitted lease will simply be re-issued.  The summary carries a
    ``note`` when that happens.  ``secret`` authenticates every request
    through the shared transport; ``chunked`` streams submit bodies with
    chunked transfer encoding.
    """
    from .. import faults
    from ..service.transport import _is_timeout

    worker = worker or f"{socket.gethostname()}-{os.getpid()}"
    url = url.rstrip("/")
    options = {
        "timeout_s": timeout_s,
        "retries": retries,
        "backoff_s": backoff_s,
        "secret": secret,
    }
    spec: Optional[CampaignSpec] = None
    backend = None
    spec_json: Optional[Dict[str, object]] = None
    leases = 0
    trials_run = 0
    idle = 0
    crashes = 0
    note: Optional[str] = None
    while True:
        try:
            # Idempotent: acquiring a lease twice because the first reply
            # was lost just issues a range that will expire and re-queue —
            # the dedup merge absorbs any overlap.
            reply = http_json(
                f"{url}/lease", {"worker": worker}, idempotent=True, **options
            )
        except urllib.error.HTTPError as exc:
            if exc.code >= 500:
                # Coordinator-side trouble (e.g. a torn journal write):
                # poll again — a half-issued lease expires and re-queues.
                note = f"lease answered {exc.code}; retrying"
                time.sleep(poll_s)
                continue
            raise
        except OSError as exc:  # URLError, refused/reset connections
            note = f"coordinator unreachable ({exc}); stopping"
            break
        lease = reply.get("lease")
        if lease is None:
            if reply.get("done"):
                break
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            time.sleep(poll_s)
            continue
        idle = 0
        if spec is None or reply.get("spec") != spec_json:
            spec_json = reply["spec"]
            spec = CampaignSpec.from_json(spec_json)
            backend = None
        try:
            if faults.fire("worker.crash"):
                raise faults.InjectedCrash(
                    f"injected worker crash holding {lease['id']}"
                )
            if jobs > 1:
                records = _run_lease_local(spec, lease["lo"], lease["hi"], jobs)
            else:
                if backend is None:
                    backend = spec.build()
                records = [
                    backend.run_trial(seed)
                    for seed in range(lease["lo"], lease["hi"])
                ]
        except faults.InjectedCrash:
            # The "process" died holding the lease: nothing is submitted,
            # the lease expires and re-issues.  (The loop continuing here
            # models the worker's supervised restart.)
            crashes += 1
            backend = None
            continue
        submit_payload = {
            "lease": lease["id"],
            "worker": worker,
            "records": records,
        }
        try:
            # NOT idempotent: a /submit whose response is lost was very
            # likely processed; blindly re-sending it is exactly the retry
            # bug this flag exists to prevent.  (The coordinator's dedup
            # would absorb it, but dedup is the backstop, not the policy.)
            outcome = http_json(
                f"{url}/submit", submit_payload, chunked=chunked, **options
            )
        except urllib.error.HTTPError as exc:
            if exc.code >= 500:
                # Server-side trouble (e.g. its checkpoint write died
                # mid-line): the records either landed or the lease will
                # re-issue; keep working.
                note = f"submit answered {exc.code}; continuing"
                continue
            raise
        except OSError as exc:
            if _is_timeout(exc):
                # The records were probably accepted and only the reply
                # was lost; keep polling — either the range is recorded,
                # or the lease expires and re-issues.
                note = (
                    f"submit reply lost ({exc}); continuing — the lease "
                    "completes or re-issues server-side"
                )
                continue
            note = (
                f"coordinator unreachable on submit ({exc}); the lease "
                "will be re-issued"
            )
            break
        leases += 1
        trials_run += len(records)
        if faults.fire("worker.duplicate_submit"):
            # A retry-storm shape: the same submit delivered twice.  The
            # coordinator's seed dedup must absorb it without double
            # counting; a failure of the duplicate changes nothing.
            try:
                http_json(
                    f"{url}/submit", submit_payload, chunked=chunked, **options
                )
            except OSError:
                pass
        if outcome.get("done"):
            break
    summary: Dict[str, object] = {
        "worker": worker,
        "leases": leases,
        "trials": trials_run,
        "crashes": crashes,
    }
    if note is not None:
        summary["note"] = note
    return summary


# -- file-based transport ----------------------------------------------------


class FileCoordinator:
    """File-based (offline) coordination: leases are checkpoint files.

    The coordinator never talks to its workers: it assigns each lease a
    checkpoint path under ``out_dir``, emits the ``repro work`` command
    lines that produce those files (:meth:`plan` / :meth:`write_plan`),
    and observes progress purely by re-reading the files (:meth:`poll`).
    A lease whose file has not covered its range within
    ``lease_timeout_s`` of being issued is expired in the journal and
    re-issued under a fresh attempt/path (:meth:`reissue_stale`); the
    partial file still contributes to the merge, where duplicate seeds
    collapse.  Constructing a second coordinator over the same ``out_dir``
    replays the journal and resumes — the CI/bench pattern is
    plan → run workers → construct again → :meth:`merge`.
    """

    JOURNAL_NAME = "leases.jsonl"

    def __init__(
        self,
        spec: CampaignSpec,
        trials: int,
        base_seed: int = 0,
        workers: Sequence[str] = ("w1", "w2", "w3"),
        out_dir: str = "distributed-campaign",
        lease_trials: Optional[int] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
        python: str = "python",
    ):
        if not workers:
            raise ValueError("FileCoordinator needs at least one worker name")
        self.spec = spec
        self.trials = trials
        self.base_seed = base_seed
        self.workers = [str(name) for name in workers]
        self.out_dir = out_dir
        self.lease_timeout_s = lease_timeout_s
        self.python = python
        self._clock = clock
        os.makedirs(out_dir, exist_ok=True)
        self.journal_path = os.path.join(out_dir, self.JOURNAL_NAME)

        if lease_trials is None:
            lease_trials = math.ceil(trials / len(self.workers))
        header = {
            "schema": LEASE_SCHEMA,
            "spec": spec.to_json(),
            "base_seed": base_seed,
            "trials": trials,
            "lease_trials": lease_trials,
        }
        existing, events = load_journal(self.journal_path)
        self._leases: Dict[str, Lease] = {}
        # Checkpoint size at the last incomplete parse, per lease — the
        # files are append-only, so an unchanged size means an unchanged
        # (incomplete) verdict and poll() can skip re-parsing them.
        self._incomplete_at_size: Dict[str, int] = {}
        if existing is not None:
            for key in ("schema", "spec", "base_seed", "trials", "lease_trials"):
                if existing.get(key) != header[key]:
                    raise ValueError(
                        f"{self.journal_path}: journal {key} mismatch — file has "
                        f"{existing.get(key)!r}, campaign wants {header[key]!r}"
                    )
            self._replay(events)
        self.lease_trials = int(lease_trials)
        self._journal = CheckpointWriter(
            self.journal_path, header, fresh=existing is None
        )
        self._issue_missing()

    def _replay(self, events: Sequence[Dict[str, object]]) -> None:
        now = self._clock()
        for event in events:
            kind = event.get("event")
            if kind == "issue":
                lease = Lease(
                    lease_id=str(event.get("lease")),
                    lo=int(event["lo"]),
                    hi=int(event["hi"]),
                    worker=str(event.get("worker", "")),
                    attempt=int(event.get("attempt", 1)),
                    checkpoint=event.get("checkpoint"),
                    issued_at=now,  # the clock restarts with the coordinator
                )
                self._leases[lease.lease_id] = lease
            elif kind in ("complete", "expire"):
                lease = self._leases.get(str(event.get("lease")))
                if lease is not None:
                    lease.state = "completed" if kind == "complete" else "expired"

    def _issue_missing(self) -> None:
        """Issue a lease for every range lacking a live (non-expired) one."""
        ranges = partition_leases(
            self.base_seed, self.trials, lease_trials=self.lease_trials
        )
        live = {
            (lease.lo, lease.hi)
            for lease in self._leases.values()
            if lease.state != "expired"
        }
        attempts: Dict[Tuple[int, int], int] = {}
        for lease in self._leases.values():
            key = (lease.lo, lease.hi)
            attempts[key] = max(attempts.get(key, 0), lease.attempt)
        for index, (lo, hi) in enumerate(ranges):
            if (lo, hi) in live:
                continue
            self._issue(
                index, lo, hi, self.workers[index % len(self.workers)],
                attempts.get((lo, hi), 0) + 1,
            )

    def _issue(
        self, index: int, lo: int, hi: int, worker: str, attempt: int
    ) -> Lease:
        lease_id = f"lease-{index:04d}.a{attempt}"
        lease = Lease(
            lease_id=lease_id,
            lo=lo,
            hi=hi,
            worker=worker,
            attempt=attempt,
            checkpoint=os.path.join(self.out_dir, f"{lease_id}.{worker}.jsonl"),
            issued_at=self._clock(),
        )
        self._leases[lease_id] = lease
        self._journal_event(
            "issue",
            lease=lease_id,
            lo=lo,
            hi=hi,
            worker=worker,
            attempt=attempt,
            checkpoint=lease.checkpoint,
        )
        return lease

    def _journal_event(self, event: str, **fields) -> None:
        record: Dict[str, object] = {"event": event, "t": round(time.time(), 3)}
        record.update(fields)
        self._journal.write_records([record])

    # -- plan ----------------------------------------------------------------

    def active_leases(self) -> List[Lease]:
        """The issued-but-unfinished leases, in range order."""
        return sorted(
            (l for l in self._leases.values() if l.state == "issued"),
            key=lambda lease: lease.lo,
        )

    def plan(self) -> List[Tuple[Lease, List[str]]]:
        """``(lease, argv)`` for every lease a worker still has to run."""
        return [
            (lease, work_command(self.spec, lease, python=self.python))
            for lease in self.active_leases()
        ]

    def write_plan(self, path: Optional[str] = None) -> str:
        """Write ``plan.sh`` running every active lease in parallel."""
        path = path or os.path.join(self.out_dir, "plan.sh")
        lines = [
            "#!/bin/sh",
            "# Generated by `repro coordinate` — one worker command per lease.",
            "# Run on any machine(s) sharing the checkpoint directory, then",
            "# re-run `repro coordinate` (same flags) to merge.",
        ]
        for lease, argv in self.plan():
            lines.append(
                f"# {lease.lease_id}: seeds [{lease.lo}, {lease.hi}) -> {lease.worker}"
            )
            lines.append(" ".join(shlex.quote(arg) for arg in argv) + " &")
        lines.append("wait")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        os.chmod(path, 0o755)
        return path

    # -- progress ------------------------------------------------------------

    def _lease_complete(self, lease: Lease) -> bool:
        if lease.checkpoint is None or not os.path.exists(lease.checkpoint):
            return False
        size = os.path.getsize(lease.checkpoint)
        if self._incomplete_at_size.get(lease.lease_id) == size:
            return False  # nothing appended since the last incomplete parse
        _header, records = load_checkpoint(lease.checkpoint)
        covered = {
            record["seed"]
            for record in records
            if lease.lo <= record["seed"] < lease.hi
        }
        if len(covered) >= lease.trials:
            self._incomplete_at_size.pop(lease.lease_id, None)
            return True
        self._incomplete_at_size[lease.lease_id] = size
        return False

    def poll(self) -> Dict[str, object]:
        """Re-read every live lease's checkpoint; mark newly complete ones."""
        for lease in list(self._leases.values()):
            if lease.state == "issued" and self._lease_complete(lease):
                lease.state = "completed"
                self._journal_event("complete", lease=lease.lease_id)
        states = [lease.state for lease in self._leases.values()]
        return {
            "completed": states.count("completed"),
            "issued": states.count("issued"),
            "expired": states.count("expired"),
            "done": states.count("issued") == 0,
        }

    def reissue_stale(self) -> List[Lease]:
        """Expire overdue unfinished leases; issue replacements.

        Returns the *replacement* leases (rotated to the next worker —
        the original one is presumed dead).  The expired lease's partial
        checkpoint still merges; overlap deduplicates.
        """
        now = self._clock()
        ranges = partition_leases(
            self.base_seed, self.trials, lease_trials=self.lease_trials
        )
        index_of = {(lo, hi): i for i, (lo, hi) in enumerate(ranges)}
        replacements: List[Lease] = []
        for lease in list(self._leases.values()):
            if lease.state != "issued":
                continue
            if now - lease.issued_at <= self.lease_timeout_s:
                continue
            lease.state = "expired"
            self._journal_event("expire", lease=lease.lease_id, reason="timeout")
            index = index_of.get((lease.lo, lease.hi), 0)
            worker = self.workers[(index + lease.attempt) % len(self.workers)]
            replacements.append(
                self._issue(index, lease.lo, lease.hi, worker, lease.attempt + 1)
            )
        return replacements

    def wait(
        self,
        poll_s: float = 1.0,
        timeout_s: Optional[float] = None,
        reissue: bool = True,
        on_reissue: Optional[Callable[[Lease], None]] = None,
    ) -> bool:
        """Poll until every lease completes; False on overall timeout."""
        started = self._clock()
        while True:
            status = self.poll()
            if status["done"]:
                return True
            if reissue:
                for lease in self.reissue_stale():
                    if on_reissue is not None:
                        on_reissue(lease)
            if timeout_s is not None and self._clock() - started > timeout_s:
                return False
            time.sleep(poll_s)

    # -- merge ---------------------------------------------------------------

    def checkpoint_paths(self) -> List[str]:
        """Every lease checkpoint that exists on disk — expired attempts
        included (their partial records merge and deduplicate)."""
        return [
            lease.checkpoint
            for lease in sorted(self._leases.values(), key=lambda l: l.lease_id)
            if lease.checkpoint is not None and os.path.exists(lease.checkpoint)
        ]

    def merge(self, merged_path: Optional[str] = None) -> CampaignResult:
        """Merge all worker checkpoints over the campaign's full range."""
        paths = self.checkpoint_paths()
        if not paths:
            raise ValueError(
                f"{self.out_dir}: no worker checkpoints exist yet; run the "
                "plan's `repro work` commands first"
            )
        return merge_checkpoints(
            paths,
            merged_path=merged_path,
            base_seed=self.base_seed,
            trials=self.trials,
        )

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "FileCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
