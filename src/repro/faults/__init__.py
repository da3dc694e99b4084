"""Seeded, deterministic fault injection for the whole stack.

The repo's central invariant — every fast path is digest-gated against the
formal semantics — is only worth much if it survives failure: a killed
worker, a torn checkpoint line, a dropped socket, a compiled-tier crash.
This module is the one place faults come from, so chaos runs are
*reproducible*: a :class:`FaultPlan` is a pure function of ``(seed, site)``
— each injection site draws from its own :class:`random.Random` stream
seeded from the plan seed and the site name, so the decision sequence at a
site depends only on how many times that site has fired, never on thread
interleaving elsewhere.

Sites are plain dotted strings; the hooks threaded through the stack are:

``transport.connect``
    Drop the connection before the request is sent (retriable: the server
    never saw it).
``transport.read_timeout``
    Time out *after* the request was sent and processed — the dangerous
    half of a timeout, which must not be retried on non-idempotent calls.
``transport.slow``
    A short stall before the request (slow network / partial writes).
``checkpoint.torn``
    Tear the final line of a checkpoint flush and crash, as a kill
    mid-``write()`` would.
``worker.crash``
    A distributed worker dies after acquiring a lease, before submitting.
``worker.duplicate_submit``
    A worker re-sends a submit it already delivered (retry storm shape).
``live.transient``
    A transient ``sqlite3.OperationalError`` from the live backend.
``server.exec_error``
    The service's primary engine raises; the request must be
    retried on a fresh single-use engine, never serve wrong.
``server.slow``
    The service stalls inside request handling (drives deadline tests).
``server.disconnect``
    The client connection drops mid-stream.

Injection is *ambient*: production code calls :func:`fire(site)
<fire>`, which is a no-op (False) unless a plan was installed with
:func:`install` — or, for subprocess workers, via the :data:`ENV_VAR`
environment variable (:func:`install_from_env`), which
:func:`FaultPlan.to_env` round-trips.  Every check and every injection is
counted per site, so chaos benchmarks can assert faults actually happened
(a chaos run that injected nothing proves nothing).
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
from typing import Dict, Mapping, Optional

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "InjectedConnectionError",
    "InjectedTimeout",
    "InjectedOperationalError",
    "InjectedCrash",
    "install",
    "uninstall",
    "current",
    "install_from_env",
    "fire",
    "active",
    "flip_bit",
    "tear_final_line",
]

#: Environment variable carrying a JSON-encoded plan into subprocesses.
ENV_VAR = "REPRO_FAULTS"

#: The known injection sites (documentation + validation; unknown sites
#: are still honoured so tests can invent private ones).
SITES = (
    "transport.connect",
    "transport.read_timeout",
    "transport.slow",
    "checkpoint.torn",
    "worker.crash",
    "worker.duplicate_submit",
    "live.transient",
    "server.exec_error",
    "server.slow",
    "server.disconnect",
)


class InjectedFault:
    """Marker mixin: this exception came from a :class:`FaultPlan`.

    Injected exceptions subclass the *real* exception the site would see
    (``ConnectionResetError``, ``TimeoutError``, …) so production handling
    paths are exercised unchanged; the mixin only lets diagnostics and
    transient-error classifiers tell injected faults apart.
    """


class InjectedConnectionError(InjectedFault, ConnectionResetError):
    """A dropped connection (the request may or may not have been sent)."""


class InjectedTimeout(InjectedFault, TimeoutError):
    """A read timeout after the request was already processed."""


class InjectedOperationalError(InjectedFault, sqlite3.OperationalError):
    """A transient live-backend error (the shape of ``database is locked``)."""


class InjectedCrash(InjectedFault, RuntimeError):
    """A process/tier death: worker crash, compiled-tier failure."""


class FaultPlan:
    """Deterministic per-site fault decisions.

    ``rates`` maps site name to injection probability in ``[0, 1]``;
    ``limits`` optionally caps how many times a site may inject (handy for
    "exactly one tier crash" tests).  Thread-safe; decisions at one site
    are a pure function of ``(seed, site, nth call at that site)``.
    """

    def __init__(
        self,
        seed: int,
        rates: Mapping[str, float],
        limits: Optional[Mapping[str, int]] = None,
    ):
        self.seed = int(seed)
        self.rates = {str(site): float(rate) for site, rate in rates.items()}
        for site, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {rate}")
        self.limits = {str(site): int(cap) for site, cap in (limits or {}).items()}
        self._lock = threading.Lock()
        self._streams: Dict[str, random.Random] = {}
        self.checks: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}

    def _stream(self, site: str) -> random.Random:
        stream = self._streams.get(site)
        if stream is None:
            # A string seed goes through SHA-512 in CPython — stable across
            # processes and runs, unaffected by PYTHONHASHSEED.
            stream = random.Random(f"{self.seed}/{site}")
            self._streams[site] = stream
        return stream

    def fire(self, site: str) -> bool:
        """Should this call at ``site`` fail?  Counts the check either way."""
        with self._lock:
            self.checks[site] = self.checks.get(site, 0) + 1
            rate = self.rates.get(site, 0.0)
            if rate <= 0.0:
                return False
            # Draw before the cap check so the decision stream at a site
            # never depends on how many injections were allowed.
            hit = self._stream(site).random() < rate
            if not hit:
                return False
            cap = self.limits.get(site)
            done = self.injected.get(site, 0)
            if cap is not None and done >= cap:
                return False
            self.injected[site] = done + 1
            return True

    def counts(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "rates": dict(self.rates),
                "checks": dict(self.checks),
                "injected": dict(self.injected),
            }

    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {"seed": self.seed, "rates": dict(self.rates),
                "limits": dict(self.limits)}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "FaultPlan":
        return cls(
            int(payload.get("seed", 0)),
            payload.get("rates") or {},
            payload.get("limits") or None,
        )

    def to_env(self) -> str:
        """The :data:`ENV_VAR` value that reinstalls this plan elsewhere."""
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        return cls.from_json(json.loads(value))


# -- the ambient plan ---------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the ambient plan; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def uninstall() -> None:
    install(None)


def current() -> Optional[FaultPlan]:
    return _ACTIVE


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """Install the plan :data:`ENV_VAR` carries, if any (subprocess entry).

    Called by worker/serve entry points so ``REPRO_FAULTS='{"seed": …}'``
    reaches spawned processes without any argument plumbing.
    """
    value = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not value:
        return None
    plan = FaultPlan.from_env(value)
    install(plan)
    return plan


def fire(site: str) -> bool:
    """Ambient check: False unless an installed plan injects at ``site``."""
    plan = _ACTIVE
    return plan.fire(site) if plan is not None else False


class active:
    """``with faults.active(plan): …`` — scoped install, for tests."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = install(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        install(self._previous)


# -- file-corruption helpers ---------------------------------------------------
#
# Torn and bit-flipped checkpoint lines are injected on files, not call
# sites; these deterministic helpers are what the chaos bench and the
# corruption regression tests use.


def tear_final_line(path: str, keep_fraction: float = 0.5) -> int:
    """Truncate the file mid-way through its final non-empty line, as a
    kill mid-``write()`` would; returns the bytes removed."""
    with open(path, "rb") as handle:
        data = handle.read()
    stripped = data.rstrip(b"\n")
    cut = stripped.rfind(b"\n") + 1  # start of the final line
    line = stripped[cut:]
    keep = max(1, int(len(line) * keep_fraction))
    torn = stripped[: cut + keep]
    with open(path, "wb") as handle:
        handle.write(torn)
    return len(data) - len(torn)


def flip_bit(path: str, line_number: int, bit: int = 1) -> None:
    """Flip one bit inside 1-indexed ``line_number`` of the file.

    The flip lands in the middle of the line's payload (never the
    newline), producing exactly the corruption per-line CRCs exist to
    catch.
    """
    with open(path, "rb") as handle:
        lines = handle.readlines()
    index = line_number - 1
    line = bytearray(lines[index])
    target = max(0, (len(line.rstrip(b"\n")) // 2) - 1)
    line[target] ^= 1 << (bit % 8)
    lines[index] = bytes(line)
    with open(path, "wb") as handle:
        handle.writelines(lines)
