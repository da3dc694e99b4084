"""Prepared statements and per-tenant state for the query service.

A :class:`PreparedStatement` is parsed and annotated exactly once, at
``/prepare`` time; every ``/execute`` only binds parameter values into the
frozen AST (:func:`repro.service.protocol.bind_parameters`) and hands the
bound query to the tenant's :class:`~repro.engine.Engine`, whose plan
cache and cross-query :class:`~repro.engine.binding.BuildSideCache` do the
actual sharing.  Statement ids are unguessable tokens scoped to one
tenant: looking a statement up always goes through the owning tenant's
table, so one tenant's ids are simply undefined in another's namespace.

The registry is byte-budgeted with LRU-by-tenant fairness: when the
statements' combined estimated bytes exceed ``max_statement_bytes``, the
tenant holding the most bytes evicts *its* least-recently-used statement
first — a noisy tenant ages out its own statements before it can push
another tenant's out.
"""

from __future__ import annotations

import secrets
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.schema import Database, Schema
from ..engine import Engine
from ..sql import annotate
from .protocol import ProtocolError, ast_bytes, bind_parameters, expand_placeholders

__all__ = ["PreparedStatement", "Tenant", "ServiceRegistry"]

#: Bound-AST memo entries kept per statement (distinct parameter tuples).
BOUND_MEMO_SIZE = 64


class PreparedStatement:
    """One parsed-and-annotated statement template plus its binding memo."""

    def __init__(self, sql: str, schema: Schema, database: str):
        self.sql = sql
        self.database = database
        template, self.param_count = expand_placeholders(sql)
        # Parse + annotate once; compile/optimize happens at first execute
        # through the engine's plan cache (keyed by the bound AST).
        self.query = annotate(template, schema)
        #: params tuple -> bound AST, a small LRU so the hot path of a
        #: repeated binding skips even the substitution walk.
        self._bound: "OrderedDict[tuple, object]" = OrderedDict()
        self.executions = 0
        self.bytes = ast_bytes(self.query) + len(sql)

    def bind(self, params: List[object]):
        """The annotated AST with ``params`` bound (memoized per tuple)."""
        if self.param_count == 0 and not params:
            return self.query
        key = tuple(params)
        bound = self._bound.get(key)
        if bound is None:
            bound = bind_parameters(self.query, list(params), self.param_count)
            self._bound[key] = bound
            if len(self._bound) > BOUND_MEMO_SIZE:
                self._bound.popitem(last=False)
        else:
            self._bound.move_to_end(key)
        return bound


class Tenant:
    """One tenant's databases, engine, and statement table."""

    def __init__(
        self,
        name: str,
        dialect: str = "postgres",
        plan_cache_size: int = 256,
        plan_cache_bytes: Optional[int] = None,
        build_cache_size: int = 128,
        build_cache_bytes: Optional[int] = None,
    ):
        self.name = name
        self.dialect = dialect
        self._engine_options = {
            "plan_cache_size": plan_cache_size,
            "plan_cache_bytes": plan_cache_bytes,
            "build_cache_size": build_cache_size,
            "build_cache_bytes": build_cache_bytes,
        }
        self.databases: Dict[str, Database] = {}
        #: One engine per schema shape: the engine key is the schema's
        #: table/column layout, so statements prepared against databases
        #: sharing a schema also share plan and build caches — the
        #: cross-query sharing surface.
        self.engines: Dict[tuple, Engine] = {}
        self.statements: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self.statement_bytes = 0
        self.executions = 0

    def add_database(self, name: str, db: Database) -> None:
        self.databases[name] = db

    def engine_for(self, schema: Schema) -> Engine:
        key = tuple(sorted((t, schema.attributes(t)) for t in schema.table_names))
        engine = self.engines.get(key)
        if engine is None:
            engine = self.engines[key] = Engine(
                schema, self.dialect, **self._engine_options
            )
        return engine

    def touch(self, statement_id: str) -> Optional[PreparedStatement]:
        statement = self.statements.get(statement_id)
        if statement is not None:
            self.statements.move_to_end(statement_id)
        return statement


class ServiceRegistry:
    """All tenants plus the cross-tenant statement byte budget."""

    def __init__(
        self,
        dialect: str = "postgres",
        plan_cache_size: int = 256,
        plan_cache_bytes: Optional[int] = None,
        build_cache_size: int = 128,
        build_cache_bytes: Optional[int] = None,
        max_statement_bytes: Optional[int] = None,
    ):
        self._tenant_options = {
            "dialect": dialect,
            "plan_cache_size": plan_cache_size,
            "plan_cache_bytes": plan_cache_bytes,
            "build_cache_size": build_cache_size,
            "build_cache_bytes": build_cache_bytes,
        }
        self.max_statement_bytes = max_statement_bytes
        self.tenants: Dict[str, Tenant] = {}
        self.started_at = time.time()
        self.statement_evictions = 0

    # -- tenants -------------------------------------------------------------

    def tenant(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self.tenants[name] = Tenant(name, **self._tenant_options)
        return tenant

    # -- statements ----------------------------------------------------------

    def prepare(self, tenant_name: str, sql: str, database: str) -> Tuple[str, PreparedStatement]:
        tenant = self.tenant(tenant_name)
        db = tenant.databases.get(database)
        if db is None:
            raise KeyError(f"unknown database {database!r}")
        statement = PreparedStatement(sql, db.schema, database)
        statement_id = secrets.token_hex(8)
        tenant.statements[statement_id] = statement
        tenant.statement_bytes += statement.bytes
        self._enforce_statement_budget()
        return statement_id, statement

    def lookup(self, tenant_name: str, statement_id: str) -> Optional[PreparedStatement]:
        """The tenant's statement, or None — ids never resolve across
        tenants (the no-leakage property the battery asserts)."""
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            return None
        return tenant.touch(statement_id)

    def _enforce_statement_budget(self) -> None:
        if self.max_statement_bytes is None:
            return
        while True:
            total = sum(t.statement_bytes for t in self.tenants.values())
            if total <= self.max_statement_bytes:
                return
            # Fairness: the heaviest tenant evicts its own oldest first.
            heaviest = max(
                (t for t in self.tenants.values() if t.statements),
                key=lambda t: t.statement_bytes,
                default=None,
            )
            if heaviest is None:
                return
            _sid, evicted = heaviest.statements.popitem(last=False)
            heaviest.statement_bytes -= evicted.bytes
            self.statement_evictions += 1

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        tenants = {}
        for name, tenant in self.tenants.items():
            engines = [engine.cache_info() for engine in tenant.engines.values()]
            build = {
                counter: sum(e["build"][counter] for e in engines)
                for counter in (
                    "hits", "misses", "cross_hits", "evictions", "entries", "bytes"
                )
            }
            plan = {
                counter: sum(e[counter] for e in engines)
                for counter in (
                    "hits", "misses", "evictions", "reoptimizations",
                    "entries", "bytes",
                )
            }
            scan_kernels = {
                counter: sum(e["scan_kernels"][counter] for e in engines)
                for counter in (
                    "selections", "rows_in", "rows_out", "fallbacks", "lookups"
                )
            }
            tenants[name] = {
                "databases": sorted(tenant.databases),
                "statements": len(tenant.statements),
                "statement_bytes": tenant.statement_bytes,
                "executions": tenant.executions,
                "plan_cache": plan,
                "build_cache": build,
                "scan_kernels": scan_kernels,
            }
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "statement_evictions": self.statement_evictions,
            "tenants": tenants,
        }
