"""Prepared statements, tenants, and the statement byte budget."""

import pytest

from repro.core import NULL, Database, Schema
from repro.service.registry import PreparedStatement, ServiceRegistry

SCHEMA = {"R": ("A", "B"), "T": ("C",)}
ROWS = {"R": [(1, 2), (3, NULL)], "T": [(2,)]}


def make_registry(**kwargs):
    registry = ServiceRegistry(**kwargs)
    db = Database(Schema(SCHEMA), ROWS)
    registry.tenant("t1").add_database("default", db)
    return registry, db


def test_prepare_parses_once_and_binds_per_execution():
    registry, db = make_registry()
    sid, statement = registry.prepare("t1", "SELECT R.A FROM R WHERE R.B = $1", "default")
    assert statement.param_count == 1
    engine = registry.tenant("t1").engine_for(db.schema)
    assert sorted(engine.execute(statement.bind([2]), db).bag) == [(1,)]
    assert list(engine.execute(statement.bind([99]), db).bag) == []
    # The binding memo returns the identical AST for a repeated tuple.
    assert statement.bind([2]) is statement.bind([2])


def test_unknown_database_raises_keyerror():
    registry, _db = make_registry()
    with pytest.raises(KeyError):
        registry.prepare("t1", "SELECT R.A FROM R", "nope")


def test_statement_ids_do_not_resolve_across_tenants():
    registry, db = make_registry()
    registry.tenant("t2").add_database("default", db)
    sid, _ = registry.prepare("t1", "SELECT R.A FROM R", "default")
    assert registry.lookup("t1", sid) is not None
    assert registry.lookup("t2", sid) is None
    assert registry.lookup("ghost", sid) is None


def test_engines_shared_per_schema_shape():
    """Two databases with the same schema share one engine (and therefore
    one plan cache and one build cache — the sharing surface)."""
    registry, db = make_registry()
    tenant = registry.tenant("t1")
    tenant.add_database("other", Database(Schema(SCHEMA), ROWS))
    assert tenant.engine_for(tenant.databases["default"].schema) is tenant.engine_for(
        tenant.databases["other"].schema
    )
    different = Database(Schema({"R": ("A",)}), {"R": [(1,)]})
    tenant.add_database("third", different)
    assert tenant.engine_for(different.schema) is not tenant.engine_for(db.schema)


def test_statement_budget_evicts_heaviest_tenants_lru_first():
    registry, db = make_registry()
    registry.tenant("t2").add_database("default", db)
    # Find a single statement's footprint, then budget for about three.
    _sid, probe = registry.prepare("t1", "SELECT R.A FROM R", "default")
    per = probe.bytes
    registry.max_statement_bytes = int(per * 3.5)

    ids_t1 = [
        registry.prepare("t1", f"SELECT R.A FROM R WHERE R.B = {k}", "default")[0]
        for k in range(3)
    ]
    sid_t2, _ = registry.prepare("t2", "SELECT R.A FROM R", "default")

    assert registry.statement_evictions > 0
    # Fairness: t1 (heaviest) lost its own oldest statements; t2's survived.
    assert registry.lookup("t2", sid_t2) is not None
    survivors = [sid for sid in ids_t1 if registry.lookup("t1", sid)]
    evicted = [sid for sid in ids_t1 if not registry.lookup("t1", sid)]
    assert evicted, "t1 should have evicted at least one of its statements"
    # LRU within the tenant: anything evicted is older than every survivor.
    assert all(ids_t1.index(e) < ids_t1.index(s) for e in evicted for s in survivors)
    total = sum(t.statement_bytes for t in registry.tenants.values())
    assert total <= registry.max_statement_bytes


def test_lookup_refreshes_lru_order():
    registry, _db = make_registry()
    sid_old, probe = registry.prepare("t1", "SELECT R.A FROM R", "default")
    sid_new, _ = registry.prepare("t1", "SELECT R.B FROM R", "default")
    registry.lookup("t1", sid_old)  # touch: old becomes most recent
    registry.max_statement_bytes = probe.bytes + 1
    registry._enforce_statement_budget()
    assert registry.lookup("t1", sid_old) is not None
    assert registry.lookup("t1", sid_new) is None


def test_stats_aggregates_caches_per_tenant():
    registry, db = make_registry()
    sid, statement = registry.prepare("t1", "SELECT R.A FROM R WHERE R.B = $1", "default")
    tenant = registry.tenant("t1")
    engine = tenant.engine_for(db.schema)
    engine.execute(statement.bind([2]), db)
    engine.execute(statement.bind([2]), db)
    stats = registry.stats()
    entry = stats["tenants"]["t1"]
    assert entry["statements"] == 1
    assert entry["statement_bytes"] == statement.bytes
    assert entry["plan_cache"]["hits"] >= 1  # second bind reused the plan
    assert entry["plan_cache"]["entries"] >= 1
    assert stats["statement_evictions"] == 0
    assert stats["uptime_s"] >= 0


def test_stats_passes_scan_kernel_counters_through():
    """``/stats`` sums each tenant's engines' ``cache_info()["scan_kernels"]``:
    the prepared filter over a base table runs as a scan kernel."""
    registry, db = make_registry()
    _sid, statement = registry.prepare(
        "t1", "SELECT R.A FROM R WHERE R.B >= $1", "default"
    )
    engine = registry.tenant("t1").engine_for(db.schema)
    engine.execute(statement.bind([2]), db)
    entry = registry.stats()["tenants"]["t1"]
    assert entry["scan_kernels"] == engine.cache_info()["scan_kernels"]
    assert entry["scan_kernels"]["selections"] == 1
    assert entry["scan_kernels"]["rows_in"] == len(db.table("R"))
    assert entry["scan_kernels"]["fallbacks"] == 0


def test_stats_passes_eviction_counters_through():
    """``/stats`` reports what ``Engine.cache_info()`` counts: a plan cache
    and a build cache too small for the workload both show evictions."""
    registry, db = make_registry(plan_cache_size=2, build_cache_size=1)
    _sid, statement = registry.prepare(
        "t1", "SELECT R.A FROM R, T WHERE R.B = T.C AND R.A IN "
        "(SELECT R.A FROM R WHERE R.B = $1)", "default",
    )
    engine = registry.tenant("t1").engine_for(db.schema)
    # The repeat harvests two build sides into a one-entry cache; three
    # bindings cycle through a two-entry plan cache.
    for value in (1, 1, 2, 3, 1):
        engine.execute(statement.bind([value]), db)
    entry = registry.stats()["tenants"]["t1"]
    info = engine.cache_info()
    assert entry["plan_cache"]["evictions"] == info["evictions"] > 0
    assert entry["plan_cache"]["reoptimizations"] == info["reoptimizations"]
    assert entry["build_cache"]["evictions"] == info["build"]["evictions"] > 0
    # Additive: the counters that were there keep their names.
    assert {"hits", "misses", "entries", "bytes"} <= set(entry["plan_cache"])
    assert {"hits", "misses", "cross_hits", "entries", "bytes"} <= set(
        entry["build_cache"]
    )
