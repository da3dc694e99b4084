"""Gate the gate: the batteries and the directed tests must each *fail*
when a bug is seeded into the builds memoized on the table.

A closed build over a bare base-table scan — a hash-join partition, a
probe set over a projection of the scan's columns — is memoized on the
immutable :class:`~repro.core.table.Table` under its signature, by the one
site every closed build goes through (``compile._build_site``, given the
scan and the signature).  That is exact only while the signature names
everything the build reads besides the rows, and the memo lives on the
table itself.  Four bugs, one per premise:

* (a) the hash-join signature drops the key columns, so a join on
  ``T.D`` reads the partition a join on ``T.C`` left;
* (b) the memo is one process-wide dict keyed by table *name*, so it goes
  stale as soon as another database names the same table;
* (c) the probe-set signature drops the projected column indices, so
  ``IN (SELECT T.D …)`` reads the set ``IN (SELECT T.C …)`` left;
* (d) the trie signature drops the level layout, so one generic-join
  child reads the trie a sibling over the same table left under another
  variable order.

(a) must trip the live-SQLite battery (single-use statements over one
fixed database) and the directed tests; (b) the join legs of
``test_compiled_equivalence`` and ``test_second_gen_equivalence``, which
draw fresh tables per trial; (c) the decorrelation battery, whose queries
also run one after another over shared databases; (d) the self-join
cycles of the wcoj battery, whose children ``R X, R Y, R Z`` share a table
but not a level layout, and the directed self-join test, which compares
rows with the formal semantics.  A gate no bug can trip would be gating
nothing.
"""

import re

import pytest

from repro.engine import DIALECT_POSTGRES
from repro.engine import compile as compile_module
from repro.semantics import STAR_COMPOSITIONAL

from ..engine import test_build_cache, test_wcoj
from . import test_compiled_equivalence, test_live_sqlite_equivalence
from . import test_second_gen_equivalence, test_wcoj_equivalence
from .decorrelation import battery


def signature_narrowed(monkeypatch, kind, keep):
    """Memoize ``kind`` builds under the first ``keep`` signature fields."""
    real = compile_module._build_site

    def build_site(low, carrier, subtree, build, resident=None):
        if resident is not None and resident[1][0] == kind:
            scan, signature = resident
            resident = scan, signature[:keep]
        return real(low, carrier, subtree, build, resident)

    monkeypatch.setattr(compile_module, "_build_site", build_site)


def key_columns_dropped(monkeypatch):
    """Seeded bug (a): ``("hash", right_keys)`` becomes ``("hash",)``."""
    signature_narrowed(monkeypatch, "hash", 1)


def memo_keyed_by_table_name(monkeypatch):
    """Seeded bug (b): one process-wide memo, keyed by table name."""
    memo = {}
    real = compile_module._build_site

    def build_site(low, carrier, subtree, build, resident=None):
        if resident is None:
            return real(low, carrier, subtree, build)
        scan, signature = resident

        def by_name(outers):
            key = (scan.table, signature)
            if key not in memo:
                memo[key] = build(outers)
            return memo[key]

        return real(low, carrier, subtree, by_name)

    monkeypatch.setattr(compile_module, "_build_site", build_site)


def projection_dropped(monkeypatch):
    """Seeded bug (c): ``("probe", key_width, width, indices)`` loses the
    indices."""
    signature_narrowed(monkeypatch, "probe", 3)


def trie_levels_dropped(monkeypatch):
    """Seeded bug (d): ``("trie", levels)`` becomes ``("trie",)``."""
    signature_narrowed(monkeypatch, "trie", 1)


#: The directed tests of the table memo that take a single-use engine
#: factory; each runs with and without generated code.
DIRECTED = (
    test_build_cache.test_one_table_joined_on_two_columns_in_one_plan,
    test_build_cache.test_single_use_statements_over_one_database,
    test_build_cache.test_databases_with_the_same_table_names_keep_their_own_builds,
    test_build_cache.test_probe_sets_over_a_projected_scan,
)


def directed_trips(monkeypatch):
    tripped = []
    for test in DIRECTED:
        for tier in ("codegen", "codegen-off"):
            try:
                test(test_build_cache.single_use_engines(tier, monkeypatch))
            except AssertionError:
                tripped.append((test.__name__, tier))
    return tripped


def test_dropped_key_columns_trip_the_live_battery_and_the_directed_tests(monkeypatch):
    key_columns_dropped(monkeypatch)
    try:
        test_live_sqlite_equivalence.test_live_sqlite_battery("postgres")
        report = ""
    except AssertionError as exc:
        report = str(exc)
    found = re.match(r"(\d+) unclassified divergence", report)
    # Several instances see it: a lone detection would be one data tweak
    # away from none.
    assert found and int(found.group(1)) >= 3, report
    assert len(directed_trips(monkeypatch)) >= 3


def test_memo_keyed_by_table_name_trips_the_fresh_table_batteries(monkeypatch):
    memo_keyed_by_table_name(monkeypatch)
    for test in (
        test_compiled_equivalence.test_compiled_interpreted_and_naive_coincide_on_joins,
        test_second_gen_equivalence.test_second_gen_and_ablations_coincide_with_naive_on_joins,
    ):
        try:
            test(DIALECT_POSTGRES)
            report = None
        except AssertionError as exc:
            report = str(exc)
        assert report is not None and report.count("differs from") >= 3, (test, report)


def test_dropped_projection_trips_the_decorrelation_battery(monkeypatch):
    projection_dropped(monkeypatch)
    failures, _ = battery(DIALECT_POSTGRES, STAR_COMPOSITIONAL, 500)
    caught = [f for f in failures if "single-use differs over shared db" in f]
    assert len(caught) >= 3, failures[:8]


def test_dropped_trie_levels_trip_the_self_join_cycles(monkeypatch):
    trie_levels_dropped(monkeypatch)
    try:
        test_wcoj_equivalence.test_optimizer_ablations_coincide_on_cyclic_workload(
            DIALECT_POSTGRES
        )
        report = ""
    except AssertionError as exc:
        report = str(exc)
    assert report.count("default differs from") >= 3, report
    with pytest.raises(AssertionError, match="differs from the formal semantics"):
        test_wcoj.test_self_join_children_keep_their_own_tries()
