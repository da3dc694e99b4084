"""Gate the gate: the rotated-database leg of the hot-plan-cache battery and
the directed one-plan-many-databases tests must each *fail* when a bug
makes a lowered plan keep state from one run to the next.

A lowered plan is a function of the database and the outer rows: each run
brings its own state slots (``CompiledQuery.run``), the build-side cache
keys a build by its signature *and* the contents of the tables it reads
(``compile._share_key``), and a scan resolves its table in the run's
database once per run (``compile._scan_table``).  Three bugs, one per
premise:

* (a) the slot list is made once per lowering, at the plan's first run,
  and every later run of the plan reuses it;
* (b) the build-side cache key drops the table fingerprints, so a build
  computed over one database is served to a run over another;
* (c) a scan closure keeps the table it resolved in its first run.

Each must trip the rotated-database leg of
``test_compiled_equivalence.test_hot_plan_cache_compiled_outcomes_are_bit_identical``
(every cached plan run over the next pair's database, against the formal
semantics) and the directed tests of ``test_plan_cache`` (one plan over two
databases, interleaved and in two threads).  A gate no bug can trip would
be gating nothing.
"""

import re

import pytest

from repro.engine import CompiledQuery, DIALECT_POSTGRES
from repro.engine import compile as compile_module

from ..engine import test_plan_cache
from . import test_compiled_equivalence


def slots_made_once_per_lowering(monkeypatch):
    """Seeded bug (a)."""
    made = {}

    def run(self, db, outer=()):
        # Keyed by the lowering; the plan is kept so its id stays unique.
        _plan, slots = made.setdefault(id(self.root), (self, [None] * self.slots))
        state = compile_module.Run(db, slots, self.cache, self.owner)
        return self.root((state, *outer))

    monkeypatch.setattr(CompiledQuery, "run", run)


def cache_key_without_fingerprints(monkeypatch):
    """Seeded bug (b)."""
    monkeypatch.setattr(
        compile_module, "_share_key", lambda signature, tables, db: (signature, ())
    )


def scan_keeps_its_table(monkeypatch):
    """Seeded bug (c)."""
    real = compile_module._scan_table

    def scan_table(scan, low):
        table_of = real(scan, low)
        kept = []

        def first_table(outers):
            if not kept:
                kept.append(table_of(outers))
            return kept[0]

        return first_table

    monkeypatch.setattr(compile_module, "_scan_table", scan_table)


DIRECTED = (
    test_plan_cache.test_two_runs_of_one_plan_iterated_alternately,
    test_plan_cache.test_two_threads_run_one_cached_plan_over_different_databases,
)


def rotated_failures() -> int:
    """How many runs the hot-plan-cache battery finds wrong (0: green)."""
    try:
        test_compiled_equivalence.test_hot_plan_cache_compiled_outcomes_are_bit_identical(
            DIALECT_POSTGRES
        )
    except AssertionError as exc:
        found = re.match(r"(\d+) failures", str(exc))
        assert found, str(exc)
        return int(found.group(1))
    return 0


def directed_trips():
    tripped = []
    for test in DIRECTED:
        try:
            test()
        except AssertionError:
            tripped.append(test.__name__)
    return tripped


@pytest.mark.parametrize(
    "seed_bug",
    [slots_made_once_per_lowering, cache_key_without_fingerprints, scan_keeps_its_table],
)
def test_seeded_bug_trips_the_rotated_leg_and_the_directed_tests(seed_bug, monkeypatch):
    seed_bug(monkeypatch)
    # Several instances see it: a lone detection would be one data tweak
    # away from none.
    assert rotated_failures() >= 3
    assert len(directed_trips()) == len(DIRECTED)
