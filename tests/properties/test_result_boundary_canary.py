"""Gate the gate: the engine's two row boundaries and the lazy bag must
each trip a shipped gate when seeded with a bug.

A base table enters the executor with NULL as None, and only its records
that hold a NULL are rebuilt (``compile._bound``); a result leaves it with
None back to NULL, and only a result holding None is rebuilt
(``engine._as_table``); a bag built from those records counts them on
first need (``Bag._tally``).  Three bugs, one per premise:

* (a) ``_as_table`` looks for None in the first row only;
* (b) ``_bound`` looks for NULL in the first value of each record only, so
  a record with a NULL further right is shared unconverted;
* (c) the lazy counts are built with ``dict.fromkeys``, so every record
  counts once.

Each must trip a shipped gate on several instances: (a) the ``execute``
vs ``execute_rows`` battery of ``tests/engine/test_engine.py``, whose
restored NULLs then differ from the table's; (b) and (c) the Section 4
campaign of ``tests/validation/test_runner.py`` (engine against the formal
semantics, both variants), and (c) also the representation battery of
``test_bag_properties.py``.  A gate no bug can trip would be gating
nothing.
"""

from repro.core.bag import Bag
from repro.core.table import Table
from repro.core.values import NULL, Null
from repro.engine import Engine
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
from repro.generator import DataFillerConfig
from repro.validation import ValidationRunner

from ..engine import test_engine
from . import test_bag_properties


def as_table_checks_the_first_row_only(monkeypatch):
    """Seeded bug (a)."""

    def as_table(labels, rows):
        rows = list(rows)
        if rows and None in rows[0]:
            rows = [tuple(NULL if v is None else v for v in row) for row in rows]
        return Table(labels, Bag(rows))

    monkeypatch.setattr(engine_module, "_as_table", as_table)


def bound_shares_null_records(monkeypatch):
    """Seeded bug (b)."""

    def bound(table):
        if table._scan_rows is None:
            table._scan_cols = [None] * len(table.columns)
            table._scan_rows = [
                record
                if not isinstance(record[0], Null)
                else tuple(None if isinstance(v, Null) else v for v in record)
                for record in table.bag
            ]
        return table

    monkeypatch.setattr(compile_module, "_bound", bound)


def counts_drop_multiplicities(monkeypatch):
    """Seeded bug (c)."""

    def tally(self):
        if self._counts is None:
            self._counts = dict.fromkeys(self._rows, 1)
        return self._counts

    monkeypatch.setattr(Bag, "_tally", tally)


def campaign_failures() -> int:
    """Trials of the Section 4 campaign gate
    (``test_runner.test_small_campaign_fully_agrees``, both variants) that
    disagree with the formal semantics or raise."""
    failures = 0
    for variant in ("postgres", "oracle"):
        runner = ValidationRunner(variant=variant, data_config=DataFillerConfig(max_rows=4))
        for seed in range(12345, 12345 + 40):
            try:
                failures += not runner.run_trial(seed).agreed
            except Exception:
                failures += 1
    return failures


def rows_battery_failures() -> int:
    """Disagreements of the ``execute`` vs ``execute_rows`` battery."""
    engine = Engine(test_engine.PAPER_SCHEMA)
    return len(test_engine.rows_vs_table_failures(engine, test_engine.paper_battery()))


def representation_battery_trips() -> bool:
    try:
        test_bag_properties.test_record_and_count_built_bags_are_one_bag()
    except Exception:  # hypothesis groups distinct failures
        return True
    return False


def test_the_gates_pass_without_a_seeded_bug():
    assert campaign_failures() == rows_battery_failures() == 0
    assert not representation_battery_trips()


def test_seeded_bug_a_trips_the_rows_battery(monkeypatch):
    as_table_checks_the_first_row_only(monkeypatch)
    # Several instances see it: a lone detection would be one data tweak
    # away from none.
    assert rows_battery_failures() >= 3


def test_seeded_bug_b_trips_the_campaign(monkeypatch):
    bound_shares_null_records(monkeypatch)
    assert campaign_failures() >= 3


def test_seeded_bug_c_trips_the_campaign_and_the_representation_battery(monkeypatch):
    counts_drop_multiplicities(monkeypatch)
    assert campaign_failures() >= 3
    assert representation_battery_trips()
