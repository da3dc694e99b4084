"""Differential property battery for the scan kernels.

500 query/database pairs per dialect variant and data regime from a
generator biased toward filters over base-table scans
(:mod:`tests.properties.scan_kernels`), with ``SINGLE_USE_COMPILE_ROWS``
forced to 0 so six-row plans are lowered: the default and single-use
tiers must return the interpreted tier's table — or its error
class and message — cold and on a hot plan cache.  On typed data the
interpreted tier must in turn match the naive engine, and the naive engine
the formal semantics; on mixed data, where comparisons raise, the kernels
must fall back and still agree.  A third leg, 400 pairs per dialect over
tables of 40–160 rows, has scans served from the sorted column indexes and
must emit the interpreted tier's rows in the interpreted tier's order.
"""

import pytest

from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES
from repro.engine import engine as engine_module
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD

from .scan_kernels import STRING_RATE, battery, index_battery

TRIALS = 500
INDEX_TRIALS = 400

VARIANTS = [(DIALECT_POSTGRES, STAR_COMPOSITIONAL), (DIALECT_ORACLE, STAR_STANDARD)]


@pytest.fixture(autouse=True)
def lower_every_plan(monkeypatch):
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)


@pytest.mark.parametrize("dialect,star_style", VARIANTS)
def test_kernels_agree_with_every_tier_and_the_semantics_on_typed_data(dialect, star_style):
    failures, counts = battery(dialect, star_style, TRIALS)
    assert not failures, "; ".join(failures[:5])
    # The bias works: most pairs run a whole-predicate kernel, one in four
    # a prefix kernel — and ints never clash, so nothing falls back.
    assert counts["whole"] >= TRIALS // 2
    assert counts["prefix"] >= TRIALS // 4
    assert counts["fallbacks"] == 0


@pytest.mark.parametrize("dialect,star_style", VARIANTS)
def test_kernels_fall_back_to_the_interpreted_outcome_on_mixed_data(dialect, star_style):
    failures, counts = battery(dialect, star_style, TRIALS, STRING_RATE)
    assert not failures, "; ".join(failures[:5])
    # Strings do clash: a quarter of the pairs replay a scan row-wise, and
    # as many end in the interpreted tier's error, message included.
    assert counts["fallbacks"] >= TRIALS // 4
    assert counts["errors"] >= TRIALS // 4
    assert counts["prefix"] >= TRIALS // 10


@pytest.mark.parametrize("dialect", [DIALECT_POSTGRES, DIALECT_ORACLE])
def test_index_served_scans_emit_the_interpreted_rows_in_order(dialect):
    failures, lookups = index_battery(dialect, INDEX_TRIALS)
    assert not failures, "; ".join(failures[:5])
    # The leg reaches the index path: about three served scans per pair.
    assert lookups >= INDEX_TRIALS
