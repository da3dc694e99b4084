"""Gate the gate: the index leg of the scan-kernel battery and the directed
tests must each *fail* when a bug is seeded into the sorted column indexes.

A scan whose predicate opens with comparisons of one column hands its
kernel only the rows of the interval the table's sorted index of that
column bisects to (``compile._index_lookup``).  That is exact while the
interval is the run's, while the NULL rows still reach a conjunct that
follows, while no operand of another type is bisected, and while the rows
go back into table order.  Four bugs, one per premise:

* (a) ``<=`` and ``>`` take their bound from the wrong side of a run of
  equal keys, so ``A <= k`` loses the rows equal to ``k`` and ``A > k``
  gains them;
* (b) the NULL positions are dropped before a remainder, so a conjunct
  that raises on a NULL row goes silent (tables cannot change: UNKNOWN AND
  x is never TRUE);
* (c) the operand's type is not checked, so an int is bisected into string
  keys or a NULL outer value into int keys;
* (d) the interval's rows are handed on in key order, not table order.

(a), (c) and (d) must trip the index leg and the directed tests; (b) shows
only on data that raises, which the leg's typed tables never do, so it must
trip the directed tests.  A gate no bug can trip would be gating nothing.
"""

from bisect import bisect_left
from itertools import chain

import pytest

from repro.engine import DIALECT_POSTGRES
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module

from ..engine import test_scan_kernels as directed
from .scan_kernels import index_battery

LEG_TRIALS = 400


@pytest.fixture(autouse=True)
def lower_every_plan(monkeypatch):
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)


def bisect_sides_swapped(monkeypatch):
    """Seeded bug (a): ``<=`` and ``>`` bisect left of equal keys."""
    monkeypatch.setitem(compile_module._BOUNDS, "<=", (None, bisect_left))
    monkeypatch.setitem(compile_module._BOUNDS, ">", (bisect_left, None))


def null_rows_dropped(monkeypatch):
    """Seeded bug (b): a remainder never sees the NULL rows."""
    real = compile_module._table_order
    monkeypatch.setattr(
        compile_module,
        "_table_order",
        lambda positions, lo, hi, nulls: real(positions, lo, hi, ()),
    )


def operand_type_unchecked(monkeypatch):
    """Seeded bug (c): ``_interval`` bisects whatever operand it is given."""

    def interval(index, run, outers):
        keys = index[2]
        lo, hi = 0, len(keys)
        for op, depth, value in run:
            if depth:
                value = outers[-depth][value]
            low, high = compile_module._BOUNDS[op]
            if low is not None:
                lo = low(keys, value, lo, hi)
            if high is not None:
                hi = high(keys, value, lo, hi)
        return lo, hi

    monkeypatch.setattr(compile_module, "_interval", interval)


def table_order_lost(monkeypatch):
    """Seeded bug (d): the interval's rows stay in key order."""
    monkeypatch.setattr(
        compile_module,
        "_table_order",
        lambda positions, lo, hi, nulls: list(chain(positions[lo:hi], nulls)),
    )


#: The directed tests of the index path, with arguments for the
#: parametrized ones.
DIRECTED = [
    (directed.test_equality_keeps_every_duplicate_key_in_table_order, ()),
    (directed.test_null_rows_are_skipped_by_a_whole_run_and_kept_for_a_remainder, ()),
    (directed.test_null_rows_reach_a_raising_remainder, ()),
    (directed.test_a_mixed_type_column_gets_no_index, ()),
    (directed.test_ints_past_64_bits, ()),
    (directed.test_databases_with_equal_table_names_keep_their_own_indexes, ()),
    *(
        (directed.test_ordered_comparisons_at_between_below_and_above_keys, (op, key))
        for op in ("<", "<=", ">", ">=")
        for key in (10, 14, 15, 108)
    ),
    *(
        (directed.test_two_sided_contradictory_and_literal_first_runs, case)
        for case in (
            ("R.A >= 10 AND R.A < 20", lambda a: 10 <= a < 20),
            ("R.A > 10 AND R.A <= 20", lambda a: 10 < a <= 20),
        )
    ),
    *(
        (directed.test_operands_of_another_type_or_null_take_the_full_scan, case)
        for case in (
            (directed.INDEX_ROWS, "R.A = 'k014'", False),
            (directed.STRING_ROWS, "R.A = 14", False),
        )
    ),
    *(
        (directed.test_an_outer_row_operand_including_a_null_one, (text,))
        for text in (
            "SELECT S.A FROM S WHERE EXISTS "
            "(SELECT R.C FROM R WHERE R.A >= S.A AND R.A <= S.B)",
        )
    ),
]


def directed_trips():
    """The directed tests that fail — on an assertion, or on the error a
    bug lets escape."""
    tripped = []
    for test, args in DIRECTED:
        try:
            test(*args)
        except (AssertionError, TypeError):
            tripped.append((test.__name__, args))
    return tripped


def leg_trips():
    """Executions of the index leg that disagree with the interpreted
    tier, plus one if the leg itself died of an escaped error."""
    try:
        failures, _ = index_battery(DIALECT_POSTGRES, LEG_TRIALS)
    except TypeError:
        return 1
    return len(failures)


def test_swapped_bisect_sides_trip_the_leg_and_the_directed_tests(monkeypatch):
    bisect_sides_swapped(monkeypatch)
    # Several instances see it: a lone detection would be one data tweak
    # away from none.
    assert leg_trips() >= 3
    assert len(directed_trips()) >= 3


def test_dropped_null_rows_trip_the_directed_tests(monkeypatch):
    null_rows_dropped(monkeypatch)
    tripped = {name for name, _args in directed_trips()}
    assert tripped == {
        "test_null_rows_are_skipped_by_a_whole_run_and_kept_for_a_remainder",
        "test_null_rows_reach_a_raising_remainder",
    }


def test_unchecked_operand_types_trip_the_leg_and_the_directed_tests(monkeypatch):
    operand_type_unchecked(monkeypatch)
    assert leg_trips() >= 1
    assert len(directed_trips()) >= 3


def test_lost_table_order_trips_the_leg_and_the_directed_tests(monkeypatch):
    table_order_lost(monkeypatch)
    assert leg_trips() >= 3
    assert len(directed_trips()) >= 3
