"""Gate the gate: the scan-kernel battery and a validation campaign must
each *fail* when a bug is seeded into the kernels.

Two bugs, one per exactness argument the kernels rest on.  The first makes
``<`` two-valued — its NULL guard lets NULL operands through as if NULL
sorted first — so rows on which the comparison is UNKNOWN are kept: wrong
tables, on typed data.  (Merely deleting the guard would show nothing:
``None < 1`` raises, and the row-wise replay hides the damage.)  The second
drops the rows on which a prefix kernel's conjuncts are UNKNOWN before the
rest of the predicate sees them: tables cannot change — UNKNOWN AND x is
never TRUE — but a conjunct that would have raised on such a row goes
silent, so it takes mixed data to see it, and there the formal semantics
and the optimized engine legitimately disagree on a few pairs already (the
optimizer may move which error surfaces): the campaign gate is the seeds
that mismatch *beyond* the healthy engine's.  A gate neither bug can trip
would be gating nothing.
"""

import pytest

from repro.engine import DIALECT_POSTGRES
from repro.engine import compile as compile_module
from repro.engine import engine as engine_module
from repro.engine.expressions import ComparePred
from repro.semantics import STAR_COMPOSITIONAL
from repro.validation import runner as runner_module
from repro.validation.runner import ValidationRunner

from .scan_kernels import (
    DATA,
    SCAN_MIX,
    STRING_RATE,
    ScanFilterGenerator,
    battery,
    mixed_database,
)


@pytest.fixture(autouse=True)
def lower_every_plan(monkeypatch):
    monkeypatch.setattr(engine_module, "SINGLE_USE_COMPILE_ROWS", 0)


def null_sorts_first_under_less_than(monkeypatch):
    """Seeded bug: ``<`` is TRUE, not UNKNOWN, on a NULL operand."""
    fuse = compile_module._fuse

    def buggy(emitter, pred, neg):
        keep, unknown, raising = fuse(emitter, pred, neg)
        if isinstance(pred, ComparePred) and pred.op == "<" and not neg:
            keep = keep.replace(" is not None and ", " is None or ")
        return keep, unknown, raising

    monkeypatch.setattr(compile_module, "_fuse", buggy)


def prefix_unknown_rows_dropped(monkeypatch):
    """Seeded bug: a prefix kernel keeps the prefix-TRUE rows only."""
    fused = compile_module._compile_fused
    monkeypatch.setattr(
        compile_module, "_compile_fused", lambda pred, keep_unknown=False: fused(pred)
    )


#: bug -> string rate of the data that shows it.
BUGS = {
    null_sorts_first_under_less_than: 0.0,
    prefix_unknown_rows_dropped: STRING_RATE,
}


def campaign_mismatches(monkeypatch, string_rate, trials=200):
    """Seeds on which a campaign's engine and the formal semantics differ."""
    monkeypatch.setattr(runner_module, "QueryGenerator", ScanFilterGenerator)
    monkeypatch.setattr(
        runner_module,
        "fill_database",
        lambda schema, rng, config: mixed_database(schema, rng, config, string_rate),
    )
    runner = ValidationRunner(
        variant="postgres", generator_config=SCAN_MIX, data_config=DATA
    )
    return {result.seed for result in runner.run(trials).mismatches}


def test_gates_are_green_without_a_seeded_bug(monkeypatch):
    for string_rate in (0.0, STRING_RATE):
        failures, _ = battery(DIALECT_POSTGRES, STAR_COMPOSITIONAL, 200, string_rate)
        assert not failures
    assert not campaign_mismatches(monkeypatch, 0.0)


@pytest.mark.parametrize("seed_bug", BUGS)
def test_seeded_bug_trips_the_battery_and_the_campaign(seed_bug, monkeypatch):
    string_rate = BUGS[seed_bug]
    healthy = campaign_mismatches(monkeypatch, string_rate)
    seed_bug(monkeypatch)
    failures, _ = battery(DIALECT_POSTGRES, STAR_COMPOSITIONAL, 200, string_rate)
    # Every tier that lowers plans runs the bug and sees it, on several
    # seeds: a lone detection would be one generator tweak away from none.
    for tier in ("compiled", "single-use"):
        caught = {f.split(":")[0] for f in failures if f": {tier} (" in f}
        assert len(caught) >= 3, (tier, failures[:8])
    assert len(campaign_mismatches(monkeypatch, string_rate) - healthy) >= 3
