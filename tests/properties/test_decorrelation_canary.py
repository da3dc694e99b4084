"""Gate the gate: the decorrelation battery and a validation campaign must
each *fail* when a 3VL bug is seeded into the keyed probe.

Two bugs, one per way the rewrite could get NULL correlation keys wrong:
the build side keeps NULL keys (so ``NULL = NULL`` matches), and a NULL
outer key makes EXISTS unknown instead of false (so NOT EXISTS drops the
row).  A gate neither bug can trip would be gating nothing.
"""

import pytest

from repro.engine import DIALECT_POSTGRES
from repro.engine import compile as compile_module
from repro.engine import operators
from repro.semantics import STAR_COMPOSITIONAL
from repro.validation import runner as runner_module
from repro.validation.runner import ValidationRunner

from .decorrelation import (
    CORRELATED_MIX,
    DATA,
    EqualityCorrelatedGenerator,
    battery,
)


def null_keys_match(monkeypatch):
    """Seeded bug: NULL is an ordinary key value on the build side."""

    def build_probe_index(rows, key_width, width):
        if 0 < key_width < width:
            groups = {}
            for row in rows:
                key = row[0] if key_width == 1 else row[:key_width]
                groups.setdefault(key, {})[row[key_width:]] = None
            return {key: tuple(group) for key, group in groups.items()}, ()
        if width == 1:
            return {row[0] for row in rows}, ()
        return set(rows), ()

    monkeypatch.setattr(operators, "build_probe_index", build_probe_index)


def null_key_makes_exists_unknown(monkeypatch):
    """Seeded bug: EXISTS on a NULL outer key is unknown, not false."""

    def unknown_on_null_key(pred, probe):
        def buggy(row, outers):
            if pred.key_width == len(pred.exprs) and any(
                expr(row, outers) is None for expr in pred.exprs
            ):
                return None
            return probe(row, outers)

        return buggy

    compiled = compile_module._compile_semi_join_probe
    monkeypatch.setattr(
        compile_module,
        "_compile_semi_join_probe",
        lambda pred, stats: unknown_on_null_key(pred, compiled(pred, stats)),
    )


def campaign_mismatches(monkeypatch, trials=200):
    monkeypatch.setattr(runner_module, "QueryGenerator", EqualityCorrelatedGenerator)
    runner = ValidationRunner(
        variant="postgres", generator_config=CORRELATED_MIX, data_config=DATA
    )
    return len(runner.run(trials).mismatches)


def test_gates_are_green_without_a_seeded_bug(monkeypatch):
    failures, _ = battery(DIALECT_POSTGRES, STAR_COMPOSITIONAL, 200)
    assert not failures
    assert campaign_mismatches(monkeypatch) == 0


@pytest.mark.parametrize("seed_bug", [null_keys_match, null_key_makes_exists_unknown])
def test_seeded_bug_trips_the_battery_and_the_campaign(seed_bug, monkeypatch):
    seed_bug(monkeypatch)
    failures, _ = battery(DIALECT_POSTGRES, STAR_COMPOSITIONAL, 200)
    # Every tier runs the bug, and several seeds see it: a lone detection
    # would be one generator tweak away from none.
    for tier in ("compiled", "codegen-off", "single-use"):
        caught = [f for f in failures if f.endswith(f": {tier} differs from naive")]
        assert len(caught) >= 3, (tier, failures[:8])
    assert campaign_mismatches(monkeypatch) >= 3
