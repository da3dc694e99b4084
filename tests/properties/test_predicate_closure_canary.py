"""Gate the gate: the predicate closures, the engine's one row-wise
evaluator of WHERE conditions, must trip a shipped gate when seeded with a
bug.

Every plan tests its rows through closures composed at lowering
(``compile._pred_fn``), and the scan kernels are held to them, so a bug
there is in every engine tier at once: the tiers still agree with each
other, and only the formal semantics can tell.  Three bugs, one per
premise of the closures:

* (a) an AND whose left side is UNKNOWN returns UNKNOWN without
  evaluating its right side (Kleene's AND is FALSE there when the right
  side is);
* (b) an OR whose left side is UNKNOWN returns its right side (Kleene's OR
  is UNKNOWN there when the right side is FALSE);
* (c) the ``column op literal`` specialization swaps its operands.

Each must trip the Section 4 campaign of ``tests/validation/test_runner.py``
(engine against the formal semantics, both variants, 400 paper trials
each) on several trials; the 40-trial campaign over 4-row tables of
``test_small_campaign_fully_agrees`` detects none of the three.
"""

from repro.engine import compile as compile_module
from repro.validation import ValidationRunner


def and_skips_its_right_side_on_unknown(monkeypatch):
    """Seeded bug (a)."""
    pred_fn = compile_module._pred_fn

    def and_fn(pred, low):
        left, right = pred_fn(pred.left, low), pred_fn(pred.right, low)

        def and_(r, o):
            a = left(r, o)
            if a is not True:
                return a
            return right(r, o)

        return and_

    monkeypatch.setattr(compile_module, "_and_fn", and_fn)


def or_returns_its_right_side_on_unknown(monkeypatch):
    """Seeded bug (b)."""
    pred_fn = compile_module._pred_fn

    def or_fn(pred, low):
        left, right = pred_fn(pred.left, low), pred_fn(pred.right, low)

        def or_(r, o):
            a = left(r, o)
            if a is True:
                return True
            return right(r, o)

        return or_

    monkeypatch.setattr(compile_module, "_or_fn", or_fn)


def leaf_swaps_its_operands(monkeypatch):
    """Seeded bug (c)."""
    leaf = compile_module._leaf

    def swapped(pred):
        parts = leaf(pred)
        if parts is None:
            return None
        holds, index, value = parts
        return (lambda a, b: holds(b, a)), index, value

    monkeypatch.setattr(compile_module, "_leaf", swapped)


def campaign_failures() -> int:
    """Trials of the Section 4 campaign gate
    (``test_runner.test_paper_trials_never_get_generated_code``: 400 paper
    trials per variant, default data) that disagree with the formal
    semantics or raise."""
    failures = 0
    for variant in ("postgres", "oracle"):
        report = ValidationRunner(variant=variant).run(trials=400, base_seed=0)
        failures += report.trials - report.agreements
    return failures


def test_the_campaign_passes_without_a_seeded_bug():
    assert campaign_failures() == 0


# Several trials must see each bug: a lone detection would be one data
# tweak away from none.


def test_seeded_bug_a_trips_the_campaign(monkeypatch):
    and_skips_its_right_side_on_unknown(monkeypatch)
    assert campaign_failures() >= 3


def test_seeded_bug_b_trips_the_campaign(monkeypatch):
    or_returns_its_right_side_on_unknown(monkeypatch)
    assert campaign_failures() >= 3


def test_seeded_bug_c_trips_the_campaign(monkeypatch):
    leaf_swaps_its_operands(monkeypatch)
    assert campaign_failures() >= 3
