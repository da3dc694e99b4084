"""Gate the gate: the join batteries and the directed join-key tests must
each *fail* when a bug is seeded into the join builds.

Hash-join tables and generic-join tries are keyed by the raw values, which
is exact by the equality lemma (on non-NULL values SQL ``=`` is Python
``==``) only as long as the builds leave out every key holding a NULL and
a trie keeps only rows whose same-variable columns agree.  Three bugs, one
per premise:

* (a) the builds insert NULL-holding keys, single and composite, so
  ``NULL = NULL`` joins;
* (b) a trie keeps rows whose same-variable columns differ;
* (c) keys are stringified, so ``1`` meets ``'1'``.

Both tiers share one build kernel per join, so (a) and (b) must trip the
join-workload battery of ``test_compiled_equivalence``,
``test_second_gen_equivalence`` and ``test_wcoj_equivalence`` with every
optimizing engine on the lowered tier and, again, with every one forced
onto the interpreted tier.  The workloads are int-only, so (c) is left to
the directed tests, on both tiers.  A gate no bug can trip would be
gating nothing.
"""

import sys
from operator import itemgetter

import pytest

from repro.engine import DIALECT_POSTGRES, Engine
from repro.engine import operators

from ..engine import test_optimizer, test_wcoj
from . import (
    test_compiled_equivalence,
    test_second_gen_equivalence,
    test_wcoj_equivalence,
)

#: Per battery module, its test that runs the join workload of
#: ``joins.py`` against an engine with no join build at all
#: (``optimize=False``), so a bug shared by both tiers shows.  The modules'
#: random mixes are left out: 500 seeds plan at most 15 hash joins and no
#: generic join, (a) shows on one seed and (b) on none.
BATTERIES = (
    test_compiled_equivalence.test_compiled_interpreted_and_naive_coincide_on_joins,
    test_second_gen_equivalence.test_second_gen_and_ablations_coincide_with_naive_on_joins,
    test_wcoj_equivalence.test_optimizer_ablations_coincide_on_cyclic_workload,
)

TIERS = ("lowered", "interpreted")


class InterpretedEngine(Engine):
    """An engine whose plans are never lowered, whatever the caller asks."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("compiled", False)
        super().__init__(*args, **kwargs)


def null_keys_are_inserted(monkeypatch):
    """Seeded bug (a): every key is inserted, NULL-holding ones included."""

    def partition(rows, key_of, composite):
        groups = {}
        for row in rows:
            groups.setdefault(key_of(row), []).append(row)
        return groups, 0

    def trie(rows, getters):
        node, _ = partition(rows, getters[0], False)
        if len(getters) > 1:
            node = {key: trie(group, getters[1:])[0] for key, group in node.items()}
        return node, 0

    monkeypatch.setattr(operators, "_partition", partition)
    monkeypatch.setattr(operators, "_trie", trie)


def unequal_same_variable_rows_kept(monkeypatch):
    """Seeded bug (b): a trie is keyed by each variable's first column only."""

    def build_tries(self, children_rows):
        tries = [
            operators._trie(rows, [itemgetter(c[0]) for c in levels])[0] if levels else rows
            for levels, rows in zip(self._child_cols, children_rows)
        ]
        return tries, sum(map(len, children_rows))

    monkeypatch.setattr(operators.GenericJoin, "_build_tries", build_tries)


def keys_stringified(monkeypatch):
    """Seeded bug (c): every non-NULL key value is compared as its string."""

    def stringified(*indices):
        get = itemgetter(*indices)

        def key_of(row):
            key = get(row)
            if isinstance(key, tuple):
                return tuple(None if v is None else str(v) for v in key)
            return None if key is None else str(key)

        return key_of

    monkeypatch.setattr(operators, "itemgetter", stringified)


def battery_reports(monkeypatch, tier):
    """Battery test name -> its failure report (None: it passed), with
    every optimizing engine on ``tier``."""
    reports = {}
    for test in BATTERIES:
        if tier == "interpreted":
            monkeypatch.setattr(sys.modules[test.__module__], "Engine", InterpretedEngine)
        try:
            test(DIALECT_POSTGRES)
            reports[test.__name__] = None
        except AssertionError as exc:
            reports[test.__name__] = str(exc)
    return reports


def test_interpreted_batteries_are_green_without_a_seeded_bug(monkeypatch):
    # On the lowered tier these are the batteries' own runs.
    assert set(battery_reports(monkeypatch, "interpreted").values()) == {None}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed_bug", [null_keys_are_inserted, unequal_same_variable_rows_kept])
def test_seeded_bug_trips_every_join_battery(seed_bug, tier, monkeypatch):
    seed_bug(monkeypatch)
    for test, report in battery_reports(monkeypatch, tier).items():
        # Several instances see it: a lone detection would be one data
        # tweak away from none.
        assert report is not None and report.count("differs from") >= 3, (test, report)


def test_stringified_keys_trip_the_directed_tests(monkeypatch):
    keys_stringified(monkeypatch)
    tripped = set()
    for case in test_optimizer.HASH_JOIN_CASES:
        for tier in TIERS:
            try:
                test_optimizer.test_hash_join_keys_are_raw_values(case, tier)
            except AssertionError:
                tripped.add((case, tier))
    for case in ("number-vs-string", "composite-number-vs-string"):
        assert {(case, tier) for tier in TIERS} <= tripped
    with pytest.raises(AssertionError):
        test_wcoj.test_generic_join_respects_typed_keys()
