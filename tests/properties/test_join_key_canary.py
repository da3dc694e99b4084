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

Every join build runs one kernel (a hash-join table, or one child's
trie), so (a) and (b) must trip the join-workload battery of
``test_compiled_equivalence``,
``test_second_gen_equivalence`` and ``test_wcoj_equivalence`` with every
optimizing engine as the batteries build it and, again, with every one
forced onto the codegen-off leg.  The workloads are int-only, so (c) is
left to the directed tests, with and without generated code.  A gate no
bug can trip would be gating nothing.
"""

import sys
from operator import itemgetter

import pytest

from repro.engine import DIALECT_POSTGRES
from repro.engine import operators

from ..engine import test_optimizer, test_wcoj
from ..executor import CodegenOffEngine
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

TIERS = ("default", "codegen-off")


def null_keys_are_inserted(monkeypatch):
    """Seeded bug (a): every key is inserted, NULL-holding ones included."""

    def partition(rows, key_of, composite):
        groups = {}
        for row in rows:
            groups.setdefault(key_of(row), []).append(row)
        return groups

    def trie(rows, getters):
        node = partition(rows, getters[0], False)
        if len(getters) > 1:
            node = {key: trie(group, getters[1:]) for key, group in node.items()}
        return node

    monkeypatch.setattr(operators, "_partition", partition)
    monkeypatch.setattr(operators, "_trie", trie)


def unequal_same_variable_rows_kept(monkeypatch):
    """Seeded bug (b): a trie is keyed by each variable's first column only."""

    def build_trie(self, child, rows):
        levels = self._child_cols[child]
        return operators._trie(rows, [itemgetter(c[0]) for c in levels]) if levels else rows

    monkeypatch.setattr(operators.GenericJoin, "_build_trie", build_trie)


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
        if tier == "codegen-off":
            monkeypatch.setattr(sys.modules[test.__module__], "Engine", CodegenOffEngine)
        try:
            test(DIALECT_POSTGRES)
            reports[test.__name__] = None
        except AssertionError as exc:
            reports[test.__name__] = str(exc)
    return reports


def test_codegen_off_batteries_are_green_without_a_seeded_bug(monkeypatch):
    # On the default tier these are the batteries' own runs.
    assert set(battery_reports(monkeypatch, "codegen-off").values()) == {None}


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
        for codegen in (True, False):
            try:
                test_optimizer.test_hash_join_keys_are_raw_values(case, codegen)
            except AssertionError:
                tripped.add((case, codegen))
    for case in ("number-vs-string", "composite-number-vs-string"):
        assert {(case, True), (case, False)} <= tripped
    with pytest.raises(AssertionError):
        test_wcoj.test_generic_join_respects_typed_keys()
