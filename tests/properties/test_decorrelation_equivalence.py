"""Differential property battery for the decorrelated subquery probes.

500 query/database pairs per dialect variant from a generator biased toward
equality-correlated EXISTS/IN (:mod:`tests.properties.decorrelation`): the
compiled, interpreted and single-use tiers must return the
naive engine's table — or its error class and message — and the naive
engine must agree with the formal semantics.
"""

import pytest

from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD

from .decorrelation import battery

TRIALS = 500


@pytest.mark.parametrize(
    "dialect,star_style",
    [(DIALECT_POSTGRES, STAR_COMPOSITIONAL), (DIALECT_ORACLE, STAR_STANDARD)],
)
def test_keyed_probes_agree_with_naive_and_semantics_on_every_tier(dialect, star_style):
    failures, decorrelated = battery(dialect, star_style, TRIALS)
    assert not failures, "; ".join(failures[:5])
    # The bias works: the rewrite under test fires on a third of the pairs.
    assert decorrelated >= TRIALS // 3
