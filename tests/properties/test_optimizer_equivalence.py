"""Differential property tests for the optimizing engine.

The paper's methodology, turned on our own optimizations: on ≥500 random
query/database pairs per dialect variant, the optimized engine, the naive
engine, and the formal semantics must coincide — same tables (columns,
rows, multiplicities) or the same error class.  The oracle's own shortcut,
the subquery memo, is held to the literal Figures 5–7 route in
``test_semantics_memo_equivalence.py``.
"""

import random

import pytest

from repro.core import validation_schema
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

SCHEMA = validation_schema()
TRIALS = 500
DATA = DataFillerConfig(max_rows=5)

VARIANTS = [
    (DIALECT_POSTGRES, STAR_COMPOSITIONAL),
    (DIALECT_ORACLE, STAR_STANDARD),
]


def _pair(seed):
    rng = random.Random(seed)
    query = QueryGenerator(SCHEMA, PAPER_CONFIG, rng).generate()
    db = fill_database(SCHEMA, rng, DATA)
    return query, db


@pytest.mark.parametrize("dialect,star_style", VARIANTS)
def test_optimized_naive_and_semantics_coincide(dialect, star_style):
    optimized = Engine(SCHEMA, dialect)
    naive = Engine(SCHEMA, dialect, optimize=False)
    semantics = SqlSemantics(SCHEMA, star_style=star_style)
    failures = []
    for seed in range(TRIALS):
        query, db = _pair(seed)

        def oracle():
            # The static check mirrors the RDBMS compiler, as in the
            # validation runner: ambiguity is rejected before evaluation.
            check_query(query, SCHEMA, star_style=star_style)
            return semantics.run(query, db)

        fast = capture(lambda: optimized.execute(query, db))
        slow = capture(lambda: naive.execute(query, db))
        formal = capture(oracle)
        # Identical tables are the optimizer's unconditional guarantee;
        # identical error *classes* additionally hold on this workload
        # because generated queries are type-checked over int-only data
        # (no data-dependent runtime errors whose surfacing order the
        # optimizer may legitimately change).
        if fast.error != slow.error or not fast.agrees_with(slow):
            failures.append(f"seed {seed}: optimized vs naive engine differ")
        if not fast.agrees_with(formal):
            failures.append(f"seed {seed}: optimized engine vs semantics differ")
    assert not failures, "; ".join(failures[:5])
