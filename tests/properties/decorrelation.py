"""A query generator biased toward equality-correlated subqueries, and the
battery that runs it through every execution tier.

:class:`~repro.generator.QueryGenerator` correlates a subquery by letting
any term be an outer reference, so the shape the optimizer decorrelates —
``inner column = probing-row column`` as a top-level conjunct, everything
else local — is rare in its output.  The subclass here adds such conjuncts
to most nested WHERE clauses and keeps other outer references scarce, so
two in five generated queries carry a keyed probe (the battery counts
them and fails if the share drops, so it cannot go vacuous).  Every query
also runs single-use over a few shared databases, one after another, the
regime in which builds memoized on a table are reused by later queries.
Shared by ``test_decorrelation_equivalence`` and the canaries that show it
can fail.
"""

import random
from dataclasses import replace

from repro.core import Database, validation_schema
from repro.engine import Engine
from repro.engine.binding import iter_plan_nodes
from repro.engine.operators import SemiJoinProbe
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import SqlSemantics
from repro.sql.ast import And, Exists, InQuery, Not, Predicate, TRUE_COND
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

from ..executor import CodegenOffEngine

SCHEMA = validation_schema()
#: NULLs in a third of the cells, and no empty tables: correlation keys
#: must meet NULL on both sides for the 3VL cases to show.
DATA = DataFillerConfig(max_rows=6, min_rows=2, null_rate=0.3)

#: Databases every query of the battery also runs on, one after another.
SHARED_DATABASES = 8

#: Subquery-heavy, with few outer references besides the added equalities,
#: and short conditions: under eight random atoms the probe's truth value
#: rarely decides a row (the seeded bugs of the canary went unseen).
CORRELATED_MIX = replace(
    PAPER_CONFIG,
    tables=8,
    cond=3,
    setop_probability=0.1,
    where_subquery_probability=0.8,
    from_subquery_probability=0.2,
    correlation_probability=0.05,
    null_term_probability=0.1,
)


class EqualityCorrelatedGenerator(QueryGenerator):
    """Adds ``inner = outer`` conjuncts to most nested WHERE clauses, and a
    subquery predicate as a top-level conjunct of most outermost ones (where
    a wrong truth value changes the result instead of drowning in an OR)."""

    def _condition(self, depth, scopes, budget):
        condition = super()._condition(depth, scopes, budget)
        if len(scopes) < 2:
            if budget[0] < 1 or not self._chance(0.7):
                return condition
            if self._chance(0.5):
                added = Exists(self._query(depth + 1, scopes, budget, None))
                if self._chance(0.5):
                    added = Not(added)
            else:
                subquery = self._query(depth + 1, scopes, budget, target_arity=1)
                added = InQuery((self._term(scopes),), subquery, self._chance(0.5))
            return added if condition is TRUE_COND else And(added, condition)
        if not self._chance(0.8):
            return condition
        local, outer = scopes[-1], scopes[-2]
        visible = [name for name in outer.unambiguous if name not in local.full_names]
        if not local.unambiguous or not visible:
            return condition
        for _ in range(self.rng.choice((1, 1, 2))):
            pair = (self.rng.choice(local.unambiguous), self.rng.choice(visible))
            if self._chance(0.5):
                pair = pair[::-1]
            equality = Predicate("=", pair)
            condition = equality if condition is TRUE_COND else And(equality, condition)
        return condition


def correlated_pair(seed, generator=EqualityCorrelatedGenerator):
    rng = random.Random(seed)
    query = generator(SCHEMA, CORRELATED_MIX, rng).generate()
    return query, fill_database(SCHEMA, rng, DATA)


def keyed_probe_count(plan) -> int:
    return sum(
        isinstance(pred, SemiJoinProbe) and pred.key_width > 0
        for _node, pred in iter_plan_nodes(plan)
    )


def battery(dialect, star_style, trials):
    """Run ``trials`` pairs through the optimized execution tiers, the naive
    engine and the formal semantics, and each query single-use over the
    shared databases; returns ``(failures, decorrelated)``: the
    disagreements found, and how many queries had a keyed probe."""
    tiers = {
        "compiled": Engine(SCHEMA, dialect),
        "codegen-off": CodegenOffEngine(SCHEMA, dialect),
        "single-use": Engine(SCHEMA, dialect, plan_cache_size=0),
    }
    naive = Engine(SCHEMA, dialect, optimize=False)
    semantics = SqlSemantics(SCHEMA, star_style=star_style)
    # The ad-hoc regime as well: single-use statements over long-lived
    # databases, whose tables keep the builds of every query before (they
    # are memoized per table and build signature).  Each answer must be
    # the one the same engine gives over fresh tables of equal contents.
    shared = [
        fill_database(SCHEMA, random.Random(f"shared/{i}"), DATA)
        for i in range(SHARED_DATABASES)
    ]
    single_use = tiers["single-use"]
    failures = []
    decorrelated = 0
    for seed in range(trials):
        query, db = correlated_pair(seed)
        for number, old in enumerate(shared):
            fresh = Database(SCHEMA, {t: old.table(t).bag for t in SCHEMA.table_names})
            kept = capture(lambda: single_use.execute(query, old))
            if not kept.agrees_with(capture(lambda: single_use.execute(query, fresh))):
                failures.append(f"seed {seed}: single-use differs over shared db {number}")

        def oracle():
            check_query(query, SCHEMA, star_style=star_style)
            return semantics.run(query, db)

        slow = capture(lambda: naive.execute(query, db))
        if not slow.agrees_with(capture(oracle)):
            failures.append(f"seed {seed}: naive engine vs semantics differ")
        for name, engine in tiers.items():
            fast = capture(lambda: engine.execute(query, db))
            # Int-only, type-checked data: no runtime error whose order the
            # optimizer may move, so class and message must match as well.
            if (fast.error, fast.detail) != (slow.error, slow.detail):
                failures.append(f"seed {seed}: {name} raises differently from naive")
            elif not fast.agrees_with(slow):
                failures.append(f"seed {seed}: {name} differs from naive")
        if not slow.is_error:
            decorrelated += keyed_probe_count(tiers["compiled"]._plan(query).plan) > 0
    return failures, decorrelated
