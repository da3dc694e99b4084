"""A query generator biased toward filters the scan kernels lower, data
that makes them fall back, and the battery that runs both through every
execution tier.

:class:`~repro.generator.QueryGenerator` builds a WHERE clause as a random
AND/OR tree, so the shape a scan kernel takes whole — ordered comparisons
of a table's own columns, as leading top-level conjuncts — and the shape it
splits — those conjuncts followed by a subquery predicate — are uncommon in
its output.  The subclass here puts such conjuncts in front of most WHERE
clauses, and a subquery predicate behind them in most outermost ones.

Two data regimes.  *Typed* data is the campaigns' (ints and NULLs): no
comparison can raise, so every tier, the naive engine and the formal
semantics must agree, and a kernel fallback is a bug.  *Mixed* data swaps a
share of the values for strings: ordered comparisons then raise type
clashes, the kernels fall back, and the tiers that run the same optimized
plan must still return the interpreted tier's table — or its error class
and message, raised on the same row.  (The naive engine and the formal
semantics evaluate in another order, which may surface another error; they
sit the mixed regime out.)

A third leg serves scans from the sorted column indexes: tables of 40–160
rows over twenty values with few NULLs, so that an interval a leading run
of comparisons bisects to can hold few enough rows for the kernel to run
over it alone — which the two- to six-row tables above never allow.  It
compares emission order too, not just the bag.

Shared by ``test_scan_kernel_equivalence`` and the canaries that show it
can fail.
"""

import random
from dataclasses import replace

from repro.core import NULL, Database, validation_schema
from repro.engine import Engine
from repro.engine.binding import iter_plan_nodes
from repro.engine.compile import _conjuncts, _probe_segments
from repro.engine.operators import FilterOp, TableScan
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.semantics import SqlSemantics
from repro.sql.ast import And, Exists, InQuery, IsNull, Not, Predicate, TRUE_COND
from repro.sql.typecheck import check_query
from repro.validation.compare import capture

SCHEMA = validation_schema()
#: NULLs in a quarter of the cells and no empty tables: the 3VL cases need
#: NULL operands, the kernels need rows.
DATA = DataFillerConfig(max_rows=6, min_rows=2, null_rate=0.25)
#: Share of the non-NULL values the mixed regime turns into strings.
STRING_RATE = 0.25

#: Few tables and short conditions, so the added conjuncts decide rows
#: instead of drowning in a random OR.
SCAN_MIX = replace(
    PAPER_CONFIG,
    tables=4,
    cond=3,
    setop_probability=0.15,
    where_subquery_probability=0.3,
    from_subquery_probability=0.1,
    null_term_probability=0.1,
)

_ORDERED = ("<", "<", "<=", ">", ">=")


class ScanFilterGenerator(QueryGenerator):
    """Leads most WHERE clauses with one or two probe-free conjuncts over the
    local tables' columns and follows them, in most outermost clauses, with
    a subquery predicate — the conjunct a prefix kernel stops at.  Half the
    outermost FROM clauses are a single table, whose whole WHERE clause
    then sits on the scan."""

    _held_back = 0

    def _select(self, depth, outer, budget, target_arity):
        if not outer and budget[0] >= 2 and self._chance(0.5):
            # The rest of the table budget goes to the WHERE clause.
            self._held_back, budget[0] = budget[0] - 1, 1
        return super()._select(depth, outer, budget, target_arity)

    def _leading_conjunct(self, scopes):
        local = scopes[-1].unambiguous
        # Outermost, mostly the first two columns, which the mixed regime
        # keeps nearly string-free (a prefix that raises itself shows
        # nothing about the conjuncts behind it); nested, mostly the later
        # ones, so that subquery predicates do raise.
        early = [name for name in local if name.attribute in ("A1", "A2")]
        preferred = early if len(scopes) == 1 else [n for n in local if n not in early]
        column = self.rng.choice(preferred if preferred and self._chance(0.7) else local)
        if self._chance(0.15):
            return IsNull(column, negated=self._chance(0.5))
        other = (
            self.rng.choice(local)
            if self._chance(0.25)
            else NULL if self._chance(0.05) else self._constant()
        )
        pair = (column, other) if self._chance(0.7) else (other, column)
        conjunct = Predicate(self.rng.choice(_ORDERED), pair)
        return Not(conjunct) if self._chance(0.15) else conjunct

    def _condition(self, depth, scopes, budget):
        if len(scopes) == 1:
            budget[0] += self._held_back
            self._held_back = 0
        condition = super()._condition(depth, scopes, budget)
        if not scopes[-1].unambiguous or not self._chance(0.85):
            return condition
        if len(scopes) == 1 and budget[0] >= 1 and self._chance(0.75):
            if self._chance(0.5):
                probe = Exists(self._query(depth + 1, scopes, budget, None))
            else:
                subquery = self._query(depth + 1, scopes, budget, target_arity=1)
                probe = InQuery((self._term(scopes),), subquery, self._chance(0.4))
            if self._chance(0.3):
                probe = Not(probe)
            condition = probe if condition is TRUE_COND else And(probe, condition)
        for _ in range(self.rng.choice((1, 2, 2))):
            lead = self._leading_conjunct(scopes)
            condition = lead if condition is TRUE_COND else And(lead, condition)
        return condition


class IndexFilterGenerator(ScanFilterGenerator):
    """:class:`ScanFilterGenerator` whose leading conjuncts mostly compare a
    local column with an operand a sorted index can bisect to a narrow
    interval: in a subquery, two times in five an outer column — read once
    per outer row — and otherwise a literal; an ordered comparison's
    literal lies near the end of the value domain it selects."""

    def _leading_conjunct(self, scopes):
        local = scopes[-1].unambiguous
        outer = [name for scope in scopes[:-1] for name in scope.unambiguous]
        if not local or self._chance(0.3):
            return super()._leading_conjunct(scopes)
        if outer and self._chance(0.4):
            op, other = self.rng.choice(("=", "=", "<", ">=")), self.rng.choice(outer)
        else:
            op = self.rng.choice(("=", "<", "<=", ">", ">="))
            top = self.config.max_constant
            edges = {
                "<": (0, 1, 2),
                "<=": (0, 1),
                ">": (top - 1, top),
                ">=": (top - 2, top - 1, top),
            }
            other = self.rng.choice(edges[op]) if op in edges else self._constant()
        pair = (self.rng.choice(local), other)
        return Predicate(op, pair if self._chance(0.7) else pair[::-1])


#: The index leg's data: each of twenty values in about 5% of a column's
#: cells, NULLs in 5%, so an equality run — NULLs included, when a
#: remainder follows — stays under the kernels' interval share.
INDEX_DATA = DataFillerConfig(max_rows=160, min_rows=40, null_rate=0.05, max_value=19)
#: Two tables per FROM clause keep products of 160-row tables affordable.
INDEX_MIX = replace(SCAN_MIX, tables=2, max_constant=19)


def mixed_database(schema, rng, config=DATA, string_rate=STRING_RATE):
    """``fill_database`` with ``string_rate`` of the values from the third
    column on made strings, and a fifth of that share in the first two."""
    db = fill_database(schema, rng, config)
    if not string_rate:
        return db
    rates = [string_rate / 5] * 2 + [string_rate] * 7
    return Database(
        schema,
        {
            name: [
                tuple(
                    f"s{v}" if v is not NULL and rng.random() < rate else v
                    for v, rate in zip(record, rates)
                )
                for record in db.table(name).bag
            ]
            for name in schema.table_names
        },
    )


def scan_pair(seed, string_rate=0.0):
    rng = random.Random(seed)
    query = ScanFilterGenerator(SCHEMA, SCAN_MIX, rng).generate()
    return query, mixed_database(SCHEMA, rng, string_rate=string_rate)


def kernel_shapes(plan):
    """``(whole, prefix)``: filters over base-table scans in ``plan`` whose
    whole predicate is probe-free, and those with probe-free leading
    conjuncts in front of a probe."""
    whole = prefix = 0
    for node, _pred in iter_plan_nodes(plan):
        if isinstance(node, FilterOp) and isinstance(node.child, TableScan):
            probes = [_probe_segments(c) > 0 for c in _conjuncts(node.predicate)]
            if not any(probes):
                whole += 1
            elif not probes[0]:
                prefix += 1
    return whole, prefix


def battery(dialect, star_style, trials, string_rate=0.0):
    """Run ``trials`` pairs through the execution tiers, cold and on a hot
    plan cache; returns ``(failures, counts)``: the disagreements found, and
    how many pairs had a whole-predicate kernel, a prefix kernel, a kernel
    fallback, and an error outcome.  Expects the caller to have forced
    ``SINGLE_USE_COMPILE_ROWS`` to 0, so six-row plans are lowered."""
    reference = Engine(SCHEMA, dialect, compiled=False)
    tiers = {
        "compiled": Engine(SCHEMA, dialect),
        "single-use": Engine(SCHEMA, dialect, plan_cache_size=0),
    }
    naive = Engine(SCHEMA, dialect, optimize=False)
    semantics = SqlSemantics(SCHEMA, star_style=star_style)
    failures = []
    counts = {"whole": 0, "prefix": 0, "fallbacks": 0, "errors": 0}
    for seed in range(trials):
        query, db = scan_pair(seed, string_rate)
        expected = capture(lambda: reference.execute(query, db))
        counts["errors"] += expected.is_error
        if not string_rate:

            def oracle():
                check_query(query, SCHEMA, star_style=star_style)
                return semantics.run(query, db)

            slow = capture(lambda: naive.execute(query, db))
            if not slow.agrees_with(capture(oracle)):
                failures.append(f"seed {seed}: naive engine vs semantics differ")
            if (slow.error, slow.detail) != (expected.error, expected.detail):
                failures.append(f"seed {seed}: interpreted raises differently from naive")
            elif not slow.agrees_with(expected):
                failures.append(f"seed {seed}: interpreted differs from naive")
        for name, engine in tiers.items():
            before = engine.cache_info()["scan_kernels"]["fallbacks"]
            # Twice: the repeat runs the cached plan (where there is a cache).
            for run in ("cold", "hot"):
                fast = capture(lambda: engine.execute(query, db))
                if (fast.error, fast.detail) != (expected.error, expected.detail):
                    failures.append(
                        f"seed {seed}: {name} ({run}) raises differently from interpreted"
                    )
                elif not fast.agrees_with(expected):
                    failures.append(f"seed {seed}: {name} ({run}) differs from interpreted")
            if name == "compiled":
                fell_back = engine.cache_info()["scan_kernels"]["fallbacks"] > before
                counts["fallbacks"] += fell_back
        if not expected.is_error:
            whole, prefix = kernel_shapes(tiers["compiled"]._plan(query).plan)
            counts["whole"] += whole > 0
            counts["prefix"] += prefix > 0
    return failures, counts


def index_battery(dialect, trials):
    """Run ``trials`` pairs of the index leg through the default and the
    single-use tier, cold and on a hot plan cache; returns ``(failures,
    lookups)``: every execution whose rows, *in emission order*, or whose
    error differ from the interpreted tier's, and how many scans the sorted
    indexes served.  Expects ``SINGLE_USE_COMPILE_ROWS`` forced to 0."""
    reference = Engine(SCHEMA, dialect, compiled=False)
    tiers = {
        "compiled": Engine(SCHEMA, dialect),
        "single-use": Engine(SCHEMA, dialect, plan_cache_size=0),
    }
    failures = []
    for seed in range(trials):
        rng = random.Random(seed)
        query = IndexFilterGenerator(SCHEMA, INDEX_MIX, rng).generate()
        db = fill_database(SCHEMA, rng, INDEX_DATA)
        expected = capture(lambda: reference.execute_rows(query, db))
        for name, engine in tiers.items():
            for run in ("cold", "hot"):
                fast = capture(lambda: engine.execute_rows(query, db))
                if (fast.error, fast.detail) != (expected.error, expected.detail):
                    failures.append(
                        f"seed {seed}: {name} ({run}) raises differently from interpreted"
                    )
                elif fast.table != expected.table:
                    failures.append(
                        f"seed {seed}: {name} ({run}) emits other rows than interpreted"
                    )
    lookups = sum(e.cache_info()["scan_kernels"]["lookups"] for e in tiers.values())
    return failures, lookups
