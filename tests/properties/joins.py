"""The join workload: fixed equality-join shapes over tiny random instances.

The paper mix reaches hardly any join build — 500 seeds of the compiled,
second-generation or join-tilted mix plan 6–15 hash joins and no generic
join at all — so every battery that gates the join operators also runs
this workload.  The queries cover what the builds key on: triangles and
4-cycles (``GenericJoin`` tries two levels deep), a variable bound by two
columns of one child, self-join cycles (one table under two trie
layouts), acyclic chains (``HashJoin``), and a composite-key chain; the
instances are small, collision-heavy and one cell in five NULL, so NULL
keys meet on both sides of every build.
"""

import random

from repro.core import NULL, Database, Schema
from repro.sql import annotate

CYCLIC_SCHEMA = Schema(
    {"R": ("A", "B"), "S": ("A", "B"), "T": ("A", "B"), "U": ("A", "B")}
)

CYCLIC_SQL = (
    # The triangle, bare and with residual predicates the multiway
    # operator must stage above the intersection.
    "SELECT R.A, S.A, T.A FROM R, S, T "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A",
    "SELECT R.A FROM R, S, T "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A AND R.A < S.B",
    "SELECT DISTINCT T.B FROM R, S, T "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A AND NOT (S.A = 3)",
    # The 4-cycle, and a 4-clique-ish overlay (extra chord → parallel
    # edges collapsing onto one class).
    "SELECT R.A, T.A FROM R, S, T, U "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = U.A AND U.B = R.A",
    "SELECT R.A FROM R, S, T, U "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = U.A AND U.B = R.A "
    "AND R.A = T.A",
    # Self-join cycles: the same table two and three times under different
    # aliases; in the second, Z's trie is keyed (B, A) beside X's and Y's
    # (A, B), so one table holds two tries of one plan.
    "SELECT X.A, Y.B FROM R AS X, R AS Y, S "
    "WHERE X.B = Y.A AND Y.B = S.A AND S.B = X.A",
    "SELECT X.A, Y.A, Z.A FROM R AS X, R AS Y, R AS Z "
    "WHERE X.B = Y.A AND Y.B = Z.A AND Z.B = X.A",
    # Cycle + chain tail: only the cyclic core goes multiway; the tail
    # hangs off the equality graph.
    "SELECT R.A, U.B FROM R, S, T, U "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = R.A AND T.B = U.A",
    # A same-table equality beside the cycle (a pushed filter, not part
    # of any variable).
    "SELECT R.A FROM R, S, T "
    "WHERE R.A = R.B AND R.B = S.A AND S.B = T.A AND T.B = R.A",
    # A multi-column variable: both of R's columns are equated with S.A,
    # so R's trie keeps only the rows where they agree.
    "SELECT R.A, R.B, S.B FROM R, S, T "
    "WHERE R.A = S.A AND R.B = S.A AND S.B = T.A AND T.B = R.A",
)

#: Acyclic chains: these take the Selinger-DP path (cost-sensitive, so
#: they are what the cardinality-feedback loop re-orders), not the
#: multiway operator; the last joins R and S on a composite key.
CHAIN_SQL = (
    "SELECT R.A, T.B FROM R, S, T WHERE R.B = S.A AND S.B = T.A",
    "SELECT R.A FROM R, S, T, U "
    "WHERE R.B = S.A AND S.B = T.A AND T.B = U.A",
    "SELECT R.A, T.B FROM R, S, T "
    "WHERE R.A = S.A AND R.B = S.B AND S.B = T.A",
)


def cyclic_db(seed, rows=6, domain=4, null_rate=0.2):
    """Tiny, collision- and NULL-heavy instances: every trie path is
    exercised, including NULL-dropping at build and empty intersections."""
    rng = random.Random(seed)

    def cell():
        return NULL if rng.random() < null_rate else rng.randrange(domain)

    def table():
        return [(cell(), cell()) for _ in range(rng.randrange(rows + 1))]

    return Database(
        CYCLIC_SCHEMA, {name: table() for name in CYCLIC_SCHEMA.table_names}
    )


def join_queries():
    return [annotate(sql, CYCLIC_SCHEMA) for sql in CYCLIC_SQL + CHAIN_SQL]


def join_pairs(databases=40):
    """``(label, query, db)``: every query over each of ``databases``
    instances."""
    queries = join_queries()
    return (
        (f"query {q} db {s}", query, cyclic_db(s))
        for s in range(databases)
        for q, query in enumerate(queries)
    )
