"""Gate the gate: a bug in the oracle's one FROM/WHERE rule must trip the
Section 4 campaign.

``SqlSemantics._from_where`` is Figure 5 as written — the product of the
FROM items, kept where θ is true — and every query the oracle answers
passes through it.  Each test swaps it for a literal Figure 5 route and
runs a 200-trial campaign per variant (``ValidationBackend`` over
``ValidationRunner``, the engine against the formal semantics):

* (seam) the faithful route: no mismatch, so what the trips below see is
  the seeded bug and nothing the swap itself changes;
* (trip) a route that keeps the rows on which θ is UNKNOWN, not only the
  TRUE ones: dozens of mismatches per variant;
* (trip) a route that gives every surviving row multiplicity 1: exactly one
  mismatching trial per variant.  Generated base tables rarely hold a
  duplicate row and many queries are DISTINCT, so only a trial whose result
  has a repeated row can tell; the gate asserts the one detection it gets,
  which a change of generator or data could take away.
"""

from repro.campaigns import ValidationBackend, run_campaign
from repro.core.truth import FALSE
from repro.semantics import SqlSemantics
from repro.sql.labels import scope_full_names
from repro.validation import ValidationRunner

TRIALS = 200


def literal_from_where(keep=lambda truth: truth.is_true, count=lambda n: n):
    """⟦FROM τ:β WHERE θ⟧ by Figure 5: the rows of the product for which
    ``keep(⟦θ⟧)``, each with multiplicity ``count(n)``."""

    def from_where(self, query, db, env):
        binder = env.binder(scope_full_names(query.from_items, self.schema))
        survivors = []
        product = self._eval_from(query.from_items, db, env)
        for record, n in product.counts().items():
            revised = binder.bind(record)
            if keep(self.eval_condition(query.where, db, revised)):
                survivors.append((record, count(n), revised))
        return survivors

    return from_where


def mismatches(monkeypatch, route):
    """Mismatching trials per variant with ``route`` as the FROM/WHERE rule."""
    monkeypatch.setattr(SqlSemantics, "_from_where", route)
    counts = []
    for variant in ("postgres", "oracle"):
        backend = ValidationBackend(ValidationRunner(variant=variant))
        counts.append(len(run_campaign(backend, TRIALS).mismatches))
    return counts


def test_the_literal_route_seam_is_faithful(monkeypatch):
    assert mismatches(monkeypatch, literal_from_where()) == [0, 0]


def test_keeping_unknown_rows_trips_the_campaign(monkeypatch):
    route = literal_from_where(keep=lambda truth: truth is not FALSE)
    assert all(n >= 20 for n in mismatches(monkeypatch, route))


def test_multiplicity_one_trips_the_campaign(monkeypatch):
    route = literal_from_where(count=lambda n: 1)
    assert all(n >= 1 for n in mismatches(monkeypatch, route))
