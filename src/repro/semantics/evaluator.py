"""The formal semantics of basic SQL: Figures 4–7 of the paper, executable.

The central object is :class:`SqlSemantics`, the semantic function ⟦·⟧.  It
evaluates

* **terms** under an environment η (Figure 4);
* **conditions** under a database and η, to a 3VL truth value (Figure 6);
* **queries** under a database, η, and the Boolean switch x (Figures 5 and 7).

The Boolean switch x implements the paper's treatment of the non-compositional
``SELECT *``: x is 1 exactly for the outermost query nested inside an EXISTS
condition, in which case ``*`` is replaced by an arbitrary constant; with
x = 0, ``*`` expands to the full names ℓ(τ:β) of the local FROM clause (and
referencing a *repeated* full name raises
:class:`~repro.core.errors.AmbiguousReferenceError` — the behaviour of
Example 2).

Two star styles are supported (Section 4's "adjustments"):

* ``standard`` — the Figures 4–7 semantics above (this is also the
  Oracle-adjusted variant; Oracle's syntactic quirk, MINUS, lives in the
  parser/printer, not here);
* ``compositional`` — PostgreSQL's choice: ``SELECT *`` returns the FROM
  product rows unchanged in every context, and the switch x is ignored.

The logic (3VL, or either two-valued interpretation of Section 6) is a
pluggable strategy; see :mod:`repro.semantics.logic`.

Performance: the rules are executed as written — ⟦FROM τ:β WHERE θ⟧ is the
product of the FROM items filtered by θ, as in Figure 5 — with one shortcut,
the one the paper itself proves unobservable (below).  ``fast_from=False``
does not take it: it is the literal Figures 5–7 route and the reference
every gate compares the default against.

*The ``param`` lemma as evaluation strategy.*  ⟦Q⟧_{D,η,x} depends on η only
through param(Q), the names Q reads from its environment (Section 5;
:func:`repro.sql.labels.query_params`).  The literal route re-evaluates a
subquery for every row of every enclosing FROM product; the default
evaluates it once per distinct *(node, switch x, η ↾ param(Q))* and reuses
the table: an uncorrelated subquery runs once, a correlated one once per
distinct binding of the names it actually reads.  What is keyed is the
*binding state* of each parameter — a value, the ambiguity mark of a
repeated full name, or "unbound" — because a lookup tells the three apart,
and values are keyed with their types, because ``1``, ``True`` and ``1.0``
are one dict key and three values (:meth:`Environment.binding_key`).  An
*error* needs no entry: it is an outcome like any other, but an
evaluation that raises unwinds the whole run (nothing in here catches), so
it surfaces on the same outer row as in Figures 5–7 and no later visit
exists to ask for it again.  The memo belongs to the outermost
:meth:`SqlSemantics.evaluate` call and dies with it — a table computed on
one database never answers for another, and nothing accumulates across a
campaign's trials; one evaluator therefore evaluates one query at a time.
On the Section 4 campaign (6-row tables) the memo cuts query evaluations
44,125 → 20,312 per 4,000 trials and the oracle's time from 3.1 to 1.6 s;
the tail trials, where nested subqueries multiply, are where it comes from.

Everything env-independent about a node — ℓ(τ:β) and param(Q), which
depend only on the node and the schema — is one :class:`_NodeAnalysis`
record, computed when the node is first met: correlated subqueries re-enter
here once per outer row.  ``scripts/bench.py`` gates both sides:
``semantics_ratio <= 1.05`` on a flat mix (the default must cost nothing
where it cannot help) and ``semantics_nested_ratio <= 0.8`` on a
nesting-biased one (the win must not quietly disappear).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.bag import Bag
from ..core.env import EMPTY_ENV, Environment
from ..core.errors import (
    ArityMismatchError,
    CompileError,
    DuplicateAliasError,
    ReproError,
)
from ..core.schema import Database, Schema
from ..core.table import Table
from ..core.truth import FALSE, TRUE, Truth, conj_all
from ..core.values import NULL, FullName, Name, Null, Record, Term, Value
from ..sql.ast import (
    And,
    Condition,
    Exists,
    FalseCond,
    FromItem,
    InQuery,
    IsNull,
    Not,
    Or,
    Predicate,
    Query,
    Select,
    SetOp,
    TrueCond,
)
from ..sql.labels import (
    from_labels,
    query_labels,
    query_params,
    scope_full_names,
)
from .logic import Logic, THREE_VALUED, get_logic
from .predicates import PredicateRegistry, default_registry

__all__ = ["SqlSemantics", "STAR_STANDARD", "STAR_COMPOSITIONAL"]

STAR_STANDARD = "standard"
STAR_COMPOSITIONAL = "compositional"


#: ``_NodeAnalysis.params`` before param(Q) has been asked for.
_PENDING = object()


class _NodeAnalysis:
    """What is known of a query node before any environment is: the
    env-independent half of evaluating it, computed once per node.

    ``scope`` is ℓ(τ:β), None for a set operation and for a node whose
    labels do not compute (Figure 5 then raises what it raises, where it
    raises it).  ``params`` is param(Q) in a fixed order — the names whose
    binding states key the memo — or None when the node must not be
    memoized; it is computed when first asked for, which for a top-level
    query is never.
    """

    __slots__ = ("node", "scope", "params")

    def __init__(self, node: Query):
        self.node = node  # pinned: its id keys the record
        self.scope: Optional[Tuple[FullName, ...]] = None
        self.params: object = _PENDING


class SqlSemantics:
    """The semantic function ⟦·⟧ of Figures 4–7.

    Parameters
    ----------
    schema:
        The database schema, needed to compute ℓ(R) for base tables.
    star_style:
        ``"standard"`` for the paper's Figures 4–7 (with the Boolean switch),
        ``"compositional"`` for the PostgreSQL adjustment of Section 4.
    logic:
        A :class:`~repro.semantics.logic.Logic` instance or its name;
        defaults to SQL's three-valued logic.
    predicates:
        The collection P; defaults to the comparisons and LIKE.
    exists_constant, exists_label:
        The "arbitrary c ∈ C and N ∈ N" used when ``SELECT *`` occurs
        directly under EXISTS in the standard style.
    fast_from:
        Memoize subqueries by the ``param`` lemma (the default); False is
        the literal Figures 5–7 route, the reference.
    """

    def __init__(
        self,
        schema: Schema,
        star_style: str = STAR_STANDARD,
        logic: Logic | str = THREE_VALUED,
        predicates: Optional[PredicateRegistry] = None,
        exists_constant: Value = 1,
        exists_label: Name = "C",
        fast_from: bool = True,
    ):
        if star_style not in (STAR_STANDARD, STAR_COMPOSITIONAL):
            raise ValueError(f"unknown star style: {star_style!r}")
        self.schema = schema
        self.star_style = star_style
        self.logic = get_logic(logic) if isinstance(logic, str) else logic
        self.predicates = predicates if predicates is not None else default_registry()
        self.exists_constant = exists_constant
        self.exists_label = exists_label
        self.fast_from = fast_from
        # The env-independent analysis of each query node met, keyed by id
        # (the record pins its node so the id cannot be reused): correlated
        # subqueries re-enter evaluate/_from_where once per outer row.
        self._analyses: Dict[int, _NodeAnalysis] = {}
        # Outcomes of the subqueries of the evaluation in progress, keyed by
        # (node, x, η ↾ param(node)); owned by the outermost evaluate call
        # and None outside one, so that nothing outlives a run.
        self._memo: Optional[dict] = None

    # ------------------------------------------------------------------
    # Terms (Figure 4)
    # ------------------------------------------------------------------

    def eval_term(self, term: Term, env: Environment) -> Value:
        """⟦t⟧η: a full name denotes η(A); constants and NULL denote themselves."""
        if isinstance(term, FullName):
            return env.lookup(term)
        if isinstance(term, Null):
            return NULL
        return term

    def eval_terms(self, terms: Tuple[Term, ...], env: Environment) -> Record:
        """⟦(t1, …, tn)⟧η = (⟦t1⟧η, …, ⟦tn⟧η).

        A list comprehension (not a generator) feeds ``tuple``: this runs
        once per surviving product row and the generator frame's
        suspend/resume overhead is measurable at campaign scale.
        """
        eval_term = self.eval_term
        return tuple([eval_term(term, env) for term in terms])

    # ------------------------------------------------------------------
    # Queries (Figures 5 and 7)
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: Query,
        db: Database,
        env: Environment = EMPTY_ENV,
        exists_context: bool = False,
    ) -> Table:
        """⟦Q⟧_{D,η,x}; for a top-level query, ⟦Q⟧_D = ⟦Q⟧_{D,∅,0}.

        ⟦Q⟧_{D,η,x} depends on η only through param(Q) (Section 5), so a
        subquery is evaluated once per distinct binding state of the names
        it reads and its table reused for every other row of the enclosing
        products.  The outermost call owns the memo and takes it down on
        the way out.
        """
        memo = self._memo
        if memo is None:
            if not self.fast_from:
                return self._evaluate(query, db, env, exists_context)
            self._memo = {}
            try:
                return self._evaluate(query, db, env, exists_context)
            finally:
                self._memo = None
        if env is EMPTY_ENV:
            # Nothing repeats under η = ∅: it reaches only the operands of
            # top-level set operations and their FROM items, once each.
            return self._evaluate(query, db, env, exists_context)
        analysis = self._analysis(query)
        names = analysis.params
        if names is _PENDING:
            names = analysis.params = self._param_names(query)
        if names is None:
            return self._evaluate(query, db, env, exists_context)
        key = (id(query), exists_context, env.binding_key(names))
        table = memo.get(key)
        if table is None:
            # Only tables are entered: an evaluation that raises ends the
            # run (nothing between here and the outermost call catches),
            # so no later visit could ask for its outcome.
            table = memo[key] = self._evaluate(query, db, env, exists_context)
        return table

    def _evaluate(
        self, query: Query, db: Database, env: Environment, exists_context: bool
    ) -> Table:
        """The rules of Figures 5 and 7, by the form of Q."""
        if isinstance(query, Select):
            return self._eval_select(query, db, env, exists_context)
        if isinstance(query, SetOp):
            return self._eval_setop(query, db, env)
        raise TypeError(f"not a query: {query!r}")

    def _param_names(self, query: Query) -> Optional[Tuple[FullName, ...]]:
        """param(Q) in a fixed order, or None when it does not compute: an
        unknown table or a column-alias arity clash, possibly in a branch
        evaluation never reaches, is not for the memo to raise."""
        try:
            return tuple(query_params(query, self.schema))
        except ReproError:
            return None

    def _analysis(self, query: Query) -> _NodeAnalysis:
        """The :class:`_NodeAnalysis` of a node, computed on first sight."""
        analysis = self._analyses.get(id(query))
        if analysis is not None:
            return analysis
        if len(self._analyses) > 4096:
            self._analyses.clear()
        analysis = _NodeAnalysis(query)
        if isinstance(query, Select):
            try:
                analysis.scope = scope_full_names(query.from_items, self.schema)
            except ReproError:
                pass  # an unknown table, a column-alias arity clash
        self._analyses[id(query)] = analysis
        return analysis

    def _eval_from(
        self, from_items: Tuple[FromItem, ...], db: Database, env: Environment
    ) -> Bag:
        """⟦τ:β⟧_{D,η,x} = ⟦T1⟧_{D,η,0} × ⋯ × ⟦Tk⟧_{D,η,0}."""
        seen_aliases = set()
        for item in from_items:
            if item.alias in seen_aliases:
                raise DuplicateAliasError(
                    f"alias {item.alias} used twice in the same FROM clause"
                )
            seen_aliases.add(item.alias)
        product: Optional[Bag] = None
        for item in from_items:
            if item.is_base_table:
                bag = db.table(item.table).bag
            else:
                bag = self.evaluate(item.table, db, env, exists_context=False).bag
            product = bag if product is None else product.product(bag)
        if product is None:
            raise CompileError("a FROM clause must reference at least one table")
        return product

    def _from_where(
        self, query: Select, db: Database, env: Environment
    ) -> list[tuple[Record, int, Environment]]:
        """The ⟦FROM τ:β WHERE θ⟧ rule of Figure 5: the rows of the product
        ⟦τ:β⟧ on which θ is true.

        Returns (record, multiplicity, revised environment η′) triples, where
        η′ = η ⊕r̄ ℓ(τ:β) is the environment against which the SELECT list is
        subsequently evaluated.
        """
        scope = self._analysis(query).scope if self.fast_from else None
        if scope is None:
            scope = scope_full_names(query.from_items, self.schema)
        product = self._eval_from(query.from_items, db, env)
        survivors = []
        binder = env.binder(scope)
        condition = query.where
        for record, count in product.counts().items():
            revised = binder.bind(record)
            if self.eval_condition(condition, db, revised).is_true:
                survivors.append((record, count, revised))
        return survivors

    def _eval_select(
        self, query: Select, db: Database, env: Environment, exists_context: bool
    ) -> Table:
        if query.is_star:
            table = self._eval_select_star(query, db, env, exists_context)
        else:
            survivors = self._from_where(query, db, env)
            labels = tuple(item.alias for item in query.items)
            terms = tuple(item.term for item in query.items)
            counts: dict[Record, int] = {}
            for _record, count, revised in survivors:
                out = self.eval_terms(terms, revised)
                counts[out] = counts.get(out, 0) + count
            table = Table(labels, Bag.from_counts(counts))
        if query.distinct:
            table = table.distinct()
        return table

    def _eval_select_star(
        self, query: Select, db: Database, env: Environment, exists_context: bool
    ) -> Table:
        if self.star_style == STAR_COMPOSITIONAL:
            # PostgreSQL's rule: ⟦SELECT * FROM τ:β WHERE θ⟧ = ⟦FROM τ:β WHERE θ⟧.
            labels = from_labels(query.from_items, self.schema)
            survivors = self._from_where(query, db, env)
            counts: dict[Record, int] = {}
            for record, count, _revised in survivors:
                counts[record] = counts.get(record, 0) + count
            return Table(labels, Bag.from_counts(counts))
        if exists_context:
            # x = 1: ⟦SELECT * …⟧_{D,η,1} = ⟦SELECT c AS N …⟧_{D,η,1}.
            survivors = self._from_where(query, db, env)
            counts: dict[Record, int] = {}
            for _record, count, _revised in survivors:
                out = (self.exists_constant,)
                counts[out] = counts.get(out, 0) + count
            return Table((self.exists_label,), Bag.from_counts(counts))
        # x = 0: ⟦SELECT * …⟧_{D,η,0} = ⟦SELECT ℓ(τ:β) : ℓ(τ) …⟧_{D,η,0}.
        scope = scope_full_names(query.from_items, self.schema)
        labels = from_labels(query.from_items, self.schema)
        survivors = self._from_where(query, db, env)
        counts: dict[Record, int] = {}
        for _record, count, revised in survivors:
            out = self.eval_terms(scope, revised)
            counts[out] = counts.get(out, 0) + count
        return Table(labels, Bag.from_counts(counts))

    def _eval_setop(self, query: SetOp, db: Database, env: Environment) -> Table:
        """Figure 7: set and bag flavours of UNION, INTERSECT, EXCEPT."""
        left = self.evaluate(query.left, db, env, exists_context=False)
        right = self.evaluate(query.right, db, env, exists_context=False)
        if left.arity != right.arity:
            raise ArityMismatchError(
                f"{query.op} combines tables of arity {left.arity} and {right.arity}"
            )
        labels = left.columns  # ℓ(Q1 op Q2) = ℓ(Q1)
        if query.op == "UNION":
            bag = left.bag.union(right.bag)
            if not query.all:
                bag = bag.distinct_bag()
        elif query.op == "INTERSECT":
            bag = left.bag.intersection(right.bag)
            if not query.all:
                bag = bag.distinct_bag()
        else:  # EXCEPT
            if query.all:
                bag = left.bag.difference(right.bag)
            else:
                # ⟦Q1 EXCEPT Q2⟧ = ε(⟦Q1⟧) − ⟦Q2⟧ (not ε of the ALL version!)
                bag = left.bag.distinct_bag().difference(right.bag)
        return Table(labels, bag)

    # ------------------------------------------------------------------
    # Conditions (Figure 6)
    # ------------------------------------------------------------------

    def eval_condition(
        self, condition: Condition, db: Database, env: Environment
    ) -> Truth:
        """⟦θ⟧_{D,η} ∈ {t, f, u}.

        The isinstance chain is ordered by observed frequency (predicate
        leaves dominate every WHERE tree, and this runs once per conjunct
        per surviving row); the AST node classes are disjoint, so the
        order cannot change the result.
        """
        if isinstance(condition, Predicate):
            values = self.eval_terms(condition.args, env)
            return self.logic.predicate(self.predicates, condition.name, values)
        if isinstance(condition, TrueCond):
            return TRUE
        if isinstance(condition, FalseCond):
            return FALSE
        if isinstance(condition, IsNull):
            value = self.eval_term(condition.term, env)
            result = Truth.from_bool(value is NULL)
            return ~result if condition.negated else result
        if isinstance(condition, InQuery):
            result = self._eval_in(condition, db, env)
            return ~result if condition.negated else result
        if isinstance(condition, Exists):
            table = self.evaluate(condition.query, db, env, exists_context=True)
            return Truth.from_bool(not table.is_empty())
        if isinstance(condition, And):
            left = self.eval_condition(condition.left, db, env)
            if left is FALSE:
                return FALSE
            return left & self.eval_condition(condition.right, db, env)
        if isinstance(condition, Or):
            left = self.eval_condition(condition.left, db, env)
            if left is TRUE:
                return TRUE
            return left | self.eval_condition(condition.right, db, env)
        if isinstance(condition, Not):
            return ~self.eval_condition(condition.operand, db, env)
        raise TypeError(f"not a condition: {condition!r}")

    def _eval_in(self, condition: InQuery, db: Database, env: Environment) -> Truth:
        """⟦t̄ IN Q⟧: the disjunction of ⟦t̄ = r̄⟧ over the rows r̄ of Q."""
        table = self.evaluate(condition.query, db, env, exists_context=False)
        if table.arity != len(condition.terms):
            raise ArityMismatchError(
                f"IN compares {len(condition.terms)} term(s) against a query of "
                f"arity {table.arity}"
            )
        values = self.eval_terms(condition.terms, env)
        result = FALSE
        equal = self.logic.equal
        for row in table.bag.distinct():
            comparison = conj_all(
                [equal(a, b) for a, b in zip(values, row)]
            )
            result = result | comparison
            if result is TRUE:
                return TRUE
        return result

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run(self, query: Query, db: Database) -> Table:
        """⟦Q⟧_D for a parameter-free query: ⟦Q⟧_{D,∅,0}."""
        return self.evaluate(query, db, EMPTY_ENV, exists_context=False)

    def output_labels(self, query: Query) -> Tuple[Name, ...]:
        """ℓ(Q) for this semantics' schema."""
        return query_labels(query, self.schema)
