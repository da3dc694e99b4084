"""Plan-rewrite optimizer of the reference engine.

The planner emits the paper-faithful naive plan — every FROM clause is a
Cartesian product with the whole WHERE clause filtered on top, and every
subquery predicate re-executes its subplan per probing row.  This module
rewrites that tree into an equivalent but drastically cheaper one:

* **selection pushdown** — WHERE conjuncts whose depth-0 references fall
  inside a single join child are re-indexed and evaluated below the join —
  sinking *through* the projection of a FROM-subquery into the subquery
  itself when the projected expressions admit substitution — and every
  other conjunct is applied at the earliest left-deep prefix that covers
  its columns (filter-during-product instead of product-then-filter);
* **hash equi-joins** — an equality conjunct between column references of
  two different children turns the Cartesian product into a
  :class:`~repro.engine.operators.HashJoin` keyed by the raw values, which
  is exact by the equality lemma (non-NULL ``=`` is Python ``==``), with
  NULL-holding keys left out of the build;
* **cost-aware join ordering** — children of a multi-way FROM are ordered
  by a Selinger-style dynamic program over child subsets that can emit
  *bushy* trees (estimates come from bound table sizes when the plan is
  compiled against a database, from observed-cardinality feedback for
  unbound cache plans, and from a fixed default before anything has been
  seen), so selective hash joins run before Cartesian blowups regardless
  of the syntactic FROM order; a
  :class:`~repro.engine.operators.RemapOp` above the reordered tree keeps
  the output row layout — and with it 3VL semantics, projection indices
  and correlated-subquery references — bit-identical to FROM order;
* **worst-case-optimal multiway joins** — when the cross-child equality
  graph of a FROM is *cyclic* (a connected component with at least as many
  equality edges as children: triangles, 4-cycles, …), no binary join tree
  can avoid a blowup on skewed data, so the whole FROM becomes one
  :class:`~repro.engine.operators.GenericJoin` intersecting per-attribute
  hash tries across all children at once;
* **hash set operations** — :class:`~repro.engine.operators.SetOpNode`
  becomes the streaming :class:`~repro.engine.operators.HashSetOp`, so
  UNION/INTERSECT/EXCEPT no longer count and re-expand both sides and an
  enclosing EXISTS terminates them at the first emitted row;
* **subquery caching** — a *closed* EXISTS/IN subplan (one with no outer
  references, per :meth:`~repro.engine.operators.PlanNode.free_refs`) is
  materialized once: EXISTS becomes a cached boolean
  (:class:`~repro.engine.operators.ExistsProbe`) and IN becomes a hash
  probe with 3VL-correct NULL handling
  (:class:`~repro.engine.operators.SemiJoinProbe`); closed FROM-subqueries
  are materialized once per execution
  (:class:`~repro.engine.operators.CachedSubplan`) and *correlated* ones
  are memoized per binding of the outer values they actually read
  (:class:`~repro.engine.operators.MemoSubplan`);
* **subquery decorrelation** — an EXISTS/IN whose body is ``[DISTINCT]
  π(σ_θ(F))``, with ``F`` and the select list free of outer references and
  every conjunct of ``θ`` either ``inner column = probing-row column``
  (outer side exactly one level up) or free of outer references, becomes a
  *keyed* :class:`~repro.engine.operators.SemiJoinProbe`: the closed
  remainder ``σ_rest(F)`` is evaluated once and partitioned by the
  correlation key, and each probing row is one lookup.  ``σ_θ`` keeps a
  row only when every conjunct is true, so the body's rows for one probing
  row are exactly the partition's group for its key, NULL keys matching
  nothing on either side: EXISTS (two-valued, Figure 5) is group
  non-emptiness — NOT EXISTS keeps NULL-key rows — and IN/NOT IN run the
  unchanged 3VL fold (Figures 6–7) over the group, an absent group making
  IN false and NOT IN true.  Unconditional: O(inner + outer) against
  O(distinct outer bindings × inner);
* **streaming** — every other correlated shape (a reference two levels up,
  a non-equality or disjunctive correlation, an outer reference in the
  select list, a set operation as body) keeps the per-binding memo: EXISTS
  probes use the operators' generator iteration and stop at the first row,
  IN folds over the memoized distinct rows.

Semantics: on *well-typed* inputs — data on which no predicate can raise at
runtime, which is everything the type checker (:mod:`repro.sql.typecheck`)
admits and everything the Section 4 campaigns generate — the rewrites
preserve results exactly: 3VL conjunction is commutative and associative,
column remapping is a pure permutation, and the differential and validation
campaigns in :mod:`repro.validation` check the optimized engine against the
formal semantics of Figures 5–7 on both dialect variants.  On *ill-typed*
data (a type clash inside an ordered comparison, LIKE on a non-string) the
optimized plan may evaluate a predicate on more or fewer rows than the
naive And-chain — filters are relocated, joins are reordered, hash joins
drop NULL keys early, EXISTS stops at the first row — so whether, and
which, runtime error surfaces is not preserved: a query that naively
returned a table may raise, or vice versa.  That is the latitude real
systems take (SQL leaves evaluation order unspecified, and the RDBMSs the
engine stands in for reject such queries at compile time).
``Engine(..., optimize=False)`` retains the naive path bit-for-bit, for
ablations and as an escape hatch; ``optimize_plan(plan,
reorder_joins=False)`` / ``hash_setops=False`` / ``wcoj=False`` /
``dp_join_order=False`` ablate the second-generation rewrites individually
(the benchmark stages compare them: ``wcoj=False`` keeps binary join trees
even on cyclic patterns, ``dp_join_order=False`` falls back to the greedy
left-deep ordering).
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    NotPred,
    OrPred,
    expr_refs,
)
from .operators import (
    CachedSubplan,
    CrossJoin,
    DistinctOp,
    ExistsPred,
    ExistsProbe,
    FilterOp,
    GenericJoin,
    HashJoin,
    HashSetOp,
    InPred,
    MemoSubplan,
    PlanNode,
    ProjectOp,
    RemapOp,
    SemiJoinProbe,
    SetOpNode,
    StaticScan,
    TableScan,
    _sub_refs,
    pred_refs,
)

__all__ = ["optimize_plan", "estimate_rows"]

Pred = Callable

#: Cardinality guess for a table whose rows are not bound at optimize time
#: (the plan-cache path): the paper's experiments cap tables at 6–50 rows,
#: so any fixed value in that band ranks unbound scans equally and leaves
#: the ordering decision to filters and join edges, which is the intent.
DEFAULT_TABLE_ROWS = 32.0
#: Assumed fraction of rows surviving one equality join edge.
EQ_SELECTIVITY = 0.1
#: Assumed fraction of rows surviving one pushed filter conjunct.
FILTER_SELECTIVITY = 0.5

#: Subset-DP join ordering is O(3^n) in the number of FROM children; past
#: this width the greedy ordering takes over (real queries never get close).
DP_MAX_CHILDREN = 10


def optimize_plan(
    plan: PlanNode,
    reorder_joins: bool = True,
    hash_setops: bool = True,
    wcoj: bool = True,
    dp_join_order: bool = True,
) -> Tuple[PlanNode, bool]:
    """Rewrite a compiled plan into its optimized physical form:
    ``(plan, cost_sensitive)``.

    ``reorder_joins`` / ``hash_setops`` / ``wcoj`` / ``dp_join_order``
    disable the cost-based join ordering, the hash set operations, the
    worst-case-optimal multiway join, and the Selinger-style DP ordering
    (falling back to the greedy one) respectively — ablation knobs for the
    benchmark stages; everything else always applies.

    ``cost_sensitive`` is True when some join order was chosen from
    cardinality estimates, i.e. when different observed row counts could
    produce a different plan — what tells the engine whether re-optimizing
    a cached plan can pay off at all.
    """
    optimizer = _Optimizer(reorder_joins, hash_setops, wcoj, dp_join_order)
    return optimizer.rewrite(plan), optimizer.cost_sensitive


class _Optimizer:
    """One rewrite pass; holds the ablation switches."""

    def __init__(
        self,
        reorder_joins: bool,
        hash_setops: bool,
        wcoj: bool = True,
        dp_join_order: bool = True,
    ):
        self.reorder_joins = reorder_joins
        self.hash_setops = hash_setops
        self.wcoj = wcoj
        self.dp_join_order = dp_join_order
        #: Whether any rewrite consulted cardinality estimates.
        self.cost_sensitive = False

    def rewrite(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, FilterOp):
            conjuncts = [self._rewrite_pred(c) for c in _flatten_and(plan.predicate)]
            child = plan.child
            if isinstance(child, CrossJoin) and len(child.children) > 1:
                children = [self._from_item(c) for c in child.children]
                joined = self._build_join(children, conjuncts)
                if joined is not None:
                    return joined
                return FilterOp(CrossJoin(children), _combine(conjuncts))
            return self._filtered(self._from_item(child), conjuncts)
        if isinstance(plan, ProjectOp):
            child = plan.child
            if isinstance(child, (FilterOp, CrossJoin)):
                return ProjectOp(self.rewrite(child), plan.expressions)
            # No WHERE clause: the child IS the single FROM item, so it gets
            # the same cache/memo treatment as a CrossJoin child would.
            return ProjectOp(self._from_item(child), plan.expressions)
        if isinstance(plan, DistinctOp):
            return DistinctOp(self.rewrite(plan.child))
        if isinstance(plan, SetOpNode):
            node = HashSetOp if self.hash_setops else SetOpNode
            return node(
                plan.op, plan.all, self.rewrite(plan.left), self.rewrite(plan.right)
            )
        if isinstance(plan, CrossJoin):
            return CrossJoin([self._from_item(child) for child in plan.children])
        # StaticScan, TableScan and already-optimized nodes are left alone.
        return plan

    def _from_item(self, child: PlanNode) -> PlanNode:
        """Optimize one FROM child; cache or memoize derived plans.

        A closed FROM-subquery (no outer references) always produces the
        same rows, yet a plan sitting inside a correlated WHERE subquery
        re-executes per probing row —
        :class:`~repro.engine.operators.CachedSubplan` makes that a replay.
        A *correlated* FROM-subquery is a pure function of the outer values
        it reads, so it is memoized per binding instead
        (:class:`~repro.engine.operators.MemoSubplan`).  Scans are already
        materialized, so only derived plans are wrapped.
        """
        optimized = self.rewrite(child)
        if isinstance(
            optimized, (StaticScan, TableScan, CachedSubplan, MemoSubplan)
        ):
            return optimized
        free = optimized.free_refs()
        if free == frozenset():
            return CachedSubplan(optimized)
        if free:  # known and non-empty: correlated, memoizable
            return MemoSubplan(optimized, tuple(sorted(free)))
        return optimized  # opaque (free is None): leave untouched

    # -- predicates ----------------------------------------------------------

    def _rewrite_pred(self, pred: Pred) -> Pred:
        """Optimize subplans inside a predicate; cache the closed ones."""
        if isinstance(pred, AndPred):
            return AndPred(self._rewrite_pred(pred.left), self._rewrite_pred(pred.right))
        if isinstance(pred, OrPred):
            return OrPred(self._rewrite_pred(pred.left), self._rewrite_pred(pred.right))
        if isinstance(pred, NotPred):
            return NotPred(self._rewrite_pred(pred.operand))
        if isinstance(pred, (ExistsPred, ExistsProbe, InPred)):
            keyed = self._keyed_probe(pred)
            if keyed is not None:
                return keyed
        if isinstance(pred, (ExistsPred, ExistsProbe)):
            subplan = self.rewrite(pred.subplan)
            free = subplan.free_refs()
            if free == frozenset():
                return ExistsProbe(subplan, closed=True)
            return ExistsProbe(subplan, memo_refs=_sub_refs(free))
        if isinstance(pred, InPred):
            subplan = self.rewrite(pred.subplan)
            free = subplan.free_refs()
            if free == frozenset():
                # No CachedSubplan needed: the probe materializes exactly once.
                return SemiJoinProbe(pred.exprs, subplan, pred.negated)
            return InPred(pred.exprs, subplan, pred.negated, memo_refs=_sub_refs(free))
        # ComparePred / IsNullPred / ConstPred / opaque callables.
        return pred

    def _keyed_probe(self, pred: Pred) -> Optional[SemiJoinProbe]:
        """Decorrelate an equality-correlated EXISTS/IN into a keyed probe.

        Applies when the body is ``[DISTINCT] π(σ_θ(F))`` with ``F`` and the
        select list free of outer references and every conjunct of ``θ``
        either ``inner column = probing-row column`` or free of outer
        references itself.  ``σ_θ`` keeps a row only when each conjunct is
        *true*, so for one probing row the body's rows are exactly the rows
        of the closed remainder ``σ_rest(F)`` whose inner key equals the
        outer key with no NULL on either side: the remainder, projected on
        the inner key columns followed by the select list, is evaluated
        once and partitioned by that key
        (:class:`~repro.engine.operators.SemiJoinProbe`).  DISTINCT is
        dropped: duplicates change neither EXISTS nor an IN disjunction.
        Anything else — a reference two levels up, a non-equality or
        disjunctive correlation, an outer reference in the select list, a
        set operation as body — returns None and keeps the memo path.
        """
        body = pred.subplan
        if isinstance(body, DistinctOp):
            body = body.child
        if not (isinstance(body, ProjectOp) and isinstance(body.child, FilterOp)):
            return None
        inner: List[ColumnRef] = []
        outer: List[ColumnRef] = []
        rest: List[Pred] = []
        for conjunct in _flatten_and(body.child.predicate):
            pair = _correlation(conjunct)
            if pair is None:
                rest.append(conjunct)
            else:
                inner.append(ColumnRef(0, pair[0]))
                outer.append(ColumnRef(0, pair[1]))
        # Cheapest test first: most subqueries have no such conjunct, and
        # single-use plans pay this analysis on every query.
        if not inner:
            return None
        source = body.child.child
        if source.free_refs() != frozenset():
            return None
        if not all(map(_reads_own_row, rest)):
            return None
        if not all(map(_reads_own_row, body.expressions)):
            return None
        remainder = FilterOp(source, _combine(rest)) if rest else source
        # IN appends its value columns to the keys; EXISTS needs keys only.
        values, select, negated = (
            (list(pred.exprs), list(body.expressions), pred.negated)
            if isinstance(pred, InPred)
            else ([], [], False)
        )
        return SemiJoinProbe(
            outer + values,
            self.rewrite(ProjectOp(remainder, inner + select)),
            negated,
            key_width=len(inner),
        )

    # -- filter placement ----------------------------------------------------

    def _filtered(self, child: PlanNode, conjuncts: Sequence[Pred]) -> PlanNode:
        """Apply conjuncts above ``child``, sinking each into FROM-subquery
        structure (:meth:`_sink`) when possible."""
        remaining: List[Pred] = []
        for pred in conjuncts:
            sunk = self._sink(child, pred)
            if sunk is None:
                remaining.append(pred)
            else:
                child = sunk
        if remaining:
            return FilterOp(child, _combine(remaining))
        return child

    def _sink(self, child: PlanNode, pred: Pred) -> Optional[PlanNode]:
        """Push one conjunct through projections into a FROM-subquery.

        Filters commute with duplicate elimination and 1:1 projections, so a
        conjunct over a subquery's output columns can run inside the
        subquery — before its projection, its DISTINCT, and (decisively) its
        per-execution materialization, so a
        :class:`~repro.engine.operators.CachedSubplan` caches the already-
        filtered rows.  Returns the rebuilt child, or None when the conjunct
        cannot be expressed below (opaque predicate, subquery probe, or a
        projection of something other than columns and literals).
        """
        if isinstance(child, DistinctOp):
            inner = self._sink(child.child, pred)
            return DistinctOp(inner) if inner is not None else None
        if isinstance(child, CachedSubplan):
            refs = pred_refs(pred)
            if refs is None or any(depth != 0 for depth, _ in refs):
                # The cached subplan runs with an empty outer stack, so only
                # conjuncts reading the current row alone may move inside.
                return None
            inner = self._sink(child.child, pred)
            if inner is None:
                inner = FilterOp(child.child, pred)
            return CachedSubplan(inner)
        if isinstance(child, ProjectOp):
            method = getattr(pred, "substituted", None)
            substituted = method(child.expressions) if method is not None else None
            if substituted is None:
                return None
            inner = self._sink(child.child, substituted)
            if inner is None:
                inner = FilterOp(child.child, substituted)
            return ProjectOp(inner, child.expressions)
        return None

    # -- join construction ---------------------------------------------------

    def _build_join(
        self, children: List[PlanNode], conjuncts: Sequence[Pred]
    ) -> Optional[PlanNode]:
        """A join tree with pushed filters, hash equi-joins and cost order.

        Children are joined left-deep.  In FROM order a left-deep prefix
        occupies exactly the first ``width`` columns of the final row, so
        prefix filters (including correlated subquery probes, whose depth-1
        references index the probing row) run without any re-indexing.  When
        the cost model picks a different order, introspectable conjuncts are
        re-indexed into the permuted layout and a
        :class:`~repro.engine.operators.RemapOp` restores the FROM-order
        layout on top; conjuncts that cannot be re-indexed (subquery probes,
        opaque callables) are evaluated above the remap, where the layout is
        the original one.  Returns None when child widths are unknown.
        """
        widths = [child.width() for child in children]
        if any(w is None for w in widths):
            return None
        offsets = []
        total = 0
        for w in widths:
            offsets.append(total)
            total += w

        def span_of(index: int) -> int:
            for k in range(len(children) - 1, -1, -1):
                if index >= offsets[k]:
                    return k
            raise AssertionError(f"column index {index} out of range")

        child_filters: List[List[Pred]] = [[] for _ in children]
        edges: List[Tuple[int, int, Pred]] = []  # (global i, global j, pred)
        staged: List[_Conjunct] = []
        for order, pred in enumerate(conjuncts):
            analysis = _Conjunct(pred, order, total)
            endpoints = _equi_endpoints(pred)
            if endpoints is not None and span_of(endpoints[0]) != span_of(endpoints[1]):
                edges.append((endpoints[0], endpoints[1], pred))
                continue
            if analysis.local is not None:
                spans = {span_of(i) for i in analysis.local}
                target = spans.pop() if len(spans) == 1 else None
                if target is not None:
                    shifted = getattr(pred, "shifted", lambda _off: None)(
                        offsets[target]
                    )
                    if shifted is not None:
                        child_filters[target].append(shifted)
                        continue
            staged.append(analysis)

        planned = [
            self._filtered(child, filters) if filters else child
            for child, filters in zip(children, child_filters)
        ]

        edge_spans = [(span_of(i), span_of(j)) for i, j, _pred in edges]
        if self.wcoj and len(children) >= 3 and _is_cyclic(len(children), edge_spans):
            # A cyclic equality pattern: no binary tree avoids the blowup,
            # so the whole FROM becomes one worst-case-optimal join.
            return self._generic_join(planned, offsets, staged, edges, span_of)
        order = list(range(len(children)))
        if self.reorder_joins and len(children) >= 3:
            # Two-child joins are not worth the pass: the order only picks
            # the hash build side, and the ordering machinery (estimates
            # are subtree walks) would tax every compiled plan — the
            # campaigns compile a fresh plan per generated query.
            self.cost_sensitive = True
            if self.dp_join_order and len(children) <= DP_MAX_CHILDREN:
                bushy = self._dp_join(
                    planned, widths, offsets, staged, edges, edge_spans, span_of, total
                )
                if bushy is not None:
                    return bushy
            else:
                order = _greedy_order(planned, edge_spans)
        if order == list(range(len(children))):
            return _left_deep(planned, widths, staged, edges)
        return self._permuted(planned, widths, offsets, staged, edges, order, total)

    # -- worst-case-optimal join ---------------------------------------------

    def _generic_join(
        self,
        planned: List[PlanNode],
        offsets: List[int],
        staged: List["_Conjunct"],
        edges: List[Tuple[int, int, Pred]],
        span_of: Callable[[int], int],
    ) -> PlanNode:
        """All children joined at once by a :class:`GenericJoin`.

        The equality edges are folded into equivalence classes of global
        column indices (union-find); each class spanning the children is
        one join variable, ordered by its first column.  The node's output
        layout is FROM order, so staged conjuncts — including subquery
        probes and opaque callables — run directly above, no remap needed.
        """
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for i, j, _pred in edges:
            parent.setdefault(i, i)
            parent.setdefault(j, j)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
        classes: Dict[int, List[int]] = {}
        for g in parent:
            classes.setdefault(find(g), []).append(g)
        variables = tuple(
            tuple((span_of(g), g - offsets[span_of(g)]) for g in sorted(members))
            for members in sorted(classes.values(), key=min)
        )
        join: PlanNode = GenericJoin(planned, variables)
        if staged:
            return FilterOp(join, _combine([c.pred for c in staged]))
        return join

    # -- Selinger-style DP ordering ------------------------------------------

    def _dp_join(
        self,
        planned: List[PlanNode],
        widths: List[int],
        offsets: List[int],
        staged: List["_Conjunct"],
        edges: List[Tuple[int, int, Pred]],
        edge_spans: Sequence[Tuple[int, int]],
        span_of: Callable[[int], int],
        total: int,
    ) -> Optional[PlanNode]:
        """Dynamic program over child subsets, allowing bushy join trees.

        A subset's estimated size is split-independent under the cost model
        (the product of its children's estimates, discounted once per
        internal equality edge — the closed form of :func:`_step_cost`
        iterated), so ``cost(S) = size(S) + min over splits of
        cost(S1) + cost(S2)`` with singleton cost = size.  The identity
        left-deep chain is one of the enumerated trees and is costed by the
        same formula, so the DP plan is used only when *strictly* cheaper —
        an already-good FROM order keeps its remap-free plan (returns None).
        """
        n = len(planned)
        full = (1 << n) - 1
        estimates = [max(estimate_rows(child), 1.0) for child in planned]
        size = [1.0] * (full + 1)
        for mask in range(1, full + 1):
            product = 1.0
            for i in range(n):
                if mask >> i & 1:
                    product *= estimates[i]
            internal = sum(
                1 for a, b in edge_spans if mask >> a & 1 and mask >> b & 1
            )
            size[mask] = product * EQ_SELECTIVITY**internal
        cost = [0.0] * (full + 1)
        split = [0] * (full + 1)
        for i in range(n):
            cost[1 << i] = size[1 << i]
        for mask in range(1, full + 1):
            if mask & (mask - 1) == 0:
                continue
            best = None
            best_sub = 0
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # visit each unordered split once
                    combined = cost[sub] + cost[other]
                    if best is None or combined < best:
                        best, best_sub = combined, sub
                sub = (sub - 1) & mask
            cost[mask] = best + size[mask]
            split[mask] = best_sub
        identity_cost = sum(size[1 << i] for i in range(n))
        prefix = 1
        for i in range(1, n):
            prefix |= 1 << i
            identity_cost += size[prefix]
        if not cost[full] < identity_cost:
            return None
        return self._bushy(
            planned, widths, offsets, staged, edges, span_of, size, split, full, total
        )

    def _bushy(
        self,
        planned: List[PlanNode],
        widths: List[int],
        offsets: List[int],
        staged: List["_Conjunct"],
        edges: List[Tuple[int, int, Pred]],
        span_of: Callable[[int], int],
        size: List[float],
        split: List[int],
        full: int,
        total: int,
    ) -> PlanNode:
        """Assemble the DP's chosen (possibly bushy) join tree.

        Each subtree tracks its *layout* — the original global column index
        at every output position — so crossing equality edges become hash
        keys, introspectable staged conjuncts run at the smallest covering
        subtree (re-indexed through the layout), and a final
        :class:`RemapOp` restores the FROM-order layout whenever the
        concatenation order differs; conjuncts that cannot be re-indexed
        (subquery probes, opaque callables) evaluate above the remap where
        the layout is the original one.
        """
        remaining = list(edges)
        pending = list(staged)

        def place_staged(plan: PlanNode, layout: Tuple[int, ...]) -> PlanNode:
            covered = set(layout)
            mapping = [0] * total
            for p, g in enumerate(layout):
                mapping[g] = p
            ready = []
            for conjunct in pending:
                if conjunct.local is None or not conjunct.local <= covered:
                    continue
                method = getattr(conjunct.pred, "remapped", None)
                remapped = method(mapping) if method is not None else None
                if remapped is not None:
                    ready.append((conjunct, remapped))
            if not ready:
                return plan
            for conjunct, _ in ready:
                pending.remove(conjunct)
            return FilterOp(plan, _combine([pred for _, pred in ready]))

        def build(mask: int) -> Tuple[PlanNode, Tuple[int, ...]]:
            if mask & (mask - 1) == 0:
                child = mask.bit_length() - 1
                layout = tuple(range(offsets[child], offsets[child] + widths[child]))
                return planned[child], layout
            sub = split[mask]
            other = mask ^ sub
            # The smaller estimated side becomes the hash build side.
            if size[sub] < size[other]:
                left_mask, right_mask = other, sub
            else:
                left_mask, right_mask = sub, other
            left_plan, left_layout = build(left_mask)
            right_plan, right_layout = build(right_mask)
            layout = left_layout + right_layout
            position = {g: p for p, g in enumerate(layout)}
            crossing = []
            consumed = []
            for edge in remaining:
                i, j, _pred = edge
                a, b = span_of(i), span_of(j)
                if left_mask >> a & 1 and right_mask >> b & 1:
                    crossing.append((i, j))
                    consumed.append(edge)
                elif left_mask >> b & 1 and right_mask >> a & 1:
                    crossing.append((j, i))
                    consumed.append(edge)
            if consumed:
                consumed_ids = {id(edge) for edge in consumed}
                remaining[:] = [e for e in remaining if id(e) not in consumed_ids]
                plan: PlanNode = HashJoin(
                    left_plan,
                    right_plan,
                    tuple(position[g] for g, _ in crossing),
                    tuple(position[g] - len(left_layout) for _, g in crossing),
                )
            else:
                plan = CrossJoin([left_plan, right_plan])
            return place_staged(plan, layout), layout

        tree, layout = build(full)
        assert not remaining, "unplaced equality edges in DP join build"
        if layout != tuple(range(total)):
            position = {g: p for p, g in enumerate(layout)}
            tree = RemapOp(tree, tuple(position[g] for g in range(total)))
        if pending:
            hoisted = [c.pred for c in pending]
            del pending[:]
            tree = FilterOp(tree, _combine(hoisted))
        return tree

    def _permuted(
        self,
        planned: List[PlanNode],
        widths: List[int],
        offsets: List[int],
        staged: List["_Conjunct"],
        edges: List[Tuple[int, int, Pred]],
        order: List[int],
        total: int,
    ) -> PlanNode:
        """Build the join tree in ``order`` and restore the FROM layout."""
        mapping = [0] * total  # original global index -> permuted index
        position = 0
        for child_index in order:
            for local in range(widths[child_index]):
                mapping[offsets[child_index] + local] = position + local
            position += widths[child_index]
        permuted_edges = [(mapping[i], mapping[j], pred) for i, j, pred in edges]
        permuted_staged: List[_Conjunct] = []
        hoisted: List[Pred] = []
        for conjunct in staged:
            method = getattr(conjunct.pred, "remapped", None)
            remapped = method(mapping) if method is not None else None
            if remapped is None:
                hoisted.append(conjunct.pred)
            else:
                permuted_staged.append(_Conjunct(remapped, conjunct.order, total))
        tree = _left_deep(
            [planned[c] for c in order],
            [widths[c] for c in order],
            permuted_staged,
            permuted_edges,
        )
        tree = RemapOp(tree, tuple(mapping))
        if hoisted:
            tree = FilterOp(tree, _combine(hoisted))
        return tree


# -- predicate helpers --------------------------------------------------------


def _flatten_and(pred: Pred) -> List[Pred]:
    """The top-level conjuncts of a predicate, in evaluation order."""
    if isinstance(pred, AndPred):
        return _flatten_and(pred.left) + _flatten_and(pred.right)
    return [pred]


def _combine(conjuncts: Sequence[Pred]) -> Pred:
    """Left-fold conjuncts back into an AND chain (preserving order)."""
    if not conjuncts:
        return ConstPred(True)
    return reduce(AndPred, conjuncts)


class _Conjunct:
    """One WHERE conjunct with its placement analysis."""

    __slots__ = ("pred", "local", "max_local", "order")

    def __init__(self, pred: Pred, order: int, total_width: int):
        self.pred = pred
        self.order = order
        refs = pred_refs(pred)
        if refs is None:
            # Opaque: assume it reads the whole row; apply at full width.
            self.local = None
            self.max_local = total_width - 1
        else:
            self.local = frozenset(i for d, i in refs if d == 0)
            self.max_local = max(self.local, default=-1)


def _reads_own_row(node) -> bool:
    """Whether an expression or predicate reads depth-0 positions only."""
    refs = expr_refs(node)
    return refs is not None and all(depth == 0 for depth, _ in refs)


def _correlation(pred: Pred) -> Optional[Tuple[int, int]]:
    """``(inner index, outer index)`` if pred equates a column of its own
    row with a column of the probing row (depth exactly 1), else None."""
    if (
        isinstance(pred, ComparePred)
        and pred.op == "="
        and isinstance(pred.left, ColumnRef)
        and isinstance(pred.right, ColumnRef)
    ):
        if pred.left.depth == 0 and pred.right.depth == 1:
            return pred.left.index, pred.right.index
        if pred.left.depth == 1 and pred.right.depth == 0:
            return pred.right.index, pred.left.index
    return None


def _is_cyclic(n: int, edge_spans: Sequence[Tuple[int, int]]) -> bool:
    """Whether the cross-child equality graph of a FROM contains a cycle.

    The graph is taken *simple*: parallel edges between the same two
    children collapse into one (a composite-key binary hash join handles
    those without any blowup, so they are not a reason to go multiway).  A
    cycle exists exactly when some edge connects two already-connected
    children — the union-find formulation of #edges ≥ #nodes per component.
    """
    simple = {(min(a, b), max(a, b)) for a, b in edge_spans}
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in simple:
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[rb] = ra
    return False


def _equi_endpoints(pred: Pred) -> Optional[Tuple[int, int]]:
    """(i, j) column indices if pred is ``row[i] = row[j]``, else None."""
    if (
        isinstance(pred, ComparePred)
        and pred.op == "="
        and isinstance(pred.left, ColumnRef)
        and isinstance(pred.right, ColumnRef)
        and pred.left.depth == 0
        and pred.right.depth == 0
    ):
        return pred.left.index, pred.right.index
    return None


# -- cost model ---------------------------------------------------------------


def estimate_rows(node: PlanNode) -> float:
    """Estimated output cardinality of a (sub)plan.

    :class:`StaticScan` leaves report their true size; :class:`TableScan`
    leaves (the engine's path, where optimization happens before any
    database is attached) report the row count the engine last observed
    for their table (``observed_rows``, the engine's cardinality feedback)
    and only fall back to :data:`DEFAULT_TABLE_ROWS` — which ranks them
    equally and leaves the ordering decision to pushed filters and join
    edges — when the engine has executed nothing yet.  The estimates only ever *rank* candidate join orders, so crude
    selectivity constants are enough.
    """
    if isinstance(node, StaticScan):
        return float(len(node.data))
    if isinstance(node, TableScan):
        if node.observed_rows is not None:
            # Cardinality feedback: the row count a previous execution
            # observed for this table (seeded by the engine at plan time).
            return float(node.observed_rows)
        return DEFAULT_TABLE_ROWS
    if isinstance(node, FilterOp):
        conjuncts = len(_flatten_and(node.predicate))
        return estimate_rows(node.child) * FILTER_SELECTIVITY**conjuncts
    if isinstance(node, (ProjectOp, DistinctOp, CachedSubplan, MemoSubplan, RemapOp)):
        return estimate_rows(node.child)
    if isinstance(node, (SetOpNode, HashSetOp)):
        left = estimate_rows(node.left)
        right = estimate_rows(node.right)
        if node.op == "UNION":
            return left + right
        if node.op == "INTERSECT":
            return min(left, right)
        return left  # EXCEPT
    if isinstance(node, CrossJoin):
        product = 1.0
        for child in node.children:
            product *= estimate_rows(child)
        return product
    if isinstance(node, HashJoin):
        return estimate_rows(node.left) * estimate_rows(node.right) * EQ_SELECTIVITY
    if isinstance(node, GenericJoin):
        product = 1.0
        for child in node.children:
            product *= estimate_rows(child)
        # One equality-edge discount per column pair each variable equates.
        equated = sum(len(var) - 1 for var in node.variables)
        return product * EQ_SELECTIVITY**equated
    return DEFAULT_TABLE_ROWS


def _step_cost(
    current: float,
    candidate: int,
    placed: set,
    estimates: Sequence[float],
    edge_spans: Sequence[Tuple[int, int]],
) -> float:
    """Estimated size after joining ``candidate`` onto a prefix of size
    ``current`` — the one cost step both the greedy walk and the order
    comparison use (they must agree on the model)."""
    joined = sum(
        1
        for a, b in edge_spans
        if (a == candidate and b in placed) or (b == candidate and a in placed)
    )
    return current * max(estimates[candidate], 1.0) * EQ_SELECTIVITY**joined


def _order_cost(
    order: Sequence[int], estimates: Sequence[float], edge_spans: Sequence[Tuple[int, int]]
) -> float:
    """Sum of estimated intermediate cardinalities along a join order."""
    placed = {order[0]}
    current = max(estimates[order[0]], 1.0)
    cost = current
    for j in order[1:]:
        current = _step_cost(current, j, placed, estimates, edge_spans)
        cost += current
        placed.add(j)
    return cost


def _greedy_order(
    planned: Sequence[PlanNode], edge_spans: Sequence[Tuple[int, int]]
) -> List[int]:
    """A greedy minimum-intermediate-size join order.

    Starts from the smallest (most-connected on ties) child and repeatedly
    joins the candidate minimizing the estimated next intermediate size —
    equality edges to the placed prefix discount a candidate, so connected
    children join before Cartesian blowups.  Returns the identity order
    unless the chosen one is estimated strictly cheaper, so already-good
    FROM orders keep their remap-free plan.
    """
    n = len(planned)
    estimates = [estimate_rows(child) for child in planned]
    degree = [0] * n
    for a, b in edge_spans:
        degree[a] += 1
        degree[b] += 1
    start = min(range(n), key=lambda i: (estimates[i], -degree[i], i))
    order = [start]
    placed = {start}
    current = max(estimates[start], 1.0)
    while len(order) < n:
        best = None
        best_cost = None
        for j in range(n):
            if j in placed:
                continue
            cost = _step_cost(current, j, placed, estimates, edge_spans)
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        order.append(best)
        placed.add(best)
        current = max(best_cost, 1.0)
    identity = list(range(n))
    if order == identity:
        return identity
    if _order_cost(order, estimates, edge_spans) < _order_cost(
        identity, estimates, edge_spans
    ):
        return order
    return identity


# -- left-deep assembly -------------------------------------------------------


def _left_deep(
    planned: List[PlanNode],
    widths: List[int],
    staged: List[_Conjunct],
    edges: List[Tuple[int, int, Pred]],
) -> PlanNode:
    """Fold children left-deep, consuming staged filters and equi edges.

    ``staged`` and ``edges`` must be expressed in the concatenated layout of
    ``planned`` (the caller re-indexes them when the order is permuted).
    Each staged conjunct runs at the earliest prefix covering its columns;
    each edge becomes hash-join keys the moment its second endpoint joins.
    """
    staged = list(staged)
    edges = list(edges)
    offsets = []
    total = 0
    for w in widths:
        offsets.append(total)
        total += w

    def apply_stage(plan: PlanNode, width: int) -> PlanNode:
        ready = [c for c in staged if c.max_local < width]
        if not ready:
            return plan
        for c in ready:
            staged.remove(c)
        return FilterOp(plan, _combine([c.pred for c in ready]))

    current = apply_stage(planned[0], widths[0])
    width = widths[0]
    for k in range(1, len(planned)):
        span_lo, span_hi = offsets[k], offsets[k] + widths[k]
        usable = [
            e
            for e in edges
            if (e[0] < width and span_lo <= e[1] < span_hi)
            or (e[1] < width and span_lo <= e[0] < span_hi)
        ]
        if usable:
            left_keys = []
            right_keys = []
            for i, j, _pred in usable:
                prefix_side, child_side = (i, j) if i < width else (j, i)
                left_keys.append(prefix_side)
                right_keys.append(child_side - span_lo)
            edges = [e for e in edges if e not in usable]
            current = HashJoin(
                current, planned[k], tuple(left_keys), tuple(right_keys)
            )
        else:
            current = CrossJoin([current, planned[k]])
        width += widths[k]
        current = apply_stage(current, width)
    assert not staged and not edges, "unplaced conjuncts in join build"
    return current
