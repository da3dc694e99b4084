"""Columnar (vectorized) execution: the engine's fourth tier.

The compiled tier (:mod:`repro.engine.compile`) removed interpreter
dispatch but — apart from its scan kernels, which run the fused selection
both tiers share over a base table's column vectors — still moves one Python
tuple per row through a chain of generator frames.  This module amortizes
that remaining per-row cost throughout the plan, the way production
engines do: operators exchange **batches** — a list of
column vectors plus a selection of row ids — and materialize tuples only
at result emission.  Per-element work then happens inside C-speed list
comprehensions, ``zip`` transpositions and ``map`` gathers instead of
per-row Python frames.

Batch protocol
--------------

A batch is ``(cols, sel)``:

* ``cols`` — one ``list`` per output column, all aligned to a common
  *base* index space (usually the rows of a scan or the compacted output
  of a join);
* ``sel`` — the live row ids into that base, in output order.  A
  ``range`` always means "the whole base, untouched"; filters narrow it
  to a plain list without copying any column data.

``_gather(col, sel)`` compacts a column to the selection (and is a no-op
for ``range`` selections), ``_materialize`` rebuilds row tuples at the
edges (result emission, hash keys that need rows, subquery caches).

3VL null masks
--------------

A WHERE tree is batch-compiled into one generated mask function per
filter: every comparison produces a **paired (value, null) mask** — two
bool lists, ``v[i]`` "the predicate is TRUE here" and ``u[i]`` "the
predicate is UNKNOWN here" (never both) — and the Kleene connectives
combine whole masks:

* ``AND``: ``v = p∧q``, ``u = (x∨y) ∧ (p∨x) ∧ (q∨y)``
* ``OR``:  ``v = p∨q``, ``u = (x∨y) ∧ ¬p ∧ ¬q``
* ``NOT``: ``v = ¬(p∨x)``, ``u`` unchanged

(with ``p,q`` the operand value masks and ``x,y`` their null masks).
The filter keeps the row ids whose ``v`` entry is truthy — exactly the
interpreted ``predicate(row) is True`` rule.

Probe-free trees skip the masks: they compile into one fused selection
comprehension.  That emitter (``_FuseEmitter`` / ``_fuse`` /
``_compile_fused``) lives in :mod:`repro.engine.compile`, whose scan
kernels run the same generated function over row tuples instead of row
ids; this module imports it — there is one copy.

Error exactness
---------------

Columnwise evaluation reorders work, and ordered comparisons (``<``,
``<=``, ``>``, ``>=``) and ``LIKE`` raise on type clashes, so an error
could surface in a different place than the interpreted row-at-a-time
order.  Three rules keep outcomes bit-identical:

* **Optimistic kernels + exact replay** — the raising kernels simply
  evaluate; a type clash anywhere in the batch aborts the generated
  function (`TypeError` from Python's own mixed-type ordering, or the
  engine's ``CompileError`` from LIKE and probe subqueries), and the
  filter re-evaluates the whole predicate per row (in selection order,
  via the closure compiler) — the interpreted behaviour exactly,
  including short-circuits that may suppress the error altogether.  The
  replay is sound even mid-mask because all cross-row state (probe
  memos, EXISTS early-termination booleans) is a pure cache: replaying
  recomputes identical values.  The clash-free common case pays no
  checking cost.
* **Demand masks** — a single probe segment (EXISTS / IN / opaque
  callables, which keep their row-wise compiled closures and early
  termination) only evaluates on rows the Kleene short-circuit order
  demands (AND right demand = left not-FALSE; OR right demand = left
  not-TRUE); undemanded positions get a ``(False, False)`` placeholder,
  which the connective formulas provably mask out.
* **Per-row mode** — predicates with two or more probe segments (whose
  relative evaluation order is row-interleaved) or any shape this module
  cannot vectorize are evaluated per row from the start.

State and caching contract
--------------------------

Plans keep their ``PredNode`` trees and operator state untouched — the
columnar program is a side-car closure over the same nodes, exactly like
the compiled tier — so :func:`~repro.engine.binding.bind_plan` /
:func:`~repro.engine.binding.unbind_plan`, the row-pinning guarantees
and the content-keyed :class:`~repro.engine.binding.BuildSideCache` work
unchanged.  ``TableScan`` columns come from the per-column memo on the
immutable ``Table`` that the compiled tier's scan kernels read too
(:func:`repro.engine.compile._scan_vectors`; this tier pivots every
column, a kernel only those it reads; the binding layer clears the
scan's reference on unbind so cached plans pin no rows).  Subquery caches
(``CachedSubplan`` / ``MemoSubplan``) store plain row tuples, the same
values the row-wise tiers store, so harvested entries stay tier-portable;
hash-join build
sides store ``(compacted right columns, key -> row ids)`` — a different
shape than the row-wise tier, but private to the node/cache of the one
engine that built them, and valid across cache restores because an
identical content key implies identical bound row order.

Unknown plan nodes (and the ``hash_setops=False`` ablation's
``SetOpNode``) degrade to the compiled row-wise tier per subtree rather
than failing, mirroring :func:`repro.engine.compile.compile_plan`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .compile import (
    ScanKernelStats,
    _assemble,
    _column_indices,
    _compile_folded,
    _compile_fused,
    _compile_subpred,
    _Constants,
    _FALLBACK_ERRORS,
    _fold_predicate,
    _iter_fn,
    _literal_source,
    _probe_segments,
    _scan_vectors,
    _Unvectorizable,
)
from .expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
    COMPARE_FUNCS,
    OuterStack,
    Row,
)
from .operators import (
    CachedSubplan,
    CrossJoin,
    DistinctOp,
    FilterOp,
    GenericJoin,
    HashJoin,
    HashSetOp,
    MemoSubplan,
    PlanNode,
    ProjectOp,
    RemapOp,
    StaticScan,
    TableScan,
)

__all__ = ["compile_columnar"]

#: A batch: column vectors over a base index space + the live selection.
Batch = Tuple[List[list], Sequence[int]]

#: A compiled batch operator: outer-row stack in, batch out.
BatchFn = Callable[[OuterStack], Batch]

_LIKE_FUNC = COMPARE_FUNCS["LIKE"]


class _ColumnarFallback(Exception):
    """A mask kernel hit a potential runtime error (a type clash the
    row-wise tier reports as :class:`~repro.core.errors.CompileError`): the
    filter must replay its predicate per row to surface — or, when the
    offending row would never have been evaluated — suppress it exactly."""


# -- batch helpers ------------------------------------------------------------


def _gather(col: list, sel: Sequence[int]) -> list:
    """``col`` compacted to ``sel`` (``range`` selections are whole-base)."""
    if type(sel) is range:
        return col
    return list(map(col.__getitem__, sel))


def _materialize(cols: List[list], sel: Sequence[int]) -> List[Row]:
    """Row tuples of a batch, in selection order."""
    if not cols:
        return [()] * len(sel)
    return list(zip(*[_gather(col, sel) for col in cols]))


def _columns_of(rows: Sequence[Row], width: int) -> List[list]:
    """Row tuples transposed into ``width`` column vectors."""
    if rows:
        return list(map(list, zip(*rows)))
    return [[] for _ in range(width)]


def _empty(width: int) -> Batch:
    return [[] for _ in range(width)], range(0)


# -- mask kernels -------------------------------------------------------------
#
# One function per (operator, operand shape, mask demand).  ``_vv`` takes
# two gathered columns, ``_vs`` a column and a scalar (a literal or an
# outer-row value, possibly None at runtime); the ``_v`` suffix marks the
# value-only variants the demand-driven codegen picks when nothing above
# the comparison reads its UNKNOWN mask (the common case — a filter keeps
# TRUE rows, and AND/OR value masks are functions of the operand value
# masks alone).  Value/None semantics match
# :func:`repro.engine.expressions.compare` exactly; the equality kernels
# drop its ``isinstance`` type tag because over the engine's value domain
# (int/str/None) Python equality can never hold across the str boundary.
# The raising operators run *optimistically*: on a type clash the ordered
# kernels raise a plain ``TypeError`` (Python's own ``int < str``, raised
# for exactly the operand pairs whose str-ness differs) and the LIKE
# kernels the row-wise tier's ``CompileError`` — either aborts the whole
# mask, which the filter then replays per row for the exact interpreted
# error (or its exact suppression, if the clashing row was behind a
# short-circuit).  The clash-free common case pays no checking cost.


def _bcast(value, n: int) -> Tuple[list, list]:
    return [value is True] * n, [value is None] * n


def _eq_vv(x, y):
    return (
        [a is not None and b is not None and a == b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _ne_vv(x, y):
    return (
        [a is not None and b is not None and a != b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _eq_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a == s for a in x], [a is None for a in x]


def _ne_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a != s for a in x], [a is None for a in x]


def _lt_vv(x, y):
    return (
        [a is not None and b is not None and a < b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _le_vv(x, y):
    return (
        [a is not None and b is not None and a <= b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _gt_vv(x, y):
    return (
        [a is not None and b is not None and a > b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _ge_vv(x, y):
    return (
        [a is not None and b is not None and a >= b for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _lt_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a < s for a in x], [a is None for a in x]


def _le_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a <= s for a in x], [a is None for a in x]


def _gt_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a > s for a in x], [a is None for a in x]


def _ge_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    return [a is not None and a >= s for a in x], [a is None for a in x]


def _like_vv(x, y):
    like = _LIKE_FUNC
    return (
        [a is not None and b is not None and like(a, b) for a, b in zip(x, y)],
        [a is None or b is None for a, b in zip(x, y)],
    )


def _like_vs(x, s):
    if s is None:
        return _bcast(None, len(x))
    like = _LIKE_FUNC
    return [a is not None and like(a, s) for a in x], [a is None for a in x]


def _like_sv(s, y):
    if s is None:
        return _bcast(None, len(y))
    like = _LIKE_FUNC
    return [b is not None and like(s, b) for b in y], [b is None for b in y]


# Value-only variants: one list comprehension instead of two.


def _eq_vv_v(x, y):
    return [a is not None and b is not None and a == b for a, b in zip(x, y)]


def _ne_vv_v(x, y):
    return [a is not None and b is not None and a != b for a, b in zip(x, y)]


def _eq_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a == s for a in x]


def _ne_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a != s for a in x]


def _lt_vv_v(x, y):
    return [a is not None and b is not None and a < b for a, b in zip(x, y)]


def _le_vv_v(x, y):
    return [a is not None and b is not None and a <= b for a, b in zip(x, y)]


def _gt_vv_v(x, y):
    return [a is not None and b is not None and a > b for a, b in zip(x, y)]


def _ge_vv_v(x, y):
    return [a is not None and b is not None and a >= b for a, b in zip(x, y)]


def _lt_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a < s for a in x]


def _le_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a <= s for a in x]


def _gt_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a > s for a in x]


def _ge_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    return [a is not None and a >= s for a in x]


def _like_vv_v(x, y):
    like = _LIKE_FUNC
    return [a is not None and b is not None and like(a, b) for a, b in zip(x, y)]


def _like_vs_v(x, s):
    if s is None:
        return [False] * len(x)
    like = _LIKE_FUNC
    return [a is not None and like(a, s) for a in x]


def _like_sv_v(s, y):
    if s is None:
        return [False] * len(y)
    like = _LIKE_FUNC
    return [b is not None and like(s, b) for b in y]


# -- Kleene mask combination --------------------------------------------------


def _and_m(va, ua, vb, ub):
    return (
        [p and q for p, q in zip(va, vb)],
        [
            (x or y) and (p or x) and (q or y)
            for p, x, q, y in zip(va, ua, vb, ub)
        ],
    )


def _or_m(va, ua, vb, ub):
    return (
        [p or q for p, q in zip(va, vb)],
        [
            (x or y) and not p and not q
            for p, x, q, y in zip(va, ua, vb, ub)
        ],
    )


def _not_m(v, u):
    return [not (p or x) for p, x in zip(v, u)], u


# Value-only connectives (Kleene TRUE is a function of the operand value
# masks alone; NOT is the exception and always demands its operand's
# UNKNOWN mask, handled in the codegen).


def _and_v(va, vb):
    return [p and q for p, q in zip(va, vb)]


def _or_v(va, vb):
    return [p or q for p, q in zip(va, vb)]


def _demand_and(d, v, u):
    """Rows an AND's right side must evaluate on: left not FALSE."""
    if d is None:
        return [p or x for p, x in zip(v, u)]
    return [dd and (p or x) for dd, p, x in zip(d, v, u)]


def _demand_or(d, v, u):
    """Rows an OR's right side must evaluate on: left not TRUE."""
    if d is None:
        return [not p for p in v]
    return [dd and not p for dd, p in zip(d, v)]


def _probe_mask(probe, rows, o, d):
    """Row-wise probe (EXISTS/IN/opaque) over the demanded selection, in
    selection order — preserving subquery early termination and memo
    behaviour; undemanded positions get the (False, False) placeholder."""
    v: list = []
    u: list = []
    append_v = v.append
    append_u = u.append
    if d is None:
        for r in rows:
            t = probe(r, o)
            append_v(t is True)
            append_u(t is None)
    else:
        for r, dd in zip(rows, d):
            if dd:
                t = probe(r, o)
                append_v(t is True)
                append_u(t is None)
            else:
                append_v(False)
                append_u(False)
    return v, u


#: Globals of every generated mask function.
_MASK_NAMESPACE = {
    "_gather": _gather,
    "_bcast": _bcast,
    "_eq_vv": _eq_vv,
    "_ne_vv": _ne_vv,
    "_eq_vs": _eq_vs,
    "_ne_vs": _ne_vs,
    "_lt_vv": _lt_vv,
    "_le_vv": _le_vv,
    "_gt_vv": _gt_vv,
    "_ge_vv": _ge_vv,
    "_lt_vs": _lt_vs,
    "_le_vs": _le_vs,
    "_gt_vs": _gt_vs,
    "_ge_vs": _ge_vs,
    "_like_vv": _like_vv,
    "_like_vs": _like_vs,
    "_like_sv": _like_sv,
    "_eq_vv_v": _eq_vv_v,
    "_ne_vv_v": _ne_vv_v,
    "_eq_vs_v": _eq_vs_v,
    "_ne_vs_v": _ne_vs_v,
    "_lt_vv_v": _lt_vv_v,
    "_le_vv_v": _le_vv_v,
    "_gt_vv_v": _gt_vv_v,
    "_ge_vv_v": _ge_vv_v,
    "_lt_vs_v": _lt_vs_v,
    "_le_vs_v": _le_vs_v,
    "_gt_vs_v": _gt_vs_v,
    "_ge_vs_v": _ge_vs_v,
    "_like_vv_v": _like_vv_v,
    "_like_vs_v": _like_vs_v,
    "_like_sv_v": _like_sv_v,
    "_and_m": _and_m,
    "_or_m": _or_m,
    "_not_m": _not_m,
    "_and_v": _and_v,
    "_or_v": _or_v,
    "_demand_and": _demand_and,
    "_demand_or": _demand_or,
    "_probe_mask": _probe_mask,
    "_LF": _LIKE_FUNC,
    "_FALLBACK_ERRORS": _FALLBACK_ERRORS,
    "_ColumnarFallback": _ColumnarFallback,
    "__builtins__": {"len": len, "zip": zip},
}

#: (operator, left shape, right shape) -> kernel; ``flip`` swaps the
#: operands first (``s < col`` is ``col > s``; equality is symmetric).
#: The codegen appends ``_v`` to the kernel name when only the value mask
#: is demanded.
_CMP_KERNELS = {
    ("=", "vv"): ("_eq_vv", False),
    ("=", "vs"): ("_eq_vs", False),
    ("=", "sv"): ("_eq_vs", True),
    ("<>", "vv"): ("_ne_vv", False),
    ("<>", "vs"): ("_ne_vs", False),
    ("<>", "sv"): ("_ne_vs", True),
    ("<", "vv"): ("_lt_vv", False),
    ("<", "vs"): ("_lt_vs", False),
    ("<", "sv"): ("_gt_vs", True),
    ("<=", "vv"): ("_le_vv", False),
    ("<=", "vs"): ("_le_vs", False),
    ("<=", "sv"): ("_ge_vs", True),
    (">", "vv"): ("_gt_vv", False),
    (">", "vs"): ("_gt_vs", False),
    (">", "sv"): ("_lt_vs", True),
    (">=", "vv"): ("_ge_vv", False),
    (">=", "vs"): ("_ge_vs", False),
    (">=", "sv"): ("_le_vs", True),
    ("LIKE", "vv"): ("_like_vv", False),
    ("LIKE", "vs"): ("_like_vs", False),
    ("LIKE", "sv"): ("_like_sv", False),
}

# -- mask code generation -----------------------------------------------------


class _MaskEmitter(_Constants):
    """Accumulates the generated mask function: hoisted prelude lines
    (gathers, scalar loads) + mask body lines + captures."""

    def __init__(self, stats: ScanKernelStats):
        super().__init__()
        #: Where the scan kernels of captured subquery plans count.
        self.stats = stats
        self.prelude: List[str] = []
        self.body: List[str] = []
        self.captured: Dict[str, object] = {}
        self._gathers: Dict[int, str] = {}
        self._scalars: Dict[str, str] = {}
        self._temps = 0

    def temp(self) -> int:
        self._temps += 1
        return self._temps

    def capture(self, obj) -> str:
        name = f"_c{len(self.captured)}"
        self.captured[name] = obj
        return name

    def gather(self, index: int) -> str:
        name = self._gathers.get(index)
        if name is None:
            name = f"g{index}"
            self._gathers[index] = name
            self.prelude.append(f"{name} = _gather(C[{index}], sel)")
        return name

    def scalar(self, source: str) -> str:
        name = self._scalars.get(source)
        if name is None:
            name = f"s{len(self._scalars)}"
            self._scalars[source] = name
            self.prelude.append(f"{name} = {source}")
        return name


def _operand(emitter: _MaskEmitter, expr) -> Tuple[str, str]:
    """``('v', gathered column var)`` or ``('s', scalar source)``."""
    if isinstance(expr, ColumnRef):
        if expr.depth == 0:
            return "v", emitter.gather(expr.index)
        return "s", emitter.scalar(f"o[-{expr.depth}][{expr.index}]")
    if isinstance(expr, LiteralExpr):
        text = _literal_source(emitter, expr.value)
        if text is not None:
            return "s", text
    raise _Unvectorizable


def _gen_mask(
    emitter: _MaskEmitter, pred, demand: Optional[str], need_u: bool
) -> Tuple[str, Optional[str]]:
    """Emit statements computing ``pred``'s masks; returns their variable
    names (the UNKNOWN name is None when ``need_u`` is False and the node
    can skip it).  ``demand`` names the demand vector reaching any probe
    inside ``pred`` (None: every selected row is demanded).  ``need_u``
    is the demand-driven half of the codegen: a filter consumes only the
    value mask, and AND/OR value masks are functions of the operand value
    masks alone, so UNKNOWN masks are only materialized under NOT, under a
    connective whose own UNKNOWN mask is demanded, or left of a probe-
    carrying AND (whose demand vector is "left not FALSE")."""
    t = emitter.temp()
    v, u = f"v{t}", f"u{t}"
    if isinstance(pred, ConstPred):
        if need_u:
            emitter.body.append(f"{v}, {u} = _bcast({pred.value!r}, n)")
            return v, u
        emitter.body.append(f"{v} = [{pred.value is True!r}] * n")
        return v, None
    if isinstance(pred, ComparePred):
        left_kind, left = _operand(emitter, pred.left)
        right_kind, right = _operand(emitter, pred.right)
        shape = left_kind + right_kind
        if shape == "ss":
            # A raising comparison over two scalars would have to raise per
            # evaluated row (and not at all over an empty selection) — only
            # the per-row path can reproduce that.
            raise _Unvectorizable
        kernel_flip = _CMP_KERNELS.get((pred.op, shape))
        if kernel_flip is None:
            raise _Unvectorizable
        kernel, flip = kernel_flip
        if flip:
            left, right = right, left
        if need_u:
            emitter.body.append(f"{v}, {u} = {kernel}({left}, {right})")
            return v, u
        emitter.body.append(f"{v} = {kernel}_v({left}, {right})")
        return v, None
    if isinstance(pred, IsNullPred):
        kind, operand = _operand(emitter, pred.expr)
        test = "is not" if pred.negated else "is"
        if kind == "s":
            emitter.body.append(f"{v} = [{operand} {test} None] * n")
        else:
            emitter.body.append(f"{v} = [a {test} None for a in {operand}]")
        if not need_u:
            return v, None
        emitter.body.append(f"{u} = [False] * n")
        return v, u
    if isinstance(pred, (AndPred, OrPred)):
        is_and = isinstance(pred, AndPred)
        probe_right = bool(_probe_segments(pred.right))
        # The AND demand vector ("left not FALSE") reads the left UNKNOWN
        # mask; the OR demand vector ("left not TRUE") only its value mask.
        vl, ul = _gen_mask(
            emitter, pred.left, demand, need_u or (probe_right and is_and)
        )
        if probe_right:
            d2 = f"d{emitter.temp()}"
            maker = "_demand_and" if is_and else "_demand_or"
            emitter.body.append(
                f"{d2} = {maker}({demand or 'None'}, {vl}, {ul})"
            )
            vr, ur = _gen_mask(emitter, pred.right, d2, need_u)
        else:
            vr, ur = _gen_mask(emitter, pred.right, demand, need_u)
        combiner = "_and" if is_and else "_or"
        if need_u:
            emitter.body.append(
                f"{v}, {u} = {combiner}_m({vl}, {ul}, {vr}, {ur})"
            )
            return v, u
        emitter.body.append(f"{v} = {combiner}_v({vl}, {vr})")
        return v, None
    if isinstance(pred, NotPred):
        # NOT TRUE demands the operand's UNKNOWN mask: v = ¬(p ∨ x).
        vo, uo = _gen_mask(emitter, pred.operand, demand, True)
        if need_u:
            emitter.body.append(f"{v}, {u} = _not_m({vo}, {uo})")
            return v, u
        emitter.body.append(
            f"{v} = [not (p or x) for p, x in zip({vo}, {uo})]"
        )
        return v, None
    # A probe (EXISTS/IN/semi-join) or opaque callable: row-wise closure
    # from the compiled tier, over the demanded rows only.  Both masks
    # fall out of the same per-row pass, so demand does not split them.
    probe = emitter.capture(_compile_subpred(pred, emitter.stats))
    emitter.body.append(
        f"{v}, {u} = _probe_mask({probe}, rows(), o, {demand or 'None'})"
    )
    return v, u


def _compile_mask(pred, stats: ScanKernelStats):
    """The generated ``(C, sel, o, rows) -> v`` value-mask function for a
    vectorizable predicate tree, or None for per-row shapes."""
    if _probe_segments(pred) > 1:
        # Multiple probes interleave per row in the interpreted order;
        # evaluating one whole column before the next could move an error.
        return None
    emitter = _MaskEmitter(stats)
    try:
        v, _u = _gen_mask(emitter, pred, None, False)
    except _Unvectorizable:
        return None
    # The body runs optimistically under one except clause: any kernel or
    # probe error that the row-wise order might place (or suppress)
    # differently aborts the mask, and the filter replays per row.
    lines = [
        f"def _mask({emitter.signature('C, sel, o, rows')}):",
        "    n = len(sel)",
    ]
    lines.extend("    " + line for line in emitter.prelude)
    lines.append("    try:")
    lines.extend("        " + line for line in emitter.body)
    lines.append(f"        return {v}")
    lines.append("    except _FALLBACK_ERRORS:")
    lines.append("        raise _ColumnarFallback")
    source = "\n".join(lines) + "\n"
    return _assemble(
        "_mask", source, emitter.captured, emitter.constants, base=_MASK_NAMESPACE
    )


# -- batch operators ----------------------------------------------------------


def _scan_batch(node: TableScan, stats: ScanKernelStats) -> BatchFn:
    def scan(outers):
        data = node.data
        if data is None:
            raise RuntimeError(
                f"TableScan({node.table!r}) executed without a bound "
                f"database (see repro.engine.binding.bind_plan)"
            )
        # Every column: downstream operators address the batch by position.
        return _scan_vectors(node, data, range(node.arity)), range(len(data))

    return scan


def _static_batch(node: StaticScan, stats: ScanKernelStats) -> BatchFn:
    width = node.width()
    if width is None:
        return _fallback_batch(node, stats)
    cols = _columns_of(node.data, width)
    sel = range(len(node.data))
    return lambda outers: (cols, sel)


def _filter_batch(node: FilterOp, stats: ScanKernelStats) -> BatchFn:
    child = _batch_fn(node.child, stats)
    folded = _fold_predicate(node.predicate)
    if isinstance(folded, ConstPred):
        if folded.value is True:
            return child

        def drained(outers):
            # The interpreted FilterOp iterates its child even when no row
            # can pass; computing the child batch surfaces the same errors.
            cols, _sel = child(outers)
            return cols, []

        return drained

    state = {"row_pred": None}

    def rowwise(cols, sel, outers):
        # Exact interpreted behaviour, one row at a time in selection
        # order, through the (bit-identical) closure-compiled predicate.
        row_pred = state["row_pred"]
        if row_pred is None:
            row_pred = state["row_pred"] = _compile_folded(folded, stats)
        rows = _materialize(cols, sel)
        return [i for i, r in zip(sel, rows) if row_pred(r, outers) is True]

    if not _probe_segments(folded):
        fused = _compile_fused(folded)
        if fused is not None:
            kernel, columns = fused

            def filter_fused(outers):
                cols, sel = child(outers)
                if not sel:
                    return cols, sel
                vectors = {column: _gather(cols[column], sel) for column in columns}
                try:
                    return cols, kernel(sel, vectors, outers)
                except _FALLBACK_ERRORS:
                    return cols, rowwise(cols, sel, outers)

            return filter_fused

    mask_fn = _compile_mask(folded, stats)
    if mask_fn is None:

        def filter_rowwise(outers):
            cols, sel = child(outers)
            if not sel:
                return cols, sel
            return cols, rowwise(cols, sel, outers)

        return filter_rowwise

    def filter_batch(outers):
        cols, sel = child(outers)
        if not sel:
            return cols, sel
        memo: list = []

        def rows():
            if not memo:
                memo.append(_materialize(cols, sel))
            return memo[0]

        try:
            v = mask_fn(cols, sel, outers, rows)
        except _ColumnarFallback:
            return cols, rowwise(cols, sel, outers)
        return cols, [i for i, keep in zip(sel, v) if keep]

    return filter_batch


def _project_batch(node: ProjectOp, stats: ScanKernelStats) -> BatchFn:
    child = _batch_fn(node.child, stats)
    indices = _column_indices(node.expressions)
    if indices is not None:

        def project_cols(outers):
            cols, sel = child(outers)
            return [cols[i] for i in indices], sel

        return project_cols
    builders = []
    for expr in node.expressions:
        if isinstance(expr, ColumnRef) and expr.depth == 0:
            builders.append(("col", expr.index))
        elif isinstance(expr, LiteralExpr):
            builders.append(("lit", expr.value))
        elif isinstance(expr, ColumnRef):
            builders.append(("outer", (expr.depth, expr.index)))
        else:
            return _fallback_batch(node, stats)

    def project_mixed(outers):
        cols, sel = child(outers)
        base = len(cols[0]) if cols else 0
        out = []
        for kind, arg in builders:
            if kind == "col":
                out.append(cols[arg])
            elif kind == "lit":
                out.append([arg] * base)
            else:
                depth, index = arg
                out.append([outers[-depth][index]] * base)
        return out, sel

    return project_mixed


def _distinct_batch(node: DistinctOp, stats: ScanKernelStats) -> BatchFn:
    child = _batch_fn(node.child, stats)

    def distinct_batch(outers):
        cols, sel = child(outers)
        rows = list(dict.fromkeys(_materialize(cols, sel)))
        return _columns_of(rows, len(cols)), range(len(rows))

    return distinct_batch


def _remap_batch(node: RemapOp, stats: ScanKernelStats) -> BatchFn:
    child = _batch_fn(node.child, stats)
    mapping = node.mapping

    def remap_batch(outers):
        # A pure column permutation: free, vs. per-row tuple rebuilding.
        cols, sel = child(outers)
        return [cols[j] for j in mapping], sel

    return remap_batch


def _cross_join_batch(node: CrossJoin, stats: ScanKernelStats) -> BatchFn:
    widths = [child.width() for child in node.children]
    if any(w is None for w in widths):
        return _fallback_batch(node, stats)
    children = [_batch_fn(child, stats) for child in node.children]
    total = sum(widths)

    def cross_batch(outers):
        parts = []
        counts = []
        for fn in children:
            cols, sel = fn(outers)
            if not sel:
                # Early empty-out, exactly like the interpreted CrossJoin:
                # later children are never touched.
                return _empty(total)
            parts.append([_gather(col, sel) for col in cols])
            counts.append(len(sel))
        # Row counts come from the selections, not ``len(cols[0])``: a
        # zero-width child (no columns) still contributes its row count.
        out = parts[0]
        rows = counts[0]
        for part, rn in zip(parts[1:], counts[1:]):
            repeat = range(rn)
            # Left-major product order: repeat each left element rn times,
            # tile the right part ln times.
            out = [[v for v in col for _ in repeat] for col in out]
            out += [col * rows for col in part]
            rows *= rn
        return out, range(rows)

    return cross_batch


def _typed_ids_key(values) -> Optional[tuple]:
    key = []
    for value in values:
        if value is None:
            return None
        key.append((isinstance(value, str), value))
    return tuple(key)


def _hash_join_batch(node: HashJoin, stats: ScanKernelStats) -> BatchFn:
    lw = node.left.width()
    rw = node.right.width()
    if lw is None or rw is None:
        return _fallback_batch(node, stats)
    left_fn = _batch_fn(node.left, stats)
    right_fn = _batch_fn(node.right, stats)
    left_keys = node.left_keys
    right_keys = node.right_keys
    single = len(right_keys) == 1

    def build(outers):
        cols, sel = right_fn(outers)
        rcols = [_gather(col, sel) for col in cols]
        table: dict = {}
        setdefault = table.setdefault
        inserted = len(sel)
        if single:
            for j, a in enumerate(rcols[right_keys[0]]):
                if a is not None:
                    setdefault(((isinstance(a, str), a),), []).append(j)
                else:
                    inserted -= 1
        else:
            key_cols = [rcols[k] for k in right_keys]
            for j, values in enumerate(zip(*key_cols)):
                key = _typed_ids_key(values)
                if key is not None:
                    setdefault(key, []).append(j)
                else:
                    inserted -= 1
        return (rcols, table), inserted

    def build_table(outers):
        if node._closed_build is None:
            node._closed_build = node.right.free_refs() == frozenset()
        if not node._closed_build:
            return build(outers)[0]
        built = node._table
        if built is None:
            built, node._build_rows = build(outers)
            node._table = built
        return built

    def hash_join_batch(outers):
        rcols, table = build_table(outers)
        if not table:
            # No keyed right rows: the left side is never evaluated (the
            # row-wise tiers short out identically).
            return _empty(lw + rw)
        lcols, lsel = left_fn(outers)
        lids: list = []
        rids: list = []
        get = table.get
        if single:
            kc = lcols[left_keys[0]]
            for i in lsel:
                a = kc[i]
                if a is None:
                    continue
                ids = get(((isinstance(a, str), a),))
                if ids:
                    lids += [i] * len(ids)
                    rids += ids
        else:
            key_cols = [lcols[k] for k in left_keys]
            for i in lsel:
                key = _typed_ids_key([col[i] for col in key_cols])
                if key is None:
                    continue
                ids = get(key)
                if ids:
                    lids += [i] * len(ids)
                    rids += ids
        out = [_gather(col, lids) for col in lcols]
        out += [_gather(col, rids) for col in rcols]
        return out, range(len(lids))

    return hash_join_batch


def _hash_setop_batch(node: HashSetOp, stats: ScanKernelStats) -> BatchFn:
    width = node.width()
    if width is None:
        return _fallback_batch(node, stats)
    left_fn = _batch_fn(node.left, stats)
    right_fn = _batch_fn(node.right, stats)
    op, all_ = node.op, node.all
    if op == "UNION":
        if all_:

            def union_all(outers):
                lcols, lsel = left_fn(outers)
                rcols, rsel = right_fn(outers)
                out = [
                    _gather(a, lsel) + _gather(b, rsel)
                    for a, b in zip(lcols, rcols)
                ]
                return out, range(len(lsel) + len(rsel))

            return union_all

        def union_distinct(outers):
            lcols, lsel = left_fn(outers)
            rcols, rsel = right_fn(outers)
            rows = list(
                dict.fromkeys(
                    _materialize(lcols, lsel) + _materialize(rcols, rsel)
                )
            )
            return _columns_of(rows, width), range(len(rows))

        return union_distinct
    # INTERSECT / EXCEPT evaluate the right side first (its counts gate
    # the left rows), exactly like the row-wise tiers; output rows come
    # from the left batch, so they stay a selection over it.
    if op == "INTERSECT":
        if all_:

            def intersect_all(outers):
                rcols, rsel = right_fn(outers)
                remaining = Counter(_materialize(rcols, rsel))
                lcols, lsel = left_fn(outers)
                keep = []
                for i, row in zip(lsel, _materialize(lcols, lsel)):
                    if remaining[row] > 0:
                        remaining[row] -= 1
                        keep.append(i)
                return lcols, keep

            return intersect_all

        def intersect_distinct(outers):
            rcols, rsel = right_fn(outers)
            right_rows = set(_materialize(rcols, rsel))
            lcols, lsel = left_fn(outers)
            emitted = set()
            keep = []
            for i, row in zip(lsel, _materialize(lcols, lsel)):
                if row in right_rows and row not in emitted:
                    emitted.add(row)
                    keep.append(i)
            return lcols, keep

        return intersect_distinct
    if op == "EXCEPT":
        if all_:

            def except_all(outers):
                rcols, rsel = right_fn(outers)
                right_counts = Counter(_materialize(rcols, rsel))
                lcols, lsel = left_fn(outers)
                keep = []
                for i, row in zip(lsel, _materialize(lcols, lsel)):
                    if right_counts[row] > 0:
                        right_counts[row] -= 1
                    else:
                        keep.append(i)
                return lcols, keep

            return except_all

        def except_distinct(outers):
            rcols, rsel = right_fn(outers)
            right_counts = Counter(_materialize(rcols, rsel))
            lcols, lsel = left_fn(outers)
            emitted = set()
            keep = []
            for i, row in zip(lsel, _materialize(lcols, lsel)):
                if right_counts[row] == 0 and row not in emitted:
                    emitted.add(row)
                    keep.append(i)
            return lcols, keep

        return except_distinct
    raise ValueError(f"unknown set operation {op}")  # pragma: no cover


def _cached_batch(node: CachedSubplan, stats: ScanKernelStats) -> BatchFn:
    width = node.width()
    if width is None:
        return _fallback_batch(node, stats)
    child = _batch_fn(node.child, stats)

    def cached_batch(outers):
        rows = node._cache
        if rows is None:
            # Plain row tuples, the same values the row-wise tiers cache:
            # harvested build-side entries stay tier-portable.
            rows = node._cache = _materialize(*child(()))
        return _columns_of(rows, width), range(len(rows))

    return cached_batch


def _memo_batch(node: MemoSubplan, stats: ScanKernelStats) -> BatchFn:
    width = node.width()
    if width is None:
        return _fallback_batch(node, stats)
    child = _batch_fn(node.child, stats)
    memo_refs = node.memo_refs

    def memo_batch(outers):
        memo = node._memo
        key = tuple(outers[-d][i] for d, i in memo_refs)
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = _materialize(*child(outers))
        return _columns_of(rows, width), range(len(rows))

    return memo_batch


def _fallback_batch(node: PlanNode, stats: ScanKernelStats) -> BatchFn:
    """Unknown or width-less nodes run through the compiled row-wise tier
    for the whole subtree — vectorization degrades, never fails."""
    row_iter = _iter_fn(node, stats)
    width = node.width()

    def fallback_batch(outers):
        rows = list(row_iter(outers))
        w = width
        if w is None:
            w = len(rows[0]) if rows else 0
        return _columns_of(rows, w), range(len(rows))

    return fallback_batch


# -- dispatcher ---------------------------------------------------------------


def _batch_fn(node: PlanNode, stats: ScanKernelStats) -> BatchFn:
    if isinstance(node, TableScan):
        return _scan_batch(node, stats)
    if isinstance(node, StaticScan):
        return _static_batch(node, stats)
    if isinstance(node, ProjectOp):
        return _project_batch(node, stats)
    if isinstance(node, FilterOp):
        return _filter_batch(node, stats)
    if isinstance(node, HashJoin):
        return _hash_join_batch(node, stats)
    if isinstance(node, CrossJoin):
        return _cross_join_batch(node, stats)
    if isinstance(node, DistinctOp):
        return _distinct_batch(node, stats)
    if isinstance(node, RemapOp):
        return _remap_batch(node, stats)
    if isinstance(node, HashSetOp):
        return _hash_setop_batch(node, stats)
    if isinstance(node, CachedSubplan):
        return _cached_batch(node, stats)
    if isinstance(node, MemoSubplan):
        return _memo_batch(node, stats)
    if isinstance(node, GenericJoin):
        # Deliberate stay-compiled contract: the worst-case-optimal join is
        # trie intersection, a hash-probe-per-key shape with nothing to
        # vectorize (no per-row predicate masks, no columnar scans inside),
        # so the subtree runs through the compiled row-wise tier via the
        # fallback — which also shares the node's ``_tries`` state, keeping
        # bind/unbind and build-side sharing identical across tiers
        # (asserted by tests/engine/test_wcoj.py).
        return _fallback_batch(node, stats)
    # SetOpNode (the hash_setops=False ablation), extensions, test doubles.
    return _fallback_batch(node, stats)


def compile_columnar(plan: PlanNode, stats: Optional[ScanKernelStats] = None):
    """Lower a physical plan into its columnar batch program.

    The result is a drop-in replacement for ``plan.iter_rows`` — call it
    with the outer-row stack (``()`` at the top level) and it returns an
    iterator of result rows, materialized from the final batch in one
    transposition.  All mutable execution state stays on the plan nodes,
    so :func:`~repro.engine.binding.bind_plan` /
    :func:`~repro.engine.binding.unbind_plan` round-trip columnar plans
    exactly as interpreted and compiled ones.
    """
    batch = _batch_fn(plan, stats or ScanKernelStats())

    def run(outers):
        cols, sel = batch(outers)
        return iter(_materialize(cols, sel))

    return run
