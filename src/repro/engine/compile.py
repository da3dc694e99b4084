"""Compiled (closure-generating) execution for the reference engine.

The interpreted executor pays Python virtual dispatch on every row: a
``FilterOp`` calls ``PredNode.__call__`` per row, which recurses through
``AndPred``/``OrPred``/``ComparePred`` frames, each of which calls its
operand expressions, which call :func:`~repro.engine.expressions.compare`,
which looks the operator up in a dict — six-plus call frames to decide one
conjunction.  At campaign scale that interpretation overhead, not the
algorithms, bounds throughput.

This module lowers an (optimized or naive) physical plan into nested
Python closures once, so executions pay none of that dispatch:

* :func:`compile_predicate` turns a whole ``PredNode`` tree into **one
  generated Python function** ``(row, outers) -> truth``: the
  ``ComparePred`` / ``IsNullPred`` / ``AndPred`` / ``OrPred`` / ``NotPred``
  structure is emitted as straight-line source (3VL short-circuits become
  ``if`` statements, comparisons become calls to specialized total
  helpers, column references become ``r[i]`` subscripts) and compiled in a
  single call frame.  Constant subtrees are folded away exactly — only
  rewrites that cannot change error behaviour are applied (total
  comparisons over literals, short-circuit absorption).  Generated code
  objects are cached by source text, which spells out only the
  predicate's shape, so structurally repeating predicates — the normal
  case for generated campaign queries and re-bound prepared statements —
  compile in microseconds whatever their literals, columns and operators.
* :func:`compile_plan` turns every operator into a closure-based
  ``iter_rows`` that captures its children's compiled iterators directly:
  scans iterate their bound lists, a projection of plain columns becomes a
  C-level ``map(itemgetter(...), child)``, ``Filter``+``Project`` pairs
  fuse into one generator frame, and the stateful operators
  (``HashJoin``, ``CachedSubplan``, ``MemoSubplan``, the subquery probes)
  compile to closures that *share state with the original plan nodes* —
  they read and write the same ``_table`` / ``_cache`` / ``_memo`` /
  ``_build`` attributes the interpreted path uses.

That state sharing is the bind/unbind contract: a compiled plan is
executed via its closure tree, but :func:`repro.engine.binding.bind_plan`
/ :func:`~repro.engine.binding.unbind_plan` still walk the *plan node*
tree — installing scan rows, clearing per-execution memos, and harvesting
/ restoring build-side structures through the
:class:`~repro.engine.binding.BuildSideCache` — and the closures observe
whatever those walks install.  Cached compiled plans therefore pin no
database rows, and cross-trial build-side sharing works unchanged.

Compiled execution is bit-identical to interpretation by construction:
evaluation order, 3VL short-circuits, streaming/early-termination points,
materialization order and raised errors are preserved exactly (verified by
``tests/properties/test_compiled_equivalence.py`` and the digest-equality
gate of ``scripts/bench.py --stages engine_compiled,engine_interpreted``).
``Engine(compiled=False)`` keeps the interpreted path as the ablation
baseline.

Who gets compiled is the engine's decision (``Engine._compile``): plans
admitted to the plan cache, and single-use plans whose one execution binds
enough rows (``SINGLE_USE_COMPILE_ROWS``) to amortize closure generation.
Single-use compilation is affordable because generated sources are
*shape-keyed*: literals, column indices and comparison operators are
hoisted out of the text and bound as arguments, so a fresh query almost
always finds its code objects in the process-wide cache.

The columnar tier (:mod:`repro.engine.columnar`) builds on this module:
it reuses the constant folder, the shape-keyed code cache, the compiled
subquery probes (row-wise by design, preserving early termination) and
:func:`_iter_fn` as its per-subtree fallback, so the two lowerings can
never drift apart on the semantics they share.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as _iter_product
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import CompileError
from .expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
    OuterStack,
    Row,
    RowExpr,
    not3,
)
from .expressions import COMPARE_FUNCS as _COMPARE_FUNCS
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
    _in_fold,
)

__all__ = ["compile_plan", "compile_predicate", "IterFn", "RowsFn"]

#: A compiled operator: outer-row stack in, row iterator out.
IterFn = Callable[[OuterStack], Iterator[Row]]

#: A compiled materializer: outer-row stack in, row sequence out (mirrors
#: ``PlanNode.rows``, including its list-aliasing behaviour for scans and
#: cached subplans).
RowsFn = Callable[[OuterStack], Sequence[Row]]


# -- comparison helpers -------------------------------------------------------
#
# One specialized function per operator, replacing the interpreted chain
# ``ComparePred.__call__ -> compare -> COMPARE_FUNCS[op] -> _ordered``.
# NULL propagation and error behaviour (message included) match
# :func:`repro.engine.expressions.compare` exactly.

_LIKE_FUNC = _COMPARE_FUNCS["LIKE"]


def _eq(a, b):
    if a is None or b is None:
        return None
    return a == b and isinstance(a, str) == isinstance(b, str)


def _ne(a, b):
    if a is None or b is None:
        return None
    return not (a == b and isinstance(a, str) == isinstance(b, str))


def _lt(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} < {b!r}")
    return a < b


def _le(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} <= {b!r}")
    return a <= b


def _gt(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} > {b!r}")
    return a > b


def _ge(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, str) != isinstance(b, str):
        raise CompileError(f"type clash in comparison: {a!r} >= {b!r}")
    return a >= b


def _like(a, b):
    if a is None or b is None:
        return None
    return _LIKE_FUNC(a, b)


#: Comparison operator -> the helper the generated code calls.
_OP_HELPERS = {
    "=": _eq,
    "<>": _ne,
    "<": _lt,
    "<=": _le,
    ">": _gt,
    ">=": _ge,
    "LIKE": _like,
}

#: Total comparisons: can never raise, so literal operands fold exactly.
_TOTAL_OPS = ("=", "<>")

#: The globals every generated function starts from.
_BASE_NAMESPACE = {
    "__builtins__": {"isinstance": isinstance, "str": str, "tuple": tuple},
}

#: Generated source -> code object.  Sources spell out only the predicate's
#: *shape* — its 3VL structure and which operands are columns, outer
#: references, literals or subqueries — and name everything else
#: positionally: comparison helpers ``_fN``, column indices ``_iN``,
#: int/str/float literals ``_kN``, captured objects ``_cN``.  The same
#: statement over a new literal, another column or another comparison
#: operator therefore reuses one compilation; query generators and
#: re-bound prepared statements repeat shapes constantly, which is why
#: compiling a fresh query stays in the microsecond range and rarely pays
#: ``builtins.compile``.
_CODE_CACHE: Dict[str, object] = {}

#: Shapes, not literals, populate the cache, so the bound can be small
#: (it was 8,192 when every literal minted an entry).  Workloads are a head
#: of recurring shapes plus a tail no size catches: 1,850 live-campaign
#: trials need 75 entries in all, while 14,000 paper-generator queries mint
#: 22,000 distinct shapes and miss 30% of lookups unbounded, 38% at 1,024
#: and 41% at 512.  At ~2 KB resident per entry 1,024 entries hold the head
#: within 2 MB.
_CODE_CACHE_MAX = 1024


def _compiled_code(source: str):
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            # Drop the oldest shape only: flushing the whole cache would
            # make every live plan shape recompile at once.
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)), None)
        code = _CODE_CACHE[source] = compile(source, "<repro-compiled>", "exec")
    return code


class _Constants:
    """The values one generated function names instead of spelling out.

    Every hoisted value gets a fresh positional name — never deduped by
    value: ``A = 1 AND B = 1`` and ``A = 1 AND B = 2`` must generate the
    same text — and is bound as a default argument, so the source is
    value-independent while the operand is still read with a ``LOAD_FAST``.
    """

    def __init__(self):
        self.constants: Dict[str, object] = {}

    def constant(self, value, prefix: str = "_k") -> str:
        name = f"{prefix}{len(self.constants)}"
        self.constants[name] = value
        return name

    def signature(self, params: str) -> str:
        """``params`` plus one ``name=name`` default per hoisted value."""
        return ", ".join([params, *(f"{k}={k}" for k in self.constants)])


def _literal_source(emitter: _Constants, value) -> Optional[str]:
    """Source text for a literal operand, or None to capture it.

    NULL and booleans stay folded into the text — they steer constant
    folding and NULL-guard emission, so they are part of the shape; every
    other embeddable literal is hoisted (see :class:`_Constants`)."""
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, str, float)):
        return emitter.constant(value)
    return None


def _assemble(name: str, source: str, *bindings: Dict[str, object], base=None):
    """The function ``name`` that ``source`` defines, over ``base`` (default:
    :data:`_BASE_NAMESPACE`) plus the emitter's captured objects and hoisted
    constants."""
    namespace = dict(_BASE_NAMESPACE if base is None else base)
    for names in bindings:
        namespace.update(names)
    exec(_compiled_code(source), namespace)
    # pop, not read: the function's globals are this namespace, and leaving
    # the function in it would make every generated function a reference
    # cycle that only the cyclic collector frees — single-use plans would
    # then pile up (with the build sides their probes captured) until the
    # next full collection.
    return namespace.pop(name)


class _Emitter(_Constants):
    """Accumulates generated source lines plus captured runtime objects."""

    def __init__(self):
        super().__init__()
        self.lines: List[str] = []
        self.captured: Dict[str, object] = {}
        self._capture_ids: Dict[int, str] = {}
        self._temps = 0

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def capture(self, obj) -> str:
        name = self._capture_ids.get(id(obj))
        if name is None:
            name = f"_c{len(self.captured)}"
            self.captured[name] = obj
            self._capture_ids[id(obj)] = name
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * (depth + 1) + line)


def _expr_source(emitter: _Emitter, expr: RowExpr) -> str:
    """An expression string over ``r`` (row) and ``o`` (outer stack)."""
    if isinstance(expr, ColumnRef):
        index = emitter.constant(expr.index, "_i")
        if expr.depth == 0:
            return f"r[{index}]"
        return f"o[-{expr.depth}][{index}]"
    if isinstance(expr, LiteralExpr):
        text = _literal_source(emitter, expr.value)
        if text is not None:
            return text
    return f"{emitter.capture(expr)}(r, o)"


# -- constant folding ---------------------------------------------------------


def _fold_predicate(pred):
    """Exact constant folding: only rewrites that cannot change results
    *or error behaviour* are applied.

    Total comparisons (``=`` / ``<>``) over two literals and ``IS NULL``
    over a literal evaluate at compile time; 3VL connectives absorb
    constants only along the interpreted short-circuit order (a left
    ``FALSE`` kills an AND before its right side would ever run, so the
    right side may be dropped; a right-side constant may only be dropped
    when the identity is exact for every left value, e.g. ``AND TRUE``).
    Ordered comparisons and LIKE can raise on type clashes, so they are
    never folded.
    """
    if isinstance(pred, ComparePred):
        if (
            pred.op in _TOTAL_OPS
            and isinstance(pred.left, LiteralExpr)
            and isinstance(pred.right, LiteralExpr)
        ):
            a, b = pred.left.value, pred.right.value
            if a is None or b is None:
                return ConstPred(None)
            return ConstPred(_eq(a, b) if pred.op == "=" else _ne(a, b))
        return pred
    if isinstance(pred, IsNullPred):
        if isinstance(pred.expr, LiteralExpr):
            is_null = pred.expr.value is None
            return ConstPred(is_null is not pred.negated)
        return pred
    if isinstance(pred, AndPred):
        left = _fold_predicate(pred.left)
        right = _fold_predicate(pred.right)
        if isinstance(left, ConstPred):
            if left.value is False:
                return ConstPred(False)
            if left.value is True:
                return right
            # left is UNKNOWN: and3(None, b) is False iff b is False,
            # else None — still needs the right side (which may raise).
            if isinstance(right, ConstPred):
                return ConstPred(False if right.value is False else None)
        if isinstance(right, ConstPred) and right.value is True:
            return left  # and3(a, True) == a for every a
        if left is pred.left and right is pred.right:
            return pred
        return AndPred(left, right)
    if isinstance(pred, OrPred):
        left = _fold_predicate(pred.left)
        right = _fold_predicate(pred.right)
        if isinstance(left, ConstPred):
            if left.value is True:
                return ConstPred(True)
            if left.value is False:
                return right  # or3(False, b) == b for every b
            if isinstance(right, ConstPred):
                return ConstPred(True if right.value is True else None)
        if isinstance(right, ConstPred) and right.value is False:
            return left  # or3(a, False) == a for every a
        if left is pred.left and right is pred.right:
            return pred
        return OrPred(left, right)
    if isinstance(pred, NotPred):
        operand = _fold_predicate(pred.operand)
        if isinstance(operand, ConstPred):
            return ConstPred(not3(operand.value))
        if operand is pred.operand:
            return pred
        return NotPred(operand)
    return pred


# -- predicate code generation ------------------------------------------------


def _generate_predicate(emitter: _Emitter, pred, depth: int) -> str:
    """Emit statements computing ``pred``; returns the result variable."""
    target = emitter.temp()
    if isinstance(pred, ConstPred):
        emitter.emit(depth, f"{target} = {pred.value!r}")
        return target
    if isinstance(pred, ComparePred) and pred.op in _OP_HELPERS:
        helper = emitter.constant(_OP_HELPERS[pred.op], "_f")
        left = _expr_source(emitter, pred.left)
        right = _expr_source(emitter, pred.right)
        emitter.emit(depth, f"{target} = {helper}({left}, {right})")
        return target
    if isinstance(pred, IsNullPred):
        op = "is not" if pred.negated else "is"
        expr = _expr_source(emitter, pred.expr)
        emitter.emit(depth, f"{target} = ({expr} {op} None)")
        return target
    if isinstance(pred, AndPred):
        left = _generate_predicate(emitter, pred.left, depth)
        emitter.emit(depth, f"if {left} is False:")
        emitter.emit(depth + 1, f"{target} = False")
        emitter.emit(depth, "else:")
        right = _generate_predicate(emitter, pred.right, depth + 1)
        emitter.emit(
            depth + 1,
            f"{target} = False if {right} is False else "
            f"(None if ({left} is None or {right} is None) else True)",
        )
        return target
    if isinstance(pred, OrPred):
        left = _generate_predicate(emitter, pred.left, depth)
        emitter.emit(depth, f"if {left} is True:")
        emitter.emit(depth + 1, f"{target} = True")
        emitter.emit(depth, "else:")
        right = _generate_predicate(emitter, pred.right, depth + 1)
        emitter.emit(
            depth + 1,
            f"{target} = True if {right} is True else "
            f"(None if ({left} is None or {right} is None) else False)",
        )
        return target
    if isinstance(pred, NotPred):
        operand = _generate_predicate(emitter, pred.operand, depth)
        emitter.emit(
            depth, f"{target} = (None if {operand} is None else not {operand})"
        )
        return target
    # Subquery probes and opaque callables: captured as compiled closures.
    emitter.emit(depth, f"{target} = {emitter.capture(_compile_subpred(pred))}(r, o)")
    return target


def compile_predicate(pred):
    """Compile a predicate tree into one generated function (or a
    :class:`~repro.engine.expressions.ConstPred` when it folds away).

    The returned object is a ``(row, outers) -> Optional[bool]`` callable
    either way; callers that can specialize on a constant verdict (e.g.
    dropping a ``WHERE TRUE`` filter) check for ``ConstPred``.
    """
    folded = _fold_predicate(pred)
    if isinstance(folded, ConstPred):
        return folded
    emitter = _Emitter()
    result = _generate_predicate(emitter, folded, 0)
    source = (
        f"def _pred({emitter.signature('r, o')}):\n"
        + "\n".join(emitter.lines)
        + f"\n    return {result}\n"
    )
    return _assemble("_pred", source, emitter.captured, emitter.constants)


# -- row (projection / probe-value) compilation -------------------------------


def _column_indices(exprs: Sequence[RowExpr]) -> Optional[Tuple[int, ...]]:
    """The depth-0 indices when every expression is a current-row column."""
    indices = []
    for expr in exprs:
        if not (isinstance(expr, ColumnRef) and expr.depth == 0):
            return None
        indices.append(expr.index)
    return tuple(indices)


def compile_row(exprs: Sequence[RowExpr]) -> Callable[[Row, OuterStack], Row]:
    """One generated function building the output tuple of a projection
    (or the probe values of an IN predicate) in a single call frame."""
    emitter = _Emitter()
    parts = [_expr_source(emitter, expr) for expr in exprs]
    body = ", ".join(parts) + ("," if len(parts) == 1 else "")
    source = f"def _row({emitter.signature('r, o')}):\n    return ({body})\n"
    return _assemble("_row", source, emitter.captured, emitter.constants)


# -- subquery predicates ------------------------------------------------------
#
# Each compiled probe captures the *original* predicate object and keeps all
# mutable state (`_known`, `_memo`, `_build`, …) on it, so the binding
# layer's reset/harvest/restore walks govern compiled execution unchanged.


def _compile_subpred(pred):
    if isinstance(pred, ExistsProbe):
        return _compile_exists_probe(pred)
    if isinstance(pred, ExistsPred):
        return _compile_exists_pred(pred)
    if isinstance(pred, SemiJoinProbe):
        return _compile_semi_join_probe(pred)
    if isinstance(pred, InPred):
        return _compile_in_pred(pred)
    return pred  # opaque callable: invoked as-is


def _compile_exists_pred(pred: ExistsPred):
    sub_rows = _rows_fn(pred.subplan)

    def exists_naive(r, o):
        return bool(sub_rows(o + (r,)))

    return exists_naive


def _compile_exists_probe(pred: ExistsProbe):
    sub_iter = _iter_fn(pred.subplan)

    def probe(r, o):
        for _ in sub_iter(o + (r,)):
            return True
        return False

    if pred.closed:

        def exists_closed(r, o):
            known = pred._known
            if known is None:
                known = pred._known = probe(r, o)
            return known

        return exists_closed
    refs = pred._refs
    if refs is None:
        return probe

    def exists_memo(r, o):
        memo = pred._memo
        key = tuple(r[i] if d == 0 else o[-d][i] for d, i in refs)
        result = memo.get(key)
        if result is None:
            result = memo[key] = probe(r, o)
        return result

    return exists_memo


def _compile_in_pred(pred: InPred):
    sub_rows = _rows_fn(pred.subplan)
    values_fn = compile_row(pred.exprs)
    negated = pred.negated
    refs = pred._refs

    if refs is None:

        def rows_for(r, o):
            return sub_rows(o + (r,))

    else:

        def rows_for(r, o):
            memo = pred._memo
            key = tuple(r[i] if d == 0 else o[-d][i] for d, i in refs)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = list(dict.fromkeys(sub_rows(o + (r,))))
            return rows

    def in_pred(r, o):
        result = _in_fold(values_fn(r, o), rows_for(r, o))
        if negated:
            return None if result is None else not result
        return result

    return in_pred


def _compile_semi_join_probe(pred: SemiJoinProbe):
    """The set-membership kernel behind uncorrelated IN and the decorrelated
    EXISTS/IN probes.  The build side stays on ``pred`` (read per call, never
    captured), so nothing derived from bound rows outlives ``unbind_plan``."""
    sub_iter = _iter_fn(pred.subplan)
    negated = pred.negated

    def built():
        return pred.materialize(sub_iter(()))

    indices = _column_indices(pred.exprs)
    if indices is not None and len(indices) == 1:
        # One probing-row column against a set of raw values: a subscript
        # and a set lookup (the set holds no NULL, so a NULL probe misses).
        (column,) = indices
        if pred.key_width:

            def exists_key(r, o):
                build = pred._build
                if build is None:
                    build = built()
                return r[column] in build[0]

            return exists_key
        hit, miss = not negated, negated

        def in_column(r, o):
            build = pred._build
            if build is None:
                build = built()
            value = r[column]
            if value in build[0]:
                return hit
            if build[1] or (value is None and build[0]):
                return None
            return miss

        return in_column
    lookup = pred.lookup
    values_fn = compile_row(pred.exprs)

    def semi_join(r, o):
        build = pred._build
        if build is None:
            build = built()
        result = lookup(values_fn(r, o), build)
        if negated:
            return None if result is None else not result
        return result

    return semi_join


# -- operator compilation -----------------------------------------------------


def _key_fn(indices: Tuple[int, ...]):
    """A specialized :func:`~repro.engine.operators.typed_key` over fixed
    row positions (NULL anywhere makes the key unusable)."""
    if len(indices) == 1:
        (index,) = indices

        def key1(row):
            value = row[index]
            if value is None:
                return None
            return ((isinstance(value, str), value),)

        return key1

    def keyn(row):
        key = []
        for index in indices:
            value = row[index]
            if value is None:
                return None
            key.append((isinstance(value, str), value))
        return tuple(key)

    return keyn


def _drained(child_iter: IterFn) -> IterFn:
    """A filter whose predicate folded to FALSE/UNKNOWN: yields nothing,
    but still drains the child so data-dependent errors surface exactly as
    the interpreted ``FilterOp`` (which iterates its child regardless)."""

    def drain(outers):
        for _row in child_iter(outers):
            pass
        return
        yield  # pragma: no cover - makes this a generator function

    return drain


def _split_filter(node: PlanNode):
    """Peel a FilterOp for fusion: (child, predicate | ConstPred | None)."""
    if isinstance(node, FilterOp):
        return node.child, compile_predicate(node.predicate)
    return node, None


def _compile_filter(node: FilterOp) -> IterFn:
    child_iter = _iter_fn(node.child)
    pred = compile_predicate(node.predicate)
    if isinstance(pred, ConstPred):
        if pred.value is True:
            return child_iter
        return _drained(child_iter)

    def filter_iter(outers):
        p = pred
        for row in child_iter(outers):
            if p(row, outers) is True:
                yield row

    return filter_iter


def _compile_project(node: ProjectOp) -> IterFn:
    child, pred = _split_filter(node.child)
    if isinstance(pred, ConstPred):
        if pred.value is True:
            pred = None
        else:
            return _drained(_iter_fn(child))
    child_iter = _iter_fn(child)
    indices = _column_indices(node.expressions)
    if pred is None:
        if indices is not None and len(indices) > 1:
            getter = itemgetter(*indices)
            return lambda outers: map(getter, child_iter(outers))
        row_fn = compile_row(node.expressions)

        def project_iter(outers):
            build = row_fn
            for row in child_iter(outers):
                yield build(row, outers)

        return project_iter
    row_fn = compile_row(node.expressions)

    def filter_project_iter(outers):
        p = pred
        build = row_fn
        for row in child_iter(outers):
            if p(row, outers) is True:
                yield build(row, outers)

    return filter_project_iter


def _compile_distinct(node: DistinctOp) -> IterFn:
    child_iter = _iter_fn(node.child)

    def distinct_iter(outers):
        seen = set()
        add = seen.add
        for row in child_iter(outers):
            if row not in seen:
                add(row)
                yield row

    return distinct_iter


def _compile_remap(node: RemapOp) -> IterFn:
    child_iter = _iter_fn(node.child)
    mapping = node.mapping
    if len(mapping) > 1:
        getter = itemgetter(*mapping)
        return lambda outers: map(getter, child_iter(outers))
    (index,) = mapping

    def remap1(outers):
        for row in child_iter(outers):
            yield (row[index],)

    return remap1


def _product_rows(materialized: List[Sequence[Row]]) -> Iterator[Row]:
    for combo in _iter_product(*materialized):
        row = combo[0]
        for part in combo[1:]:
            row = row + part
        yield row


def _compile_cross_join(node: CrossJoin) -> IterFn:
    children_rows = [_rows_fn(child) for child in node.children]

    def cross_iter(outers):
        # Children materialize in order with an early empty-out, exactly
        # like the interpreted CrossJoin: a later child is never touched
        # once an earlier one came up empty.
        materialized = []
        for rows_fn in children_rows:
            rows = rows_fn(outers)
            if not rows:
                return iter(())
            materialized.append(rows)
        if len(materialized) == 2:
            left, right = materialized
            return (x + y for x in left for y in right)
        return _product_rows(materialized)

    return cross_iter


def _compile_hash_join(node: HashJoin) -> IterFn:
    left_iter = _iter_fn(node.left)
    right_iter = _iter_fn(node.right)
    left_key = _key_fn(node.left_keys)
    right_key = _key_fn(node.right_keys)

    def build(outers):
        table: dict = {}
        setdefault = table.setdefault
        for row in right_iter(outers):
            key = right_key(row)
            if key is None:
                continue
            setdefault(key, []).append(row)
        return table

    def build_table(outers):
        if node._closed_build is None:
            node._closed_build = node.right.free_refs() == frozenset()
        if not node._closed_build:
            return build(outers)
        table = node._table
        if table is None:
            table = node._table = build(outers)
        return table

    def probe(table, outers):
        get = table.get
        key_of = left_key
        for row in left_iter(outers):
            key = key_of(row)
            if key is None:
                continue
            for match in get(key, ()):
                yield row + match

    def hash_join_iter(outers):
        table = build_table(outers)
        if not table:
            return iter(())
        return probe(table, outers)

    return hash_join_iter


def _compile_generic_join(node: GenericJoin) -> IterFn:
    """Native lowering of the worst-case-optimal join: children materialize
    through their compiled ``rows`` functions, while trie construction and
    leapfrog enumeration reuse the node's own (already loop-shaped) methods
    — and the tries live on the node (``_tries`` / ``_closed_build``), so
    the binding layer's reset/harvest/restore walks govern compiled
    execution unchanged, exactly like the hash-join build side."""
    children_rows = [_rows_fn(child) for child in node.children]

    def build(outers):
        return node._build_tries([rows_fn(outers) for rows_fn in children_rows])

    def build_tries(outers):
        if node._closed_build is None:
            node._closed_build = node.free_refs() == frozenset()
        if not node._closed_build:
            return build(outers)
        tries = node._tries
        if tries is None:
            tries = node._tries = build(outers)
        return tries

    def generic_join_iter(outers):
        tries = build_tries(outers)
        if any(not trie for trie in tries):
            return iter(())
        return node._solve(0, list(tries))

    return generic_join_iter


def _compile_hash_setop(node: HashSetOp) -> IterFn:
    left_iter = _iter_fn(node.left)
    right_iter = _iter_fn(node.right)
    if node.op == "UNION":
        if node.all:

            def union_all(outers):
                yield from left_iter(outers)
                yield from right_iter(outers)

            return union_all

        def union_distinct(outers):
            seen = set()
            add = seen.add
            for side in (left_iter, right_iter):
                for row in side(outers):
                    if row not in seen:
                        add(row)
                        yield row

        return union_distinct
    if node.op == "INTERSECT":
        if node.all:

            def intersect_all(outers):
                remaining = Counter(right_iter(outers))
                for row in left_iter(outers):
                    if remaining[row] > 0:
                        remaining[row] -= 1
                        yield row

            return intersect_all

        def intersect_distinct(outers):
            right_rows = set(right_iter(outers))
            emitted = set()
            for row in left_iter(outers):
                if row in right_rows and row not in emitted:
                    emitted.add(row)
                    yield row

        return intersect_distinct
    if node.op == "EXCEPT":
        if node.all:

            def except_all(outers):
                right_counts = Counter(right_iter(outers))
                for row in left_iter(outers):
                    if right_counts[row] > 0:
                        right_counts[row] -= 1
                    else:
                        yield row

            return except_all

        def except_distinct(outers):
            right_counts = Counter(right_iter(outers))
            emitted = set()
            for row in left_iter(outers):
                if right_counts[row] == 0 and row not in emitted:
                    emitted.add(row)
                    yield row

        return except_distinct
    raise ValueError(f"unknown set operation {node.op}")  # pragma: no cover


def _compile_setop_counted(node: SetOpNode) -> IterFn:
    """The naive counted-multiset set operation (``optimize=False`` plans):
    compiled children, same count-both-sides-and-re-expand algorithm."""
    left_iter = _iter_fn(node.left)
    right_iter = _iter_fn(node.right)
    op, all_ = node.op, node.all

    def setop_iter(outers):
        left_counts = Counter(left_iter(outers))
        right_counts = Counter(right_iter(outers))
        if op == "UNION":
            result = left_counts + right_counts
            if not all_:
                result = Counter(dict.fromkeys(result, 1))
        elif op == "INTERSECT":
            result = left_counts & right_counts
            if not all_:
                result = Counter(dict.fromkeys(result, 1))
        elif op == "EXCEPT":
            if all_:
                result = left_counts - right_counts
            else:
                result = Counter(dict.fromkeys(left_counts, 1)) - right_counts
        else:  # pragma: no cover - guarded at compile time
            raise ValueError(f"unknown set operation {op}")
        return iter(result.elements())

    return setop_iter


# -- materializers ------------------------------------------------------------


def _rows_fn(node: PlanNode) -> RowsFn:
    """Compiled equivalent of ``node.rows``: same results, same aliasing
    (scans and cached subplans hand out their stored lists; everything
    else materializes a fresh list from the compiled iterator)."""
    if isinstance(node, TableScan):

        def scan_rows(outers):
            data = node.data
            if data is None:
                raise RuntimeError(
                    f"TableScan({node.table!r}) executed without a bound "
                    f"database (see repro.engine.binding.bind_plan)"
                )
            return data

        return scan_rows
    if isinstance(node, StaticScan):
        data = node.data
        return lambda outers: data
    if isinstance(node, CachedSubplan):
        child_rows = _rows_fn(node.child)

        def cached_rows(outers):
            rows = node._cache
            if rows is None:
                # The child is closed, so the outer stack is irrelevant.
                rows = node._cache = child_rows(())
            return rows

        return cached_rows
    if isinstance(node, MemoSubplan):
        child_rows = _rows_fn(node.child)
        memo_refs = node.memo_refs

        def memo_rows(outers):
            memo = node._memo
            key = tuple(outers[-d][i] for d, i in memo_refs)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = child_rows(outers)
            return rows

        return memo_rows
    iter_fn = _iter_fn(node)
    return lambda outers: list(iter_fn(outers))


# -- dispatcher ---------------------------------------------------------------


def _iter_fn(node: PlanNode) -> IterFn:
    if isinstance(node, (TableScan, StaticScan)):
        rows_fn = _rows_fn(node)
        return lambda outers: iter(rows_fn(outers))
    if isinstance(node, ProjectOp):
        return _compile_project(node)
    if isinstance(node, FilterOp):
        return _compile_filter(node)
    if isinstance(node, HashJoin):
        return _compile_hash_join(node)
    if isinstance(node, GenericJoin):
        return _compile_generic_join(node)
    if isinstance(node, CrossJoin):
        return _compile_cross_join(node)
    if isinstance(node, DistinctOp):
        return _compile_distinct(node)
    if isinstance(node, RemapOp):
        return _compile_remap(node)
    if isinstance(node, HashSetOp):
        return _compile_hash_setop(node)
    if isinstance(node, SetOpNode):
        return _compile_setop_counted(node)
    if isinstance(node, (CachedSubplan, MemoSubplan)):
        rows_fn = _rows_fn(node)
        return lambda outers: iter(rows_fn(outers))
    # Unknown node (an extension or a test double): fall back to its own
    # interpreted iteration so compilation degrades instead of failing.
    return node.iter_rows


def compile_plan(plan: PlanNode) -> IterFn:
    """Lower a physical plan into its compiled closure tree.

    The result is a drop-in replacement for ``plan.iter_rows`` — call it
    with the outer-row stack (``()`` at the top level).  The plan node
    tree stays the carrier of all mutable execution state, so
    :func:`~repro.engine.binding.bind_plan` /
    :func:`~repro.engine.binding.unbind_plan` round-trip compiled plans
    exactly as interpreted ones: compile once, bind/execute/unbind many.
    """
    return _iter_fn(plan)
