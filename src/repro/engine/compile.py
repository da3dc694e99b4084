"""The executor: every physical plan runs as nested Python closures.

:func:`compile_plan` lowers a plan (optimized or naive) once into a tree
of closures, each capturing its children's lowered iterators directly, so
executions pay no per-node dispatch: scans iterate their bound lists, a
projection of plain columns becomes a C-level ``map(itemgetter(...),
child)``, ``Filter``+``Project`` pairs fuse into one generator frame, and
the stateful operators (``HashJoin``, ``GenericJoin``, ``CachedSubplan``,
``MemoSubplan``, the subquery probes) compile to closures that *share
state with the plan nodes* — they read and write the nodes' ``_table`` /
``_tries`` / ``_cache`` / ``_memo`` / ``_build`` attributes.

That state sharing is the bind/unbind contract: a plan is executed via
its closure tree, but :func:`repro.engine.binding.bind_plan` /
:func:`~repro.engine.binding.unbind_plan` still walk the *plan node* tree
— installing scan rows, clearing per-execution memos, and harvesting /
restoring build-side structures through the
:class:`~repro.engine.binding.BuildSideCache` — and the closures observe
whatever those walks install.  Cached plans therefore pin no database
rows, and cross-trial build-side sharing works unchanged.

Generated code is a per-plan decision on top of that one lowering
(``codegen``, set by ``Engine._compile`` for plans that are reused or bind
at least ``SINGLE_USE_COMPILE_ROWS`` rows):

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
* a filter over a base-table scan becomes a *scan kernel* — the leading
  probe-free conjuncts of its predicate as one fused comprehension over
  the table's column vectors, in lazily chained batches, with an exact
  row-wise replay when a batch hits a type clash, and over only the rows a
  sorted column index bisects to when the predicate opens with
  comparisons that keep few (see the "scan kernels" section below).

Without codegen the same closures take each filter's predicate object as
it is — its own ``__call__``, with the subquery probes inside it swapped
for their closures — build projected rows as a tuple over the expression
objects, and run no scan kernel.  That lowering is cheap enough for the
fresh, tiny plans of the paper campaign, and it is the row-wise reference
the generated predicates and scan kernels are held to: evaluation order,
3VL short-circuits, streaming/early-termination points, materialization
order and raised errors are the same with and without codegen (verified
by ``tests/properties/test_compiled_equivalence.py`` and the digest gate
of ``scripts/bench.py --stages engine_compiled,engine_interpreted``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, islice
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
    column_indices,
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
    _resident,
)

__all__ = [
    "compile_plan",
    "compile_predicate",
    "ScanKernelStats",
    "IterFn",
    "RowsFn",
]

#: A compiled operator: outer-row stack in, row iterator out.
IterFn = Callable[[OuterStack], Iterator[Row]]

#: A compiled materializer: outer-row stack in, row sequence out (scans and
#: cached subplans hand out their stored lists).
RowsFn = Callable[[OuterStack], Sequence[Row]]


class ScanKernelStats:
    """What the scan kernels of one engine's plans did: ``selections``
    (kernel-run scans), ``rows_in`` / ``rows_out`` (rows they evaluated and
    kept), ``fallbacks`` (scans a type clash sent to the row-wise replay)
    and ``lookups`` (scans a sorted column index narrowed to an interval).
    The owner creates it and hands it to :func:`compile_plan`; kernels add
    to it once per batch, never per row."""

    __slots__ = ("selections", "rows_in", "rows_out", "fallbacks", "lookups")

    def __init__(self):
        self.selections = self.rows_in = self.rows_out = 0
        self.fallbacks = self.lookups = 0

    def info(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: Where a lowering's scan kernels count: None for a lowering without
#: codegen, which runs no scan kernel.
_Stats = Optional[ScanKernelStats]


# -- comparison helpers -------------------------------------------------------
#
# One specialized function per operator, replacing the per-object chain
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
#: trials need 75 row-wise entries in all, while 14,000 paper-generator
#: queries mint 22,000 distinct shapes and miss 30% of lookups unbounded, 38%
#: at 1,024 and 41% at 512.  At ~2 KB resident per entry 1,024 entries hold
#: the head within 2 MB.
_CODE_CACHE_MAX = 1024

#: ``hash(source)`` of the sources compiled once so far: a shape enters the
#: cache the *second* time it is compiled.  The fused selections spell their
#: comparison operators out (an inline ``c0 < _k1`` is the point of them),
#: so their shapes multiply where the row-wise ones add up — the same 1,850
#: live-campaign trials compile 410 of them, 280 exactly once — and a
#: one-off's code object is garbage as soon as its single-use plan is, unless
#: the cache pins it (2.5 KB each; +0.3 MB of peak RSS on that campaign).
#: Recurring shapes pay one extra compilation each, once per process.
#: Bounded like the cache, oldest first.
_COMPILED_ONCE: Dict[int, None] = {}


def _compiled_code(source: str):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro-compiled>", "exec")
        seen = hash(source)
        if _COMPILED_ONCE.pop(seen, False) is False:
            if len(_COMPILED_ONCE) >= _CODE_CACHE_MAX:
                del _COMPILED_ONCE[next(iter(_COMPILED_ONCE))]
            _COMPILED_ONCE[seen] = None
            return code
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            # Drop the oldest shape only: flushing the whole cache would
            # make every live plan shape recompile at once.
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)), None)
        _CODE_CACHE[source] = code
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

    def __init__(self, stats: Optional[ScanKernelStats] = None):
        super().__init__()
        #: Where the scan kernels of captured subquery plans count.
        self.stats = stats
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
    constants only along the row-wise short-circuit order (a left
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
    probe = emitter.capture(_compile_subpred(pred, emitter.stats))
    emitter.emit(depth, f"{target} = {probe}(r, o)")
    return target


def compile_predicate(pred, stats: Optional[ScanKernelStats] = None):
    """Compile a predicate tree into one generated function (or a
    :class:`~repro.engine.expressions.ConstPred` when it folds away).

    The returned object is a ``(row, outers) -> Optional[bool]`` callable
    either way; callers that can specialize on a constant verdict (e.g.
    dropping a ``WHERE TRUE`` filter) check for ``ConstPred``.  ``stats``
    is where the scan kernels of any subquery plan inside ``pred`` count.
    """
    return _compile_folded(_fold_predicate(pred), stats or ScanKernelStats())


def _compile_folded(folded, stats: ScanKernelStats):
    """:func:`compile_predicate` over an already folded tree."""
    if isinstance(folded, ConstPred):
        return folded
    emitter = _Emitter(stats)
    result = _generate_predicate(emitter, folded, 0)
    source = (
        f"def _pred({emitter.signature('r, o')}):\n"
        + "\n".join(emitter.lines)
        + f"\n    return {result}\n"
    )
    return _assemble("_pred", source, emitter.captured, emitter.constants)


# -- fused selection code generation ------------------------------------------
#
# Probe-free predicate trees compile into a *single* list comprehension
# that selects directly — one pass over the zipped operand columns, no
# per-row call frame and no intermediate mask lists:
#
#     [x for x, c0, c1 in zip(R, C[_i0], C[_i1])
#        if c0 is not None and c1 is not None and c0 < c1 and c0 == _k2]
#
# ``R`` holds the row tuples of a base-table scan (the scan kernels below)
# and ``C[i]`` the vector of column ``i``, aligned with ``R``.  Like the
# row-wise sources, the text is shape-keyed: literals and column positions
# are hoisted, so one compilation serves every literal and every column.
#
# The generated expression is evaluation-congruent with the row-wise
# tier, so a type clash raises on exactly the executions the row-wise
# order raises on (the caller's row-wise replay then reproduces the exact
# error):
#
# * NOT is pushed to the leaves first — De Morgan is exact in Kleene 3VL,
#   and a negated comparison is just the complementary operator over the
#   same operands (same raise set); the AND/OR swap flips which truth
#   value short-circuits, matching the negated left operand exactly.
# * OR lowers to Python ``or`` over the operand TRUE-expressions: Python
#   skips the right side exactly when it is True — the rows where the
#   row-wise OR skips its right operand.
# * AND lowers to Python ``and``, which *under*-evaluates: the row-wise
#   AND evaluates its right side on left-UNKNOWN rows too (it must
#   distinguish FALSE from UNKNOWN).  When the right subtree contains
#   raising operators, the codegen appends an error-probe term
#   ``or (U_L and (R or True) and False)`` — value-neutral, but it
#   touches the right subtree on exactly the left-UNKNOWN rows.  The
#   UNKNOWN-expressions are ordered so their embedded value
#   subexpressions only run where the row-wise trace ran them.


class _Unvectorizable(Exception):
    """The predicate tree has a shape that is evaluated per row."""


#: What a batch kernel raises on a potential runtime error — Python's own
#: mixed-type ordering error, or the engine's comparison error from LIKE —
#: and its caller catches: the predicate must then be replayed per row, to
#: surface the error exactly as the row-wise predicate words it or, when the
#: offending row would never have been evaluated, to suppress it.
_FALLBACK_ERRORS = (TypeError, CompileError)

#: Negating a comparison swaps it for the complementary operator over the
#: same operands: same UNKNOWN set (NULL operands), same raise set.
_NEG_OP = {"=": "<>", "<>": "=", "<": ">=", ">=": "<", "<=": ">", ">": "<="}

#: Operators whose evaluation can raise on a type clash.
_RAISING_OPS = frozenset(("<", "<=", ">", ">=", "LIKE"))

#: op -> comparison body over operand sources ``x`` and ``y``; NULL
#: guards are prepended per *nullable* operand (columns and outer-row
#: scalars — literals are known at codegen time and need none).
#: Equality drops the row-wise isinstance tag, redundant over the int/str
#: value domain (Python equality never holds across the str boundary).  The
#: ordered operators run *optimistically*: on a type clash Python's own
#: ``int < str`` raises ``TypeError`` for exactly the operand pairs whose
#: str-ness differs, and the clash-free common case pays no checking cost.
_FUSE_BODY = {
    "=": "{x} == {y}",
    "<>": "{x} != {y}",
    "<": "{x} < {y}",
    "<=": "{x} <= {y}",
    ">": "{x} > {y}",
    ">=": "{x} >= {y}",
    "LIKE": "_LF({x}, {y})",
    "NOT LIKE": "not _LF({x}, {y})",
}

#: Expression size cap: past this the duplication inside UNKNOWN
#: expressions stops paying for itself; the per-row paths take over.
_FUSE_CAP = 4000

#: Globals of every fused selection.
_FUSE_NAMESPACE = {"_LF": _LIKE_FUNC, "__builtins__": {"zip": zip}}


def _probe_segments(pred) -> int:
    """Count of row-wise segments (probes and opaque callables)."""
    if isinstance(pred, (AndPred, OrPred)):
        return _probe_segments(pred.left) + _probe_segments(pred.right)
    if isinstance(pred, NotPred):
        return _probe_segments(pred.operand)
    if isinstance(pred, (ConstPred, ComparePred, IsNullPred)):
        return 0
    return 1


class _FuseEmitter(_Constants):
    """Operand bookkeeping for one fused selection comprehension."""

    def __init__(self):
        super().__init__()
        #: column position -> (loop variable, hoisted position name), in
        #: first-use order so the text does not depend on the positions.
        self.columns: Dict[int, Tuple[str, str]] = {}
        self.prelude: List[str] = []
        self._scalars: Dict[Tuple[int, int], str] = {}

    def column(self, index: int) -> str:
        names = self.columns.get(index)
        if names is None:
            names = self.columns[index] = (
                f"c{len(self.columns)}",
                self.constant(index, "_i"),
            )
        return names[0]

    def scalar(self, depth: int, index: int) -> str:
        name = self._scalars.get((depth, index))
        if name is None:
            name = self._scalars[depth, index] = f"s{len(self._scalars)}"
            self.prelude.append(f"{name} = o[-{depth}][{self.constant(index, '_i')}]")
        return name


def _fuse_operand(emitter: _FuseEmitter, expr) -> Tuple[str, bool]:
    """``(source, nullable)`` for an operand expression.

    Literals are known at codegen time, so they are never *nullable* in
    the guard-emission sense: a ``LiteralExpr(None)`` operand folds the
    whole comparison at its use site instead of being guarded per row."""
    if isinstance(expr, ColumnRef):
        if expr.depth == 0:
            return emitter.column(expr.index), True
        return emitter.scalar(expr.depth, expr.index), True
    if isinstance(expr, LiteralExpr):
        text = _literal_source(emitter, expr.value)
        if text is not None:
            return text, False
    raise _Unvectorizable


def _fuse(emitter: _FuseEmitter, pred, neg: bool) -> Tuple[str, str, bool]:
    """``(v_expr, u_expr, has_raising)`` for ``pred`` (negated if ``neg``).

    ``v_expr`` is the TRUE-expression; ``u_expr`` the UNKNOWN-expression,
    ordered so that any embedded value subexpression evaluates only where
    the row-wise trace evaluated it (see the section comment)."""
    if isinstance(pred, NotPred):
        return _fuse(emitter, pred.operand, not neg)
    if isinstance(pred, ConstPred):
        value = pred.value if not neg else not3(pred.value)
        return repr(value is True), repr(value is None), False
    if isinstance(pred, IsNullPred):
        wants_null = pred.negated == neg
        if isinstance(pred.expr, LiteralExpr):
            return repr((pred.expr.value is None) == wants_null), "False", False
        operand, _ = _fuse_operand(emitter, pred.expr)
        test = "is" if wants_null else "is not"
        return f"({operand} {test} None)", "False", False
    if isinstance(pred, ComparePred):
        op = pred.op
        if neg:
            op = _NEG_OP.get(op, "NOT LIKE" if op == "LIKE" else None)
        body = _FUSE_BODY.get(op)
        if body is None:
            raise _Unvectorizable
        if (isinstance(pred.left, LiteralExpr) and pred.left.value is None) or (
            isinstance(pred.right, LiteralExpr) and pred.right.value is None
        ):
            # A NULL literal operand makes the comparison UNKNOWN on every
            # row before any type check runs — fold it (never raises).
            return "False", "True", False
        x, xn = _fuse_operand(emitter, pred.left)
        y, yn = _fuse_operand(emitter, pred.right)
        # NULL guards per nullable operand; equality guards only one —
        # ``x == y`` is already False against a single None and never
        # raises, so the guard exists just for the both-None case.
        if op == "=":
            guards = [f"{x} is not None"] if xn and yn else []
        else:
            guards = [f"{s} is not None" for s, n in ((x, xn), (y, yn)) if n]
        terms = guards + [body.format(x=x, y=y)]
        v = f"({' and '.join(terms)})" if len(terms) > 1 else terms[0]
        nulls = [f"{s} is None" for s, n in ((x, xn), (y, yn)) if n]
        u = f"({' or '.join(nulls)})" if nulls else "False"
        return v, u, pred.op in _RAISING_OPS
    if isinstance(pred, (AndPred, OrPred)):
        is_and = isinstance(pred, AndPred) != neg  # De Morgan under neg
        lv, lu, lraise = _fuse(emitter, pred.left, neg)
        rv, ru, rraise = _fuse(emitter, pred.right, neg)
        if is_and:
            v = f"({lv} and {rv})"
            if rraise:
                # Error-probe: the row-wise AND touches its right side on
                # left-UNKNOWN rows; value-neutral, raise-faithful.
                v = f"({v} or ({lu} and ({rv} or True) and False))"
            # u(AND) = (p∨x) ∧ (q∨y) ∧ (x∨y), ordered left-first so the
            # right side only runs where the row-wise trace ran it.
            u = f"(({lv} or {lu}) and ({rv} or {ru}) and ({lu} or {ru}))"
        else:
            v = f"({lv} or {rv})"
            # u(OR) = ¬p ∧ ¬q ∧ (x∨y), same ordering discipline.
            u = f"(not {lv} and not {rv} and ({lu} or {ru}))"
        if len(v) + len(u) > _FUSE_CAP:
            raise _Unvectorizable
        return v, u, lraise or rraise
    raise _Unvectorizable  # probes never reach here (_probe_segments gate)


def _compile_fused(pred, keep_unknown: bool = False):
    """The generated ``(R, C, o) -> [x for x in R if pred]`` single-pass
    selection for a probe-free predicate tree, paired with the column
    positions it reads from ``C`` — or None for shapes it cannot fuse.

    With ``keep_unknown`` it keeps the items on which ``pred`` is TRUE *or
    UNKNOWN* — the rows a row-wise AND with ``pred`` on its left goes on
    to evaluate its right side for."""
    emitter = _FuseEmitter()
    try:
        keep, unknown, _raising = _fuse(emitter, pred, False)
    except _Unvectorizable:
        return None
    if keep_unknown:
        # ``unknown`` only re-runs comparisons ``keep`` has just run on
        # the same row, so it cannot raise where the row-wise trace does
        # not.
        keep = f"({keep} or {unknown})"
    if emitter.columns:
        loop_vars = ", ".join(var for var, _name in emitter.columns.values())
        vectors = ", ".join(f"C[{name}]" for _var, name in emitter.columns.values())
        comp = f"[x for x, {loop_vars} in zip(R, {vectors}) if {keep}]"
    else:
        # All-scalar predicate: still evaluated once per item, so scalar
        # type clashes raise per row (and not at all when empty) —
        # exactly the row-wise behaviour.
        comp = f"[x for x in R if {keep}]"
    lines = [f"def _fsel({emitter.signature('R, C, o')}):"]
    lines.extend("    " + line for line in emitter.prelude)
    lines.append(f"    return {comp}")
    source = "\n".join(lines) + "\n"
    kernel = _assemble("_fsel", source, emitter.constants, base=_FUSE_NAMESPACE)
    return kernel, tuple(emitter.columns)


# -- row (projection / probe-value) compilation -------------------------------


def compile_row(exprs: Sequence[RowExpr]) -> Callable[[Row, OuterStack], Row]:
    """One generated function building the output tuple of a projection
    (or the probe values of an IN predicate) in a single call frame."""
    emitter = _Emitter()
    parts = [_expr_source(emitter, expr) for expr in exprs]
    body = ", ".join(parts) + ("," if len(parts) == 1 else "")
    source = f"def _row({emitter.signature('r, o')}):\n    return ({body})\n"
    return _assemble("_row", source, emitter.captured, emitter.constants)


def _row_fn(exprs: Sequence[RowExpr], stats: _Stats):
    """:func:`compile_row` under codegen; without it (``stats`` None) a
    tuple over the expression objects themselves."""
    if stats is not None:
        return compile_row(exprs)
    exprs = tuple(exprs)
    return lambda r, o: tuple([expr(r, o) for expr in exprs])


# -- subquery predicates ------------------------------------------------------
#
# Each compiled probe captures the *original* predicate object and keeps all
# mutable state (`_known`, `_memo`, `_build`, …) on it, so the binding
# layer's reset/harvest/restore walks govern compiled execution unchanged.


def _compile_subpred(pred, stats: _Stats):
    if isinstance(pred, ExistsProbe):
        return _compile_exists_probe(pred, stats)
    if isinstance(pred, ExistsPred):
        return _compile_exists_pred(pred, stats)
    if isinstance(pred, SemiJoinProbe):
        return _compile_semi_join_probe(pred, stats)
    if isinstance(pred, InPred):
        return _compile_in_pred(pred, stats)
    return pred  # opaque callable: invoked as-is


def _compile_exists_pred(pred: ExistsPred, stats: _Stats):
    sub_rows = _rows_fn(pred.subplan, stats)

    def exists_naive(r, o):
        return bool(sub_rows(o + (r,)))

    return exists_naive


def _compile_exists_probe(pred: ExistsProbe, stats: _Stats):
    sub_iter = _iter_fn(pred.subplan, stats)

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


def _compile_in_pred(pred: InPred, stats: _Stats):
    sub_rows = _rows_fn(pred.subplan, stats)
    values_fn = _row_fn(pred.exprs, stats)
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


def _compile_semi_join_probe(pred: SemiJoinProbe, stats: _Stats):
    """The set-membership kernel behind uncorrelated IN and the decorrelated
    EXISTS/IN probes.  The build side stays on ``pred`` (read per call, never
    captured), so nothing derived from bound rows outlives ``unbind_plan``."""
    sub_iter = _iter_fn(pred.subplan, stats)
    negated = pred.negated

    def built():
        return pred.materialize(lambda: sub_iter(()))

    indices = column_indices(pred.exprs)
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
    values_fn = _row_fn(pred.exprs, stats)

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


def _drained(child_iter: IterFn) -> IterFn:
    """A filter whose predicate is a constant FALSE/UNKNOWN: yields nothing,
    but still drains the child so data-dependent errors surface exactly as
    under a predicate tested per row (which iterates its child
    regardless)."""

    def drain(outers):
        for _row in child_iter(outers):
            pass
        return
        yield  # pragma: no cover - makes this a generator function

    return drain


# -- scan kernels -------------------------------------------------------------
#
# A filter directly over a base-table scan does not call a predicate per
# row: its leading probe-free conjuncts run as one fused selection
# (:func:`_compile_fused`) over the table's column vectors, which are
# pivoted on first touch, one column at a time, into the memo
# :func:`~repro.engine.binding.bind_plan` installs on the scan — shared,
# through the immutable ``Table``, by every plan that scans it, and dropped
# from the plan by ``unbind_plan`` like the rows themselves.
#
# Exactness needs no new argument:
#
# * the whole predicate fuses — a kernel that returns has run every
#   comparison the row-wise trace runs (the emitter's error-probe terms)
#   without a type clash, so the rows it keeps *are* the row-wise result;
# * only a prefix fuses (``B.year >= k AND B.year < k' AND EXISTS …``) — the
#   kernel keeps the rows on which the prefix is TRUE or UNKNOWN, exactly
#   the rows on which the row-wise AND goes on to its next conjunct, and
#   the unchanged full predicate then runs on those;
# * a type clash anywhere in a batch (``_FALLBACK_ERRORS``) — the scan is
#   replayed from that batch on, lazily, through the unchanged row-wise
#   predicate, which raises the row-wise predicate's error on the row it
#   raises it on, or never reaches the clash at all.
#
# A predicate that opens with a run of comparisons of one column with
# operands of that column's type (``B.year >= k AND B.year < k' AND …``)
# hands its kernel only the rows of the interval a sorted index of the
# column, memoized on the table, bisects the run to (:func:`_index_lookup`).
# One argument makes that exact.  Over a column whose non-NULL values share
# one type, ``col op k`` is Python's ``op`` on every non-NULL row and UNKNOWN
# on every NULL one, never raising; so a non-NULL row outside the interval
# is one on which the run is FALSE without raising, and the row-wise trace
# stops there, before any later conjunct.  The rows the unchanged kernel
# keeps from the rest — put back in table order — their order, every error
# and every replay are therefore the full scan's.  A NULL row makes the run
# UNKNOWN, and the row-wise AND goes on, so NULL rows stay in before a
# remainder.

#: Rows in a scan kernel's first batch, and the factor each following batch
#: grows by (the last batch takes what is left once that is no more than
#: one further growth step).  Batches keep the scan lazy at a bounded
#: price: a consumer that stops at its first row — an EXISTS probe — has
#: paid for the batch that row is in, a constant factor over the rows up
#: to it whatever the table size, while a full scan of 30,000 rows makes
#: four kernel calls instead of one.
_SCAN_BATCH = 256
_SCAN_BATCH_GROWTH = 4


def _conjuncts(pred) -> List[object]:
    """The conjuncts of an AND tree, in evaluation order.  How the ANDs
    nest is immaterial to the row-wise trace: conjuncts run left to right
    until the first FALSE one."""
    if isinstance(pred, AndPred):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def _scan_vectors(
    scan: TableScan, data: Sequence[Row], columns
) -> List[Optional[list]]:
    """The per-column memo of ``scan``'s bound rows with ``columns``
    pivoted: ``vectors[i]`` is the list of every row's value in column
    ``i``, or None while nothing has read that column."""
    memo = scan._columns
    if memo is None or memo[0] is not data:
        # Rows installed by hand, not by bind_plan: a memo of the scan's
        # own, with no table to memoize builds on.
        memo = scan._columns = (data, [None] * scan.arity, None)
    vectors = memo[1]
    for column in columns:
        if vectors[column] is None:
            vectors[column] = list(map(itemgetter(column), data))
    return vectors


#: Comparison operator -> the same comparison with its operands swapped.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: ``column op k`` -> the bisections narrowing ``(lo, hi)`` over the sorted
#: keys to the rows where it holds: one for ``lo``, one for ``hi``.
_BOUNDS = {
    "=": (bisect_left, bisect_right),
    "<": (None, bisect_left),
    "<=": (None, bisect_right),
    ">": (bisect_right, None),
    ">=": (bisect_left, None),
}

#: The largest share of a table's rows an interval may hold for the kernel
#: to run over it instead of over the whole table: past it, picking the
#: rows out and back into table order costs more than the comparisons it
#: saves (docs/BENCHMARKS.md, "Sorted column indexes").
_INDEX_SHARE = 0.125


def _index_run(conjuncts) -> Tuple[Optional[int], list]:
    """``(column, run)``: the leading conjuncts that compare one column of
    the scanned row with a non-NULL literal or an outer-row reference, as
    ``(op, depth, value)`` with the column on the left: ``depth`` 0 for a
    literal ``value``, else the depth of the outer row whose column
    ``value`` is the operand."""
    column, run = None, []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ComparePred) or conjunct.op not in _FLIPPED:
            break
        op, local, other = conjunct.op, conjunct.left, conjunct.right
        if not (isinstance(local, ColumnRef) and local.depth == 0):
            op, local, other = _FLIPPED[op], other, local
        if not (isinstance(local, ColumnRef) and local.depth == 0):
            break
        if column is not None and local.index != column:
            break
        if isinstance(other, LiteralExpr) and other.value is not None:
            run.append((op, 0, other.value))
        elif isinstance(other, ColumnRef) and other.depth > 0:
            run.append((op, other.depth, other.index))
        else:
            break
        column = local.index
    return column, run


def _sorted_index(vector: Sequence) -> tuple:
    """``(type, positions, keys, nulls)`` for a column whose non-NULL values
    are all ints or all strings: the positions of its non-NULL values in
    ``array('i')``, stably sorted by value, their values in that order
    (``array('q')``, or a tuple for strings and ints past 64 bits), and the
    NULL positions.  ``()`` for any other column."""
    kinds = set(map(type, vector))
    kinds.discard(type(None))
    if kinds != {int} and kinds != {str}:
        return ()
    (kind,) = kinds
    positions = [i for i, value in enumerate(vector) if value is not None]
    nulls = array("i", [i for i, value in enumerate(vector) if value is None])
    positions.sort(key=vector.__getitem__)
    keys = list(map(vector.__getitem__, positions))
    try:
        keys = array("q", keys) if kind is int else tuple(keys)
    except OverflowError:
        keys = tuple(keys)
    return kind, array("i", positions), keys, nulls


def _interval(index: tuple, run: list, outers: OuterStack) -> Optional[Tuple[int, int]]:
    """``(lo, hi)``: the slice of ``index``'s sorted keys on which every
    comparison of ``run`` holds — None when an operand is NULL or not of
    the column's type."""
    kind, _positions, keys, _nulls = index
    lo, hi = 0, len(keys)
    for op, depth, value in run:
        if depth:
            value = outers[-depth][value]
        if type(value) is not kind:
            return None
        low, high = _BOUNDS[op]
        if low is not None:
            lo = low(keys, value, lo, hi)
        if high is not None:
            hi = high(keys, value, lo, hi)
    return lo, hi


def _table_order(positions, lo: int, hi: int, nulls) -> List[int]:
    """The positions ``positions[lo:hi]`` plus ``nulls``, in table order."""
    return sorted(chain(positions[lo:hi], nulls))


def _index_lookup(
    scan: TableScan, data, column: int, run: list, nulls_too: bool, outers
) -> Optional[List[int]]:
    """The positions, in table order, of the rows of ``data`` a scan with
    ``run`` leading its predicate must evaluate — with the NULL rows of
    ``column`` when ``nulls_too`` — or None when the table's sorted index
    of ``column`` cannot serve the run or leaves too many rows to pay."""
    memo = scan._columns
    if memo is None or memo[2] is None or memo[0] is not data:
        return None  # rows installed by hand: no table to keep an index on
    index = _resident(
        scan, ("sorted", column),
        lambda: _sorted_index(_scan_vectors(scan, data, (column,))[column]),
    )
    if not index:
        return None
    bounds = _interval(index, run, outers)
    if bounds is None:
        return None
    lo, hi = bounds
    nulls = index[3] if nulls_too else ()
    if hi - lo + len(nulls) > len(data) * _INDEX_SHARE:
        return None
    return _table_order(index[1], lo, hi, nulls)


def _compile_scan_kernel(node: FilterOp, folded, stats: ScanKernelStats):
    """Lower ``σ_folded(TableScan)`` to a scan kernel, as :func:`_split_filter`
    returns it: the kernel's row iterator plus what is left to test on each
    row it yields — nothing when the whole predicate fused, the whole
    predicate when only its leading conjuncts did.  None when no leading
    conjunct fuses."""
    conjuncts = _conjuncts(folded)
    lead = 0
    while lead < len(conjuncts) and not _probe_segments(conjuncts[lead]):
        lead += 1
    if not lead:
        return None
    whole = lead == len(conjuncts)
    prefix = folded
    if not whole:
        prefix = conjuncts[0]
        for conjunct in conjuncts[1:lead]:
            prefix = AndPred(prefix, conjunct)
    fused = _compile_fused(prefix, keep_unknown=not whole)
    if fused is None:
        return None
    kernel, columns = fused
    scan = node.child
    scan_rows = _rows_fn(scan, stats)
    indexed, run = _index_run(conjuncts[:lead])
    nulls_too = len(run) < len(conjuncts)
    # What the caller still has to test on the rows it is handed: after a
    # prefix kernel, the full predicate.
    residual = None if whole else _compile_folded(folded, stats)
    row_pred = residual

    def replay(rows, outers):
        # A whole-predicate kernel compiles its row-wise twin on the first
        # fallback only: a single-use plan pays for one code generation.
        nonlocal row_pred
        if row_pred is None:
            row_pred = _compile_folded(folded, stats)
        p = row_pred
        return (row for row in rows if p(row, outers) is True)

    def batches(data, outers, vectors=None):
        stats.selections += 1
        if vectors is None:
            vectors = _scan_vectors(scan, data, columns)
        rows = iter(data)
        cursors = {column: iter(vectors[column]) for column in columns}
        start, size, total = 0, _SCAN_BATCH, len(data)
        while True:
            last = total - start <= size * _SCAN_BATCH_GROWTH
            try:
                # zip() stops at its first exhausted argument, so bounding
                # the rows bounds the batch: no cursor runs ahead.
                kept = kernel(rows if last else islice(rows, size), cursors, outers)
            except _FALLBACK_ERRORS:
                stats.fallbacks += 1
                rest = islice(data, start, None)
                yield replay(rest, outers) if whole else rest
                return
            stats.rows_in += total - start if last else size
            stats.rows_out += len(kept)
            yield kept
            if last:
                return
            start += size
            size *= _SCAN_BATCH_GROWTH

    def scan_kernel(outers):
        data = scan_rows(outers)
        if run:
            picked = _index_lookup(scan, data, indexed, run, nulls_too, outers)
            if picked is not None:
                stats.lookups += 1
                data = list(map(data.__getitem__, picked))
                # Lazy column cursors over the picked rows, drawn in step
                # with them by the kernel's zip.
                vectors = {c: map(itemgetter(c), data) for c in columns}
                return chain.from_iterable(batches(data, outers, vectors))
        return chain.from_iterable(batches(data, outers))

    return scan_kernel, residual


def _probes_lowered(pred):
    """``pred`` itself, evaluated by its own ``__call__``, with each subquery
    probe inside it swapped for its codegen-off closure."""
    kind = type(pred)
    if kind is ComparePred or kind is IsNullPred or kind is ConstPred:
        return pred
    if kind is AndPred or kind is OrPred:
        left, right = _probes_lowered(pred.left), _probes_lowered(pred.right)
        if left is pred.left and right is pred.right:
            return pred
        return kind(left, right)
    if kind is NotPred:
        operand = _probes_lowered(pred.operand)
        return pred if operand is pred.operand else NotPred(operand)
    return _compile_subpred(pred, None)


def _split_filter(node: PlanNode, stats: _Stats):
    """Peel a FilterOp for fusion: ``(compiled input, predicate | ConstPred
    | None)`` — the rows to draw from and what is left to test on each.
    Under codegen the predicate is generated, and a filter over a
    base-table scan draws from its scan kernel."""
    if not isinstance(node, FilterOp):
        return _iter_fn(node, stats), None
    if stats is None:
        return _iter_fn(node.child, None), _probes_lowered(node.predicate)
    folded = _fold_predicate(node.predicate)
    if isinstance(node.child, TableScan) and not isinstance(folded, ConstPred):
        lowered = _compile_scan_kernel(node, folded, stats)
        if lowered is not None:
            return lowered
    return _iter_fn(node.child, stats), _compile_folded(folded, stats)


def _compile_filter(node: FilterOp, stats: _Stats) -> IterFn:
    child_iter, pred = _split_filter(node, stats)
    if pred is None:
        return child_iter
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


def _compile_project(node: ProjectOp, stats: _Stats) -> IterFn:
    child_iter, pred = _split_filter(node.child, stats)
    if isinstance(pred, ConstPred):
        if pred.value is True:
            pred = None
        else:
            return _drained(child_iter)
    indices = column_indices(node.expressions)
    if pred is None:
        if indices:
            getter = itemgetter(*indices)
            if len(indices) > 1:
                return lambda outers: map(getter, child_iter(outers))
            # One column: zip() wraps each value into its 1-tuple.
            return lambda outers: zip(map(getter, child_iter(outers)))
        row_fn = _row_fn(node.expressions, stats)

        def project_iter(outers):
            build = row_fn
            for row in child_iter(outers):
                yield build(row, outers)

        return project_iter
    row_fn = _row_fn(node.expressions, stats)

    def filter_project_iter(outers):
        p = pred
        build = row_fn
        for row in child_iter(outers):
            if p(row, outers) is True:
                yield build(row, outers)

    return filter_project_iter


def _compile_distinct(node: DistinctOp, stats: _Stats) -> IterFn:
    child_iter = _iter_fn(node.child, stats)

    def distinct_iter(outers):
        seen = set()
        add = seen.add
        for row in child_iter(outers):
            if row not in seen:
                add(row)
                yield row

    return distinct_iter


def _compile_remap(node: RemapOp, stats: _Stats) -> IterFn:
    child_iter = _iter_fn(node.child, stats)
    getter = itemgetter(*node.mapping)
    if len(node.mapping) > 1:
        return lambda outers: map(getter, child_iter(outers))
    # One column: zip() wraps each value into its 1-tuple.
    return lambda outers: zip(map(getter, child_iter(outers)))


def _product_rows(materialized: List[Sequence[Row]]) -> Iterator[Row]:
    for combo in _iter_product(*materialized):
        row = combo[0]
        for part in combo[1:]:
            row = row + part
        yield row


def _compile_cross_join(node: CrossJoin, stats: _Stats) -> IterFn:
    children_rows = [_rows_fn(child, stats) for child in node.children]

    def cross_iter(outers):
        # Children materialize in order with an early empty-out: a later
        # child is never touched once an earlier one came up empty.
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


def _compile_hash_join(node: HashJoin, stats: _Stats) -> IterFn:
    """The right child materializes through its compiled ``rows`` function
    into the node's own build kernel and probe loop — and the table lives
    on the node (``_table`` / ``_closed_build``), so the binding layer's
    reset/harvest/restore walks govern compiled execution unchanged."""
    left_iter = _iter_fn(node.left, stats)
    right_rows = _rows_fn(node.right, stats)

    def hash_join_iter(outers):
        table = node.build_table(outers, right_rows)
        if not table:
            return iter(())
        return node.probe(table, left_iter(outers))

    return hash_join_iter


def _compile_generic_join(node: GenericJoin, stats: _Stats) -> IterFn:
    """Native lowering of the worst-case-optimal join: children materialize
    through their compiled ``rows`` functions, while trie construction and
    leapfrog enumeration reuse the node's own methods, exactly like the
    hash-join build side."""
    children_rows = [_rows_fn(child, stats) for child in node.children]

    def generic_join_iter(outers):
        tries = node.build_tries(outers, children_rows)
        if any(not trie for trie in tries):
            return iter(())
        return node._solve(0, list(tries))

    return generic_join_iter


def _compile_hash_setop(node: HashSetOp, stats: _Stats) -> IterFn:
    left_iter = _iter_fn(node.left, stats)
    right_iter = _iter_fn(node.right, stats)
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


def _compile_setop_counted(node: SetOpNode, stats: _Stats) -> IterFn:
    """The naive counted-multiset set operation (``optimize=False`` plans):
    compiled children, same count-both-sides-and-re-expand algorithm."""
    left_iter = _iter_fn(node.left, stats)
    right_iter = _iter_fn(node.right, stats)
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


def _rows_fn(node: PlanNode, stats: _Stats) -> RowsFn:
    """The materialized rows of ``node``: scans and cached subplans hand
    out their stored lists; everything else materializes a fresh list
    from the compiled iterator."""
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
        child_rows = _rows_fn(node.child, stats)

        def cached_rows(outers):
            rows = node._cache
            if rows is None:
                # The child is closed, so the outer stack is irrelevant.
                rows = node._cache = child_rows(())
            return rows

        return cached_rows
    if isinstance(node, MemoSubplan):
        child_rows = _rows_fn(node.child, stats)
        memo_refs = node.memo_refs

        def memo_rows(outers):
            memo = node._memo
            key = tuple(outers[-d][i] for d, i in memo_refs)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = child_rows(outers)
            return rows

        return memo_rows
    iter_fn = _iter_fn(node, stats)
    return lambda outers: list(iter_fn(outers))


# -- dispatcher ---------------------------------------------------------------


def _iter_fn(node: PlanNode, stats: _Stats) -> IterFn:
    """The lowered iterator of ``node``.  ``stats`` is where its scan
    kernels count, or None for a lowering without codegen (which runs no
    scan kernel, so has nothing to count)."""
    if isinstance(node, (TableScan, StaticScan, CachedSubplan, MemoSubplan)):
        rows_fn = _rows_fn(node, stats)
        return lambda outers: iter(rows_fn(outers))
    if isinstance(node, ProjectOp):
        return _compile_project(node, stats)
    if isinstance(node, FilterOp):
        return _compile_filter(node, stats)
    if isinstance(node, HashJoin):
        return _compile_hash_join(node, stats)
    if isinstance(node, GenericJoin):
        return _compile_generic_join(node, stats)
    if isinstance(node, CrossJoin):
        return _compile_cross_join(node, stats)
    if isinstance(node, DistinctOp):
        return _compile_distinct(node, stats)
    if isinstance(node, RemapOp):
        return _compile_remap(node, stats)
    if isinstance(node, HashSetOp):
        return _compile_hash_setop(node, stats)
    if isinstance(node, SetOpNode):
        return _compile_setop_counted(node, stats)
    raise TypeError(f"no lowering for plan node {type(node).__name__}")


def compile_plan(
    plan: PlanNode, stats: Optional[ScanKernelStats] = None, codegen: bool = True
) -> IterFn:
    """Lower a physical plan into its closure tree.

    Call the result with the outer-row stack (``()`` at the top level) to
    iterate the plan's rows.  The plan node tree stays the carrier of all
    mutable execution state, so :func:`~repro.engine.binding.bind_plan` /
    :func:`~repro.engine.binding.unbind_plan` round-trip lowered plans:
    compile once, bind/execute/unbind many.  ``codegen`` generates the
    predicates and scan kernels (module docstring); ``stats`` is where the
    plan's scan kernels count what they do (the engine passes its own;
    without one the counts go nowhere).
    """
    return _iter_fn(plan, (stats or ScanKernelStats()) if codegen else None)
