"""The executor: every physical plan runs as nested Python closures.

:func:`compile_plan` lowers a plan (optimized or naive) once into a tree
of closures, each capturing its children's lowered iterators directly, so
executions pay no per-node dispatch: scans iterate their table's rows, a
projection of plain columns becomes a C-level ``map(itemgetter(...),
child)``, and ``Filter``+``Project`` pairs fuse into one generator frame.

A lowered plan is a function of the database and the outer rows, as a
query is in the paper's semantics (⟦Q⟧ under a database and an
environment of outer names).  An execution is one :class:`Run` record at
the root of the outer stack, ``outers[0]``; column references index the
stack from its end (``o[-d]``), so they never see it.  The run holds the
database its scans read and one *state slot* per stateful site the
lowering numbered: the table each scan resolved (once per run, however
often a correlated subplan calls the scan), ``CachedSubplan`` and
``MemoSubplan`` materializations, closed ``HashJoin`` tables, the trie
of each closed ``GenericJoin`` child, ``ExistsProbe`` booleans and memos,
``InPred`` memos and ``SemiJoinProbe`` builds.  Plan nodes hold none of
it, so one plan runs over any number of databases, one after another or at
once, and pins no database rows between runs.  Every closed build goes
through one build site (:func:`_build_site`): a build over a bare
base-table scan — a hash-join table, a generic-join child's trie, a probe
set — is memoized on the scanned table, and any other is shared across
runs through the engine's :class:`~repro.engine.binding.BuildSideCache`.

Every predicate, in every plan, runs as **composed closures** ``(row,
outers) -> truth`` (:func:`_pred_fn`), built once at lowering from the
predicate tree after exact constant folding (:func:`_fold_predicate`): one
closure per connective and comparison over the comparison helpers of
:mod:`repro.engine.expressions`, with Kleene 3VL evaluated left to right —
an AND runs its right side unless its left side is FALSE, an OR unless it
is TRUE — and subquery probes lowered to their own closures.  A ``column op
literal`` comparison, and an AND whose left side is one, are the only
specialized shapes.  Projected rows and probe values are built the same way;
a projection of plain columns is a C-level ``map(itemgetter(...))`` over its
lowered child.

The only generated code is the *scan kernel*, a per-plan decision
(``kernels``, set by ``Engine._compile`` for plans that are reused or read
at least ``SINGLE_USE_COMPILE_ROWS`` rows): a filter over a base-table scan
runs the leading probe-free conjuncts of its predicate as one fused
comprehension over the table's column vectors, in lazily chained batches,
with an exact row-wise replay through the closures when a batch hits a type
clash, and over only the rows a sorted column index bisects to when the
predicate opens with comparisons that keep few (see the "scan kernels"
section below).  The closures are the row-wise reference the kernels are
held to: evaluation order, 3VL short-circuits, streaming/early-termination
points, materialization order and raised errors are the same with and
without kernels (verified by ``tests/properties/test_compiled_equivalence.py``
and the digest gate of ``scripts/bench.py --stages
engine_compiled,engine_interpreted``).
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
from ..core.values import Null
from .binding import _carrier_kind, _Fingerprint, _subtree_tables, share_signature
from .expressions import (
    _OP_HELPERS,
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
    _like_match,
    column_indices,
    not3,
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
    _in_fold,
)

__all__ = [
    "compile_plan",
    "compile_predicate",
    "Run",
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


class Run:
    """One execution of a lowered plan, at the root of its outer stack.

    ``db`` is the database its scans read; ``slots`` holds one state per
    stateful site the lowering numbered, None until the site first fills
    it; ``cache`` is the build-side cache its signed builds consult (None:
    builds are shared through table memos only); and ``owner`` is the
    plan's serial, by which the cache counts cross-plan hits."""

    __slots__ = ("db", "slots", "cache", "owner")

    def __init__(self, db, slots: list, cache=None, owner: Optional[int] = None):
        self.db = db
        self.slots = slots
        self.cache = cache
        self.owner = owner


class _Lowering:
    """What one :func:`compile_plan` call shares across its closures:
    ``stats``, where its scan kernels count (None for a lowering without
    kernels), and ``slots``, how many run slots it has numbered."""

    __slots__ = ("stats", "slots", "_scans")

    def __init__(self, stats: Optional[ScanKernelStats]):
        self.stats = stats
        self.slots = 0
        #: id of a lowered TableScan -> its slot, so that every closure
        #: over one scan resolves its table once per run.
        self._scans: Dict[int, int] = {}

    def slot(self) -> int:
        self.slots += 1
        return self.slots - 1

    def scan_slot(self, scan: TableScan) -> int:
        slot = self._scans.get(id(scan))
        if slot is None:
            slot = self._scans[id(scan)] = self.slot()
        return slot


#: Total comparisons: can never raise, so literal operands fold exactly.
_TOTAL_OPS = ("=", "<>")

#: Generated source -> code object, for the scan kernels.  A kernel's source
#: spells out only its *shape* — its 3VL structure, its comparison operators
#: and which operands are columns, outer references or literals — and names
#: column positions ``_iN`` and literals ``_kN`` positionally, so the same
#: filter over a new literal or another column reuses one compilation; query
#: generators and re-bound prepared statements repeat shapes constantly.
_CODE_CACHE: Dict[str, object] = {}

#: Shapes, not literals, populate the cache, so the bound can be small.
#: Workloads are a head of recurring shapes plus a tail no size catches:
#: 1,850 queries of the live-campaign generator over a 10,000-row library
#: scenario compile 261 kernel shapes, 144 of them exactly once.  At ~2.5 KB
#: resident per entry 1,024 entries hold the head within 3 MB.
_CODE_CACHE_MAX = 1024

#: ``hash(source)`` of the sources compiled once so far: a shape enters the
#: cache the *second* time it is compiled.  A one-off's code object is
#: garbage as soon as its single-use plan is, unless the cache pins it, and
#: most shapes of a generated query stream are one-offs (the kernels spell
#: their comparison operators out: an inline ``c0 < _k1`` is the point of
#: them).  Recurring shapes pay one extra compilation each, once per
#: process.  Bounded like the cache, oldest first.
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
    kind = type(pred)
    if kind is ComparePred:
        if (
            pred.op in _TOTAL_OPS
            and type(pred.left) is LiteralExpr
            and type(pred.right) is LiteralExpr
        ):
            return ConstPred(_OP_HELPERS[pred.op](pred.left.value, pred.right.value))
        return pred
    if kind is AndPred:
        left = _fold_predicate(pred.left)
        right = _fold_predicate(pred.right)
        if type(left) is ConstPred:
            if left.value is False:
                return ConstPred(False)
            if left.value is True:
                return right
            # left is UNKNOWN: and3(None, b) is False iff b is False,
            # else None — still needs the right side (which may raise).
            if type(right) is ConstPred:
                return ConstPred(False if right.value is False else None)
        if type(right) is ConstPred and right.value is True:
            return left  # and3(a, True) == a for every a
        if left is pred.left and right is pred.right:
            return pred
        return AndPred(left, right)
    if kind is OrPred:
        left = _fold_predicate(pred.left)
        right = _fold_predicate(pred.right)
        if type(left) is ConstPred:
            if left.value is True:
                return ConstPred(True)
            if left.value is False:
                return right  # or3(False, b) == b for every b
            if type(right) is ConstPred:
                return ConstPred(True if right.value is True else None)
        if type(right) is ConstPred and right.value is False:
            return left  # or3(a, False) == a for every a
        if left is pred.left and right is pred.right:
            return pred
        return OrPred(left, right)
    if kind is NotPred:
        operand = _fold_predicate(pred.operand)
        if type(operand) is ConstPred:
            return ConstPred(not3(operand.value))
        if operand is pred.operand:
            return pred
        return NotPred(operand)
    if kind is IsNullPred and type(pred.expr) is LiteralExpr:
        return ConstPred((pred.expr.value is None) is not pred.negated)
    return pred


# -- predicate lowering -------------------------------------------------------
#
# A folded predicate tree becomes one closure per node, ``(row, outers) ->
# truth``, composed at lowering: connectives over their operands' closures,
# comparisons over the helpers of ``expressions._OP_HELPERS``, subquery
# probes over their own closures (:func:`_compile_subpred`).  Nothing is
# dispatched per row.


def _expr_fn(expr):
    """A row expression as a closure ``(row, outers) -> value``."""
    kind = type(expr)
    if kind is ColumnRef:
        index, depth = expr.index, expr.depth
        if depth == 0:
            return lambda r, o: r[index]
        return lambda r, o: o[-depth][index]
    if kind is LiteralExpr:
        value = expr.value
        return lambda r, o: value
    return expr  # opaque callable: invoked as-is


def _comparison(op: str):
    """The helper of comparison operator ``op``.  An operator without one
    still compares to UNKNOWN when an operand is NULL, and raises only when
    it is evaluated over two non-NULL operands."""
    helper = _OP_HELPERS.get(op)
    if helper is None:

        def helper(a, b):
            if a is None or b is None:
                return None
            raise CompileError(f"unknown comparison operator: {op}")

    return helper


def _leaf(pred):
    """``(holds, index, value)`` when ``pred`` is a ``column op literal``
    comparison over the current row — evaluated as ``holds(row[index],
    value)`` — else None."""
    if (
        type(pred) is ComparePred
        and type(pred.right) is LiteralExpr
        and type(pred.left) is ColumnRef
        and pred.left.depth == 0
    ):
        return _comparison(pred.op), pred.left.index, pred.right.value
    return None


def _and_fn(pred: AndPred, low: _Lowering):
    """3VL AND, left first: the right side runs unless the left side is
    FALSE — on left-UNKNOWN rows too, where only it can tell FALSE from
    UNKNOWN.  A ``column op literal`` left side (the residual of every
    prefix scan kernel) is evaluated inline."""
    leaf = _leaf(pred.left)
    left = None if leaf else _pred_fn(pred.left, low)
    right = _pred_fn(pred.right, low)
    if leaf:
        holds, index, value = leaf

        def and_leaf(r, o):
            a = holds(r[index], value)
            if a is False:
                return False
            b = right(r, o)
            if b is False:
                return False
            return None if a is None or b is None else True

        return and_leaf

    def and_(r, o):
        a = left(r, o)
        if a is False:
            return False
        b = right(r, o)
        if b is False:
            return False
        return None if a is None or b is None else True

    return and_


def _or_fn(pred: OrPred, low: _Lowering):
    """3VL OR, left first: the right side runs unless the left side is
    TRUE."""
    left = _pred_fn(pred.left, low)
    right = _pred_fn(pred.right, low)

    def or_(r, o):
        a = left(r, o)
        if a is True:
            return True
        b = right(r, o)
        if b is True:
            return True
        return None if a is None or b is None else False

    return or_


def _pred_fn(pred, low: _Lowering):
    """The closure ``(row, outers) -> truth`` of a folded predicate tree,
    its subquery probes' state numbered in ``low``."""
    kind = type(pred)
    if kind is ComparePred:
        leaf = _leaf(pred)
        if leaf:
            holds, index, value = leaf
            return lambda r, o: holds(r[index], value)
        holds = _comparison(pred.op)
        left, right = _expr_fn(pred.left), _expr_fn(pred.right)
        return lambda r, o: holds(left(r, o), right(r, o))
    if kind is AndPred:
        return _and_fn(pred, low)
    if kind is OrPred:
        return _or_fn(pred, low)
    if kind is NotPred:
        operand = _pred_fn(pred.operand, low)

        def not_(r, o):
            a = operand(r, o)
            return None if a is None else not a

        return not_
    if kind is IsNullPred:
        expr = _expr_fn(pred.expr)
        if pred.negated:
            return lambda r, o: expr(r, o) is not None
        return lambda r, o: expr(r, o) is None
    if kind is ConstPred:
        value = pred.value
        return lambda r, o: value
    return _compile_subpred(pred, low)


def compile_predicate(pred):
    """A predicate tree as its closure ``(row, outers) -> Optional[bool]``,
    after exact constant folding — how every filter of a lowered plan tests
    its rows.  A predicate holding a subquery runs as part of a plan
    (:func:`compile_plan`), whose run holds the subquery's state."""
    return _pred_fn(_fold_predicate(pred), _Lowering(None))


def _row_fn(exprs: Sequence[RowExpr]):
    """The closure ``(row, outers) -> tuple`` of a projection's output row,
    or of the probe values of an IN predicate."""
    indices = column_indices(exprs)
    if indices and len(indices) > 1:
        getter = itemgetter(*indices)
        return lambda r, o: getter(r)
    fns = tuple(map(_expr_fn, exprs))
    return lambda r, o: tuple([fn(r, o) for fn in fns])


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
# and ``C[i]`` the vector of column ``i``, aligned with ``R``.  The text is
# shape-keyed: literals and column positions are hoisted, so one
# compilation serves every literal and every column.
#
# The generated expression is evaluation-congruent with the row-wise
# closures, so a type clash raises on exactly the executions the row-wise
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
_FUSE_NAMESPACE = {"_LF": _like_match, "__builtins__": {"zip": zip}}


def _probe_segments(pred) -> int:
    """Count of row-wise segments (probes and opaque callables)."""
    if isinstance(pred, (AndPred, OrPred)):
        return _probe_segments(pred.left) + _probe_segments(pred.right)
    if isinstance(pred, NotPred):
        return _probe_segments(pred.operand)
    if isinstance(pred, (ConstPred, ComparePred, IsNullPred)):
        return 0
    return 1


class _FuseEmitter:
    """Operand bookkeeping for one fused selection comprehension.

    Every column position and literal the kernel reads gets a fresh
    positional name — never deduped by value: ``A = 1 AND B = 1`` and ``A =
    1 AND B = 2`` must generate the same text — bound as a default argument,
    so the source is value-independent while the operand is still read with
    a ``LOAD_FAST``."""

    def __init__(self):
        #: hoisted name -> value.
        self.constants: Dict[str, object] = {}
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

    def constant(self, value, prefix: str = "_k") -> str:
        name = f"{prefix}{len(self.constants)}"
        self.constants[name] = value
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
        return emitter.constant(expr.value), False
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
    params = ", ".join(["R, C, o", *(f"{k}={k}" for k in emitter.constants)])
    lines = [f"def _fsel({params}):"]
    lines.extend("    " + line for line in emitter.prelude)
    lines.append(f"    return {comp}")
    namespace = dict(_FUSE_NAMESPACE, **emitter.constants)
    exec(_compiled_code("\n".join(lines) + "\n"), namespace)
    # pop, not read: the kernel's globals are this namespace, and leaving
    # the kernel in it would make every kernel a reference cycle that only
    # the cyclic collector frees — single-use plans would then pile up until
    # the next full collection.
    return namespace.pop("_fsel"), tuple(emitter.columns)


# -- run state ----------------------------------------------------------------
#
# Every stateful site reads its slot of the run first — ``outers[0].slots[k]``
# — and calls into the helpers below only while the slot is still empty,
# once per run.


def _bound(table):
    """``table`` with the executor's memos of it started: its rows in the
    executor's value domain (NULL as None; a record with no NULL is the
    bag's own tuple) and its column-vector memo, one entry per column,
    None until a scan kernel first reads that column.
    Both are pure functions of the immutable table, memoized on it, so
    every run, plan and engine reading it converts it once, and the memos
    die with the database."""
    if table._scan_rows is None:
        table._scan_cols = [None] * len(table.columns)
        rows = list(table.bag)
        # One C-speed pass over the values' types: a NULL-free record is
        # shared with the bag as it is, and only a record holding NULL is
        # rebuilt.
        if Null in map(type, chain.from_iterable(rows)):
            rows = [
                record
                if Null not in map(type, record)
                else tuple(None if isinstance(v, Null) else v for v in record)
                for record in rows
            ]
        table._scan_rows = rows
    return table


def _scan_table(scan: TableScan, low: _Lowering) -> Callable[[OuterStack], object]:
    """The table ``scan`` reads in the current run, resolved in the run's
    database once per run — a correlated subplan calls its scans once per
    outer row.  Every closure over one scan shares its slot."""
    slot, name = low.scan_slot(scan), scan.table

    def table_of(outers):
        run = outers[0]
        table = run.slots[slot]
        if table is None:
            table = run.slots[slot] = _bound(run.db.table(name))
        return table

    return table_of


def _table_memo(table, signature: tuple, build: Callable[[], object]):
    """``build()`` memoized on ``table`` under ``signature``.  A closed
    build over a bare scan of the table is a pure function of it, like
    its rows and column vectors, so every run, plan and engine reading the
    table builds it once, and the memo dies with the database."""
    builds = table._scan_builds
    if builds is None:
        builds = table._scan_builds = {}
    value = builds.get(signature)
    if value is None:
        value = builds[signature] = build()
    return value


def _share_key(signature: str, tables: Tuple[str, ...], db) -> tuple:
    """The build-side cache key of a signed build in a run over ``db``: its
    signature and the content fingerprint of every table its subtree reads,
    memoized on the table beside its rows."""
    contents = []
    for name in tables:
        table = _bound(db.table(name))
        fingerprint = table._scan_fp
        if fingerprint is None:
            fingerprint = table._scan_fp = _Fingerprint(table._scan_rows)
        contents.append((name, fingerprint))
    return signature, tuple(contents)


def _build_site(low: _Lowering, carrier, subtree: PlanNode, build, resident=None):
    """The site of one closed build — a structure computed once per run by
    ``build(outers)`` from what ``subtree`` yields — as ``(slot, fill)``:
    the run slot the build lives in, and ``fill(outers)``, which finds or
    computes the build, puts it in the slot and returns it.

    * With ``resident`` — ``(scan, signature)`` for a build over a bare
      base-table scan — the build is memoized on the scanned table
      (:func:`_table_memo`).
    * Otherwise, when the run has a build-side cache, the cache is looked
      up the first time the run needs the build, under the site's
      signature (rendered the first time any run with a cache reaches it)
      and the fingerprints of the tables ``subtree`` reads; a miss stores
      the build as soon as it is computed.  A build the run never reaches
      costs no lookup, and a plan never run with a cache is never signed.
    """
    slot = low.slot()
    if resident is not None:
        scan, signature = resident
        table_of = _scan_table(scan, low)

        def fill_resident(outers):
            table = table_of(outers)
            value = outers[0].slots[slot] = _table_memo(
                table, signature, lambda: build(outers)
            )
            return value

        return slot, fill_resident
    kind = _carrier_kind(carrier)
    signed = None  # (signature, tables), once a run with a cache gets here

    def fill(outers):
        nonlocal signed
        run = outers[0]
        cache = run.cache
        if cache is None:
            value = build(outers)
        else:
            if signed is None:
                signed = share_signature(carrier, subtree), _subtree_tables(subtree)
            key = _share_key(*signed, run.db)
            value = cache.lookup(key, run.owner)
            if value is None:
                value = build(outers)
                cache.store(key, value, run.owner, kind)
        run.slots[slot] = value
        return value

    return slot, fill


def _new_memo(outers) -> dict:
    """The first state of a per-binding memo: empty."""
    return {}


def _nonempty(rows) -> bool:
    for _ in rows:
        return True
    return False


# -- subquery predicates ------------------------------------------------------


def _compile_subpred(pred, low: _Lowering):
    if isinstance(pred, ExistsProbe):
        return _compile_exists_probe(pred, low)
    if isinstance(pred, ExistsPred):
        return _compile_exists_pred(pred, low)
    if isinstance(pred, SemiJoinProbe):
        return _compile_semi_join_probe(pred, low)
    if isinstance(pred, InPred):
        return _compile_in_pred(pred, low)
    return pred  # opaque callable: invoked as-is


def _compile_exists_pred(pred: ExistsPred, low: _Lowering):
    sub_rows = _rows_fn(pred.subplan, low)

    def exists_naive(r, o):
        return bool(sub_rows(o + (r,)))

    return exists_naive


def _compile_exists_probe(pred: ExistsProbe, low: _Lowering):
    sub_iter = _iter_fn(pred.subplan, low)
    if pred.closed:
        # A closed subplan reads no outer row: the run alone is its stack.
        slot, fill = _build_site(
            low, pred, pred.subplan, lambda outers: _nonempty(sub_iter(outers[:1]))
        )

        def exists_closed(r, o):
            known = o[0].slots[slot]
            if known is None:
                known = fill(o)
            return known

        return exists_closed
    refs = pred._refs
    if refs is None:
        return lambda r, o: _nonempty(sub_iter(o + (r,)))
    slot, fill = _build_site(low, pred, pred.subplan, _new_memo)

    def exists_memo(r, o):
        memo = o[0].slots[slot]
        if memo is None:
            memo = fill(o)
        key = tuple(r[i] if d == 0 else o[-d][i] for d, i in refs)
        result = memo.get(key)
        if result is None:
            result = memo[key] = _nonempty(sub_iter(o + (r,)))
        return result

    return exists_memo


def _compile_in_pred(pred: InPred, low: _Lowering):
    sub_rows = _rows_fn(pred.subplan, low)
    values_fn = _row_fn(pred.exprs)
    negated = pred.negated
    refs = pred._refs

    if refs is None:

        def rows_for(r, o):
            return sub_rows(o + (r,))

    else:
        slot, fill = _build_site(low, pred, pred.subplan, _new_memo)

        def rows_for(r, o):
            memo = o[0].slots[slot]
            if memo is None:
                memo = fill(o)
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


def _probe_source(pred: SemiJoinProbe):
    """``(scan, signature)`` when ``pred``'s build is over a bare base-table
    scan — its subplan projects current-row columns of the scan
    (uncorrelated IN, and EXISTS/IN decorrelated with no remainder) or is
    the scan itself — else None."""
    subplan = pred.subplan
    indices = (
        column_indices(subplan.expressions) if isinstance(subplan, ProjectOp) else None
    )
    source = subplan.child if indices else subplan
    if not isinstance(source, TableScan):
        return None
    return source, ("probe", pred.key_width, len(pred.exprs), indices)


def _compile_semi_join_probe(pred: SemiJoinProbe, low: _Lowering):
    """The set-membership kernel behind uncorrelated IN and the decorrelated
    EXISTS/IN probes, against a build side made once per run."""
    sub_iter = _iter_fn(pred.subplan, low)
    negated = pred.negated
    slot, fill = _build_site(
        low,
        pred,
        pred.subplan,
        lambda outers: pred.index(sub_iter(outers[:1])),
        _probe_source(pred),
    )

    indices = column_indices(pred.exprs)
    if indices is not None and len(indices) == 1:
        # One probing-row column against a set of raw values: a subscript
        # and a set lookup (the set holds no NULL, so a NULL probe misses).
        (column,) = indices
        if pred.key_width:

            def exists_key(r, o):
                build = o[0].slots[slot]
                if build is None:
                    build = fill(o)
                return r[column] in build[0]

            return exists_key
        hit, miss = not negated, negated

        def in_column(r, o):
            build = o[0].slots[slot]
            if build is None:
                build = fill(o)
            value = r[column]
            if value in build[0]:
                return hit
            if build[1] or (value is None and build[0]):
                return None
            return miss

        return in_column
    lookup = pred.lookup
    values_fn = _row_fn(pred.exprs)

    def semi_join(r, o):
        build = o[0].slots[slot]
        if build is None:
            build = fill(o)
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
# pivoted on first touch, one column at a time, into the memo on the
# immutable ``Table`` (:func:`_bound`) — shared by every run and every plan
# that scans it, and never held by a plan.
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


def _scan_vectors(table, columns) -> List[Optional[list]]:
    """The per-column memo of ``table``'s rows with ``columns`` pivoted:
    ``vectors[i]`` is the list of every row's value in column ``i``, or
    None while nothing has read that column."""
    vectors = table._scan_cols
    for column in columns:
        if vectors[column] is None:
            vectors[column] = list(map(itemgetter(column), table._scan_rows))
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
    table, column: int, run: list, nulls_too: bool, outers
) -> Optional[List[int]]:
    """The positions, in table order, of the rows of ``table`` a scan with
    ``run`` leading its predicate must evaluate — with the NULL rows of
    ``column`` when ``nulls_too`` — or None when the table's sorted index
    of ``column`` cannot serve the run or leaves too many rows to pay."""
    index = _table_memo(
        table,
        ("sorted", column),
        lambda: _sorted_index(_scan_vectors(table, (column,))[column]),
    )
    if not index:
        return None
    bounds = _interval(index, run, outers)
    if bounds is None:
        return None
    lo, hi = bounds
    nulls = index[3] if nulls_too else ()
    if hi - lo + len(nulls) > len(table._scan_rows) * _INDEX_SHARE:
        return None
    return _table_order(index[1], lo, hi, nulls)


def _compile_scan_kernel(node: FilterOp, folded, low: _Lowering):
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
    stats = low.stats
    table_of = _scan_table(node.child, low)
    indexed, run = _index_run(conjuncts[:lead])
    nulls_too = len(run) < len(conjuncts)
    # The row-wise predicate: what a fallback replays, and what the caller
    # still has to test on the rows it is handed after a prefix kernel.
    row_pred = _pred_fn(folded, low)

    def replay(rows, outers):
        p = row_pred
        return (row for row in rows if p(row, outers) is True)

    def batches(data, outers, vectors=None, table=None):
        stats.selections += 1
        if vectors is None:
            vectors = _scan_vectors(table, columns)
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
        table = table_of(outers)
        data = table._scan_rows
        if run:
            picked = _index_lookup(table, indexed, run, nulls_too, outers)
            if picked is not None:
                stats.lookups += 1
                data = list(map(data.__getitem__, picked))
                # Lazy column cursors over the picked rows, drawn in step
                # with them by the kernel's zip.
                vectors = {c: map(itemgetter(c), data) for c in columns}
                return chain.from_iterable(batches(data, outers, vectors))
        return chain.from_iterable(batches(data, outers, table=table))

    return scan_kernel, None if whole else row_pred


def _split_filter(node: PlanNode, low: _Lowering):
    """Peel a FilterOp for fusion: ``(compiled input, predicate | ConstPred
    | None)`` — the rows to draw from and what is left to test on each,
    its folded predicate's closure or the constant it folded to.  Under
    kernels a filter over a base-table scan draws from its scan kernel."""
    if not isinstance(node, FilterOp):
        return _iter_fn(node, low), None
    folded = _fold_predicate(node.predicate)
    if isinstance(folded, ConstPred):
        return _iter_fn(node.child, low), folded
    if low.stats is not None and isinstance(node.child, TableScan):
        lowered = _compile_scan_kernel(node, folded, low)
        if lowered is not None:
            return lowered
    return _iter_fn(node.child, low), _pred_fn(folded, low)


def _filtered(child_iter: IterFn, pred) -> IterFn:
    """``child_iter``'s rows on which ``pred`` (as :func:`_split_filter`
    returns it) is TRUE."""
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


def _compile_filter(node: FilterOp, low: _Lowering) -> IterFn:
    return _filtered(*_split_filter(node, low))


def _compile_project(node: ProjectOp, low: _Lowering) -> IterFn:
    child_iter, pred = _split_filter(node.child, low)
    indices = column_indices(node.expressions)
    if indices:
        rows = _filtered(child_iter, pred)
        getter = itemgetter(*indices)
        if len(indices) > 1:
            return lambda outers: map(getter, rows(outers))
        # One column: zip() wraps each value into its 1-tuple.
        return lambda outers: zip(map(getter, rows(outers)))
    row_fn = _row_fn(node.expressions)
    if pred is None or isinstance(pred, ConstPred):
        rows = _filtered(child_iter, pred)

        def project_iter(outers):
            build = row_fn
            for row in rows(outers):
                yield build(row, outers)

        return project_iter

    def filter_project_iter(outers):
        p = pred
        build = row_fn
        for row in child_iter(outers):
            if p(row, outers) is True:
                yield build(row, outers)

    return filter_project_iter


def _compile_distinct(node: DistinctOp, low: _Lowering) -> IterFn:
    child_iter = _iter_fn(node.child, low)

    def distinct_iter(outers):
        seen = set()
        add = seen.add
        for row in child_iter(outers):
            if row not in seen:
                add(row)
                yield row

    return distinct_iter


def _compile_remap(node: RemapOp, low: _Lowering) -> IterFn:
    child_iter = _iter_fn(node.child, low)
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


def _compile_cross_join(node: CrossJoin, low: _Lowering) -> IterFn:
    children_rows = [_rows_fn(child, low) for child in node.children]

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


def _compile_hash_join(node: HashJoin, low: _Lowering) -> IterFn:
    """The right child materializes through its lowered ``rows`` function
    into the node's build kernel, and the left child streams through the
    node's probe.  A closed build is made once per run, at its build
    site."""
    left_iter = _iter_fn(node.left, low)
    right_rows = _rows_fn(node.right, low)

    def build(outers):
        return node._build(right_rows(outers))

    if node.right.free_refs() == frozenset():
        resident = None
        if isinstance(node.right, TableScan):
            resident = node.right, ("hash", node.right_keys)
        slot, fill = _build_site(low, node, node.right, build, resident)

        def table_of(outers):
            table = outers[0].slots[slot]
            return fill(outers) if table is None else table

    else:
        table_of = build

    def hash_join_iter(outers):
        table = table_of(outers)
        if not table:
            return iter(())
        return node.probe(table, left_iter(outers))

    return hash_join_iter


def _compile_generic_join(node: GenericJoin, low: _Lowering) -> IterFn:
    """Native lowering of the worst-case-optimal join: each child's trie
    comes from its own lowered trie function (:func:`_child_trie`), and
    the leapfrog enumeration is the node's own method."""
    tries_of = [_child_trie(node, child, low) for child in range(len(node.children))]

    def generic_join_iter(outers):
        tries = [trie_of(outers) for trie_of in tries_of]
        if not all(tries):
            return iter(())
        return node._solve(0, tries)

    return generic_join_iter


def _child_trie(node: GenericJoin, child: int, low: _Lowering) -> Callable:
    """The lowered trie of one child of ``node``: its lowered ``rows``
    through the node's per-child kernel.  A closed child's trie is built
    once per run at its own build site — on the table for a bare scan, in
    the build-side cache otherwise — even when a sibling is correlated; a
    bare scan binding no variable hands out its table's rows."""
    subtree = node.children[child]
    levels = node._child_cols[child]
    rows_fn = _rows_fn(subtree, low)
    is_scan = isinstance(subtree, TableScan)
    if is_scan and not levels:
        return rows_fn

    def build(outers):
        return node._build_trie(child, rows_fn(outers))

    if subtree.free_refs() != frozenset():
        return build
    resident = (subtree, ("trie", levels)) if is_scan else None
    slot, fill = _build_site(low, node, subtree, build, resident)

    def trie_of(outers):
        trie = outers[0].slots[slot]
        return fill(outers) if trie is None else trie

    return trie_of


def _compile_hash_setop(node: HashSetOp, low: _Lowering) -> IterFn:
    left_iter = _iter_fn(node.left, low)
    right_iter = _iter_fn(node.right, low)
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


def _compile_setop_counted(node: SetOpNode, low: _Lowering) -> IterFn:
    """The naive counted-multiset set operation (``optimize=False`` plans):
    compiled children, same count-both-sides-and-re-expand algorithm."""
    left_iter = _iter_fn(node.left, low)
    right_iter = _iter_fn(node.right, low)
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


def _rows_fn(node: PlanNode, low: _Lowering) -> RowsFn:
    """The materialized rows of ``node``: scans hand out their table's
    rows and cached subplans their run's materialization; everything else
    materializes a fresh list from the lowered iterator."""
    if isinstance(node, TableScan):
        table_of = _scan_table(node, low)
        return lambda outers: table_of(outers)._scan_rows
    if isinstance(node, StaticScan):
        data = node.data
        return lambda outers: data
    if isinstance(node, CachedSubplan):
        child_rows = _rows_fn(node.child, low)
        # The child is closed: the run alone is its outer stack.
        slot, fill = _build_site(
            low, node, node.child, lambda outers: child_rows(outers[:1])
        )

        def cached_rows(outers):
            rows = outers[0].slots[slot]
            return fill(outers) if rows is None else rows

        return cached_rows
    if isinstance(node, MemoSubplan):
        child_rows = _rows_fn(node.child, low)
        memo_refs = node.memo_refs
        slot, fill = _build_site(low, node, node.child, _new_memo)

        def memo_rows(outers):
            memo = outers[0].slots[slot]
            if memo is None:
                memo = fill(outers)
            key = tuple(outers[-d][i] for d, i in memo_refs)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = child_rows(outers)
            return rows

        return memo_rows
    iter_fn = _iter_fn(node, low)
    return lambda outers: list(iter_fn(outers))


# -- dispatcher ---------------------------------------------------------------


def _iter_fn(node: PlanNode, low: _Lowering) -> IterFn:
    """The lowered iterator of ``node``, its state numbered in ``low``."""
    if isinstance(node, (TableScan, StaticScan, CachedSubplan, MemoSubplan)):
        rows_fn = _rows_fn(node, low)
        return lambda outers: iter(rows_fn(outers))
    if isinstance(node, ProjectOp):
        return _compile_project(node, low)
    if isinstance(node, FilterOp):
        return _compile_filter(node, low)
    if isinstance(node, HashJoin):
        return _compile_hash_join(node, low)
    if isinstance(node, GenericJoin):
        return _compile_generic_join(node, low)
    if isinstance(node, CrossJoin):
        return _compile_cross_join(node, low)
    if isinstance(node, DistinctOp):
        return _compile_distinct(node, low)
    if isinstance(node, RemapOp):
        return _compile_remap(node, low)
    if isinstance(node, HashSetOp):
        return _compile_hash_setop(node, low)
    if isinstance(node, SetOpNode):
        return _compile_setop_counted(node, low)
    raise TypeError(f"no lowering for plan node {type(node).__name__}")


def compile_plan(
    plan: PlanNode,
    stats: Optional[ScanKernelStats] = None,
    kernels: bool = True,
) -> Tuple[IterFn, int]:
    """Lower a physical plan into its closure tree: ``(root, slots)``.

    ``root`` iterates the plan's rows when called with an outer stack whose
    root is a :class:`Run` holding ``slots`` state slots
    (:meth:`repro.engine.planner.CompiledQuery.run` makes one per
    execution).  ``kernels`` runs each filter over a base-table scan as a scan
    kernel where it can (module docstring); ``stats`` is where the plan's scan kernels count
    what they do (the engine passes its own; without one the counts go
    nowhere).
    """
    low = _Lowering((stats or ScanKernelStats()) if kernels else None)
    root = _iter_fn(plan, low)
    return root, low.slots
