"""The engine's one executor, as the tests drive it.

* :func:`lowered` / :func:`run_rows` — a plan node lowered by
  :func:`repro.engine.compile_plan`, and its rows, in emission order, from
  one run of it (what ``Engine`` runs too).
* :func:`generated_functions` / :func:`generated_code` — the generated
  functions a lowered plan holds (scan kernels are the only kind).
* :class:`CodegenOffEngine` — the codegen-off leg: every filter tests its
  rows through the predicate closures, with no scan kernel.  It is the
  row-wise reference that the kernels are checked against, emission order
  and error messages included.
"""

from __future__ import annotations

from repro.engine import CompiledQuery, DIALECT_POSTGRES, Engine, compile_plan
from repro.engine import engine as engine_module


def lowered(node, kernels=True) -> CompiledQuery:
    """``node`` lowered by :func:`~repro.engine.compile_plan` (with scan
    kernels unless ``kernels`` is false), ready to ``run``."""
    root, slots = compile_plan(node, kernels=kernels)
    return CompiledQuery(node, (), root, slots)


def run_rows(node, outers=(), kernels=True, db=None):
    """``node``'s rows over the database ``db`` (needed by plans that scan
    base tables) under the outer rows ``outers``, in one run of
    :func:`lowered` iterated to the end."""
    return list(lowered(node, kernels).run(db, outers))


def generated_functions(compiled) -> list:
    """The names of the generated functions the closure tree of ``compiled``
    (a lowered ``CompiledQuery``) holds, one entry per function: everything
    its closures reach through their cells, tuples of closures included."""
    stack, seen, names = [compiled.root], set(), []
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        if isinstance(fn, tuple):
            stack.extend(fn)
            continue
        code = getattr(fn, "__code__", None)
        if code is None:
            continue
        if code.co_filename == "<repro-compiled>":
            names.append(code.co_name)
        for cell in fn.__closure__ or ():
            stack.append(cell.cell_contents)
    return names


def generated_code(compiled) -> bool:
    """Whether the closure tree of ``compiled`` holds a generated function."""
    return bool(generated_functions(compiled))


class CodegenOffEngine(Engine):
    """A ``plan_cache_size=0`` engine that plans with
    ``engine.SINGLE_USE_COMPILE_ROWS`` raised past any bound rows, so every
    plan it runs is lowered without generated code, whatever its size."""

    def __init__(self, schema, dialect=DIALECT_POSTGRES, **kwargs):
        kwargs["plan_cache_size"] = 0
        super().__init__(schema, dialect, **kwargs)

    def _compile(self, query):
        saved = engine_module.SINGLE_USE_COMPILE_ROWS
        engine_module.SINGLE_USE_COMPILE_ROWS = float("inf")
        try:
            return super()._compile(query)
        finally:
            engine_module.SINGLE_USE_COMPILE_ROWS = saved
