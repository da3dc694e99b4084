"""The engine's one executor, as the tests drive it.

* :func:`lowered` / :func:`run_rows` — a plan node lowered by
  :func:`repro.engine.compile_plan`, and its rows, in emission order, from
  one run of it (what ``Engine`` runs too).
* :func:`generated_code` — whether a lowered plan runs generated code.
* :class:`CodegenOffEngine` — the codegen-off leg: the closures over the
  predicate objects themselves, with no generated predicate and no scan
  kernel.  It is the row-wise reference that generated code is checked
  against, emission order and error messages included.
"""

from __future__ import annotations

from repro.engine import CompiledQuery, DIALECT_POSTGRES, Engine, compile_plan
from repro.engine import engine as engine_module


def lowered(node, codegen=True) -> CompiledQuery:
    """``node`` lowered by :func:`~repro.engine.compile_plan` (with generated
    code unless ``codegen`` is false), ready to ``run``."""
    root, slots = compile_plan(node, codegen=codegen)
    return CompiledQuery(node, (), root, slots)


def run_rows(node, outers=(), codegen=True, db=None):
    """``node``'s rows over the database ``db`` (needed by plans that scan
    base tables) under the outer rows ``outers``, in one run of
    :func:`lowered` iterated to the end."""
    return list(lowered(node, codegen).run(db, outers))


def generated_code(compiled) -> bool:
    """Whether the closure tree of ``compiled`` (a lowered
    ``CompiledQuery``) holds a generated function: a predicate, a row
    builder or a scan kernel."""
    stack, seen = [compiled.root], set()
    while stack:
        fn = stack.pop()
        code = getattr(fn, "__code__", None)
        if code is None or id(fn) in seen:
            continue
        seen.add(id(fn))
        if code.co_filename == "<repro-compiled>":
            return True
        for cell in fn.__closure__ or ():
            stack.append(cell.cell_contents)
    return False


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
