"""The engine's one executor, as the tests drive it.

* :func:`run_rows` — a plan node's rows, in emission order, through
  :func:`repro.engine.compile_plan` (what ``Engine`` runs too).
* :func:`generated_code` — whether a lowered plan runs generated code.
* :class:`CodegenOffEngine` — the codegen-off leg: the closures over the
  predicate objects themselves, with no generated predicate and no scan
  kernel.  It is the row-wise reference that generated code is checked
  against, emission order and error messages included.
"""

from __future__ import annotations

from repro.engine import DIALECT_POSTGRES, Engine, compile_plan
from repro.engine import engine as engine_module


def run_rows(node, outers=(), codegen=True):
    """``node``'s rows under the outer-row stack ``outers``, lowered by
    :func:`~repro.engine.compile_plan` (with generated code unless
    ``codegen`` is false) and iterated to the end."""
    return list(compile_plan(node, codegen=codegen)(outers))


def generated_code(run) -> bool:
    """Whether the closure tree ``run`` (``CompiledQuery.run``) holds a
    generated function: a predicate, a row builder or a scan kernel."""
    stack, seen = [run], set()
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
