"""Independent reference engine (the PostgreSQL/Oracle stand-in of Section 4).

``Engine(schema, dialect)`` optimizes by default (pushdown, hash joins,
cached subquery probes) and runs every plan through one executor, the
closures of :func:`~repro.engine.compile.compile_plan`.  Two tiers share
it and are digest-gated bit-identical:

* the default, optimized tier, where code generation is a per-plan
  decision: plans admitted to the plan cache, and single-use plans
  (``plan_cache_size=0``) whose scans bind at least the measured
  break-even ``engine.SINGLE_USE_COMPILE_ROWS`` rows, get generated
  predicates, and a filter over a base-table scan runs as a *scan kernel*
  — one fused comprehension over the table's memoized column vectors,
  replayed row-wise on a type clash (``Engine.cache_info()["scan_kernels"]``
  counts both); smaller single-use plans keep their predicate objects;
* ``Engine(schema, dialect, optimize=False)`` — the paper's naive
  product-then-filter evaluation, never with generated code.
"""

from .binding import bind_plan, reset_plan
from .compile import compile_plan, compile_predicate
from .engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from .optimizer import optimize_plan
from .planner import CompiledQuery, Planner

__all__ = [
    "Engine",
    "Planner",
    "CompiledQuery",
    "optimize_plan",
    "compile_plan",
    "compile_predicate",
    "bind_plan",
    "reset_plan",
    "DIALECT_POSTGRES",
    "DIALECT_ORACLE",
]
