"""Independent reference engine (the PostgreSQL/Oracle stand-in of Section 4).

``Engine(schema, dialect)`` optimizes by default (pushdown, hash joins,
cached subquery probes) and runs every plan through one executor, the
closures of :func:`~repro.engine.compile.compile_plan`.  Two tiers share
it and are digest-gated bit-identical:

* the default, optimized tier, where the one kind of generated code is a
  per-plan decision: in plans admitted to the plan cache, and in single-use
  plans (``plan_cache_size=0``) whose scans read at least the measured
  break-even ``engine.SINGLE_USE_COMPILE_ROWS`` rows, a filter over a
  base-table scan runs as a *scan kernel* — one fused comprehension over
  the table's memoized column vectors, replayed row-wise on a type clash
  (``Engine.cache_info()["scan_kernels"]`` counts both); every other filter
  tests its rows through predicate closures composed at lowering;
* ``Engine(schema, dialect, optimize=False)`` — the paper's naive
  product-then-filter evaluation, never with scan kernels.
"""

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
    "DIALECT_POSTGRES",
    "DIALECT_ORACLE",
]
