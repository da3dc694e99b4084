"""Independent reference engine (the PostgreSQL/Oracle stand-in of Section 4).

``Engine(schema, dialect)`` optimizes by default (pushdown, hash joins,
cached subquery probes) and executes plans through the closure-generating
compiler (:mod:`repro.engine.compile`) whenever lowering pays for itself:
the plan is admitted to the plan cache, or — for single-use plans
(``plan_cache_size=0``) — the rows bound under its scans reach the
measured break-even ``engine.SINGLE_USE_COMPILE_ROWS``; smaller
single-use plans run interpreted.  In a lowered plan a filter over a
base-table scan runs as a *scan kernel*: one fused comprehension over the
table's memoized column vectors, replayed row-wise on a type clash
(``Engine.cache_info()["scan_kernels"]`` counts both).  Two ablation
tiers share the same plans and are digest-gated bit-identical:

* ``Engine(schema, dialect, optimize=False)`` — the paper's naive
  product-then-filter evaluation;
* ``Engine(schema, dialect, compiled=False)`` — the interpreted operator
  tree over optimized plans.
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
