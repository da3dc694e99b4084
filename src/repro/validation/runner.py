"""The Section 4 validation campaign: formal semantics vs reference engine.

For each trial the runner generates a random query and a random database,
evaluates the query with the variant-adjusted formal semantics and with the
matching reference-engine dialect, and compares the outcomes under the
correctness criterion.  Two variants are provided, mirroring the paper's
two adjusted implementations:

* ``postgres`` — compositional star semantics against the positional-star
  engine dialect (no ambiguity errors can arise from ``SELECT *``);
* ``oracle`` — the standard Figures 4–7 semantics (with a compile-time
  ambiguity check, as Oracle rejects such queries before execution) against
  the name-based engine dialect.

The paper ran 100,000 trials per variant and observed full agreement; the
runner reproduces that experiment at any scale.

The runner owns the *per-trial* logic (seed → query → database → compared
outcome); campaign *execution* — sharding across worker processes,
checkpointing, resume, aggregation — lives in :mod:`repro.campaigns`, for
which this class is the ``validation`` backend.  :meth:`ValidationRunner.run`
is the backward-compatible serial entry point delegating to that core; use
``python -m repro validate --jobs N`` (or :func:`repro.campaigns.run_campaign`
directly) for paper-scale runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.schema import Database, Schema, validation_schema
from ..engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from ..generator.config import GeneratorConfig, PAPER_CONFIG
from ..generator.datafiller import DataFillerConfig, fill_database
from ..generator.queries import QueryGenerator
from ..semantics import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from ..sql.ast import Query
from ..sql.typecheck import check_query
from .compare import Outcome, capture, explain_difference

__all__ = ["ValidationRunner", "TrialResult", "CampaignReport", "VARIANTS"]

VARIANTS = ("postgres", "oracle")


@dataclass(frozen=True)
class TrialResult:
    """One compared trial."""

    seed: int
    agreed: bool
    semantics: Outcome
    engine: Outcome
    query: Query

    @property
    def both_errored(self) -> bool:
        return self.semantics.is_error and self.engine.is_error


@dataclass
class CampaignReport:
    """Aggregated results of a validation campaign."""

    variant: str
    trials: int = 0
    agreements: int = 0
    error_agreements: int = 0
    mismatches: List[TrialResult] = field(default_factory=list)

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.trials if self.trials else 1.0

    def summary(self) -> str:
        return (
            f"variant={self.variant} trials={self.trials} "
            f"agreements={self.agreements} "
            f"(of which both-error: {self.error_agreements}) "
            f"mismatches={len(self.mismatches)} "
            f"rate={self.agreement_rate:.4%}"
        )


class ValidationRunner:
    """Compares the formal semantics against the engine on random inputs."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        variant: str = "postgres",
        generator_config: GeneratorConfig = PAPER_CONFIG,
        data_config: Optional[DataFillerConfig] = None,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.schema = schema if schema is not None else validation_schema()
        self.variant = variant
        self.generator_config = generator_config
        # Small default row cap: the semantics computes Cartesian products,
        # and the shape of the experiment does not depend on table size.
        self.data_config = (
            data_config
            if data_config is not None
            else DataFillerConfig(max_rows=6)
        )
        # plan_cache_size=0: every campaign trial generates a *fresh* query,
        # so plan-cache lookups can never hit — they would only tax each
        # trial with AST hashing, LRU bookkeeping and the unbind walk
        # (~7% of campaign throughput, measured).  Workloads that do repeat
        # queries (the equivalence checker, direct Engine use) keep the
        # default cache.  Trial plans also run without generated code, by
        # the engine's own rule rather than by this setting: a single-use
        # plan gets generated predicates and scan kernels only when its
        # scans bind SINGLE_USE_COMPILE_ROWS or more, and a trial binds at
        # most a few dozen rows (code generation would cost 3x what it
        # saves here; raising ``data_config.max_rows`` far enough flips the
        # decision per query).
        if variant == "postgres":
            self.star_style = STAR_COMPOSITIONAL
            self.semantics = SqlSemantics(self.schema, star_style=STAR_COMPOSITIONAL)
            self.engine = Engine(self.schema, DIALECT_POSTGRES, plan_cache_size=0)
        else:
            self.star_style = STAR_STANDARD
            self.semantics = SqlSemantics(self.schema, star_style=STAR_STANDARD)
            self.engine = Engine(self.schema, DIALECT_ORACLE, plan_cache_size=0)

    # -- single trial ---------------------------------------------------------

    def run_trial(self, seed: int) -> TrialResult:
        rng = random.Random(seed)
        generator = QueryGenerator(self.schema, self.generator_config, rng)
        query = generator.generate()
        db = fill_database(self.schema, rng, self.data_config)
        return self.compare(query, db, seed=seed)

    def compare(self, query: Query, db: Database, seed: int = -1) -> TrialResult:
        def semantics_side():
            # The static check mirrors the RDBMS compiler: ambiguous
            # references are rejected before evaluation.
            check_query(query, self.schema, star_style=self.star_style)
            return self.semantics.run(query, db)

        semantics_outcome = capture(semantics_side)
        engine_outcome = capture(lambda: self.engine.execute(query, db))
        agreed = semantics_outcome.agrees_with(engine_outcome)
        return TrialResult(seed, agreed, semantics_outcome, engine_outcome, query)

    # -- campaign ---------------------------------------------------------------

    def run(self, trials: int, base_seed: int = 0) -> CampaignReport:
        """Run a serial campaign through the unified execution core.

        This is the backward-compatible entry point: it delegates to
        :func:`repro.campaigns.run_campaign` (the sharded/checkpointed
        subsystem the CLI and benchmarks drive directly) with ``jobs=1``
        and rebuilds the rich :class:`TrialResult` for each mismatching
        seed — trials are seed-deterministic, so re-running a seed
        reproduces its result exactly.
        """
        from ..campaigns import ValidationBackend, run_campaign

        result = run_campaign(
            ValidationBackend(self), trials=trials, base_seed=base_seed
        )
        return CampaignReport(
            variant=self.variant,
            trials=result.completed,
            agreements=result.agreements,
            error_agreements=result.error_agreements,
            mismatches=[self.run_trial(seed) for seed in result.mismatch_seeds],
        )

    def explain(self, result: TrialResult) -> str:
        from ..sql.printer import print_query

        return (
            f"seed {result.seed}: {explain_difference(result.semantics, result.engine)}\n"
            f"  query: {print_query(result.query)}"
        )
