"""``campaign_paper`` and ``campaign_live``: the campaign layer in two regimes.

``campaign_paper`` is the paper's own experiment: tiny inputs and a fresh
single-use plan per trial, so fixed per-query overhead is all there is.
``campaign_live`` runs the same campaign layer over a large imported
database against ``sqlite3``, so engine execution dominates.

The traced run decomposes a trial exactly as ``ValidationRunner.compare``
and ``LiveSqliteRunner.run_trial`` compose it, drives the decomposed trial
through ``run_campaign`` again, and must reproduce the untraced run's
``outcome_digest``.
"""

from __future__ import annotations

import os
import random
import sqlite3
import time
from typing import Callable, Dict

from obs_common import (
    GateFailure,
    SpanRecorder,
    digest_of,
    rss_mb,
    share,
    summarize,
)
from obs_data import INGEST_METRICS, LibraryData

from repro.campaigns import (
    CODE_AGREE,
    CODE_AGREE_BOTH_ERROR,
    CODE_CLASSIFIED,
    CODE_MISMATCH,
    Aggregator,
    CampaignSpec,
    CheckpointWriter,
    RunnerBackend,
    ValidationBackend,
    load_checkpoint,
    plan_shards,
    run_campaign,
)
from repro.generator import QueryGenerator, fill_database
from repro.ingest import ScenarioGenerator
from repro.service import row_to_json
from repro.sql import check_query, print_query
from repro.validation import ValidationRunner, capture
from repro.validation.live import (
    DialectGapError,
    bags_match,
    classify_repro_error,
    classify_sqlite_error,
    translate_query,
)

#: Trial seeds of distinct ``--seed`` values never overlap below this many
#: trials per run.
SEED_STRIDE = 1_000_003

#: Span name -> the per-layer metric its mean self time per trial reports.
PAPER_LAYERS = {
    "generator.query": "generator.query_ms",
    "generator.data": "generator.data_ms",
    "sql.typecheck": "sql.typecheck_ms",
    "semantics.run": "semantics.run_ms",
    "engine.execute": "engine.execute_ms",
    "validation.compare": "validation.compare_ms",
}
LIVE_LAYERS = {
    "ingest.generate": "ingest.generate_ms",
    "sql.typecheck": "sql.typecheck_ms",
    "engine.execute": "engine.execute_ms",
    "validation.translate": "validation.translate_ms",
    "validation.sqlite": "validation.sqlite_ms",
    "validation.compare": "validation.compare_ms",
}


class Campaign:
    """What the two campaign workloads share: passes of ``run_campaign``.

    Every pass runs trials of its own: trial cost is heavy-tailed (a few
    trials in a thousand take a hundred times the median), so how many
    distinct trials a run covers decides how much its throughput depends on
    the seed.
    """

    name = ""
    layers: Dict[str, str] = {}

    def __init__(self, args, trials_per_second: float):
        self.args = args
        per_pass = 8 if args.smoke else max(80, round(trials_per_second * args.seconds / args.passes))
        self.per_pass = per_pass
        self.warm = max(2, -(-per_pass * args.passes // 20))
        self.base = args.seed * SEED_STRIDE
        self.backend = None
        self.workdir = None

    def pass_base(self, index: int) -> int:
        return self.base + index * self.per_pass

    def checkpoint(self, label: str) -> str:
        return str(self.workdir / f"{self.name}-{label}.jsonl")

    def warm_up(self) -> None:
        """The same trials whatever the seed: trial cost is heavy-tailed, and
        ``setup_s`` should not depend on which few hundred trials warm up."""
        run_campaign(
            self.backend, trials=self.warm, base_seed=0, checkpoint=self.checkpoint("warmup")
        )

    def prepare_oracle(self, result) -> None:
        """Nothing to prepare: the oracle (the formal semantics, ``sqlite3``)
        runs inside every trial."""

    def operation(self, seed: int) -> object:
        """What trial ``seed`` is given to work on, generated here as the
        program generates it, in a form ``digest_of`` can hash."""
        raise NotImplementedError

    # -- gates ---------------------------------------------------------------------

    def gate(self, result, outcome) -> None:
        """Zero mismatches (``campaign_live``: zero unclassified divergences;
        a classified one is a documented dialect gap, not a failure)."""
        for mismatch in outcome.mismatches:
            result.fail(1, f"{self.name}: {mismatch['detail']}"[:300])
        missing = outcome.trials - outcome.completed
        if missing:
            result.fail(missing, f"{self.name}: {missing} trial(s) left no record")

    # -- untraced run ----------------------------------------------------------------

    def measure(self, result) -> None:
        passes = range(self.args.passes)
        outcomes = []
        clocks = []
        for index in passes:
            cpu0 = time.process_time()
            started = time.perf_counter()
            outcomes.append(
                run_campaign(
                    self.backend,
                    trials=self.per_pass,
                    base_seed=self.pass_base(index),
                    checkpoint=self.checkpoint(f"pass{index}"),
                )
            )
            clocks.append((time.perf_counter() - started, time.process_time() - cpu0))
        timings = []
        for index, outcome in zip(passes, outcomes):
            self.gate(result, outcome)
            _header, records = load_checkpoint(self.checkpoint(f"pass{index}"))
            # A mismatching trial is a failed operation: no latency sample.
            latencies = [r["ms"] if r["code"] != CODE_MISMATCH else None for r in records]
            timings.append((*clocks[index], latencies))
        result.attempted = self.per_pass * len(passes)
        summary = summarize(timings)
        result.samples = summary.pop("samples")
        result.end_to_end.update(summary)
        result.end_to_end["peak_rss_mb"] = rss_mb()
        timed = range(self.base, self.pass_base(len(passes)))
        result.workload_digest = digest_of(self.sizes, [self.operation(s) for s in timed])
        result.result_digest = digest_of([o.outcome_digest for o in outcomes])
        result.notes["window_s"] = sum(wall for wall, _cpu in clocks)
        result.notes["classified"] = sum(o.classified for o in outcomes)

    # -- traced run --------------------------------------------------------------------

    def decomposed_trial(self, recorder: SpanRecorder, root: int) -> Callable[[int], dict]:
        raise NotImplementedError

    def trace(self, result, recorder: SpanRecorder) -> None:
        trials = self.per_pass * ((self.args.passes + 1) // 2)
        base = self.base
        started = time.perf_counter()
        reference = run_campaign(
            self.backend, trials=trials, base_seed=base,
            checkpoint=self.checkpoint("reference"),
        )
        reference_wall = time.perf_counter() - started
        self.gate(result, reference)

        root = recorder.open("campaigns.run", -1, -1)
        traced = run_campaign(
            RunnerBackend(self.decomposed_trial(recorder, root), label=self.backend.label),
            trials=trials,
            base_seed=base,
            checkpoint=self.checkpoint("traced"),
        )
        recorder.close(root)
        traced_wall = recorder.spans[root][2] - recorder.spans[root][1]
        self.gate(result, traced)
        if traced.outcome_digest != reference.outcome_digest:
            raise GateFailure(
                f"{self.name}: the decomposed run's outcome_digest "
                f"{traced.outcome_digest[:12]} is not the untraced run's "
                f"{reference.outcome_digest[:12]}"
            )

        self_times = recorder.self_times()
        attributed = sum(self_times.values())
        if abs(attributed - traced_wall) > 0.05 * traced_wall:
            raise GateFailure(
                f"{self.name}: layer self-times sum to {attributed:.3f}s, "
                f"more than 5% from the traced wall time {traced_wall:.3f}s"
            )
        layer = result.per_layer
        for span, metric in self.layers.items():
            layer[metric] = self_times.get(span, 0.0) * 1e3 / trials
        layer["campaigns.overhead_share"] = share(
            self_times["campaigns.run"], traced_wall
        )
        layer["validation.classified_share"] = share(traced.classified, trials)
        layer["trace_overhead_share"] = (traced_wall - reference_wall) / reference_wall
        layer.update(self.replay_campaign_layer(trials, base))
        result.attempted = 2 * trials
        result.samples = trials
        result.result_digest = traced.outcome_digest
        result.notes["layer_share_of_traced_wall"] = {
            name: round(share(seconds, traced_wall), 4)
            for name, seconds in sorted(self_times.items())
        }

    def replay_campaign_layer(self, trials: int, base: int) -> Dict[str, float]:
        """Time ``campaigns`` alone: write and fold the traced run's records
        again, in the shards ``run_campaign`` used."""
        path = self.checkpoint("traced")
        header, records = load_checkpoint(path)
        by_seed = {record["seed"]: record for record in records}
        for record in records:
            record.pop("crc", None)
        shards = plan_shards(range(base, base + trials), 1)

        replay = self.checkpoint("replay")
        started = time.perf_counter()
        with CheckpointWriter(replay, header, fresh=True) as writer:
            for shard in shards:
                writer.write_records([by_seed[seed] for seed in shard])
        checkpoint_s = time.perf_counter() - started

        started = time.perf_counter()
        aggregator = Aggregator(self.backend.label, base, trials)
        for record in records:
            aggregator.add(record)
        aggregator.finalize()
        aggregate_s = time.perf_counter() - started
        return {
            "campaigns.checkpoint_ms": checkpoint_s * 1e3 / trials,
            "campaigns.checkpoint_bytes_per_trial": os.path.getsize(path) / trials,
            "campaigns.aggregate_ms": aggregate_s * 1e3 / trials,
        }


class CampaignPaper(Campaign):
    name = "campaign_paper"
    layers = PAPER_LAYERS

    def __init__(self, args):
        super().__init__(args, trials_per_second=700)

    @property
    def sizes(self) -> Dict[str, object]:
        return {
            "trials": self.per_pass * self.args.passes,
            "warmup_trials": self.warm,
            "rows_per_table": "0-6",
            "variant": "postgres",
        }

    def setup(self, workdir) -> None:
        self.workdir = workdir
        self.runner = ValidationRunner(variant="postgres")
        self.backend = ValidationBackend(self.runner)
        self.warm_up()

    def teardown(self) -> None:
        self.backend = None

    def operation(self, seed):
        runner = self.runner
        rng = random.Random(seed)
        query = QueryGenerator(runner.schema, runner.generator_config, rng).generate()
        db = fill_database(runner.schema, rng, runner.data_config)
        tables = [
            [row_to_json(record) for record in db.table(name).bag]
            for name in runner.schema.table_names
        ]
        return print_query(query), tables

    def decomposed_trial(self, recorder, root):
        runner = self.runner
        schema, semantics, engine = runner.schema, runner.semantics, runner.engine
        clock = time.perf_counter
        self.semantics_errors = 0

        def trial(seed: int) -> dict:
            t0 = clock()
            rng = random.Random(seed)
            query = QueryGenerator(schema, runner.generator_config, rng).generate()
            t1 = clock()
            db = fill_database(schema, rng, runner.data_config)
            t2 = clock()
            checked = [t2]

            def semantics_side():
                try:
                    check_query(query, schema, star_style=runner.star_style)
                finally:
                    checked[0] = clock()
                return semantics.run(query, db)

            semantics_outcome = capture(semantics_side)
            t3 = clock()
            engine_outcome = capture(lambda: engine.execute(query, db))
            t4 = clock()
            agreed = semantics_outcome.agrees_with(engine_outcome)
            t5 = clock()
            if not agreed:
                code = CODE_MISMATCH
            elif semantics_outcome.is_error and engine_outcome.is_error:
                code = CODE_AGREE_BOTH_ERROR
            else:
                code = CODE_AGREE
            record = {"seed": seed, "code": code, "ms": round((clock() - t0) * 1e3, 3)}
            if not agreed:
                record["detail"] = f"seed {seed}: semantics and engine disagree"
            self.semantics_errors += semantics_outcome.is_error
            span = len(recorder.spans)
            recorder.add("validation.trial", t0, clock(), root, seed)
            recorder.add("generator.query", t0, t1, span, seed)
            recorder.add("generator.data", t1, t2, span, seed)
            recorder.add("sql.typecheck", t2, checked[0], span, seed)
            recorder.add("semantics.run", checked[0], t3, span, seed)
            recorder.add("engine.execute", t3, t4, span, seed)
            recorder.add("validation.compare", t4, t5, span, seed)
            return record

        return trial

    def trace(self, result, recorder) -> None:
        super().trace(result, recorder)
        result.per_layer["semantics.error_share"] = share(
            self.semantics_errors, result.samples
        )


class CampaignLive(Campaign):
    name = "campaign_live"
    layers = LIVE_LAYERS

    def __init__(self, args):
        super().__init__(args, trials_per_second=175)
        # A third of the other workloads' database: a trial over 30,000
        # rows takes 17 ms, which leaves 480 heavy-tailed trials in the
        # window, and their p95 then moves by 15-20% with the seed alone.
        self.rows = max(1000, args.rows // 3)
        self.data = None

    @property
    def sizes(self) -> Dict[str, object]:
        return {
            "trials": self.per_pass * self.args.passes,
            "warmup_trials": self.warm,
            "rows": self.rows,
            "variant": "postgres",
        }

    def setup(self, workdir) -> None:
        self.workdir = workdir
        self.data = LibraryData(self.rows, self.args.seed, workdir)
        spec = CampaignSpec(kind="live-sqlite", scenario=self.data.path, rows=0)
        self.backend = spec.build()
        self.warm_up()

    def teardown(self) -> None:
        if self.backend is not None:
            self.backend.runner.close()
            self.backend = None
        if self.data is not None:
            self.data.close()
            self.data = None

    def operation(self, seed):
        runner = self.backend.runner
        generator = ScenarioGenerator(
            runner.scenario, runner.generator_config, random.Random(seed)
        )
        return print_query(generator.generate())

    def decomposed_trial(self, recorder, root):
        runner = self.backend.runner
        if runner.use_semantics:
            raise GateFailure("campaign_live is sized above the semantics leg")
        scenario, engine, conn = runner.scenario, runner.engine, runner.conn
        schema, db = scenario.schema, scenario.database
        clock = time.perf_counter

        def trial(seed: int) -> dict:
            t0 = clock()
            query = ScenarioGenerator(
                scenario, runner.generator_config, random.Random(seed)
            ).generate()
            t1 = clock()
            checked = [t1]

            def engine_side():
                try:
                    check_query(query, schema, star_style=runner.star_style)
                finally:
                    checked[0] = clock()
                return engine.execute(query, db)

            engine_outcome = capture(engine_side)
            t2 = clock()
            spans = [
                ("ingest.generate", t0, t1),
                ("sql.typecheck", t1, checked[0]),
                ("engine.execute", checked[0], t2),
            ]
            record = {"seed": seed, "code": CODE_AGREE}
            sqlite_rows = sqlite_error = None
            try:
                sql = translate_query(query)
            except DialectGapError as gap:
                sql = None
                record.update(code=CODE_CLASSIFIED, **{"class": gap.divergence_class})
            t3 = clock()
            spans.append(("validation.translate", t2, t3))
            if sql is not None:
                try:
                    cursor = conn.execute(sql)
                    sqlite_rows = cursor.fetchall()
                    arity = len(cursor.description)
                except sqlite3.Error as exc:
                    sqlite_error = exc
                t4 = clock()
                spans.append(("validation.sqlite", t3, t4))
                record.update(
                    self.verdict(engine_outcome, sqlite_rows, sqlite_error, sql)
                    if sqlite_error is not None or engine_outcome.is_error
                    else self.compare(engine_outcome.table, sqlite_rows, arity, sql)
                )
                spans.append(("validation.compare", t4, clock()))
            record["ms"] = round((clock() - t0) * 1e3, 3)
            span = len(recorder.spans)
            recorder.add("validation.trial", t0, clock(), root, seed)
            for name, start, end in spans:
                recorder.add(name, start, end, span, seed)
            return record

        return trial

    @staticmethod
    def verdict(engine_outcome, sqlite_rows, sqlite_error, sql) -> dict:
        """The error branches of ``LiveSqliteRunner.run_trial``."""
        if engine_outcome.is_error and sqlite_error is not None:
            return {"code": CODE_AGREE_BOTH_ERROR}
        if engine_outcome.is_error:
            divergence = classify_repro_error(engine_outcome.error, engine_outcome.detail)
            who = f"repro raised {engine_outcome.error}"
        else:
            divergence = classify_sqlite_error(sqlite_error)
            who = f"SQLite raised {sqlite_error}"
        if divergence is not None:
            return {"code": CODE_CLASSIFIED, "class": divergence}
        return {"code": CODE_MISMATCH, "detail": f"{who} alone: {sql}"}

    @staticmethod
    def compare(table, sqlite_rows, arity, sql) -> dict:
        if table.arity != arity or not bags_match(table, sqlite_rows):
            return {"code": CODE_MISMATCH, "detail": f"results differ: {sql}"}
        return {"code": CODE_AGREE}

    def trace(self, result, recorder) -> None:
        super().trace(result, recorder)
        layer = result.per_layer
        layer.update({name: self.data.timings[name] for name in INGEST_METRICS})
        layer["engine.vs_sqlite_ratio"] = share(
            layer["engine.execute_ms"], layer["validation.sqlite_ms"]
        )
