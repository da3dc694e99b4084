"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``          evaluate a SQL query on a database described by a JSON file
``translate``    print the relational-algebra translation of a query (Thm 1)
``two-valued``   print the Figure 10 two-valued rewriting of a query (Thm 2)
``validate``     run a Section 4 validation campaign (semantics vs engine)
``differential`` run the n-way differential campaign (all implementations)
``ingest``       profile/export an ingested database (SQLite, .sql, CSV dir)
``report``       render campaign checkpoints (``--merge`` combines several)
``coordinate``   partition a campaign into leases + merge worker checkpoints
``work``         execute leases (``--coordinator URL`` or ``--seed-range A:B``)
``serve``        run the always-on HTTP query service (prepared statements)
``query``        run one query against a running ``serve`` instance
``generate``     print random queries from the Section 4 generator

The campaign commands run on the unified subsystem of
:mod:`repro.campaigns`: ``--jobs N`` shards the seed range over N worker
processes (results are bit-identical to a serial run at any N),
``--checkpoint FILE`` streams one JSONL record per trial so progress is
durable, and ``--resume`` restarts a killed campaign where it left off.
The paper-scale Section 4 experiment is::

    python -m repro validate --variants postgres --trials 100000 \\
        --jobs 8 --checkpoint pg.jsonl --resume

(with two variants, per-variant checkpoints get the variant name appended:
``pg.postgres.jsonl`` / ``pg.oracle.jsonl``).  Campaign commands exit
non-zero when any trial disagrees.

``differential --live-sqlite PATH`` points the same campaign machinery at a
*live* DBMS: the database at PATH (a SQLite file, ``.sql`` script, or CSV
directory) is ingested, FK-join-biased queries are generated against its
schema, and every query runs through the repository's implementations *and*
stdlib ``sqlite3``.  Known dialect gaps are *classified* (counted, reported
by class, exit code unaffected); only unclassified disagreements fail::

    python -m repro ingest tests/fixtures/library.sql
    python -m repro differential --live-sqlite tests/fixtures/library.sql \\
        --trials 500 --dialect postgres

``coordinate``/``work`` take the same campaign past one machine
(:mod:`repro.campaigns.distributed`).  File-based mode::

    python -m repro coordinate --trials 100000 --workers 3 --out dist --no-wait
    sh dist/plan.sh          # or run each printed `repro work` line anywhere
    python -m repro coordinate --trials 100000 --workers 3 --out dist \\
        --merged dist/merged.jsonl

partitions the seed range into journaled leases, waits for the workers'
checkpoint files, re-issues leases whose worker went silent, and merges —
the merged ``outcome_digest`` is bit-identical to a single-machine run.
``--serve PORT`` does the same over HTTP with ``repro work --coordinator
URL`` workers; ``repro work --coordinator URL --jobs N`` runs each leased
range through the parallel local executor, so one remote worker uses all
its cores (records stay bit-identical — trials are seed-pure).  ``repro
report --merge a.jsonl b.jsonl`` renders such a set of worker files
without a coordinator.

The database JSON format is::

    {
      "schema": {"R": ["A"], "S": ["A"]},
      "tables": {"R": [[1], [null]], "S": [[null]]}
    }

JSON ``null`` becomes SQL NULL.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Sequence

from .algebra import desugar, to_sqlra
from .algebra.printer import print_expression_tree
from .core.schema import Database, Schema
from .core.values import NULL
from .generator.config import PAPER_CONFIG
from .generator.queries import QueryGenerator
from .semantics.evaluator import STAR_COMPOSITIONAL, STAR_STANDARD, SqlSemantics
from .semantics.two_valued import TwoValuedTranslator
from .sql.annotate import annotate
from .sql.printer import print_query
from .validation.report import format_campaigns

__all__ = ["main", "load_database"]


def load_database(path: str) -> Database:
    """Load a schema + instance from the JSON format described above."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = Schema({name: tuple(attrs) for name, attrs in payload["schema"].items()})
    tables = {
        name: [
            tuple(NULL if value is None else value for value in row) for row in rows
        ]
        for name, rows in payload.get("tables", {}).items()
    }
    return Database(schema, tables)


def _cmd_run(args) -> int:
    db = load_database(args.database)
    schema = db.schema
    query = annotate(args.query, schema)
    star = STAR_COMPOSITIONAL if args.dialect == "postgres" else STAR_STANDARD
    semantics = SqlSemantics(schema, star_style=star)
    print(f"-- annotated: {print_query(query)}")
    print(semantics.run(query, db).pretty(max_rows=args.max_rows))
    return 0


def _cmd_translate(args) -> int:
    db = load_database(args.database)
    schema = db.schema
    query = annotate(args.query, schema)
    sqlra = to_sqlra(query, schema)
    if args.pure:
        expression = desugar(sqlra, schema)
        print("-- pure relational algebra (Theorem 1 / Proposition 2):")
    else:
        expression = sqlra
        print("-- SQL-RA (Figure 9):")
    print(print_expression_tree(expression))
    return 0


def _cmd_two_valued(args) -> int:
    db = load_database(args.database)
    schema = db.schema
    query = annotate(args.query, schema)
    translator = TwoValuedTranslator(schema, args.equality)
    translated = translator.translate_query(query)
    print(f"-- Q′ with ⟦Q⟧ = ⟦Q′⟧2v (equality: {args.equality}):")
    print(print_query(translated))
    return 0


def _campaign_checkpoint(path: Optional[str], suffix: Optional[str]) -> Optional[str]:
    """Derive a per-campaign checkpoint path (``pg.jsonl`` + ``postgres`` →
    ``pg.postgres.jsonl``) when one file would be shared by several runs."""
    if path is None or suffix is None:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{suffix}{ext or '.jsonl'}"


def _run_campaign_cmd(spec, args, checkpoint_suffix: Optional[str] = None):
    from .campaigns import run_campaign

    try:
        return run_campaign(
            spec,
            trials=args.trials,
            base_seed=args.seed,
            jobs=args.jobs,
            checkpoint=_campaign_checkpoint(args.checkpoint, checkpoint_suffix),
            resume=args.resume,
        )
    except ValueError as exc:
        # Misuse (resume without checkpoint, checkpoint/spec mismatch, ...):
        # a clean diagnostic, not a traceback.
        raise SystemExit(f"repro: {exc}")


def _resolved_rows(args, live: bool = False) -> int:
    """The ``--rows`` default depends on the mode: 6 for the generated
    trial databases of validate/differential, unlimited (0) as the import
    sample cap of a live-SQLite campaign."""
    if args.rows is not None:
        return args.rows
    return 0 if live else 6


def _cmd_validate(args) -> int:
    from .campaigns import CampaignSpec

    results = []
    failed = False
    multi = len(args.variants) > 1
    for variant in args.variants:
        spec = CampaignSpec(
            kind="validation", variant=variant, rows=_resolved_rows(args)
        )
        result = _run_campaign_cmd(
            spec, args, checkpoint_suffix=variant if multi else None
        )
        results.append(result)
        for mismatch in result.mismatches[: args.show_mismatches]:
            print(mismatch["detail"], file=sys.stderr)
        print(
            f"-- {variant}: {result.trials_per_sec:.0f} trials/s "
            f"(jobs={result.jobs}, digest={result.outcome_digest[:12]})",
            file=sys.stderr,
        )
        failed = failed or bool(result.mismatches)
    print(format_campaigns(results))
    return 1 if failed else 0


def _cmd_differential(args) -> int:
    from .campaigns import CampaignSpec

    if args.live_sqlite:
        spec = CampaignSpec(
            kind="live-sqlite",
            variant=args.dialect,
            rows=_resolved_rows(args, live=True),
            scenario=args.live_sqlite,
        )
    else:
        spec = CampaignSpec(
            kind="differential", rows=_resolved_rows(args), tables=args.tables
        )
    result = _run_campaign_cmd(spec, args)
    for mismatch in result.mismatches[: args.show_disagreements]:
        print(f"seed {mismatch['seed']}: {mismatch['detail']}", file=sys.stderr)
    print(result.summary())
    # Classified dialect divergences are expected and never fail the run;
    # the exit code tracks *unclassified* disagreements only.
    return 1 if result.mismatches else 0


def _cmd_ingest(args) -> int:
    """Import a database and print its profile (or export it back out)."""
    from .ingest import export_sql_script, export_sqlite, import_scenario

    try:
        scenario = import_scenario(args.source, sample_rows=args.sample_rows)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: {args.source}: {exc}")
    if args.export:
        if args.export.endswith(".sql"):
            export_sql_script(scenario, args.export)
        else:
            export_sqlite(scenario, args.export)
        print(f"exported {scenario.total_rows} row(s) -> {args.export}")
    profile = scenario.profile()
    if args.json:
        profile["fingerprint"] = scenario.fingerprint()
        print(json.dumps(profile, indent=2))
        return 0
    print(f"source: {profile['source']}")
    print(f"total rows: {profile['total_rows']}")
    for name, info in profile["tables"].items():
        print(f"  {name} ({info['rows']} rows)")
        for column, stats in info["columns"].items():
            print(
                f"    {column:<24} {stats['type']:<5} "
                f"null_rate={stats['null_rate']:.2%} "
                f"distinct={stats['distinct']}"
            )
    for fk in profile["foreign_keys"]:
        print(
            f"  fk: {fk['table']}({', '.join(fk['columns'])}) -> "
            f"{fk['ref_table']}({', '.join(fk['ref_columns'])})"
        )
    for note in profile["notes"]:
        print(f"  note: {note}")
    print(f"fingerprint: {scenario.fingerprint()}")
    return 0


def _load_bench_service(path: str) -> Optional[dict]:
    """The parsed ``bench-service/v1`` document, or None for anything else
    (campaign JSONL files fail the single-document parse or the schema
    check and fall through to the checkpoint renderer)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"repro: {path}: {exc}")
    except json.JSONDecodeError:
        return None
    if isinstance(doc, dict) and doc.get("schema") == "bench-service/v1":
        return doc
    return None


def _render_bench_service(path: str, doc: dict) -> int:
    def leg(label: str, entry: dict) -> str:
        lat = entry.get("latency_ms", {})
        return (
            f"  {label:<26} {entry.get('qps', 0.0):>8.1f} qps  "
            f"p50/p95/p99 {lat.get('p50', 0.0):.2f}/"
            f"{lat.get('p95', 0.0):.2f}/{lat.get('p99', 0.0):.2f} ms "
            f"({entry.get('requests', 0)} requests)"
        )

    print(f"service bench: {path}  ({doc.get('schema')})")
    print(f"clients: {doc.get('clients')}, {doc.get('rows')}-row tables")
    print(leg("cold (ad-hoc /query)", doc.get("cold", {})))
    print(leg("warm (prepared /execute)", doc.get("warm", {})))
    build = doc.get("build_cache", {})
    plan = doc.get("plan_cache", {})
    print(
        f"speedup: {doc.get('speedup', 0.0):.2f}x   "
        f"cross-query build hits: {doc.get('cross_query_build_hits', 0)} "
        f"({doc.get('cross_query_hit_rate', 0.0):.1%} of lookups)"
    )
    print(
        f"plan cache: {plan.get('hits', 0)} hits / {plan.get('misses', 0)} "
        f"misses, {plan.get('entries', 0)} entries, {plan.get('bytes', 0)} bytes"
    )
    print(
        f"build cache: {build.get('hits', 0)} hits / {build.get('misses', 0)} "
        f"misses, {build.get('entries', 0)} entries, {build.get('bytes', 0)} bytes"
    )
    match = bool(doc.get("digest_match"))
    print(
        f"served digest: {str(doc.get('served_digest', ''))[:16]} — formal-"
        f"semantics replay {'matches' if match else 'MISMATCH'}"
    )
    return 0 if match else 1


def _cmd_report(args) -> int:
    """Render ``campaign-checkpoint/v1`` file(s) — or a ``bench-service/v1``
    document from ``scripts/bench.py --stages service``."""
    from .campaigns import summarize_checkpoint, summarize_merged

    if not args.merge and len(args.checkpoints) == 1:
        doc = _load_bench_service(args.checkpoints[0])
        if doc is not None:
            return _render_bench_service(args.checkpoints[0], doc)
    try:
        if args.merge:
            header, aggregator = summarize_merged(args.checkpoints)
            source = " + ".join(args.checkpoints)
        else:
            if len(args.checkpoints) > 1:
                raise SystemExit(
                    "repro: several checkpoints need --merge "
                    "(or report them one at a time)"
                )
            header, aggregator = summarize_checkpoint(args.checkpoints[0])
            source = args.checkpoints[0]
    except ValueError as exc:
        # Missing file, headerless file, spec mismatch, CheckpointConflict.
        raise SystemExit(f"repro: {exc}")
    result = aggregator.finalize()
    pending = aggregator.trials - aggregator.completed
    plain_agreements = result.agreements - result.error_agreements
    print(f"checkpoint: {source}  ({header.get('schema')})")
    print(f"spec: {json.dumps(header.get('spec', {}), sort_keys=True)}")
    print(
        f"seeds: [{aggregator.base_seed}, "
        f"{aggregator.base_seed + aggregator.trials}) — "
        f"{aggregator.completed} recorded, {pending} pending, "
        f"{result.duplicates} duplicate record(s) skipped"
    )
    classified = ""
    if result.classified:
        per_class = ", ".join(
            f"{name}: {count}"
            for name, count in result.classified_by_class.items()
        )
        classified = f"{result.classified} classified ({per_class}), "
    print(
        f"outcomes: {plain_agreements} agree, "
        f"{result.error_agreements} agree-both-error, "
        f"{classified}"
        f"{len(result.mismatches)} mismatch "
        f"(rate {result.agreement_rate:.4%})"
    )
    if result.timing_ms:
        print(
            f"latency: p50={result.timing_ms['p50']:.2f}ms "
            f"p95={result.timing_ms['p95']:.2f}ms "
            f"p99={result.timing_ms['p99']:.2f}ms"
        )
    print(f"outcome_digest: {result.outcome_digest}")
    for mismatch in result.mismatches[: args.show_mismatches]:
        detail = mismatch.get("detail") or "(no detail recorded)"
        print(f"seed {mismatch['seed']}: {detail}", file=sys.stderr)
    return 1 if result.mismatches else 0


def _load_workers(args) -> list:
    """Worker names for file-based coordination: ``--workers-file`` (a JSON
    list of names, ``{"name": ...}`` objects, or ``{"workers": [...]}``)
    wins over the ``--workers`` count (names ``w1..wN``)."""
    if args.workers_file:
        try:
            with open(args.workers_file) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro: {args.workers_file}: {exc}")
        if isinstance(payload, dict):
            payload = payload.get("workers", [])
        workers = [
            str(entry.get("name") or entry.get("host"))
            if isinstance(entry, dict)
            else str(entry)
            for entry in payload
        ]
        workers = [name for name in workers if name and name != "None"]
        if not workers:
            raise SystemExit(f"repro: {args.workers_file} names no workers")
        return workers
    return [f"w{i + 1}" for i in range(max(1, args.workers))]


def _spec_from_args(args):
    from .campaigns import CampaignSpec

    try:
        return CampaignSpec(
            kind=args.kind, variant=args.variant, rows=args.rows, tables=args.tables
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def _coordinate_files(spec, args) -> int:
    """File-based coordination: journal + plan.sh, wait, re-issue, merge."""
    import shlex

    from .campaigns import FileCoordinator, work_command

    try:
        coordinator = FileCoordinator(
            spec,
            trials=args.trials,
            base_seed=args.seed,
            workers=_load_workers(args),
            out_dir=args.out,
            lease_trials=args.lease_trials,
            lease_timeout_s=args.lease_timeout_s,
            python=sys.executable or "python",
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")

    def show_reissue(lease):
        argv = work_command(spec, lease, python=sys.executable or "python")
        print(
            f"re-issued {lease.lease_id} (worker timeout): "
            + " ".join(shlex.quote(arg) for arg in argv),
            file=sys.stderr,
        )
        coordinator.write_plan()

    with coordinator:
        status = coordinator.poll()  # completed checkpoints drop off the plan
        plan_path = coordinator.write_plan()
        active = coordinator.plan()
        if active:
            print(f"{len(active)} lease(s) pending; worker commands ({plan_path}):")
            for _lease, argv in active:
                print("  " + " ".join(shlex.quote(arg) for arg in argv))
        if args.no_wait:
            print("--no-wait: run the plan, then re-run this command to merge.")
            return 0
        if not status["done"]:
            print(f"waiting for worker checkpoints in {args.out}/ ...")
            done = coordinator.wait(
                poll_s=args.poll_s,
                timeout_s=args.wait_timeout_s,
                on_reissue=show_reissue,
            )
            if not done:
                print(
                    "repro: wait timed out with leases outstanding; "
                    "re-run to keep waiting",
                    file=sys.stderr,
                )
                return 3
        try:
            result = coordinator.merge(merged_path=args.merged)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}")
    print(result.summary())
    if args.merged:
        print(f"merged checkpoint -> {args.merged}")
    return 1 if result.mismatches else 0


def _coordinate_serve(spec, args) -> int:
    """HTTP coordination: serve leases until the campaign completes.

    The merged checkpoint doubles as the resume state — re-running the
    same command after a coordinator crash folds it back in and only the
    unfinished ranges are leased out again.
    """
    import time

    from .campaigns import Coordinator, CoordinatorServer

    os.makedirs(args.out, exist_ok=True)
    merged = args.merged or os.path.join(args.out, "merged.jsonl")
    try:
        coordinator = Coordinator(
            spec,
            trials=args.trials,
            base_seed=args.seed,
            lease_trials=args.lease_trials,
            lease_target_s=args.lease_target_s,
            journal_path=os.path.join(args.out, "leases.jsonl"),
            checkpoint=merged,
            resume=True,
            lease_timeout_s=args.lease_timeout_s,
            max_lease_attempts=args.max_lease_attempts,
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    started = time.perf_counter()
    with CoordinatorServer(
        coordinator, host=args.host, port=args.serve, secret=args.secret
    ) as server:
        print(f"coordinator: {args.trials} trials at {server.url}")
        hint = " --secret ..." if args.secret else ""
        print(
            f"  start workers: python -m repro work --coordinator {server.url}{hint}"
        )
        try:
            while not coordinator.done:
                time.sleep(min(1.0, max(0.05, args.poll_s)))
                coordinator.expire_stale()
        except KeyboardInterrupt:
            coordinator.close()
            print(
                "repro: interrupted; progress is in the merged checkpoint — "
                "re-run the same command to resume",
                file=sys.stderr,
            )
            return 130
    result = coordinator.result(elapsed_s=time.perf_counter() - started)
    quarantined = coordinator.quarantined()
    coordinator.close()
    print(result.summary())
    for lease in quarantined:
        # A poison lease: every issue of this range died.  The campaign
        # finishes around it; the hole is reported, never papered over.
        print(
            f"repro: quarantined range [{lease['lo']}, {lease['hi']}) "
            f"after {lease['attempts']} attempt(s); "
            f"{lease['pending']} seed(s) unfinished",
            file=sys.stderr,
        )
    print(f"merged checkpoint -> {merged}")
    if quarantined:
        return 2
    return 1 if result.mismatches else 0


def _cmd_coordinate(args) -> int:
    spec = _spec_from_args(args)
    if args.serve is not None:
        return _coordinate_serve(spec, args)
    return _coordinate_files(spec, args)


def _cmd_serve(args) -> int:
    """Run the always-on query service until interrupted.

    SIGTERM triggers a graceful drain: the listener closes, new requests
    on open connections get 503 + Retry-After, in-flight streams finish
    within ``--drain-s``, and stragglers are aborted with an error
    trailer — the process never dies mid-chunk.
    """
    import asyncio
    import signal

    from . import faults
    from .service import QueryService

    if args.batch_rows < 1:
        raise SystemExit("repro: --batch-rows must be at least 1")
    faults.install_from_env()
    service = QueryService(
        secret=args.secret,
        dialect=args.dialect,
        plan_cache_size=args.plan_cache_size,
        plan_cache_bytes=args.plan_cache_bytes,
        build_cache_size=args.build_cache_size,
        build_cache_bytes=args.build_cache_bytes,
        batch_rows=args.batch_rows,
        request_deadline_s=args.deadline_s,
        max_inflight=args.max_inflight,
        drain_grace_s=args.drain_s,
    )
    if args.database:
        service.install_database(
            load_database(args.database), name=args.name, tenant=args.tenant
        )

    async def go() -> int:
        host, port = await service.start(args.host, args.port)
        url = f"http://{host}:{port}"
        print(f"query service at {url}" + (" (secret required)" if args.secret else ""))
        if args.database:
            print(
                f"  {args.database} loaded as database {args.name!r} "
                f"for tenant {args.tenant!r}"
            )
        print(f'  try: python -m repro query {url} "SELECT ..."')
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix / nested loop
            signal.signal(
                signal.SIGTERM,
                lambda *_: loop.call_soon_threadsafe(stop.set),
            )
        # start() already accepts connections; this wait is the serve loop.
        await stop.wait()
        print("repro: SIGTERM — draining in-flight streams", file=sys.stderr)
        await service.shutdown(args.drain_s)
        return 0

    try:
        return asyncio.run(go())
    except KeyboardInterrupt:
        return 130


def _cmd_query(args) -> int:
    """One query against a running service; prints the streamed result."""
    from .core.bag import Bag
    from .core.table import Table
    from .service import ServiceError, query_once

    params = None
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"repro: --params: {exc}")
        if not isinstance(params, list):
            raise SystemExit("repro: --params must be a JSON array")
    try:
        result = query_once(
            args.url,
            args.sql,
            params=params,
            secret=args.secret,
            tenant=args.tenant,
            database=args.db,
            prepare=args.prepare,
        )
    except ServiceError as exc:
        raise SystemExit(f"repro: {exc}")
    except (ConnectionError, OSError, ValueError) as exc:
        raise SystemExit(f"repro: cannot reach {args.url}: {exc}")
    print(Table(result.labels, Bag(result.records())).pretty(max_rows=args.max_rows))
    print(f"({result.row_count} row(s))")
    return 0


def _cmd_work(args) -> int:
    from . import faults
    from .campaigns import run_campaign, work_remote

    faults.install_from_env()
    if args.coordinator:
        summary = work_remote(
            args.coordinator,
            worker=args.worker,
            poll_s=args.poll_s,
            max_idle_polls=args.max_idle_polls,
            jobs=args.jobs,
            timeout_s=args.timeout_s,
            retries=args.retries,
            backoff_s=args.backoff_s,
            secret=args.secret,
        )
        print(
            f"worker {summary['worker']}: {summary['leases']} lease(s), "
            f"{summary['trials']} trial(s)"
        )
        if summary.get("note"):
            print(f"repro: {summary['note']}", file=sys.stderr)
        return 0
    if not args.seed_range:
        raise SystemExit("repro: work needs --coordinator URL or --seed-range A:B")
    try:
        lo_text, _, hi_text = args.seed_range.partition(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise SystemExit(
            f"repro: bad --seed-range {args.seed_range!r} (expected A:B)"
        )
    if hi <= lo:
        raise SystemExit("repro: --seed-range must be A:B with A < B")
    if not args.checkpoint:
        raise SystemExit("repro: file-based work needs --checkpoint FILE")
    spec = _spec_from_args(args)
    try:
        result = run_campaign(
            spec,
            trials=hi - lo,
            base_seed=lo,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    print(result.summary())
    # The merge step judges the campaign; a worker exits 0 once its range
    # is recorded, so a plan.sh under `set -e` survives mismatch trials.
    return 0


def _cmd_generate(args) -> int:
    from .core.schema import validation_schema

    generator = QueryGenerator(
        validation_schema(), PAPER_CONFIG, random.Random(args.seed)
    )
    for i in range(args.count):
        print(print_query(generator.generate(seed=args.seed + i), args.dialect) + ";")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable formal semantics of basic SQL (VLDB 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a query under the formal semantics")
    run.add_argument("query")
    run.add_argument("--database", "-d", required=True, help="JSON database file")
    run.add_argument(
        "--dialect", choices=("standard", "postgres"), default="standard"
    )
    run.add_argument("--max-rows", type=int, default=50)
    run.set_defaults(func=_cmd_run)

    translate = sub.add_parser(
        "translate", help="translate a data manipulation query to algebra"
    )
    translate.add_argument("query")
    translate.add_argument("--database", "-d", required=True)
    translate.add_argument(
        "--pure", action="store_true", help="desugar SQL-RA into pure RA"
    )
    translate.set_defaults(func=_cmd_translate)

    twov = sub.add_parser(
        "two-valued", help="print the Figure 10 two-valued rewriting"
    )
    twov.add_argument("query")
    twov.add_argument("--database", "-d", required=True)
    twov.add_argument(
        "--equality", choices=("conflating", "syntactic"), default="conflating"
    )
    twov.set_defaults(func=_cmd_two_valued)

    def add_campaign_args(cmd) -> None:
        cmd.add_argument("--trials", type=int, default=200)
        cmd.add_argument(
            "--rows", type=int, default=None,
            help="row cap per generated trial table (default 6); with "
            "--live-sqlite, the per-table import sample cap (default: "
            "unlimited)",
        )
        cmd.add_argument("--seed", type=int, default=0, help="base seed")
        cmd.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (results identical at any value)",
        )
        cmd.add_argument(
            "--checkpoint", default=None, metavar="FILE",
            help="stream per-trial JSONL records to FILE",
        )
        cmd.add_argument(
            "--resume", action="store_true",
            help="fold a previous checkpoint in and run only missing seeds",
        )

    validate = sub.add_parser("validate", help="run a validation campaign")
    add_campaign_args(validate)
    validate.add_argument(
        "--variants", nargs="+", choices=("postgres", "oracle"),
        default=["postgres", "oracle"],
    )
    validate.add_argument("--show-mismatches", type=int, default=5)
    validate.set_defaults(func=_cmd_validate)

    differential = sub.add_parser(
        "differential",
        help="run the n-way differential campaign (all implementations)",
    )
    add_campaign_args(differential)
    differential.add_argument(
        "--tables", type=int, default=None,
        help="size of the R1..Rn validation schema (default: runner default)",
    )
    differential.add_argument(
        "--live-sqlite", default=None, metavar="PATH",
        help="differential-test against live stdlib SQLite over the "
        "ingested database at PATH (SQLite file, .sql script, or CSV "
        "directory); known dialect gaps are classified, not failed",
    )
    differential.add_argument(
        "--dialect", choices=("postgres", "oracle"), default="postgres",
        help="repository-side dialect pairing for --live-sqlite",
    )
    differential.add_argument("--show-disagreements", type=int, default=5)
    differential.set_defaults(func=_cmd_differential)

    ingest = sub.add_parser(
        "ingest",
        help="import a database (SQLite, .sql, CSV dir) and print its profile",
    )
    ingest.add_argument(
        "source", metavar="PATH",
        help="SQLite database file, .sql script, or CSV directory",
    )
    ingest.add_argument(
        "--sample-rows", type=int, default=0,
        help="per-table import row cap (0 = unlimited)",
    )
    ingest.add_argument(
        "--export", default=None, metavar="OUT",
        help="re-export the imported scenario (.sql extension writes a SQL "
        "script, anything else a SQLite database file)",
    )
    ingest.add_argument(
        "--json", action="store_true",
        help="print the profile (plus fingerprint) as JSON",
    )
    ingest.set_defaults(func=_cmd_ingest)

    report = sub.add_parser(
        "report",
        help="render existing campaign checkpoints without re-running",
    )
    report.add_argument(
        "checkpoints", nargs="+", metavar="CHECKPOINT",
        help="campaign-checkpoint/v1 JSONL file(s); several require --merge",
    )
    report.add_argument(
        "--merge", action="store_true",
        help="merge several worker checkpoints into one report "
        "(duplicate seeds deduplicate, conflicting records fail)",
    )
    report.add_argument("--show-mismatches", type=int, default=5)
    report.set_defaults(func=_cmd_report)

    def add_spec_args(cmd) -> None:
        cmd.add_argument(
            "--kind", choices=("validation", "differential"),
            default="validation", help="campaign comparator backend",
        )
        cmd.add_argument(
            "--variant", choices=("postgres", "oracle"), default="postgres",
            help="validation variant (ignored for differential)",
        )
        cmd.add_argument(
            "--rows", type=int, default=6,
            help="row cap per generated trial table",
        )
        cmd.add_argument(
            "--tables", type=int, default=None,
            help="size of the R1..Rn validation schema (default: runner default)",
        )

    coordinate = sub.add_parser(
        "coordinate",
        help="coordinate a distributed campaign across worker machines",
    )
    coordinate.add_argument("--trials", type=int, required=True)
    coordinate.add_argument("--seed", type=int, default=0, help="base seed")
    add_spec_args(coordinate)
    coordinate.add_argument(
        "--workers", type=int, default=3,
        help="file-based worker count (named w1..wN)",
    )
    coordinate.add_argument(
        "--workers-file", metavar="FILE",
        help="JSON list of worker names (overrides --workers)",
    )
    coordinate.add_argument(
        "--out", default="distributed-campaign", metavar="DIR",
        help="directory for the lease journal, plan.sh and worker checkpoints",
    )
    coordinate.add_argument(
        "--lease-trials", type=int, default=None,
        help="seeds per lease (default: trials/workers in file mode, "
        "500 with --serve; smaller leases = finer re-issue)",
    )
    coordinate.add_argument(
        "--lease-target-s", type=float, default=None,
        help="--serve: size leases so one takes about this many seconds, "
        "from the resumed checkpoint's p50 trial latency "
        "(--lease-trials wins when both are given)",
    )
    coordinate.add_argument(
        "--secret", default=None,
        help="--serve: require this shared secret on every worker request",
    )
    coordinate.add_argument(
        "--lease-timeout-s", type=float, default=600.0,
        help="re-issue a lease not finished within this many seconds",
    )
    coordinate.add_argument(
        "--max-lease-attempts", type=int, default=5,
        help="quarantine a seed range after this many failed issues "
        "instead of re-leasing it forever (exit code 2 reports holes)",
    )
    coordinate.add_argument(
        "--serve", type=int, metavar="PORT", default=None,
        help="serve leases over HTTP instead of file-based operation",
    )
    coordinate.add_argument(
        "--host", default="127.0.0.1", help="bind address for --serve"
    )
    coordinate.add_argument(
        "--no-wait", action="store_true",
        help="file mode: write the journal + plan.sh and exit without waiting",
    )
    coordinate.add_argument(
        "--poll-s", type=float, default=1.0,
        help="seconds between progress polls",
    )
    coordinate.add_argument(
        "--wait-timeout-s", type=float, default=None,
        help="file mode: give up waiting after this many seconds",
    )
    coordinate.add_argument(
        "--merged", metavar="FILE",
        help="write the merged campaign-checkpoint/v1 file here "
        "(default with --serve: OUT/merged.jsonl)",
    )
    coordinate.set_defaults(func=_cmd_coordinate)

    work = sub.add_parser(
        "work",
        help="run a distributed-campaign worker (HTTP or file-based)",
    )
    work.add_argument(
        "--coordinator", metavar="URL",
        help="poll this coordinator for leases (HTTP mode)",
    )
    work.add_argument(
        "--worker", default=None, help="worker name (default: hostname-pid)"
    )
    work.add_argument(
        "--poll-s", type=float, default=1.0,
        help="HTTP mode: seconds between idle polls",
    )
    work.add_argument(
        "--max-idle-polls", type=int, default=None,
        help="HTTP mode: give up after this many consecutive empty polls",
    )
    work.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="HTTP mode: per-request timeout against the coordinator",
    )
    work.add_argument(
        "--retries", type=int, default=0,
        help="HTTP mode: retry an unreachable coordinator this many times "
        "before giving up (connection errors only; HTTP errors never retry)",
    )
    work.add_argument(
        "--backoff-s", type=float, default=0.5,
        help="HTTP mode: initial retry backoff, doubled per attempt",
    )
    work.add_argument(
        "--secret", default=None,
        help="HTTP mode: shared secret the coordinator requires",
    )
    work.add_argument(
        "--seed-range", metavar="A:B",
        help="file mode: run seeds [A, B) offline via run_campaign",
    )
    work.add_argument(
        "--checkpoint", metavar="FILE",
        help="file mode: write trial records here (required with --seed-range)",
    )
    add_spec_args(work)
    work.add_argument(
        "--jobs", type=int, default=1,
        help="local worker processes per leased range (both modes; "
        "records are bit-identical at any value)",
    )
    work.add_argument(
        "--resume", action="store_true",
        help="file mode: fold an existing checkpoint in and run only "
        "missing seeds",
    )
    work.set_defaults(func=_cmd_work)

    serve = sub.add_parser(
        "serve", help="run the always-on HTTP query service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--database", "-d", default=None,
        help="JSON database file to preload at boot",
    )
    serve.add_argument(
        "--name", default="default", help="database name for --database"
    )
    serve.add_argument(
        "--tenant", default="public", help="tenant owning --database"
    )
    serve.add_argument(
        "--secret", default=None,
        help="require this shared secret on every request",
    )
    serve.add_argument(
        "--dialect", choices=("postgres", "oracle"), default="postgres"
    )
    serve.add_argument(
        "--plan-cache-size", type=int, default=256,
        help="plan-cache entries per tenant engine",
    )
    serve.add_argument(
        "--plan-cache-bytes", type=int, default=None,
        help="estimated-byte budget for each tenant's plan cache",
    )
    serve.add_argument(
        "--build-cache-size", type=int, default=128,
        help="build-side cache entries per tenant engine",
    )
    serve.add_argument(
        "--build-cache-bytes", type=int, default=None,
        help="estimated-byte budget for each tenant's build-side cache",
    )
    serve.add_argument(
        "--batch-rows", type=int, default=256,
        help="rows per streamed chunk",
    )
    serve.add_argument(
        "--deadline-s", type=float, default=None,
        help="per-request deadline; a started stream past it is aborted "
        "with an error trailer, an unstarted one answers 503",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="overload admission: shed requests beyond this many "
        "in flight with 429 + Retry-After",
    )
    serve.add_argument(
        "--drain-s", type=float, default=5.0,
        help="SIGTERM drain grace before in-flight streams are aborted "
        "with an error trailer",
    )
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query", help="run one query against a running `repro serve`"
    )
    query.add_argument("url", metavar="URL", help="service base url")
    query.add_argument("sql", metavar="SQL")
    query.add_argument(
        "--params", default=None, metavar="JSON",
        help='JSON array bound to $1..$n (e.g. \'[1, null, "x"]\'); '
        "implies the prepared path",
    )
    query.add_argument(
        "--prepare", action="store_true",
        help="force the prepared path even without --params",
    )
    query.add_argument("--tenant", default=None)
    query.add_argument("--secret", default=None)
    query.add_argument(
        "--database", dest="db", default=None,
        help="database name on the service (default: the service default)",
    )
    query.add_argument("--max-rows", type=int, default=50)
    query.set_defaults(func=_cmd_query)

    generate = sub.add_parser("generate", help="print random queries")
    generate.add_argument("--count", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--dialect", choices=("standard", "postgres", "oracle"), default="standard"
    )
    generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
