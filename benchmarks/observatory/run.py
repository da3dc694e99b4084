"""The observatory benchmark: six workloads, measured from outside.

    python3 benchmarks/observatory/run.py                    # all six, untraced
    python3 benchmarks/observatory/run.py --trace            # ... plus the traced runs
    python3 benchmarks/observatory/run.py --workload serve_point --seed 12 \\
        --seconds 10 --trace 0                               # one run, as the driver makes it
    python3 benchmarks/observatory/run.py --selfcheck        # two sets of runs, compared

Every run prints its metrics by name with unit and sample count, checks
every output against its oracle, writes ``<out>/run-<utc>-<sha>.json``, and
exits non-zero on a wrong result.  With ``--workload`` the last line of
standard output is the result object the driver reads.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from obs_common import (
    HERE,
    REPO,
    GateFailure,
    SpanRecorder,
    WorkloadResult,
    environment,
    share,
    spread,
    use_repo_sources,
)

NAMES = (
    "campaign_paper",
    "campaign_live",
    "engine_olap",
    "serve_point",
    "serve_stream",
    "serve_adhoc",
)

#: Rows of the library database at full size and for ``--smoke``.
ROWS = 30_000
SMOKE_ROWS = 1_000

#: Timed passes of a window; ``ops_per_s`` is the median over these.
PASSES = 5
SMOKE_PASSES = 2

#: ``setup_s`` is the median over repetitions of the set-up phase: at least
#: the first number, and up to the second while a quick set-up has used
#: less than ``SETUP_SECONDS`` in all.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 2.5


def contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def build(name: str, args):
    from obs_campaign import CampaignLive, CampaignPaper
    from obs_olap import EngineOlap
    from obs_serve import Serve

    if name.startswith("serve_"):
        return Serve(args, name[len("serve_"):])
    return {
        "campaign_paper": CampaignPaper,
        "campaign_live": CampaignLive,
        "engine_olap": EngineOlap,
    }[name](args)


def run_workload(name: str, args, trace: bool) -> WorkloadResult:
    """One run of one workload: set-up (repeated, for a steady ``setup_s``),
    oracle, then either the timed window or the traced decomposition."""
    workload = build(name, args)
    result = WorkloadResult(name, workload.sizes)
    with tempfile.TemporaryDirectory(dir=args.out, prefix=f"tmp-{name}-") as scratch:
        try:
            setups = []
            repeats = (1, 1) if trace or args.smoke else SETUP_REPEATS
            while len(setups) < repeats[0] or (
                len(setups) < repeats[1] and sum(setups) < SETUP_SECONDS
            ):
                workload.teardown()
                started = time.perf_counter()
                workload.setup(Path(scratch))
                setups.append(time.perf_counter() - started)
            workload.prepare_oracle(result)
            if trace:
                recorder = SpanRecorder()
                workload.trace(result, recorder)
                recorder.write(args.out / f"trace-{name}.jsonl")
            else:
                workload.measure(result)
                result.end_to_end["setup_s"] = median(setups)
        except GateFailure as failure:
            result.fail(max(1, result.attempted), str(failure))
            result.attempted = max(1, result.attempted)
        finally:
            workload.teardown()
    result.per_layer["fail_share"] = share(result.failed, result.attempted)
    return result


# -- output ------------------------------------------------------------------------------


def print_result(result: WorkloadResult, spec: dict, trace: bool) -> None:
    kind = "per_layer" if trace else "end_to_end"
    measured = result.per_layer if trace else result.end_to_end
    sizes = ", ".join(f"{k}={v}" for k, v in result.sizes.items())
    print(f"{result.name} ({'traced' if trace else 'untraced'}; {sizes})")
    for metric in spec[kind]:
        if metric["name"] in measured:
            value = measured[metric["name"]]
            print(
                f"  {metric['name']:<38} {value:>14.4f} {metric['unit']:<9}"
                f" n={result.samples}"
            )
    if not trace:
        fail_share = share(result.failed, result.attempted)
        print(f"  {'fail_share':<38} {fail_share:>14.4f} {'fraction':<9} n={result.attempted}")
        print(f"  workload_digest {result.workload_digest[:16]}")
    print(f"  result_digest   {result.result_digest[:16]}")
    for why in result.failures:
        print(f"  FAILED: {why}")


def driver_line(result: WorkloadResult, spec: dict, trace: bool) -> str:
    """The result object of one run, with every metric the contract names;
    a layer this workload does not exercise reads 0."""
    kind = "per_layer" if trace else "end_to_end"
    measured = result.per_layer if trace else result.end_to_end
    metrics = {
        metric["name"]: {
            "value": float(measured.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in spec[kind]
    }
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def write_document(args, env: dict, result: WorkloadResult, traced: bool) -> Path:
    """One result document per run, never overwritten."""
    stem = f"run-{env['utc']}-{env['git_sha']}"
    path = args.out / f"{stem}.json"
    serial = 1
    while path.exists():
        serial += 1
        path = args.out / f"{stem}-{serial}.json"
    document = {
        "schema": "observatory-run/v1",
        "environment": env,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": traced,
        **result.to_json(),
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


# -- selfcheck ------------------------------------------------------------------------------


def child_command(name: str, args, seed: int, trace: bool, src: str) -> list:
    """One run of one workload in a fresh process, as the driver makes it."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--out", str(args.out),
    ]
    for flag, value in (("--smoke", args.smoke), ("--canary", args.canary)):
        if value:
            command.append(flag)
    if src:
        command += ["--src", src]
    return command


def one_run(name: str, args, seed: int, src: str) -> dict:
    command = child_command(name, args, seed, False, src)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    outcome = json.loads(line)
    if done.returncode != 0 or not outcome.get("correct"):
        raise SystemExit(f"selfcheck: {name} failed its gates:\n{done.stdout[-2000:]}")
    return {k: v["value"] for k, v in outcome["metrics"].items()}


def selfcheck(args, spec: dict) -> int:
    """Two sets of runs compared by the benchmark's own bounds.

    The sets are interleaved run by run, so that a drift of the machine
    does not line up with one of them: pair ``i`` runs every workload once
    for A and once for B on seed ``--seed + i``, the odd pairs B first and
    in reverse workload order.  With ``--against`` set B measures another
    checkout's ``src`` with this same benchmark code.
    """
    sources = (args.src, args.against or args.src)
    sets = [{name: [] for name in NAMES} for _ in sources]
    for pair in range(args.runs):
        sides = (0, 1) if pair % 2 == 0 else (1, 0)
        for name in NAMES[:: 1 if pair % 2 == 0 else -1]:
            for side in sides:
                sets[side][name].append(one_run(name, args, args.seed + pair, sources[side]))
    disagreements = 0
    print(f"{'workload':<15} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for name in NAMES:
        for metric in spec["end_to_end"]:
            a = [run[metric["name"]] for run in sets[0][name]]
            b = [run[metric["name"]] for run in sets[1][name]]
            base, other = median(a), median(b)
            ratio = other / base
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "DISAGREE"
                disagreements += 1
            else:
                verdict = "agree"
            print(f"{name:<15} {metric['name']:<14} {base:>12.4f} {other:>12.4f} "
                  f"{ratio:>7.3f} {metric['bound']:>6.2f}  {verdict}")
    return 1 if disagreements else 0


# -- entry ------------------------------------------------------------------------------------


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="run one workload and "
                        "print the driver's result object as the last line")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every metric, no meaningful timing")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--canary", action="store_true",
                        help="hand the gate one wrong oracle row; the run must fail")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="selfcheck: pairs of runs per workload (at least 2)")
    parser.add_argument("--src", default="", help="the src/ directory to measure "
                        "(default: this checkout's)")
    parser.add_argument("--against", default="",
                        help="selfcheck: another checkout's src/ for set B")
    args = parser.parse_args(argv)
    if args.selfcheck and args.runs < 2:
        parser.error("--selfcheck needs --runs of at least 2: a spread takes two runs")
    if args.canary and (args.workload or "").startswith("campaign_"):
        parser.error("--canary needs a workload with a sqlite3 oracle to hand a wrong "
                     "row to: engine_olap or serve_*")
    return args


def out_of_time(_signal, _frame):
    raise TimeoutError("observatory: the run took more than 170 s")


def main(argv=None) -> int:
    args = parse(argv)
    spec = contract()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.rows = SMOKE_ROWS if args.smoke else ROWS
    args.passes = SMOKE_PASSES if args.smoke else PASSES
    if args.src:
        os.environ["OBSERVATORY_SRC"] = args.src
    use_repo_sources()
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.selfcheck:
        return selfcheck(args, spec)
    if not args.workload:
        # Every workload in a process of its own, as the driver runs them:
        # peak memory and caches of one never reach the next.
        failed = 0
        for name in NAMES:
            for trace in [False] + [True] * args.trace:
                command = child_command(name, args, args.seed, trace, args.src)
                failed += subprocess.run(command, check=False).returncode != 0
        return 1 if failed else 0

    # The driver allows a run 180 s: give up before that, through the
    # ``finally`` clauses that stop the child processes.
    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(170)
    trace = bool(args.trace)
    env = environment()
    print("observatory:", ", ".join(f"{k}={v}" for k, v in env.items()),
          f"seed={args.seed} seconds={args.seconds:g}")
    result = run_workload(args.workload, args, trace)
    print_result(result, spec, trace)
    print(f"result document: {write_document(args, env, result, trace)}")
    print(driver_line(result, spec, trace))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
