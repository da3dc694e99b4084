"""Tier-1 smoke test and canary for the observatory benchmark.

``--smoke`` sizes (a 1,000-row library, at most 40 distinct operations per
workload) say nothing about speed; they show that every workload still runs
against the current public entry points, passes its gates and emits every
metric ``BENCHMARK.json`` names.  The canary shows that the gate can fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def observatory(out: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )


def test_smoke_emits_every_metric_for_all_six_workloads(tmp_path):
    done = observatory(tmp_path, "--trace")
    assert done.returncode == 0, done.stdout
    documents = [json.loads(path.read_text()) for path in tmp_path.glob("run-*.json")]
    runs = {(run["workload"], run["traced"]): run for run in documents}
    assert len(runs) == len(documents) == 2 * len(WORKLOADS)
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    measured_layers = set()
    for name in WORKLOADS:
        untraced, traced = runs[(name, False)], runs[(name, True)]
        for run in (untraced, traced):
            assert run["failed"] == 0 and run["attempted"] > 0, run["failures"]
            assert run["result_digest"]
        assert set(untraced["end_to_end"]) == end_to_end
        assert all(value > 0 for value in untraced["end_to_end"].values())
        assert untraced["workload_digest"]
        measured_layers |= set(traced["per_layer"])
        spans = (tmp_path / f"trace-{name}.jsonl").read_text().splitlines()
        assert spans and set(json.loads(spans[0])) == {
            "id", "name", "start", "end", "parent", "op"
        }
    assert measured_layers == {metric["name"] for metric in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} " in done.stdout
    assert not list(tmp_path.glob("tmp-*")), "scratch files left behind"


def test_driver_result_object_names_every_metric_with_its_unit(tmp_path):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = observatory(tmp_path, "--workload", "campaign_paper", "--trace", trace)
        assert done.returncode == 0, done.stdout
        outcome = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
        assert outcome["correct"] is True and outcome["failed"] == 0
        assert outcome["metrics"].keys() == {m["name"] for m in SPEC[kind]}
        for metric in SPEC[kind]:
            assert outcome["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_gives_the_same_digests(tmp_path):
    digests = []
    for _ in range(2):
        done = observatory(tmp_path, "--workload", "engine_olap", "--seed", "12")
        assert done.returncode == 0, done.stdout
        digests.append(
            [line for line in done.stdout.splitlines() if "_digest" in line]
        )
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_canary_wrong_oracle_row_fails_the_run(tmp_path):
    done = observatory(tmp_path, "--workload", "engine_olap", "--canary")
    assert done.returncode != 0
    assert "wrong result" in done.stdout
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["correct"] is False and outcome["failed"] > 0


def test_options_that_cannot_do_their_job_are_refused(tmp_path):
    # No sqlite3 oracle to hand a wrong row to: the canary may not pass.
    done = observatory(tmp_path, "--workload", "campaign_paper", "--canary")
    assert done.returncode != 0 and "--canary" in done.stdout
    # A spread takes two runs.
    done = observatory(tmp_path, "--selfcheck", "--runs", "1")
    assert done.returncode != 0 and "--runs" in done.stdout
