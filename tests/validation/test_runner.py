"""The validation campaign: the paper's headline experiment at small scale."""

import pytest

from repro.core import NULL, Database, Schema
from repro.generator import DataFillerConfig, GeneratorConfig
from repro.sql import annotate
from repro.validation import ValidationRunner, format_campaigns, format_table


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        ValidationRunner(variant="mysql")


@pytest.mark.parametrize("variant", ["postgres", "oracle"])
def test_small_campaign_fully_agrees(variant):
    """The reproduction of the paper's result: full agreement."""
    runner = ValidationRunner(
        variant=variant, data_config=DataFillerConfig(max_rows=4)
    )
    report = runner.run(trials=40, base_seed=12345)
    assert report.trials == 40
    assert report.agreements == 40
    assert not report.mismatches
    assert report.agreement_rate == 1.0


def test_oracle_campaign_sees_error_agreements():
    """With enough trials, some queries hit the ambiguity class and both
    sides error — counted as agreement, as in the paper."""
    runner = ValidationRunner(variant="oracle", data_config=DataFillerConfig(max_rows=3))
    report = runner.run(trials=150, base_seed=0)
    assert report.agreements == report.trials
    assert report.error_agreements > 0


def test_compare_on_fixed_query():
    schema = Schema({"R": ("A",), "S": ("A",)})
    runner = ValidationRunner(schema=schema, variant="postgres")
    db = Database(schema, {"R": [(1,), (NULL,)], "S": [(NULL,)]})
    q = annotate("SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)", schema)
    result = runner.compare(q, db)
    assert result.agreed
    assert result.semantics.table.is_empty()


def test_explain_mentions_query():
    schema = Schema({"R": ("A",)})
    runner = ValidationRunner(schema=schema, variant="postgres")
    db = Database(schema, {"R": [(1,)]})
    q = annotate("SELECT R.A FROM R", schema)
    result = runner.compare(q, db, seed=9)
    text = runner.explain(result)
    assert "seed 9" in text
    assert "SELECT" in text


def test_report_summary_format():
    runner = ValidationRunner(data_config=DataFillerConfig(max_rows=2))
    report = runner.run(trials=5)
    summary = report.summary()
    assert "trials=5" in summary
    assert "rate=" in summary


def test_format_table_and_campaigns():
    runner = ValidationRunner(data_config=DataFillerConfig(max_rows=2))
    report = runner.run(trials=3)
    rendered = format_campaigns([report])
    assert "postgres" in rendered
    assert "100.0000%" in rendered
    table_text = format_table(("x", "y"), [(1, "ab"), (2, "c")])
    assert "| x" in table_text and "| ab" in table_text


def test_trial_result_is_reproducible():
    runner = ValidationRunner(data_config=DataFillerConfig(max_rows=3))
    a = runner.run_trial(77)
    b = runner.run_trial(77)
    assert a.query == b.query
    assert a.agreed and b.agreed


@pytest.mark.parametrize("variant", ["postgres", "oracle"])
def test_paper_trials_never_get_generated_code(variant, monkeypatch):
    """The engine generates code for a single-use plan only from
    SINGLE_USE_COMPILE_ROWS bound rows; the paper campaign (default 6-row
    cap, at most a few dozen rows under any query's scans) must keep its
    predicate objects — the lowering it was tuned on — however the
    engine's rule evolves."""
    from repro.engine import engine as engine_module
    from repro.validation import DifferentialRunner

    codegen = []
    lower = engine_module.compile_plan

    def spy(plan, stats, generate):
        codegen.append(generate)
        return lower(plan, stats, generate)

    monkeypatch.setattr(engine_module, "compile_plan", spy)
    runner = ValidationRunner(variant=variant)
    report = runner.run(trials=400, base_seed=0)
    assert report.agreements == report.trials == 400
    differential = DifferentialRunner()
    for seed in range(20):
        differential.run_trial(seed)
    assert codegen and not any(codegen)
    # The guard itself works: a cache-admitting engine does generate code.
    from repro.engine import Engine

    Engine(runner.schema)._plan(runner.run_trial(0).query)
    assert codegen[-1] is True
