"""The paired off/on comparison harness: ``run_comparison`` and ``bench --compare``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import bench

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "bench_baseline.json"

#: The cheapest bench artifact (a few hundredths of a second per run).
ARTIFACT = "churn_baseline"

SIDE_KEYS = {"wall_s", "events", "events_per_s", "traces", "trace_bytes", "checkpoints"}


@pytest.mark.parametrize("treatment", sorted(bench.TREATMENTS))
def test_comparison_report(treatment):
    report = bench.run_comparison(treatment, names=[ARTIFACT], repeats=2)

    assert report["treatment"] == treatment
    assert report["repeats"] == 2
    assert set(report["total"]) == {"off_wall_s", "on_wall_s", "overhead_pct", "pass_ratios"}
    assert len(report["total"]["pass_ratios"]) == 2
    record = report["artifacts"][ARTIFACT]
    assert set(record) == {
        "title", "digest", "digest_match", "off", "on", "overhead_pct", "pair_ratios"
    }
    assert record["digest_match"] is True
    assert len(record["pair_ratios"]) == 2
    assert record["digest"] == bench.load_baseline(BASELINE)[ARTIFACT]
    # Peak RSS is process-wide, so a side record must not claim one.
    assert set(record["off"]) == SIDE_KEYS
    bus_keys = {"bus_events", "bus_dropped"} if treatment == "telemetry" else set()
    assert set(record["on"]) == SIDE_KEYS | bus_keys
    if treatment == "record":
        assert record["off"]["traces"] == 0 < record["on"]["traces"]
    if treatment == "telemetry":
        assert record["on"]["bus_events"] > 0

    table = bench.format_comparison(report)
    assert ARTIFACT in table and "TOTAL" in table


def _bench_compare(*extra):
    return main(
        ["bench", "--compare", "record", "--artifacts", ARTIFACT, "--repeats", "1",
         "--baseline", str(BASELINE), *extra]
    )


def _patch_on_side(monkeypatch, **overrides):
    """Run the real side runner, then overwrite fields of the "on" side's record."""
    real = bench._run_side

    def patched(name, treatment, on):
        record = real(name, treatment, on)
        if on:
            record.update(
                {key: value(record) if callable(value) else value
                 for key, value in overrides.items()}
            )
        return record

    monkeypatch.setattr(bench, "_run_side", patched)


def test_cli_fails_when_the_on_side_digest_differs(monkeypatch, capsys):
    _patch_on_side(monkeypatch, digest="0" * 64)
    assert _bench_compare("--out", "") == 1
    assert "RECORD PERTURBED RESULTS" in capsys.readouterr().out


def test_cli_fails_when_the_overhead_budget_is_exceeded(monkeypatch, capsys):
    _patch_on_side(monkeypatch, wall_s=lambda record: record["wall_s"] * 2 + 1.0)
    assert _bench_compare("--out", "", "--max-overhead", "5") == 1
    assert "RECORD OVERHEAD" in capsys.readouterr().out


def test_cli_passes_within_budget_and_checks_digests(capsys):
    assert _bench_compare("--out", "", "--max-overhead", "1000000") == 0
    assert "all result digests match the committed baseline" in capsys.readouterr().out


@pytest.mark.parametrize(
    "out, written",
    [(None, "BENCH_PR6.json"), ("BENCH_PR2.json", "BENCH_PR2.json")],
)
def test_cli_report_path(out, written, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _bench_compare(*(["--out", out] if out else [])) == 0
    assert [path.name for path in tmp_path.iterdir()] == [written]
    assert json.loads((tmp_path / written).read_text())["treatment"] == "record"
