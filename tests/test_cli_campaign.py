"""CLI coverage for the campaign/store subcommands and the bench harness."""

from pathlib import Path

import pytest

from repro import units
from repro.api import AdversarySpec, Campaign, ResultStore, Scenario, default_session
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "bench_baseline.json"


@pytest.fixture(autouse=True)
def _clear_cache():
    default_session().clear_cache()
    yield
    default_session().clear_cache()


def campaign_file(tmp_path, exporter="attack_sweep"):
    scenario = Scenario(
        name="cli campaign",
        base="smoke",
        sim={"duration": units.months(5)},
        adversary=AdversarySpec(
            "pipe_stoppage",
            {"attack_duration_days": 45.0, "coverage": 1.0, "recuperation_days": 15.0},
        ),
        seeds=(1,),
    )
    campaign = Campaign.from_grid(
        "cli-campaign",
        scenario,
        {"adversary.attack_duration_days": [30.0, 60.0]},
        exporter=exporter,
    )
    return campaign, campaign.save(tmp_path / "campaign.json")


class TestCampaignParser:
    def test_campaign_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_options_parse(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "run",
                "fig2_baseline",
                "--store",
                "/tmp/x",
                "--workers",
                "2",
                "--max-points",
                "2",
            ]
        )
        assert args.campaign == "fig2_baseline"
        assert args.max_points == 2
        assert args.workers == 2

    def test_store_prune_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "prune"])


class TestCampaignExecution:
    def test_run_status_resume_report_cycle(self, tmp_path, capsys):
        campaign, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")

        assert main(["campaign", "run", str(path), "--store", store,
                     "--max-points", "1"]) == 0
        output = capsys.readouterr().out
        assert "1/2 points complete" in output
        assert "campaign resume" in output

        assert main(["campaign", "status", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "pending" in output and "complete" in output

        assert main(["campaign", "resume", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "2 points complete" in output
        assert "delay_ratio" in output

        assert main(["campaign", "report", str(path), "--store", store]) == 0
        output = capsys.readouterr().out
        assert "result digest:" in output

    def test_run_without_store_prints_rows(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "2 points complete" in output
        assert "coefficient_of_friction" in output

    def test_resume_and_report_need_a_store(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        assert main(["campaign", "resume", str(path)]) == 2
        assert "--store" in capsys.readouterr().out
        assert main(["campaign", "report", str(path)]) == 2
        assert "--store" in capsys.readouterr().out

    def test_report_on_incomplete_campaign_fails(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", str(path), "--store", store, "--max-points", "1"])
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--store", store]) == 2
        assert "incomplete" in capsys.readouterr().out

    def test_unknown_campaign_reference_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "status", "no_such_artifact"])

    def test_named_artifact_resolves_from_the_bench_registry(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "status", "fig2_baseline", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "0/4 points complete" in output

    def test_report_check_digest_against_baseline(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "fig2_baseline", "--store", store]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "campaign",
                    "report",
                    "fig2_baseline",
                    "--store",
                    store,
                    "--check-digest",
                    str(BASELINE),
                ]
            )
            == 0
        )
        assert "matches the committed baseline" in capsys.readouterr().out

    def test_report_check_digest_fails_on_unknown_key(self, tmp_path, capsys):
        _, path = campaign_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", str(path), "--store", store])
        capsys.readouterr()
        # The hand-written campaign has no digest in the committed baseline.
        assert (
            main(
                [
                    "campaign",
                    "report",
                    str(path),
                    "--store",
                    store,
                    "--check-digest",
                    str(BASELINE),
                ]
            )
            == 1
        )
        assert "no baseline digest" in capsys.readouterr().out


class TestStorePrune:
    def test_prune_removes_temp_files_and_kinds(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.save_json("runs", "d1", [])
        store.save_json("result", "d2", {})
        (tmp_path / "runs-torn.json.abc123.tmp").write_text("{torn", encoding="utf-8")

        assert main(["store", "prune", "--store", str(tmp_path)]) == 0
        assert "pruned 1 item(s)" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.tmp"))
        assert store.load_json("runs", "d1") == []

        assert main(["store", "prune", "--store", str(tmp_path), "--kind", "runs"]) == 0
        capsys.readouterr()
        assert store.load_json("runs", "d1") is None
        assert store.load_json("result", "d2") == {}

    def test_prune_rejects_invalid_kind(self, tmp_path, capsys):
        assert (
            main(["store", "prune", "--store", str(tmp_path), "--kind", "../evil"]) == 2
        )
        assert "invalid artifact kind" in capsys.readouterr().out


class TestBenchQuick:
    def test_bench_quick_checks_digests_against_the_baseline(self, capsys):
        exit_code = main(
            [
                "bench",
                "--quick",
                "--out",
                "",
                "--baseline",
                str(BASELINE),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "all result digests match the committed baseline" in output
        for artifact in ("fig2_baseline", "fig3_pipe_stoppage", "fig6_admission",
                         "paper_smoke_100"):
            assert artifact in output

    def test_bench_rejects_unknown_artifacts(self):
        with pytest.raises(ValueError):
            main(["bench", "--artifacts", "not_a_real_artifact", "--out", ""])
