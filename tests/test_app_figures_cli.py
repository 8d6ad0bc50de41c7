"""Tests for the figure regeneration functions and the flexviz CLI."""

from __future__ import annotations

import json

import pytest

from repro.app.cli import main
from repro.app.figures import (
    FIGURE_BUILDERS,
    figure_1,
    figure_2,
    figure_5,
    figure_6,
    figure_8,
    figure_10,
    figure_11,
    generate_all_figures,
)
from repro.datagen.scenarios import ScenarioConfig, generate_scenario


@pytest.fixture(scope="module")
def figure_scenario():
    return generate_scenario(ScenarioConfig(prosumer_count=50, seed=19))


class TestFigures:
    def test_registry_covers_all_eleven_figures(self):
        assert len(FIGURE_BUILDERS) == 11

    def test_generate_all_figures(self, figure_scenario, tmp_path):
        artifacts = generate_all_figures(figure_scenario, directory=str(tmp_path))
        # Figure 1 yields two artefacts (before/after), so 12 in total.
        assert len(artifacts) == 12
        assert len(list(tmp_path.glob("*.svg"))) == 12
        assert all(artifact.svg.startswith("<?xml") for artifact in artifacts)

    def test_figure_1_balancing_improves_overlap(self, figure_scenario):
        before, after = figure_1(figure_scenario)
        assert after.summary["overlap_with_res_surplus_kwh"] >= before.summary["overlap_with_res_surplus_kwh"]

    def test_figure_2_structural_elements(self, figure_scenario):
        artifact = figure_2(figure_scenario)
        assert artifact.summary["time_flexibility_slots"] >= 4
        assert artifact.summary["scheduled_energy"] > 0
        assert any("start window" in line for line in artifact.summary["detail_lines"])

    def test_figure_5_pivot_rows_are_prosumer_types(self, figure_scenario):
        artifact = figure_5(figure_scenario)
        assert set(artifact.summary["row_members"]) <= {
            "household",
            "commercial",
            "small_industry",
            "power_plant",
        }

    def test_figure_6_percentages(self, figure_scenario):
        artifact = figure_6(figure_scenario)
        total = sum(artifact.summary["state_percentages"].values())
        assert total == pytest.approx(100.0) or total == 0.0

    def test_figure_8_selection_and_lanes(self, figure_scenario):
        artifact = figure_8(figure_scenario)
        assert artifact.summary["offer_count"] == len(figure_scenario.flex_offers)
        assert artifact.summary["lane_count"] > 0
        assert artifact.summary["selected_by_rectangle"] >= 0

    def test_figure_10_provenance(self, figure_scenario):
        artifact = figure_10(figure_scenario)
        assert artifact.summary["is_aggregate"]
        assert len(artifact.summary["constituents"]) >= 2

    def test_figure_11_reduction(self, figure_scenario):
        artifact = figure_11(figure_scenario)
        assert artifact.summary["reduction_ratio"] >= 1.0
        ratios = [point["reduction_ratio"] for point in artifact.summary["sweep"]]
        assert ratios == sorted(ratios)

    def test_artifact_save(self, figure_scenario, tmp_path):
        artifact = figure_2(figure_scenario)
        path = artifact.save(str(tmp_path))
        assert path.endswith("figure_02_structure.svg")


class TestCli:
    def test_render_basic_view(self, tmp_path, capsys):
        out = tmp_path / "basic.svg"
        assert main(["--prosumers", "25", "--seed", "3", "render", "--view", "basic", "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")
        assert "basic" in capsys.readouterr().out

    def test_render_ascii(self, capsys):
        assert main(["--prosumers", "15", "render", "--view", "dashboard", "--ascii"]) == 0
        assert capsys.readouterr().out.strip()

    def test_warehouse_export(self, tmp_path, capsys):
        assert main(["--prosumers", "15", "warehouse", "--out", str(tmp_path / "dw")]) == 0
        assert (tmp_path / "dw" / "fact_flexoffer.csv").exists()

    def test_plan_command(self, capsys):
        assert main(["--prosumers", "20", "plan"]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "imbalance cost" in out

    def test_mdx_command(self, capsys):
        query = (
            "SELECT {[Measures].[flex_offer_count]} ON COLUMNS, "
            "{[State].[state].Members} ON ROWS FROM [FlexOffers]"
        )
        assert main(["--prosumers", "20", "mdx", query]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["flex_offer_count"]
        assert payload["rows"]

    def test_live_command(self, capsys):
        assert main(["--prosumers", "15", "live", "--batch-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "commit latency" in out and "committed state" in out

    def test_views_materialized_command(self, capsys):
        argv = ["--prosumers", "30", "--seed", "5", "views", "--materialized"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        population = next(line for line in lines if line.startswith("final live offers"))
        # The demo commits in micro-batches: views see carries and notifications.
        commits = next(line for line in lines if line.startswith("commits"))
        assert int(commits.split(":")[1]) > 1
        header = next(index for index, line in enumerate(lines) if line.startswith("view "))
        # One row per view: name, version, rows, deltas, skipped, stale, ms, fresh.
        rows = {line.split()[0]: line.split() for line in lines[header + 2 :]}
        assert set(rows) >= {"all-aggregated", "assigned"}
        assert all(fields[-1] == "ok" for fields in rows.values())
        assert int(rows["all-aggregated"][2]) == int(population.split(":")[1])

    def test_live_command_rejects_negative_batch_size(self, capsys):
        assert main(["--prosumers", "15", "live", "--batch-size", "-1"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_figures_command(self, tmp_path, capsys):
        assert main(["--prosumers", "20", "figures", "--out", str(tmp_path / "figs")]) == 0
        assert len(list((tmp_path / "figs").glob("*.svg"))) == 12
        assert "wrote 12 figures" in capsys.readouterr().out

    def test_checkpoint_restore_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "ckpt")
        argv = ["--prosumers", "15", "--seed", "4", "checkpoint", "--out", out]
        assert main([*argv, "--tail", "0.2", "--segment-size", "32", "--compact"]) == 0
        assert "wrote checkpoint" in capsys.readouterr().out
        assert main(["restore", "--from", out, "--smoke"]) == 0
        assert "restore smoke OK" in capsys.readouterr().out

    def test_checkpoint_refuses_reused_directory(self, tmp_path, capsys):
        out = str(tmp_path / "ckpt")
        argv = ["--prosumers", "15", "--seed", "4", "checkpoint", "--out", out]
        assert main(argv) == 0
        capsys.readouterr()
        # A second stream appended to the old log with a restarted offset
        # would be unrestorable; the CLI must refuse the reused directory.
        assert main(argv) == 2
        assert "already holds" in capsys.readouterr().err

    def test_restore_reports_missing_checkpoint(self, tmp_path, capsys):
        assert main(["restore", "--from", str(tmp_path / "nothing")]) == 1
        assert "restore failed" in capsys.readouterr().err

    def test_restore_reports_malformed_checkpoint_line(self, tmp_path, capsys):
        out = tmp_path / "ckpt"
        assert main(["--prosumers", "15", "--seed", "4", "checkpoint", "--out", str(out)]) == 0
        offers = out / "snapshot-a" / "offers.jsonl"
        lines = offers.read_text(encoding="utf-8").splitlines(keepends=True)
        offers.write_text("".join(["[]\n", *lines[1:]]), encoding="utf-8")
        capsys.readouterr()
        assert main(["restore", "--from", str(out)]) == 1
        assert "restore failed" in capsys.readouterr().err
