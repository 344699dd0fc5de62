import dataclasses
import json
import os

import pytest

import wvcsim.experiments
import wvcsim.vehicles
from wvcsim.cli import main
from wvcsim.experiments import (ExperimentPlan, KAPPA_GRID, SPACING_GRID,
                                TrialError, default_workers, emit_plot_data,
                                plot_dataset, run_headline, run_sweep,
                                summarize)
from wvcsim.records import (COLUMNS, SCHEMA_VERSION, read_trials_csv,
                            write_csv, write_trials_csv)
from wvcsim.stats import significance_stars


TINY = dict(trials_per_point=2, hours_per_trial=0.05)


@pytest.fixture(scope="module")
def tiny_headline():
    plan = ExperimentPlan.headline(master_seed=5, **TINY)
    return run_headline(plan, workers=1)


@pytest.fixture(scope="module")
def tiny_sweep():
    plan = ExperimentPlan.sweep("kappa", master_seed=5, values=(0.5, 3.0), **TINY)
    return run_sweep(plan, workers=1)


class TestPlanShapes:
    def test_headline_defaults(self):
        plan = ExperimentPlan.headline(master_seed=1)
        assert plan.trials_per_point == 20
        assert plan.hours_per_trial == 4.0
        assert len(plan.modes) == 3
        assert plan.trials_per_point * len(plan.modes) == 60

    def test_sweep_grid_cardinalities(self):
        spacing = ExperimentPlan.sweep("spacing", master_seed=1)
        size = ExperimentPlan.sweep("size", master_seed=1)
        kappa = ExperimentPlan.sweep("kappa", master_seed=1)
        assert spacing.values == SPACING_GRID
        assert len(spacing.values) * 3 * spacing.trials_per_point == 315
        assert len(size.values) * 3 * size.trials_per_point == 315
        assert kappa.values == KAPPA_GRID
        assert len(kappa.values) * 3 * kappa.trials_per_point == 270
        assert spacing.hours_per_trial == 2.0

    def test_unknown_sweep_kind(self):
        with pytest.raises(ValueError):
            ExperimentPlan.sweep("weather", master_seed=1)

    def test_headline_is_one_unswept_point(self):
        assert ExperimentPlan.headline(master_seed=1).values == (None,)


class TestRunners:
    def test_headline_row_count_and_pairing(self, tiny_headline):
        assert len(tiny_headline) == 6
        by_trial = {}
        for rec in tiny_headline:
            by_trial.setdefault(rec.trial_id, []).append(rec)
        for trial_records in by_trial.values():
            # Arrival pairing: identical Poisson input across the three modes.
            assert len({r.arrivals for r in trial_records}) == 1

    def test_sweep_rows_complete(self, tiny_sweep):
        seen = {(r.mode, r.sweep_value, r.trial_id) for r in tiny_sweep}
        assert len(seen) == len(tiny_sweep) == 2 * 3 * 2

    def test_one_runner_serves_headline_and_sweeps(self):
        assert run_headline is run_sweep

    def test_unknown_plan_kind_rejected_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(wvcsim.experiments, "run_trial", no_trial)
        plan = ExperimentPlan(kind="weather", trials_per_point=1,
                              hours_per_trial=0.01, values=(1.0,), master_seed=1)
        with pytest.raises(ValueError, match="unknown plan kind 'weather'"):
            run_sweep(plan)

    def test_pool_parent_loads_the_kernel(self, monkeypatch, tmp_path):
        # The forked workers inherit the kernel the parent loaded (or its
        # failed attempt), so none of them builds it; no trial runs in the
        # parent. Each build leaves a file named after its process.
        builds = tmp_path / "builds"
        builds.mkdir()
        build = wvcsim.vehicles._build_kernel

        def recorded():
            (builds / str(os.getpid())).touch()
            return build()

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", None)
        monkeypatch.setattr(wvcsim.vehicles, "_build_kernel", recorded)
        plan = ExperimentPlan.sweep("spacing", master_seed=3, values=(5.0, 10.0),
                                    trials_per_point=2, hours_per_trial=0.02)
        parallel = run_sweep(plan, workers=2)
        assert wvcsim.vehicles._kernel is not None
        assert [p.name for p in builds.iterdir()] == [str(os.getpid())]
        serial = run_sweep(plan, workers=1)
        for name, records in (("parallel", parallel), ("serial", serial)):
            write_trials_csv(str(tmp_path / f"{name}.csv"), records)
        assert ((tmp_path / "parallel.csv").read_bytes()
                == (tmp_path / "serial.csv").read_bytes())

    def test_workers_do_not_change_results(self):
        plan = ExperimentPlan.headline(master_seed=9, trials_per_point=2,
                                       hours_per_trial=0.02)
        serial = run_headline(plan, workers=1)
        parallel = run_headline(plan, workers=2)
        assert serial == parallel


class TestTrialFailure:
    """A trial that raises is named by its task, serially and in the pool."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_task_named(self, monkeypatch, workers):
        real = wvcsim.experiments.run_trial

        def flaky(config, hours, trial_id, master_seed):
            if config.mode.value == "Aware" and trial_id == 1:
                raise RuntimeError("boom")
            return real(config, hours, trial_id, master_seed)

        monkeypatch.setattr(wvcsim.experiments, "run_trial", flaky)
        plan = ExperimentPlan.headline(master_seed=9, trials_per_point=2,
                                       hours_per_trial=0.01)
        with pytest.raises(TrialError) as exc:
            run_headline(plan, workers=workers)
        assert str(exc.value) == (
            "trial failed (experiment='headline', sweep_value=None, "
            "mode='Aware', trial_id=1, master_seed=9): RuntimeError: boom")


class TestDefaultWorkers:
    def test_unset_is_one(self, monkeypatch):
        monkeypatch.delenv("WVC_SIM_WORKERS", raising=False)
        assert default_workers() == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("WVC_SIM_WORKERS", "2")
        assert default_workers() == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_invalid_value_named(self, monkeypatch, value):
        monkeypatch.setenv("WVC_SIM_WORKERS", value)
        with pytest.raises(ValueError, match="WVC_SIM_WORKERS"):
            default_workers()


def write_with_cell(path, records, column, text):
    """Write ``records`` as a trials CSV, then set ``column`` of the second
    row (line 3) to ``text``."""
    write_trials_csv(str(path), records)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[COLUMNS.index(column)] = text
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tiny_headline, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(str(path), tiny_headline)
        loaded = read_trials_csv(str(path))
        assert loaded == tiny_headline

    def test_summary_identical_after_round_trip(self, tiny_headline, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(str(path), tiny_headline)
        loaded = read_trials_csv(str(path))
        original = summarize(tiny_headline)
        recomputed = summarize(loaded)
        assert len(original) == len(recomputed)
        for a, b in zip(original, recomputed):
            assert a == b

    @pytest.mark.parametrize("change, cells", [(lambda row: row[:10], 10),
                                               (lambda row: row + ["1"], 32)])
    def test_wrong_row_length_named(self, tiny_headline, tmp_path, change, cells):
        path = tmp_path / "trials.csv"
        write_trials_csv(str(path), tiny_headline)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(change(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_trials_csv(str(path))
        assert str(exc.value) == (f"{path}, line 3: expected {len(COLUMNS)} "
                                  f"cells, got {cells}")

    @pytest.mark.parametrize("column, text", [
        ("frozen_on_road_time", "nan"), ("hours", "inf"), ("road_entries", "-5"),
        ("mean_in_range_latency", "-0.5"), ("seed", "4.5"),
    ])
    def test_bad_number_named(self, tiny_headline, tmp_path, column, text):
        path = tmp_path / "trials.csv"
        write_with_cell(path, tiny_headline, column, text)
        with pytest.raises(ValueError) as exc:
            read_trials_csv(str(path))
        assert str(exc.value).startswith(f"{path}, line 3, column {column}: ")
        if column != "seed":
            assert str(exc.value).endswith(
                f": expected a finite number >= 0, got {text!r}")

    @pytest.mark.parametrize("text", ["2", "0"])
    def test_foreign_schema_version_named(self, tiny_headline, tmp_path, text):
        path = tmp_path / "trials.csv"
        write_with_cell(path, tiny_headline, "schema_version", text)
        with pytest.raises(ValueError) as exc:
            read_trials_csv(str(path))
        assert str(exc.value) == (f"{path}, line 3, column schema_version: "
                                  f"expected schema version {SCHEMA_VERSION}, "
                                  f"got {text!r}")

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trials_csv(str(path))


class TestSummaries:
    def test_stars_match_emitted_p(self, tiny_sweep):
        for stat in summarize(tiny_sweep):
            if stat.p is not None:
                assert stat.stars == significance_stars(stat.p)

    def test_contrasts_are_against_control(self, tiny_headline):
        stats = summarize(tiny_headline)
        assert stats
        assert {s.mode_a for s in stats} == {"Control"}
        assert {s.mode_b for s in stats} == {"Detection", "Aware"}


class TestPlotData:
    def test_headline_panels(self, tiny_headline):
        doc = plot_dataset(tiny_headline, "headline")
        assert set(doc["panels"]) == {"collisions", "collision_rate_per_entry_pct",
                                      "road_entries", "frozen_on_road_time"}
        for metric, per_mode in doc["panels"].items():
            assert set(per_mode) == {"Control", "Detection", "Aware"}
            for cell in per_mode.values():
                assert len(cell["trials"]) == 2
                # Rates can be missing (zero-denominator guard); counts cannot.
                if metric in ("collisions", "road_entries"):
                    assert cell["n"] == 2

    def test_sweep_series(self, tiny_sweep):
        doc = plot_dataset(tiny_sweep, "kappa")
        series = doc["series"]["detection_rate_pct"]
        values = [pt["value"] for pt in series["Detection"]]
        assert values == [0.5, 3.0]

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError, match="no trial records"):
            emit_plot_data([], "headline", str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_incomplete_records_named(self, tiny_headline):
        broken = [r for r in tiny_headline
                  if not (r.mode == "Aware" and r.trial_id == 1)]
        with pytest.raises(ValueError, match="Aware"):
            plot_dataset(broken, "headline")

    def test_cells_must_hold_the_same_trials(self, tiny_headline):
        moved = [dataclasses.replace(r, trial_id=2)
                 if r.mode == "Aware" and r.trial_id == 1 else r
                 for r in tiny_headline]
        with pytest.raises(ValueError) as exc:
            plot_dataset(moved, "headline")
        assert str(exc.value) == ("incomplete records: short cells "
                                  "('Aware', None), ('Control', None), "
                                  "('Detection', None)")

    def test_unknown_mode_rejected(self, tiny_headline):
        renamed = [dataclasses.replace(tiny_headline[0], mode="Sensor"),
                   *tiny_headline[1:]]
        with pytest.raises(ValueError, match="unknown mode 'Sensor'"):
            summarize(renamed)


class TestCli:
    def test_run_prints_json(self, capsys):
        code = main(["run", "--hours", "0.02", "--seed", "3", "--mode",
                     "Detection"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "Detection"
        assert payload["arrivals"] >= 0

    def test_headline_outputs_and_determinism(self, tmp_path, capsys):
        args = ["headline", "--trials", "2", "--hours", "0.02", "--seed", "4"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        trials_a = (out_a / "headline_trials.csv").read_bytes()
        trials_b = (out_b / "headline_trials.csv").read_bytes()
        assert trials_a == trials_b
        summary_a = (out_a / "headline_summary.csv").read_bytes()
        summary_b = (out_b / "headline_summary.csv").read_bytes()
        assert summary_a == summary_b

    def test_sweep_and_analyze_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--kind", "kappa", "--trials", "1", "--hours",
                     "0.02", "--seed", "4", "--out", str(out)])
        assert code == 0
        first = capsys.readouterr().out
        trials_csv = out / "kappa_sweep_trials.csv"
        assert trials_csv.exists()
        # trials=1 suppresses the t statistics but per-trial rows remain.
        rows = trials_csv.read_text().strip().splitlines()
        assert len(rows) == 1 + 6 * 3 * 1
        code = main(["analyze", str(trials_csv)])
        assert code == 0
        second = capsys.readouterr().out
        # analyze reproduces the summary block the sweep printed.
        assert second.splitlines() == first.splitlines()[:-2]

    def test_plots_command(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(["headline", "--trials", "2", "--hours", "0.02", "--seed", "4",
              "--out", str(out)])
        code = main(["plots", str(out / "headline_trials.csv"), "--kind",
                     "headline", "--out", str(out)])
        assert code == 0
        path = out / "plot_headline.json"
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {path}"
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "headline"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"time_step": -1.0}))
        code = main(["run", "--config", str(cfg), "--hours", "0.01"])
        captured = capsys.readouterr()
        assert code == 1
        assert "time_step" in captured.err

    def test_wrongly_typed_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text('{"arrival_rate": true}')
        code = main(["run", "--config", str(cfg), "--hours", "0.01"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: arrival_rate: expected a finite number, "
                                "got true\n")

    @pytest.mark.parametrize("hours", ["inf", "nan"])
    def test_nonfinite_hours_exits_1(self, capsys, hours):
        code = main(["run", "--hours", hours])
        assert code == 1
        assert (f"error: --hours must be positive and finite, got {hours}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("hours", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", [["headline"], ["sweep", "--kind", "kappa"]])
    def test_bad_hours_exits_1_before_any_trial(self, tmp_path, capsys,
                                                monkeypatch, command, hours):
        ran = []
        monkeypatch.setattr(wvcsim.experiments, "run_trial",
                            lambda *args: ran.append(args))
        out = tmp_path / "out"
        code = main(command + ["--trials", "1", "--hours", hours, "--workers", "2",
                               "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --hours must be positive and finite, got {float(hours)!r}\n")
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_env_exits_1(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("WVC_SIM_WORKERS", value)
        code = main(["headline", "--trials", "1", "--hours", "0.01",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error: WVC_SIM_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "headline_trials.csv").exists()

    def test_missing_csv_exits_1(self, capsys):
        code = main(["analyze", "/nonexistent/trials.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-3"), ("--trials", "0"),
        ("--trials", "-1"),
    ])
    @pytest.mark.parametrize("command", [["headline"], ["sweep", "--kind", "kappa"]])
    def test_count_below_one_exits_1(self, tmp_path, capsys, command, flag, value):
        code = main(command + ["--hours", "0.001", "--out", str(tmp_path),
                               "--workers", "1", "--trials", "1", flag, value])
        assert code == 1
        assert f"error: {flag} must be an integer >= 1, got {value}" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-5"], ["run", "--trial-id", "-1"],
        ["headline", "--seed", "-5"], ["sweep", "--kind", "kappa", "--seed", "-5"],
    ])
    def test_negative_seed_or_trial_id_named(self, tmp_path, capsys, monkeypatch,
                                             argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv + ["--hours", "0.001"])
        flag, value = argv[-2:]
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {flag} must be an integer >= 0, got {value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--workers", "-3"),
                                             ("--out", "/nonexistent/dir")])
    def test_run_rejects_batch_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--hours", "0.001", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["headline"], ["sweep", "--kind", "kappa"]])
    def test_file_as_out_exits_1_before_any_trial(self, tmp_path, capsys,
                                                  monkeypatch, command):
        not_a_dir = tmp_path / "README.md"
        not_a_dir.write_text("text\n")
        ran = []
        monkeypatch.setattr(wvcsim.experiments, "run_trial",
                            lambda *args: ran.append(args))
        code = main(command + ["--trials", "1", "--hours", "0.01",
                               "--out", str(not_a_dir)])
        assert code == 1
        assert "error: [Errno 17] File exists" in capsys.readouterr().err
        assert ran == []
        assert not_a_dir.read_text() == "text\n"

    def test_failing_trial_named_and_exits_1(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise ValueError("trial broke")

        monkeypatch.setattr(wvcsim.experiments, "run_trial", failing)
        out = tmp_path / "out"
        code = main(["headline", "--trials", "1", "--hours", "0.01", "--out",
                     str(out)])
        assert code == 1
        assert ("error: trial failed (experiment='headline', sweep_value=None, "
                "mode='Control', trial_id=0, master_seed=42): ValueError: "
                "trial broke") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [["analyze"], ["plots", "--kind", "headline"]])
    def test_bad_number_exits_1(self, tiny_headline, tmp_path, capsys, command):
        trials_csv = tmp_path / "headline_trials.csv"
        write_with_cell(trials_csv, tiny_headline, "frozen_on_road_time", "nan")
        out = tmp_path / "out"
        code = main(command[:1] + [str(trials_csv)] + command[1:]
                    + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {trials_csv}, line 3, column frozen_on_road_time: "
            "expected a finite number >= 0, got 'nan'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze"], ["plots", "--kind", "headline"]])
    def test_foreign_schema_version_exits_1(self, tiny_headline, tmp_path, capsys,
                                            command):
        trials_csv = tmp_path / "headline_trials.csv"
        write_with_cell(trials_csv, tiny_headline, "schema_version", "2")
        out = tmp_path / "out"
        code = main(command[:1] + [str(trials_csv)] + command[1:]
                    + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {trials_csv}, line 3, column schema_version: "
            f"expected schema version {SCHEMA_VERSION}, got '2'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze"], ["plots", "--kind", "headline"]])
    def test_duplicate_row_exits_1(self, tiny_headline, tmp_path, capsys, command):
        trials_csv = tmp_path / "headline_trials.csv"
        write_trials_csv(str(trials_csv), tiny_headline)
        lines = trials_csv.read_bytes().splitlines(keepends=True)
        trials_csv.write_bytes(b"".join(lines) + lines[1])
        out = tmp_path / "out"
        code = main(command[:1] + [str(trials_csv)] + command[1:]
                    + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: repeated trial record (mode, sweep_value, trial_id) = "
            "('Control', None, 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("records, kind, experiment", [
        ("tiny_headline", "spacing", "headline"),
        ("tiny_sweep", "headline", "kappa"),
    ])
    def test_plots_kind_must_match_csv(self, request, tmp_path, capsys,
                                       records, kind, experiment):
        trials_csv = tmp_path / "trials.csv"
        write_trials_csv(str(trials_csv), request.getfixturevalue(records))
        out = tmp_path / "out"
        code = main(["plots", str(trials_csv), "--kind", kind, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: plot kind {kind!r} does not match the records' "
            f"experiment(s): {experiment}\n")
        assert not out.exists()

    def test_analyze_header_only_csv_exits_1(self, tmp_path, capsys):
        trials_csv = tmp_path / "empty_trials.csv"
        write_csv(str(trials_csv), COLUMNS, [])
        out = tmp_path / "summary"
        code = main(["analyze", str(trials_csv), "--out", str(out)])
        assert code == 1
        assert "error: no trial records supplied" in capsys.readouterr().err
        assert not out.exists()
