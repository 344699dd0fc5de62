"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench).

They use plans far smaller than the benchmark's so they finish in seconds.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def small(name, **changes):
    changes.setdefault("trials_per_point", 2)
    changes.setdefault("hours_per_trial", 0.05)
    return dataclasses.replace(workloads.WORKLOADS[name], **changes)


def traced_pass(spec, tmp_path, tag):
    rec = tracing.Recorder(str(tmp_path / f"spool-{tag}"), traced=True)
    os.makedirs(rec.spool_dir)
    tasks = workloads.build_tasks(spec, SEED)
    with rec.installed(spec.sweep_kind is not None):
        return workloads.run_pass(spec, tasks, rec, str(tmp_path / f"out-{tag}"))


def test_sweep_csv_is_identical_for_one_and_two_workers(tmp_path):
    spec = small("sweep_pool", trials_per_point=1, hours_per_trial=0.02)
    digests = set()
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        workloads.run_cli(workloads.sweep_argv(spec, SEED, str(out), workers))
        digests.add(hashlib.sha256((out / "spacing_sweep_trials.csv").read_bytes())
                    .hexdigest())
    assert len(digests) == 1


def test_traced_run_restores_every_patched_attribute(tmp_path):
    spec = small("sweep_pool", trials_per_point=1, hours_per_trial=0.02)
    patched = tracing.Recorder(str(tmp_path), traced=True).patches(pool=True)
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in patched}
    assert len(originals) == len(patched)

    result = traced_pass(spec, tmp_path, "a")

    assert result.failed == 0 and not result.problems
    assert len(result.trials) == result.attempted
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    # Untraced serial passes patch nothing at all.
    assert tracing.Recorder(str(tmp_path), traced=False).patches(pool=False) == []


def test_traced_counts_repeat_exactly(tmp_path):
    spec = small("crowded")
    first, second = (run.layer_metrics(spec, traced_pass(spec, tmp_path, tag))
                     for tag in ("a", "b"))
    exact = [name for name, (_, unit) in first.items()
             if unit == "count" or name in run.COUNT_RATIOS]
    assert {"engine.steps", "vehicles.idm_calls", "detection.attempts",
            "awareness.broadcasts", "records.rows"} <= set(exact)
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["engine.steps"][0] == 3 * 2 * 1800
    assert first["awareness.broadcasts"][0] == first["detection.hits"][0] > 0


def test_serial_pass_writes_the_run_headline_csv(tmp_path):
    from wvcsim import CorridorConfig, replace_config
    from wvcsim.experiments import ExperimentPlan, run_headline
    from wvcsim.records import write_trials_csv

    spec = small("crowded")
    rec = tracing.Recorder(str(tmp_path / "spool"), traced=False)
    result = workloads.run_pass(spec, workloads.build_tasks(spec, SEED), rec,
                                str(tmp_path / "out"))
    plan = ExperimentPlan.headline(SEED, spec.trials_per_point, spec.hours_per_trial)
    base = replace_config(CorridorConfig(), **dict(spec.config_changes))
    write_trials_csv(str(tmp_path / "ref.csv"), run_headline(plan, base))
    assert result.trials_csv == (tmp_path / "ref.csv").read_bytes()
    assert not result.problems


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "headline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repeated_plan_must_fail_the_same_trials():
    def result(failed_keys):
        return workloads.PassResult(
            wall_s=1.0, sim_hours=1.0, attempted=3, failed_keys=failed_keys,
            trials=[], stages={}, task_loop_s=1.0, csv_path="", plan_seed=1000,
            trials_csv=b"rows", summary_csv=b"summary")

    key = ("headline", None, "Aware", 10)
    assert run.output_checks([result([key]), result([key])]) == []
    assert run.output_checks([result([key]), result([])]) != []
