"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass runs a fixed plan of trials made from the seed, then the records
pipeline on the trials CSV it wrote (``analyze`` and ``plots``). Passes are
repeated for the measured time; every pass of a run must write the same
bytes. wvcsim is imported inside the functions, so a fresh interpreter that
imports this module has not yet paid for ``import wvcsim``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

from tracing import Recorder, clock


@dataclass(frozen=True)
class Spec:
    """Plan size and corridor of one workload."""

    trials_per_point: int
    hours_per_trial: float
    config_changes: tuple[tuple[str, float], ...] = ()
    sweep_kind: Optional[str] = None   # set: run ``wvcsim sweep`` in a pool
    workers: int = 1


# Why each workload exists is in README.md beside this file.
WORKLOADS = {
    "headline": Spec(trials_per_point=12, hours_per_trial=0.25),
    "crowded": Spec(trials_per_point=12, hours_per_trial=0.125,
                    config_changes=(("arrival_rate", 300.0),
                                    ("radar_spacing", 5.0), ("kappa", 0.3))),
    "sweep_pool": Spec(trials_per_point=2, hours_per_trial=0.25,
                       sweep_kind="spacing", workers=2),
}


@dataclass(frozen=True)
class Task:
    experiment: str
    sweep_value: Optional[float]
    config: object
    hours: float
    trial_id: int
    master_seed: int

    @property
    def key(self) -> tuple:
        return (self.experiment, self.sweep_value, self.config.mode.value,
                self.trial_id)


def build_tasks(spec: Spec, seed: int) -> list[Task]:
    """The plan's trials in the order ``run_headline``/``run_sweep`` run them."""
    from wvcsim import CorridorConfig, replace_config
    from wvcsim.experiments import ALL_MODES, ExperimentPlan, sweep_config

    base = replace_config(CorridorConfig(), **dict(spec.config_changes))
    if spec.sweep_kind is None:
        plan = ExperimentPlan.headline(seed, spec.trials_per_point,
                                       spec.hours_per_trial)
        return [Task("headline", None, base.with_mode(mode), plan.hours_per_trial,
                     trial_id, seed)
                for mode in plan.modes
                for trial_id in range(plan.trials_per_point)]
    plan = ExperimentPlan.sweep(spec.sweep_kind, seed, spec.trials_per_point,
                                spec.hours_per_trial)
    return [Task(plan.kind, value,
                 sweep_config(base, plan.kind, value).with_mode(mode),
                 plan.hours_per_trial, trial_id, seed)
            for value in plan.values
            for mode in ALL_MODES
            for trial_id in range(plan.trials_per_point)]


@dataclass
class PassResult:
    wall_s: float
    sim_hours: float             # trial-hours of the trials that completed
    attempted: int
    failed_keys: list[tuple]     # Task.key of every trial that raised
    trials: list[dict]           # Recorder trial records
    stages: dict[str, list]      # Recorder stage slots
    task_loop_s: float           # wall of the trial loop or of the sweep CLI
    csv_path: str
    plan_seed: int
    trials_csv: Optional[bytes] = None   # None when no CSV was written
    summary_csv: Optional[bytes] = None
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> None:
    """``wvcsim <argv>`` in this process; its table output is discarded."""
    from wvcsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wvcsim {' '.join(argv)} exited with code {code}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_pass(spec: Spec, tasks: list[Task], rec: Recorder, out_dir: str) -> PassResult:
    """One pass of the plan, timed as a whole, then checked."""
    os.makedirs(out_dir, exist_ok=True)
    if spec.sweep_kind is None:
        result = _serial_pass(tasks, rec, out_dir)
    else:
        result = _sweep_pass(spec, tasks, rec, out_dir)
    if result.trials_csv is not None:
        result.problems.extend(check_pass(result, tasks))
    return result


def _serial_pass(tasks: list[Task], rec: Recorder, out_dir: str) -> PassResult:
    """``engine.run_trial`` once per task; a trial that raises is counted as
    failed and left out of the CSV, and the pass goes on."""
    from wvcsim import engine, records

    t0 = clock()
    rows = []
    failed = []
    for task in tasks:
        try:
            result = rec.run_trial(engine.run_trial, task.config, task.hours,
                                   task.trial_id, task.master_seed)
        except Exception:
            print(f"trial {task.key} of plan {task.master_seed} failed:",
                  file=sys.stderr)
            traceback.print_exc()
            failed.append(task.key)
            continue
        rows.append(records.record_from_result(result, task.config, task.experiment,
                                               task.sweep_value))
    loop_s = clock() - t0
    csv_path = os.path.join(out_dir, "headline_trials.csv")
    with rec.stage("write") as slot:
        records.write_trials_csv(csv_path, rows)
        slot[2] += len(rows)
    run_cli(["analyze", csv_path, "--out", out_dir])
    run_cli(["plots", csv_path, "--kind", "headline", "--out", out_dir])
    wall = clock() - t0
    trials, stages = rec.drain()
    return PassResult(
        wall_s=wall, sim_hours=sum(t.hours for t in tasks if t.key not in failed),
        attempted=len(tasks), failed_keys=failed, trials=trials, stages=stages,
        task_loop_s=loop_s, csv_path=csv_path, plan_seed=tasks[0].master_seed,
        trials_csv=_read(csv_path),
        summary_csv=_read(os.path.join(out_dir, "headline_trials_summary.csv")))


def sweep_argv(spec: Spec, seed: int, out_dir: str, workers: int) -> list[str]:
    return ["sweep", "--kind", spec.sweep_kind, "--workers", str(workers),
            "--trials", str(spec.trials_per_point),
            "--hours", repr(spec.hours_per_trial), "--seed", str(seed),
            "--out", out_dir]


def _sweep_pass(spec: Spec, tasks: list[Task], rec: Recorder, out_dir: str) -> PassResult:
    """``wvcsim sweep`` in a pool, then ``analyze`` and ``plots`` on its CSV.
    A sweep that raises or exits non-zero loses every task of the pass."""
    kind = spec.sweep_kind
    seed = tasks[0].master_seed
    csv_path = os.path.join(out_dir, f"{kind}_sweep_trials.csv")
    analyze_dir = os.path.join(out_dir, "analyze")
    t0 = clock()
    try:
        run_cli(sweep_argv(spec, seed, out_dir, spec.workers))
    except Exception:
        print(f"sweep of plan {seed} failed:", file=sys.stderr)
        traceback.print_exc()
        rec.drain()
        return PassResult(wall_s=clock() - t0, sim_hours=0.0, attempted=len(tasks),
                          failed_keys=[t.key for t in tasks], trials=[], stages={},
                          task_loop_s=clock() - t0, csv_path=csv_path, plan_seed=seed)
    loop_s = clock() - t0
    run_cli(["analyze", csv_path, "--out", analyze_dir])
    run_cli(["plots", csv_path, "--kind", kind, "--out", out_dir])
    wall = clock() - t0
    trials, stages = rec.drain()
    result = PassResult(
        wall_s=wall, sim_hours=sum(t.hours for t in tasks), attempted=len(tasks),
        failed_keys=[], trials=trials, stages=stages, task_loop_s=loop_s,
        csv_path=csv_path, plan_seed=seed, trials_csv=_read(csv_path),
        summary_csv=_read(os.path.join(out_dir, f"{kind}_sweep_summary.csv")))
    analyzed = _read(os.path.join(analyze_dir, f"{kind}_sweep_trials_summary.csv"))
    if analyzed != result.summary_csv:
        result.problems.append("analyze did not reproduce the sweep summary CSV")
    return result


def check_pass(result: PassResult, tasks: list[Task]) -> list[str]:
    """Structural checks on one pass's trials CSV (read back through wvcsim)."""
    from wvcsim.records import read_trials_csv

    problems = []
    done = [t.key for t in tasks if t.key not in result.failed_keys]
    if len(result.trials) != len(done):
        problems.append(f"{len(result.trials)} trial spans for {len(done)} trials")
    rows = read_trials_csv(result.csv_path)
    keys = [(r.experiment, r.sweep_value, r.mode, r.trial_id) for r in rows]
    if keys != done:
        problems.append("trial records do not match the plan one-to-one, in order")
    arrivals: dict[tuple, set[int]] = {}
    for r in rows:
        arrivals.setdefault((r.sweep_value, r.trial_id), set()).add(r.arrivals)
        if r.exits_clean + r.collisions + r.active_at_end != r.arrivals:
            problems.append(f"animal conservation broken in {r.mode} trial {r.trial_id}")
        if r.mode == "Control" and r.detected:
            problems.append(f"detections in Control trial {r.trial_id}")
    if any(len(counts) != 1 for counts in arrivals.values()):
        problems.append("modes of one trial saw different arrival counts (CRN pairing)")
    return problems
