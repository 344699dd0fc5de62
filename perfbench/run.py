"""wvcsim benchmark: simulated trial-hours per host second, and where they go.

Run from the repository root::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing patched
(``sweep_pool`` clocks each trial in its workers). ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics instead. Each
metric is printed as a line of text; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
trial that raises counts as failed and the run goes on; ``attempted`` and
``failed`` count each plan's trials once, however often the plan was run. The exit code is 0
when every output check passed, 1 when one failed and 2 when the run could
not start. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys

import tracing
import workloads
from calibration import scaled
from tracing import clock

HERE = os.path.dirname(os.path.abspath(__file__))

# Import cost does not follow the calibration kernel (scaling it widened the
# spread of setup times), so setup_s is plain host seconds, a median of probes.
SETUP_PROBES = 7
TAIL_PERCENTILE = 90
# p90 needs at least ten trials beyond it.
MIN_TRIALS = 100
# Determinism is checked by comparing passes, so a run makes at least two.
MIN_PASSES = 2
# An untraced run runs this many plans, then repeats them in turn until the
# time is up. So the trials it attempts, and which of them fail, depend on
# --seed alone, not on how many passes fit into --seconds.
PLANS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int, src: str) -> list[float]:
    """Seconds to import wvcsim and build the plan, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def plan_seed(seed: int, k: int) -> int:
    """Master seed of pass ``k``'s plan: each pass runs new trials."""
    return seed * 1000 + k


def untraced_passes(spec, seed, seconds, out_dir, spool):
    """Passes over the PLANS plans in turn, at least one of them twice, until
    ``seconds`` and MIN_TRIALS are reached. A repeated plan must write the same
    bytes and fail the same trials again."""
    rec = tracing.Recorder(spool, traced=False)
    passes = []
    deadline = clock() + seconds
    with rec.installed(spec.sweep_kind is not None):
        while (len(passes) <= PLANS or clock() < deadline
               or sum(p.attempted for p in passes) < MIN_TRIALS):
            tasks = workloads.build_tasks(spec, plan_seed(seed, len(passes) % PLANS))
            passes.append(workloads.run_pass(spec, tasks, rec, out_dir))
    return passes


def traced_passes(spec, seed, seconds, out_dir, spool):
    """Alternate untraced and traced passes of the first plan until ``seconds``
    have passed and there are MIN_PASSES of each."""
    tasks = workloads.build_tasks(spec, plan_seed(seed, 0))
    recorders = (tracing.Recorder(spool, traced=False),
                 tracing.Recorder(spool, traced=True))
    runs = ([], [])
    deadline = clock() + seconds
    while clock() < deadline or len(runs[1]) < MIN_PASSES:
        for rec, run in zip(recorders, runs):
            with rec.installed(spec.sweep_kind is not None):
                run.append(workloads.run_pass(spec, tasks, rec, out_dir))
    return runs


def output_checks(passes) -> list[str]:
    """Each pass's own problems, plus: passes of one plan wrote the same bytes
    and failed the same trials."""
    problems = sorted({p for run in passes for p in run.problems})
    outcomes: dict[int, set] = {}
    for p in passes:
        csvs = (None if p.trials_csv is None else
                (workloads.sha256(p.trials_csv), workloads.sha256(p.summary_csv)))
        outcomes.setdefault(p.plan_seed, set()).add((csvs, tuple(p.failed_keys)))
    for plan, seen in sorted(outcomes.items()):
        if len(seen) > 1:
            problems.append(f"plan {plan}: passes wrote different CSV bytes "
                            "or failed different trials")
    return problems


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus ``workers`` times its largest child's."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers > 1:
        mb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mb


def pass_seconds(p, workers: int) -> float:
    """Scaled wall of one pass, less the kernel runs on its critical path.

    The wall is scaled by the pass's trial-time-weighted kernel factor, so a
    slow spell is corrected where it fell.
    """
    busy = sum(t["trial_s"] for t in p.trials)
    busy_scaled = sum(scaled(t["trial_s"], t["kernel_s"]) for t in p.trials)
    kernels = sum(sum(t["kernel_s"]) for t in p.trials)
    return (p.wall_s - kernels / workers) * busy_scaled / busy


def end_to_end(spec, passes, setup_times):
    """End-to-end metrics, host times scaled by the calibration kernel."""
    ok = [p for p in passes if p.trials]
    times = sorted(scaled(t["trial_s"], t["kernel_s"]) for p in ok for t in p.trials)
    raw = sorted(t["trial_s"] for p in ok for t in p.trials)
    n = len(times)
    rates = [p.sim_hours / pass_seconds(p, spec.workers) for p in ok]
    raw_rate = statistics.median(p.sim_hours / p.wall_s for p in ok)

    def p90(xs):
        return statistics.quantiles(xs, n=100)[TAIL_PERCENTILE - 1]

    return {
        "sim_hours_per_s": (statistics.median(rates), "h/s",
                            f"median of {len(rates)} passes of {ok[0].sim_hours:g} "
                            f"trial-hours; unscaled {raw_rate:.4g}"),
        "trial_s_p50": (statistics.median(times), "s",
                        f"{n} trials; unscaled {statistics.median(raw):.4g}"),
        "trial_s_tail": (p90(times), "s",
                         f"p{TAIL_PERCENTILE} of {n} trials; unscaled {p90(raw):.4g}"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters; unscaled"),
        "peak_rss_mb": (peak_rss_mb(spec.workers), "MB",
                        "this process" if spec.workers == 1 else
                        f"this process + {spec.workers} x largest child"),
    }


def _totals(trials):
    acc = {}
    for t in trials:
        for slot, values in t.items():
            if slot == "trial_s":
                continue
            a = acc.setdefault(slot, [0, 0.0, 0])
            for j in range(3):
                a[j] += values[j]
    return acc


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spec, p) -> dict[str, tuple]:
    """Per-layer counts (exact) and seconds of one traced pass."""
    acc = _totals(p.trials)
    trial_s = sum(t["trial_s"] for t in p.trials)

    def stage(name):
        return p.stages.get(name, [0, 0.0, 0])

    run_s = stage("sweep")[1] if spec.sweep_kind else p.task_loop_s
    steps = acc["sign"][0]
    return {
        "engine.self_s": (trial_s - sum(acc[s][1] for s in tracing.TIMED_SLOTS), "s"),
        "engine.steps": (steps, "count"),
        "engine.animal_step_frac": (_ratio(acc["collide"][0], steps), "ratio"),
        "engine.collision_checks": (acc["collide"][0], "count"),
        "engine.collision_pairs": (acc["collide"][2], "count"),
        "engine.collision_s": (acc["collide"][1], "s"),
        "vehicles.idm_calls": (acc["idm"][0], "count"),
        "vehicles.idm_s": (acc["idm"][1], "s"),
        "vehicles.brake_checks": (acc["brake"][0], "count"),
        "vehicles.brake_s": (acc["brake"][1], "s"),
        "vehicles.brake_hit_ratio": (_ratio(acc["brake"][2], acc["brake"][0]), "ratio"),
        "animals.step_calls": (acc["step"][0], "count"),
        "animals.step_s": (acc["step"][1], "s"),
        "animals.arrivals": (acc["arrivals"][2], "count"),
        "animals.arrivals_s": (acc["arrivals"][1], "s"),
        "detection.attempts": (acc["detect"][0], "count"),
        "detection.hits": (acc["detect"][2], "count"),
        "detection.hit_ratio": (_ratio(acc["detect"][2], acc["detect"][0]), "ratio"),
        "detection.detect_s": (acc["detect"][1], "s"),
        "detection.boost_lookups": (acc[tracing.BOOST_SLOT][0], "count"),
        "awareness.broadcasts": (acc["broadcast"][0], "count"),
        "awareness.broadcast_s": (acc["broadcast"][1], "s"),
        "awareness.sign_s": (acc["sign"][1], "s"),
        "awareness.sign_on_frac": (_ratio(acc["sign"][2], steps), "ratio"),
        "config.build_calls": (acc["build"][0], "count"),
        "config.build_s": (acc["build"][1], "s"),
        "experiments.tasks": (len(p.trials), "count"),
        "experiments.run_s": (run_s, "s"),
        "experiments.pool_efficiency": (_ratio(trial_s, spec.workers * run_s), "ratio"),
        "records.rows": (stage("write")[2] + stage("read")[2], "count"),
        "records.write_s": (stage("write")[1], "s"),
        "records.read_s": (stage("read")[1], "s"),
        "records.plot_s": (stage("plot")[1], "s"),
        "stats.summarize_s": (stage("summarize")[1], "s"),
        "stats.welch_calls": (stage("welch")[0], "count"),
    }


# Ratios of two counts: exact, like the counts.
COUNT_RATIOS = frozenset(("engine.animal_step_frac", "vehicles.brake_hit_ratio",
                          "detection.hit_ratio", "awareness.sign_on_frac"))


def per_layer(spec, untraced, traced):
    """Counts from the traced passes (which must agree) and median seconds."""
    untraced = [p for p in untraced if p.trials]
    traced = [p for p in traced if p.trials]
    per_pass = [layer_metrics(spec, p) for p in traced]
    problems = []
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "count" or name in COUNT_RATIOS:
            if len(set(values)) > 1:
                problems.append(f"{name}: traced passes counted {values}")
            metrics[name] = (value, unit, "per pass")
        else:
            metrics[name] = (statistics.median(values), unit,
                             f"median of {len(values)} traced passes")

    def busy(passes):
        return statistics.median(sum(t["trial_s"] for t in p.trials) for p in passes)

    overhead = busy(traced) / busy(untraced) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio",
                                      f"{len(traced)} traced vs {len(untraced)} untraced passes")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wvcsim", "__init__.py")):
        print("perfbench: src/wvcsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import wvcsim

    if os.path.dirname(os.path.abspath(wvcsim.__file__)) != os.path.join(src, "wvcsim"):
        print(f"perfbench: imported wvcsim from {wvcsim.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    try:
        out_dir = os.path.join(work, "out")
        if args.trace:
            untraced, traced = traced_passes(spec, args.seed, args.seconds, out_dir, spool)
        else:
            setup_times = measure_setup(args.workload, args.seed, src)
            untraced = untraced_passes(spec, args.seed, args.seconds, out_dir, spool)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))

    passes = untraced + traced
    # output_checks requires every pass of a plan to fail the same trials.
    first_of_plan = {}
    for p in passes:
        first_of_plan.setdefault(p.plan_seed, p)
    attempted = sum(p.attempted for p in first_of_plan.values())
    failed = sum(p.failed for p in first_of_plan.values())
    problems = output_checks(passes)
    done = [p for p in passes if p.trials]
    if not done or (args.trace and not any(p.trials for p in traced)):
        problems.append("no pass completed")
        metrics = {}
    elif args.trace:
        metrics, count_problems = per_layer(spec, untraced, traced)
        problems += count_problems
    else:
        metrics = end_to_end(spec, passes, setup_times)
    digest = workloads.sha256(done[0].trials_csv) if done else "none"

    print(f"workload {args.workload}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes over {len(first_of_plan)} plans of "
          f"{passes[0].attempted} trials x {spec.hours_per_trial:g} h")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<30} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} trials, each plan counted once")
    print(f"  {'results_sha256':<30} {digest}")
    for plan, key in sorted({(p.plan_seed, k) for p in passes for k in p.failed_keys},
                            key=str):
        print(f"  failed trial: plan {plan} {key}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    # A trial that raised is a failed operation, counted in ``failed``; the
    # outputs of the trials that completed must still pass every check.
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
