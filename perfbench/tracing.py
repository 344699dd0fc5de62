"""Per-trial clocks and the opt-in call-site instrumentation of the traced run.

The recorder times every trial and every pipeline stage the benchmark runs.
When tracing, it also replaces wvcsim's public functions at the names where
``engine``, ``cli`` and ``experiments`` look them up, folds the per-step calls
into one record per trial (a count, the seconds inside, and an outcome count
per function), and puts every original attribute back on exit. Untraced runs
of the serial workloads patch nothing; untraced ``sweep_pool`` runs patch only
``experiments.run_trial`` to clock each trial inside the pool workers. After
Around each untraced trial the recorder times the calibration kernel, once
before and once after, to scale the trial's host time (see calibration.py).

Pool workers are forked from the benchmark process, so they inherit the
patched attributes and send their per-trial records back through one spool
file per worker process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

from calibration import kernel_seconds

clock = time.perf_counter

# Functions the engine calls inside a trial: (engine attribute, slot, outcome).
# ``outcome`` maps the return value to the slot's third count.
ENGINE_CALLS = (
    ("idm_acceleration", "idm", None),
    ("emergency_brake_needed", "brake", bool),
    ("step_animal", "step", None),
    ("try_detect", "detect", lambda event: event is not None),
    ("sample_arrivals", "arrivals", len),
    ("build_corridor", "build", None),
    ("detect_collisions", "collide", len),
)
AWARENESS_CALLS = (
    ("on_detection", "broadcast", None),
    ("dms_active", "sign", bool),
)
# Slots whose time the engine spends outside its own loop body; ``beta_for``
# is counted but not timed, because it runs inside ``try_detect``.
TIMED_SLOTS = tuple(slot for _, slot, _ in ENGINE_CALLS + AWARENESS_CALLS)
BOOST_SLOT = "boost"

# Pipeline stages called from ``cli``: (cli attribute, stage, rows).
CLI_STAGES = (
    ("run_sweep", "sweep", None),
    ("write_trials_csv", "write", lambda args, out: len(args[1])),
    ("read_trials_csv", "read", lambda args, out: len(out)),
    ("summarize", "summarize", None),
    ("emit_plot_data", "plot", None),
)


def _timed(fn, slot, outcome):
    """Wrap ``fn`` so each call adds to ``slot`` = [calls, seconds, outcomes]."""
    now = clock
    if outcome is None:
        def wrapper(*args, **kwargs):
            t = now()
            out = fn(*args, **kwargs)
            slot[1] += now() - t
            slot[0] += 1
            return out
    else:
        def wrapper(*args, **kwargs):
            t = now()
            out = fn(*args, **kwargs)
            slot[1] += now() - t
            slot[0] += 1
            slot[2] += outcome(out)
            return out
    return functools.wraps(fn)(wrapper)


def _counted(fn, slot):
    def wrapper(*args, **kwargs):
        slot[0] += 1
        return fn(*args, **kwargs)
    return functools.wraps(fn)(wrapper)


class Recorder:
    """Trial and stage spans of one benchmark pass, kept in memory.

    ``trials`` holds one dict per finished trial: ``trial_s`` and either
    ``kernel_s``, the kernel's seconds before and after the trial, or, when
    tracing, one ``[calls, seconds, outcomes]`` list per slot. ``stages``
    maps a pipeline stage to ``[calls, seconds, rows]``. ``drain`` returns
    both and starts the next pass empty.
    """

    def __init__(self, spool_dir: str, traced: bool):
        self.spool_dir = spool_dir
        self.traced = traced
        self.pid = os.getpid()
        self.slots = ({slot: [0, 0.0, 0] for slot in TIMED_SLOTS + (BOOST_SLOT,)}
                      if traced else {})
        self.trials: list[dict] = []
        self.stages: dict[str, list] = {}

    def run_trial(self, fn, *args):
        """Call ``fn(*args)`` as one trial span and record it."""
        slots = self.slots
        for slot in slots.values():
            slot[0], slot[1], slot[2] = 0, 0.0, 0
        before = None if self.traced else kernel_seconds()
        t = clock()
        result = fn(*args)
        record = {"trial_s": clock() - t}
        for name, slot in slots.items():
            record[name] = list(slot)
        if not self.traced:
            record["kernel_s"] = [before, kernel_seconds()]
        if os.getpid() == self.pid:
            self.trials.append(record)
        else:
            # A forked pool worker: hand the record to the parent on disk.
            path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        return result

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span around one pipeline stage; yields its [calls, seconds, rows]."""
        slot = self.stages.setdefault(name, [0, 0.0, 0])
        t = clock()
        yield slot
        slot[1] += clock() - t
        slot[0] += 1

    def _staged(self, fn, name, rows):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.stage(name) as slot:
                out = fn(*args, **kwargs)
                if rows is not None:
                    slot[2] += rows(args, out)
            return out
        return wrapper

    def patches(self, pool: bool) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every attribute to patch."""
        from wvcsim import awareness, cli, engine, experiments

        out = []
        if pool or self.traced:
            original = experiments.run_trial
            out.append((experiments, "run_trial", functools.wraps(original)(
                functools.partial(self.run_trial, original))))
        if not self.traced:
            return out
        for attr, slot, outcome in ENGINE_CALLS:
            out.append((engine, attr,
                        _timed(getattr(engine, attr), self.slots[slot], outcome)))
        cls = awareness.AwarenessState
        for attr, slot, outcome in AWARENESS_CALLS:
            out.append((cls, attr,
                        _timed(cls.__dict__[attr], self.slots[slot], outcome)))
        out.append((cls, "beta_for",
                    _counted(cls.__dict__["beta_for"], self.slots[BOOST_SLOT])))
        for attr, name, rows in CLI_STAGES:
            out.append((cli, attr, self._staged(getattr(cli, attr), name, rows)))
        out.append((experiments, "welch_t",
                    self._staged(experiments.welch_t, "welch", None)))
        return out

    @contextlib.contextmanager
    def installed(self, pool: bool):
        """Patch for the duration of the block; always restore the originals."""
        saved = []
        try:
            for owner, attr, replacement in self.patches(pool):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def drain(self) -> tuple[list[dict], dict[str, list]]:
        """This pass's trial records (own and spooled) and stage slots."""
        trials, self.trials = self.trials, []
        if os.path.isdir(self.spool_dir):
            for name in sorted(os.listdir(self.spool_dir)):
                path = os.path.join(self.spool_dir, name)
                with open(path, encoding="utf-8") as fh:
                    trials.extend(json.loads(line) for line in fh)
                os.remove(path)
        stages, self.stages = self.stages, {}
        return trials, stages
