"""The benchmark uses wvcsim's functions and CLI by name.

The benchmark in ``perfbench/`` is not part of this suite, so a renamed or
removed function could pass every test here and still break a benchmark run.
Building the tracer's patch list looks up every patched name, one tiny
untraced pass of each workload runs every name and CLI flag the workloads use,
and two traced passes of each must count alike and write the same bytes, as
``perfbench/run.py --trace 1`` checks.
"""

import dataclasses
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing.Recorder(str(tmp_path), traced=True).patches(pool=True)
    assert patches
    for owner, attr, _ in patches:
        # ``Recorder.installed`` saves each original from the owner's own dict.
        assert attr in vars(owner), (owner, attr)


def tiny(workloads, name):
    """The workload ``name``'s spec, cut to one trial per point of 0.01 h."""
    return dataclasses.replace(workloads.WORKLOADS[name], trials_per_point=1,
                               hours_per_trial=0.01)


@pytest.mark.parametrize("name", ["headline", "crowded", "sweep_pool"])
def test_every_workload_runs(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    spec = tiny(workloads, name)
    spool = tmp_path / "spool"
    spool.mkdir()
    rec = tracing.Recorder(str(spool), traced=False)
    with rec.installed(spec.sweep_kind is not None):
        result = workloads.run_pass(spec, workloads.build_tasks(spec, 1), rec,
                                    str(tmp_path / "out"))
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted == len(result.trials) > 0


@pytest.mark.parametrize("name", ["headline", "crowded", "sweep_pool"])
def test_traced_passes_repeat_their_counts(monkeypatch, tmp_path, name):
    # A traced run alternates untraced and traced passes of one plan, then
    # fails where the traced passes count differently or any two passes
    # write different bytes. In ``sweep_pool`` which worker runs which
    # trial changes from pass to pass, so state kept across trials (a memo
    # of a world, say) changes the counts. It shows only where a config
    # recurs, hence three trials per point, and only where the workers'
    # shares differ, which four rounds of passes made them do each time a
    # memo of ``build_corridor`` was tried.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing
    import workloads

    spec = dataclasses.replace(tiny(workloads, name), trials_per_point=3)
    spool = tmp_path / "spool"
    spool.mkdir()
    tasks = workloads.build_tasks(spec, 1)
    untraced, traced = [], []
    for _ in range(4):
        for passes, traced_pass in ((untraced, False), (traced, True)):
            rec = tracing.Recorder(str(spool), traced=traced_pass)
            with rec.installed(spec.sweep_kind is not None):
                passes.append(workloads.run_pass(spec, tasks, rec, str(tmp_path / "out")))
    assert all(p.trials for p in untraced + traced)
    assert run.output_checks(untraced + traced) == []
    assert run.per_layer(spec, untraced, traced)[1] == []
