"""The benchmark uses wvcsim's functions and CLI by name.

The benchmark in ``perfbench/`` is not part of this suite, so a renamed or
removed function could pass every test here and still break a benchmark run.
Building the tracer's patch list looks up every patched name, and one tiny
untraced pass of each workload runs every name and CLI flag the workloads use.
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


@pytest.mark.parametrize("name", ["headline", "crowded", "sweep_pool"])
def test_every_workload_runs(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    spec = dataclasses.replace(workloads.WORKLOADS[name], trials_per_point=1,
                               hours_per_trial=0.01)
    spool = tmp_path / "spool"
    spool.mkdir()
    rec = tracing.Recorder(str(spool), traced=False)
    with rec.installed(spec.sweep_kind is not None):
        result = workloads.run_pass(spec, workloads.build_tasks(spec, 1), rec,
                                    str(tmp_path / "out"))
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted == len(result.trials) > 0
