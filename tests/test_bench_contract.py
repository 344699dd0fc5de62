"""The benchmark's traced run patches wvcsim functions by name.

The benchmark in ``perfbench/`` is not part of this suite, so a renamed or
removed function could pass every test here and still break a traced
benchmark run. Building the tracer's patch list looks up every patched name.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing.Recorder(str(tmp_path), traced=True).patches(pool=True)
    assert patches
    for owner, attr, _ in patches:
        # ``Recorder.installed`` saves each original from the owner's own dict.
        assert attr in vars(owner), (owner, attr)
