"""Golden bytes: the trials CSV, the summary CSV and the plot JSON of two small
plans, and the trials CSVs of a crowded, a wide-radar and a wide-animal one,
pinned by SHA-256. The trials CSVs
are pinned for both vehicle kernels, the compiled one and the Python one.
The trials CSVs of two paper-length trials, one 4 h Detection and one 4 h
Aware, are pinned for the compiled kernel.

A change that moves any output byte fails here. Re-baselining is an explicit
edit of these digests, to be recorded with its reason in CHANGES.md.
"""

import dataclasses
import functools
import hashlib
import shutil
import sysconfig
import warnings

import pytest

import wvcsim.vehicles
from wvcsim import emit_plot_data
from wvcsim.cli import _write_summary_csv
from wvcsim.config import CorridorConfig, Mode, replace_config
from wvcsim.experiments import ExperimentPlan, run_headline, run_sweep, summarize
from wvcsim.records import write_trials_csv


# Each plan's records once per vehicle kernel (the ``kernel`` fixture's value).
@functools.cache
def headline_records(kernel):
    return run_headline(ExperimentPlan.headline(
        master_seed=42, trials_per_point=3, hours_per_trial=0.25))


@functools.cache
def spacing_records(kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sparse-spacing coverage warnings
        return run_sweep(ExperimentPlan.sweep(
            "spacing", master_seed=42, trials_per_point=1, hours_per_trial=0.1))


@functools.cache
def crowded_records(kernel):
    # Animals on most steps and the sign often lit: braking, crossing and
    # collision steps, which the two plans above see few of.
    config = replace_config(CorridorConfig(), arrival_rate=300.0,
                            radar_spacing=5.0, kappa=0.3)
    return run_sweep(ExperimentPlan.headline(
        master_seed=42, trials_per_point=2, hours_per_trial=0.05), config)


def edge_records(**overrides):
    # The shapes where whether an animal's step is quiet turns on the radar
    # band and the road edge, at 60 arrivals/h.
    config = replace_config(CorridorConfig(), arrival_rate=60.0, **overrides)
    return run_sweep(ExperimentPlan.headline(
        master_seed=42, trials_per_point=3, hours_per_trial=0.25), config)


@functools.cache
def wide_radar_records(kernel):
    # Every radar's band reaches past the spawn offset.
    return edge_records(radar_range=30.0)


@functools.cache
def wide_animal_records(kernel):
    # A vehicle's reach plus the animal's radius passes the road edge.
    return edge_records(geometry=dataclasses.replace(CorridorConfig().geometry,
                                                     animal_radius=1.5))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


HEADLINE_TRIALS = "361cb322538b8a8fc9f13cfe0cb880f57d399dd4b776550a1a233ccc21beb3ce"

TRIALS_DIGESTS = {
    "headline": (headline_records, HEADLINE_TRIALS),
    "spacing_sweep": (spacing_records,
                      "042a0ab0680f2ab1bb99162686ee74e275bfd7b43517b339dd1a02f3cdf26e31"),
    "crowded": (crowded_records,
                "94cdcef71901cfab8a6fa49e9455bae1ca896faf69dbc852adf2908ac8a86ef4"),
    "wide_radar": (wide_radar_records,
                   "2ed944c2ba8f629c4d1a00f6794fefbc291a94dfa9dadb444ecf1c18e361b133"),
    "wide_animal": (wide_animal_records,
                    "3c8269a0e793773e26f8e8addedd187c16a3a53159a72443b60485d12ddef3d1"),
}


@pytest.mark.parametrize("records, digest, kernel", [
    pytest.param(records, digest, kernel,
                 id=name if kernel == "compiled" else f"{name}-python")
    for kernel in ("compiled", "python")
    for name, (records, digest) in TRIALS_DIGESTS.items()
], indirect=["kernel"])
def test_trials_csv_bytes(records, digest, kernel, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records(kernel))
    assert sha256(path) == digest


@pytest.mark.parametrize("mode, digest", [
    (Mode.DETECTION, "4284e75039cfacaf01c65de237d61eab9cc9f7b439ca222c2f62c7f8acf8018f"),
    (Mode.AWARE, "0292deb057b87578fce62de1840588e6d286b2c1e1ed10bc18cda8c8f90d3ae4"),
], ids=["Detection", "Aware"])
@pytest.mark.parametrize("kernel", ["compiled"], indirect=True)
def test_paper_length_trials_csv_bytes(mode, digest, kernel, tmp_path):
    # Trial 0 of the default corridor at seed 42, 4 h long: the sign keeps
    # switching the desired speed, so both IDM powers take new bases on
    # almost every vehicle-step.
    records = run_headline(ExperimentPlan.headline(
        master_seed=42, trials_per_point=1, hours_per_trial=4.0, modes=(mode,)))
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records)
    assert sha256(path) == digest


def test_missing_compiler_warns_once_and_keeps_the_bytes(monkeypatch, tmp_path):
    monkeypatch.setattr(wvcsim.vehicles, "_kernel", None)
    monkeypatch.setattr(wvcsim.vehicles, "CC", ("wvcsim-no-such-cc",))
    with pytest.warns(RuntimeWarning, match="wvcsim-no-such-cc") as caught:
        records = headline_records.__wrapped__("python")
    assert len(caught) == 1
    assert wvcsim.vehicles._kernel is False
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records)
    assert sha256(path) == HEADLINE_TRIALS


@pytest.mark.skipif(shutil.which(wvcsim.vehicles.CC[0]) is None,
                    reason="no C compiler on PATH")
def test_missing_python_headers_warn_once_and_keep_the_bytes(monkeypatch, tmp_path):
    # An include directory without Python.h: the build fails, the warning
    # names the missing header, and the Python body writes the same bytes.
    monkeypatch.setattr(wvcsim.vehicles, "_kernel", None)
    monkeypatch.setattr(sysconfig, "get_paths", lambda *args: {"include": str(tmp_path)})
    with pytest.warns(RuntimeWarning, match="Python.h") as caught:
        records = headline_records.__wrapped__("python")
    assert len(caught) == 1
    assert wvcsim.vehicles._kernel is False
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records)
    assert sha256(path) == HEADLINE_TRIALS


@pytest.mark.parametrize("records, digest", [
    (headline_records,
     "c6a82a383d17aa7305245e2938e720b8580a2519754a11f5e19b207a106f37ed"),
    (spacing_records,
     "b28e0dc96d27df55b627b58f77654407b7d2c7a486f5fdab6e56bc74ee06e18b"),
], ids=["headline", "spacing_sweep"])
def test_summary_csv_bytes(records, digest, tmp_path):
    path = tmp_path / "summary.csv"
    _write_summary_csv(str(path), summarize(records("compiled")))
    assert sha256(path) == digest


@pytest.mark.parametrize("records, kind, digest", [
    (headline_records, "headline",
     "4ebd9aae430e6e1fcc897ccc7d332f2a0a84059869beca90bba0630aaded37e1"),
    (spacing_records, "spacing",
     "2ee8bc1c24681d0b33e8aebdeb0bcfa9fb2e03629d9424b02a43d664d6d78559"),
], ids=["headline", "spacing_sweep"])
def test_plot_json_bytes(records, kind, digest, tmp_path):
    path = emit_plot_data(records("compiled"), kind, str(tmp_path))
    assert path == str(tmp_path / f"plot_{kind}.json")
    assert sha256(tmp_path / f"plot_{kind}.json") == digest
