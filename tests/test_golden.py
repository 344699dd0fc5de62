"""Golden bytes: the trials CSV of two small plans, pinned by SHA-256.

A change that moves any output byte fails here. Re-baselining is an explicit
edit of these digests, to be recorded with its reason in CHANGES.md.
"""

import hashlib
import warnings

import pytest

from wvcsim.experiments import ExperimentPlan, run_headline, run_sweep
from wvcsim.records import write_trials_csv


def headline_records():
    return run_headline(ExperimentPlan.headline(
        master_seed=42, trials_per_point=3, hours_per_trial=0.25))


def spacing_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sparse-spacing coverage warnings
        return run_sweep(ExperimentPlan.sweep(
            "spacing", master_seed=42, trials_per_point=1, hours_per_trial=0.1))


@pytest.mark.parametrize("records, digest", [
    (headline_records,
     "361cb322538b8a8fc9f13cfe0cb880f57d399dd4b776550a1a233ccc21beb3ce"),
    (spacing_records,
     "042a0ab0680f2ab1bb99162686ee74e275bfd7b43517b339dd1a02f3cdf26e31"),
], ids=["headline", "spacing_sweep"])
def test_trials_csv_bytes(records, digest, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
