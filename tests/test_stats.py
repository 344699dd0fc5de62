import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wvcsim.stats import (WelchResult, mean_sd, significance_stars,
                          student_t_two_sided_p, welch_t)


def t_density(x, df):
    """Student-t density written directly from the gamma-function definition."""
    log_norm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))
    return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(x * x / df))


def two_sided_p_by_quadrature(t, df):
    """Independent oracle: numerically integrate both tails of the density."""
    tail, _err = quad(t_density, abs(t), math.inf, args=(df,), epsabs=1e-12,
                      epsrel=1e-12)
    return 2.0 * tail


class TestPValue:
    def test_against_quadrature_on_fixed_points(self):
        for t, df in ((1.0, 8.0), (2.82, 27.5), (0.5, 3.3), (4.0, 12.0)):
            assert student_t_two_sided_p(t, df) == pytest.approx(
                two_sided_p_by_quadrature(t, df), abs=1e-9)

    def test_against_quadrature_on_random_sample_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(5, 30))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(5, 30))
            w = welch_t(list(a), list(b))
            assert w.p == pytest.approx(two_sided_p_by_quadrature(w.t, w.df),
                                        abs=1e-6)

    def test_symmetric_in_t_sign(self):
        assert student_t_two_sided_p(1.7, 9.0) == pytest.approx(
            student_t_two_sided_p(-1.7, 9.0), rel=1e-12)


class TestWelch:
    def test_identical_samples(self):
        w = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert w.t == 0.0
        assert w.p == 1.0

    def test_textbook_pair(self):
        w = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert w.t == pytest.approx(-1.0, rel=1e-12)
        assert w.df == pytest.approx(8.0, rel=1e-12)
        assert w.p == pytest.approx(two_sided_p_by_quadrature(-1.0, 8.0),
                                    abs=1e-9)

    def test_antisymmetry(self):
        a = [3.1, 2.9, 4.2, 3.3, 2.2]
        b = [5.0, 4.1, 6.3, 5.5]
        fw = welch_t(a, b)
        bw = welch_t(b, a)
        assert fw.t == pytest.approx(-bw.t, rel=1e-12)
        assert fw.df == pytest.approx(bw.df, rel=1e-12)
        assert fw.p == pytest.approx(bw.p, rel=1e-12)

    def test_reduces_to_pooled_t_for_balanced_equal_variance(self):
        # n_a = n_b and s_a = s_b: df collapses to n_a + n_b - 2.
        a = [1.0, 2.0, 3.0, 4.0]
        b = [11.0, 12.0, 13.0, 14.0]
        w = welch_t(a, b)
        assert w.df == pytest.approx(len(a) + len(b) - 2, rel=1e-12)

    def test_degenerate_equal_means(self):
        w = welch_t([2.0, 2.0, 2.0], [2.0, 2.0])
        assert w == WelchResult(t=0.0, df=3.0, p=1.0, degenerate=False)

    def test_degenerate_distinct_means(self):
        w = welch_t([1.0, 1.0], [2.0, 2.0])
        assert math.isinf(w.t)
        assert w.p == 0.0
        assert w.degenerate

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [1.0, 2.0])


class TestHelpers:
    def test_sd_is_bessel_corrected(self):
        xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        mean = sum(xs) / len(xs)
        expected = math.sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1))
        m, sd = mean_sd(xs)
        assert m == mean
        assert sd == pytest.approx(expected, rel=1e-12)

    def test_small_samples(self):
        assert mean_sd([]) == (None, None)
        assert mean_sd([3.5]) == (3.5, None)
        assert mean_sd([1.0, 3.0]) == (2.0, 2.0 ** 0.5)

    def test_stars_thresholds(self):
        assert significance_stars(0.2) == ""
        assert significance_stars(0.049) == "*"
        assert significance_stars(0.009) == "**"
        assert significance_stars(0.0009) == "***"
        assert significance_stars(0.05) == ""


def test_trials_do_not_import_scipy():
    # scipy is the slowest import of the package; only the statistics need it.
    code = ("import sys, wvcsim\n"
            "wvcsim.run_trial(wvcsim.CorridorConfig(), 0.01, 0, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
