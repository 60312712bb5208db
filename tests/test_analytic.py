"""Tests for the constant-volatility closed forms.

Expected prices were frozen from an independent log-normal quadrature of
``exp(-r tau) * E[h(x * exp((r - vol^2/2) tau + vol sqrt(tau) Z))]`` using
``scipy.integrate.quad`` (absolute error below 1e-7 in every case).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import uvpricer
from uvpricer.analytic import bs_call, fixed_vol_price
from uvpricer.model import PiecewiseLinearPayoff

BUTTERFLY = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)


class TestBsCall:
    def test_matches_textbook_formula(self):
        """The call price agrees with a direct normal-CDF evaluation."""
        x, k, vol, tau, r = 100.0, 105.0, 0.25, 0.4, 0.03
        srt = vol * np.sqrt(tau)
        d1 = (np.log(x / k) + (r + 0.5 * vol**2) * tau) / srt
        d2 = d1 - srt
        expected = x * norm.cdf(d1) - k * np.exp(-r * tau) * norm.cdf(d2)
        assert bs_call(x, k, vol, tau, r) == pytest.approx(expected, rel=1e-12)
        assert bs_call(x, k, vol, tau, r) == pytest.approx(4.718182136110947, abs=1e-6)

    def test_zero_maturity_is_intrinsic(self):
        """tau = 0 returns the raw payoff."""
        assert bs_call(120.0, 100.0, 0.2, 0.0) == pytest.approx(20.0)
        assert bs_call(80.0, 100.0, 0.2, 0.0) == pytest.approx(0.0)

    def test_zero_vol_discounts_the_forward_intrinsic(self):
        """vol = 0 prices the deterministic forward payoff."""
        x, k, tau, r = 100.0, 95.0, 2.0, 0.05
        expected = np.exp(-r * tau) * (x * np.exp(r * tau) - k)
        assert bs_call(x, k, 0.0, tau, r) == pytest.approx(expected)

    def test_zero_spot(self):
        """A worthless underlying gives a worthless call."""
        assert bs_call(0.0, 100.0, 0.2, 1.0) == 0.0

    def test_monotone_in_vol(self):
        """Call prices increase with volatility."""
        vols = [0.05, 0.1, 0.2, 0.4]
        prices = [bs_call(100.0, 100.0, s, 0.5) for s in vols]
        assert np.all(np.diff(prices) > 0)


class TestFixedVolPrice:
    @pytest.mark.parametrize(
        "payoff, x, vol, tau, rate, expected",
        [
            (BUTTERFLY, 100.0, 0.15, 0.15, 0.0, 5.569924768956005),
            (BUTTERFLY, 95.0, 0.2 * np.exp(-1.0), 0.5, 0.0, 4.507786179227266),
            (BUTTERFLY, 100.0, 0.18, 0.25, 0.05, 3.958725793647847),
        ],
    )
    def test_matches_quadrature_oracle(self, payoff, x, vol, tau, rate, expected):
        """Leg decomposition reproduces frozen quadrature prices."""
        assert fixed_vol_price(payoff, x, vol, tau, rate) == pytest.approx(
            expected, abs=1e-7
        )

    def test_affine_payoff_prices_by_discounting(self):
        """An affine payoff costs const*e^{-r tau} + slope*x regardless of vol."""
        h = PiecewiseLinearPayoff(knots=(100.0,), slopes=(2.0, 2.0), anchor_value=205.0)
        x, tau, r = 90.0, 0.7, 0.04
        expected = 5.0 * np.exp(-r * tau) + 2.0 * x
        assert fixed_vol_price(h, x, 0.3, tau, r) == pytest.approx(expected, rel=1e-12)
        assert fixed_vol_price(h, x, 0.05, tau, r) == pytest.approx(expected, rel=1e-12)

    def test_converges_to_payoff_at_zero_maturity(self):
        """With tau = 0 the price is the payoff itself."""
        x = np.array([85.0, 95.0, 100.0, 107.0])
        assert fixed_vol_price(BUTTERFLY, x, 0.2, 0.0) == pytest.approx(BUTTERFLY(x))

    def test_butterfly_price_decreases_in_vol_at_center(self):
        """At the middle strike the butterfly is short volatility."""
        p_low = fixed_vol_price(BUTTERFLY, 100.0, 0.1, 0.15)
        p_high = fixed_vol_price(BUTTERFLY, 100.0, 0.2, 0.15)
        assert p_high < p_low

    def test_negative_maturity_rejected(self):
        """Negative time to maturity raises ValueError."""
        with pytest.raises(ValueError):
            bs_call(100.0, 100.0, 0.2, -0.1)


class TestNormalKernels:
    def test_bit_identical_to_scipy_stats(self):
        """The cdf :func:`bs_call` uses equals ``scipy.stats.norm``'s bit for bit."""
        rng = np.random.default_rng(3)
        d = np.concatenate([
            rng.normal(0.0, 3.0, 20_000),
            rng.uniform(-45.0, 45.0, 20_000),
            [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e-300, -1e-300],
        ])
        assert np.array_equal(ndtr(d), norm.cdf(d))

    @staticmethod
    def fresh_process(code: str) -> list[str]:
        """Output lines of ``code`` run by a new interpreter on this package."""
        src = str(Path(uvpricer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.splitlines()

    def test_import_leaves_scipy_stats_unloaded(self):
        """Importing the package does not pay for ``scipy.stats``."""
        code = "import sys, uvpricer; print('scipy.stats' in sys.modules)"
        assert self.fresh_process(code) == ["False"]

    def test_scipy_special_loads_on_first_use(self):
        """Importing the package leaves ``scipy.special`` out; the first
        draw and closed-form price load it and give the numbers of direct
        ``ndtri`` and ``ndtr`` calls."""
        lines = self.fresh_process(
            "import sys, uvpricer\n"
            "from uvpricer.rng import normal_increments\n"
            "print('scipy.special' in sys.modules)\n"
            "print(normal_increments(5, 3, 4).ravel().tolist())\n"
            "print(uvpricer.bs_call([80.0, 100.0, 120.0], 100.0, 0.2, 0.5)"
            ".tolist())\n"
        )
        assert lines[0] == "False"
        raw = Philox(key=5, counter=0).random_raw(3 * 4 * 4)
        words = raw.reshape(3, 4, 4)[:, :, :2] >> np.uint64(11)
        z = ndtri((words.astype(np.float64) + 0.5) * 2.0**-53)
        assert np.array_equal(np.array(ast.literal_eval(lines[1])), z.ravel())
        x, srt = np.array([80.0, 100.0, 120.0]), 0.2 * np.sqrt(0.5)
        d1 = (np.log(x / 100.0) + (0.0 + 0.5 * 0.2**2) * 0.5) / srt
        call = x * ndtr(d1) - 100.0 * np.exp(-0.0) * ndtr(d1 - srt)
        assert np.array_equal(np.array(ast.literal_eval(lines[2])), call)
