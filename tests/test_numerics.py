import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import barron
from barronlab.numerics import (
    IntegrationError,
    integrate,
    loglog_fit,
    multi_indices,
    sobolev_weight,
)

# Independent reference: composite trapezoid with 1e6 nodes on [-5, 5].
GAUSSIAN_TRAPEZOID_ORACLE = 1.7724538509027907


class TestIntegrate:
    def test_constant_field_unit_square(self):
        val = integrate(lambda p: np.ones(len(p)), [(0, 1), (0, 1)])
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_sin_squared(self):
        val = integrate(
            lambda p: np.sin(2 * np.pi * p[:, 0]) ** 2,
            [(0, 1)],
            64,
        )
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_matches_trapezoid_oracle(self):
        val = integrate(
            lambda p: np.exp(-p[:, 0] ** 2),
            [(-5, 5)],
            64,
        )
        assert val == pytest.approx(GAUSSIAN_TRAPEZOID_ORACLE, abs=1e-6)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    @pytest.mark.parametrize("resolution", [3, 5, 8])
    def test_gauss_legendre_polynomial_exactness(self, resolution):
        deg = 2 * resolution - 1
        val = integrate(
            lambda p: p[:, 0] ** deg + p[:, 1] ** deg,
            [(0, 1), (0, 1)],
            resolution,
        )
        assert val == pytest.approx(2.0 / (deg + 1), abs=1e-12)

    def test_complex_integrand_componentwise(self):
        val = integrate(
            lambda p: np.exp(2j * np.pi * p[:, 0]),
            [(0, 1)],
            32,
        )
        assert isinstance(val, complex)
        assert abs(val) < 1e-12

    def test_non_finite_value_names_node(self):
        def f(p):
            out = np.ones(len(p))
            out[p[:, 0] > 0.5] = np.nan
            return out

        with pytest.raises(IntegrationError, match="node"):
            integrate(f, [(0, 1)], 8)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            integrate(lambda p: np.ones(len(p)), [(1, 1)])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            integrate(lambda p: np.ones(len(p)), [(0, 1)], 1)

    def test_more_than_three_axes_refused(self):
        with pytest.raises(ValueError, match="at most 3 axes, got 4"):
            integrate(lambda p: np.ones(len(p)), [(0, 1)] * 4)


def _unit_field(p):
    return np.ones(len(p))


@pytest.mark.parametrize("call", [
    lambda: integrate(_unit_field, [(0, 1)], 1),
    lambda: barron.mollified_cutoff(np.array([0.0]), 5.0, 0.75, 1),
], ids=["integrate", "mollified_cutoff"])
def test_every_resolution_entry_point_refuses_one_node(call):
    with pytest.raises(ValueError, match="resolution must be >= 2, got 1"):
        call()


class TestSobolevWeight:
    def test_order_zero_is_one(self):
        assert sobolev_weight([3.7, -1.2], 0) == 1.0
        assert sobolev_weight([0.0], 0) == 1.0

    def test_hand_expansion_d1_m1(self):
        # alpha in {0, 1}: 1 + (2 pi)^2
        assert sobolev_weight([1.0], 1) == pytest.approx(1 + 4 * math.pi**2, rel=1e-15)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        etas = rng.standard_normal((50, 3)) * 5
        assert np.all(sobolev_weight(etas, 2) >= 1.0)

    def test_comparison_with_power_weight(self):
        # Constants frozen from a one-time sweep over directions and radii.
        c_low, c_high = 0.9, 1600.0
        radii = np.logspace(-2, 3, 41)
        rng = np.random.default_rng(0)
        for _ in range(8):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            for r in radii:
                ratio = sobolev_weight(r * v, 2) / (1 + r) ** 4
                assert c_low <= ratio <= c_high

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sobolev_weight([1.0], -1)

    def test_multi_indices_count(self):
        # |{alpha : |alpha| <= m}| = C(m + d, d)
        assert len(list(multi_indices(3, 2))) == math.comb(5, 3)


class TestLogLogFit:
    def test_exact_power_law(self):
        fit = loglog_fit([(1, 1.0), (10, 0.1), (100, 0.01)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points_used == 3

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([(10, 0.5)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([(1, 1.0), (2, 0.0)])

    def test_synthetic_three_quarters(self):
        samples = [(n, 3.0 * n**-0.75) for n in range(2, 257)]
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(-0.75, abs=1e-9)

    def test_duplicate_n_collapsed(self):
        fit = loglog_fit([(2, 1.0), (2, 4.0), (8, 2.0), (8, 8.0)])
        assert fit.points_used == 2
        # geometric means (2, 2) and (8, 4): slope log(2)/log(4)
        assert fit.slope == pytest.approx(math.log(2) / math.log(4), rel=1e-12)

    @given(
        slope=st.floats(-3.0, -0.1),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_generated_exponent(self, slope, scale):
        samples = [(n, scale * n**slope) for n in (2, 4, 8, 16, 32, 64)]
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
