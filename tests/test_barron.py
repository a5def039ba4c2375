import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab.barron import (
    WeightSpec,
    barron_norm,
    bump_fourier_decay,
    bump_fourier_transform,
    bump_value,
    evaluate_sum,
    fourier_sum,
    from_arrays,
    from_json,
    hm_norm_exact,
    mollified_cutoff,
    periodize_expand,
    scan_offset,
    to_json,
)
from barronlab.numerics import integrate


def sinc(p):
    x = np.asarray(p)[:, 0]
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(np.pi * x[nz]) / (np.pi * x[nz])
    return out


class TestBump:
    def test_peak_value(self):
        assert bump_value(2.0, 0.0) == pytest.approx(math.exp(-1), rel=1e-15)
        assert bump_value(7.3, 0.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_vanishes_outside(self):
        assert bump_value(2.0, 1.0) == 0.0
        assert bump_value(2.0, -1.5) == 0.0

    def test_even(self):
        assert bump_value(2.0, 0.5) == bump_value(2.0, -0.5)

    def test_shape_parameter_validated(self):
        with pytest.raises(ValueError):
            bump_value(1.0, 0.0)

    @given(t=st.floats(-2.0, 2.0), alpha=st.floats(1.01, 8.0))
    @settings(max_examples=50, deadline=None)
    def test_range(self, t, alpha):
        v = bump_value(alpha, t)
        assert 0.0 <= v <= math.exp(-1) + 1e-15


class TestBumpDecay:
    def test_transform_positive_at_zero(self):
        assert bump_fourier_transform(2.0, [0.0])[0] > 0

    def test_transform_even(self):
        vals = bump_fourier_transform(2.0, [3.5, -3.5, 11.0, -11.0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        assert vals[2] == pytest.approx(vals[3], abs=1e-12)

    def test_stretched_exponential_fit(self):
        fit = bump_fourier_decay(2.0, np.arange(1, 65))
        assert fit.slope < 0
        assert fit.r_squared >= 0.95

    def test_needs_a_decade(self):
        with pytest.raises(ValueError, match="decade"):
            bump_fourier_decay(2.0, [1.0, 2.0, 5.0])


class TestWeightSpec:
    def test_polynomial_zero_is_flat(self):
        w = WeightSpec.polynomial(0.0)
        assert w(np.array([[3.0, 4.0]]))[0] == 1.0

    @pytest.mark.parametrize(
        "weight",
        [WeightSpec.polynomial(1.5), WeightSpec.subexponential(0.7, 0.5)],
    )
    def test_submultiplicative(self, weight):
        rng = np.random.default_rng(5)
        xi = rng.standard_normal((1000, 2)) * 8
        om = rng.standard_normal((1000, 2)) * 8
        lhs = weight(xi + om)
        rhs = weight(xi) * weight(om)
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightSpec.polynomial(-1.0)
        with pytest.raises(ValueError):
            WeightSpec.subexponential(1.0, 1.0)


class TestMollifiedCutoff:
    L, EPS = 5.0, 0.75

    def test_one_on_inner_box(self):
        for x in (0.0, 1.7, self.L - 2 * self.EPS):
            assert mollified_cutoff(np.array([x]), self.L, self.EPS) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_zero_outside_support(self):
        assert mollified_cutoff(np.array([-self.EPS - 0.01]), self.L, self.EPS) == 0.0
        assert mollified_cutoff(np.array([self.L - self.EPS + 0.01]), self.L, self.EPS) == 0.0

    def test_values_in_unit_interval_2d(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.5, self.L, size=(200, 2))
        vals = mollified_cutoff(pts, self.L, self.EPS)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_band_midpoint_stable_under_refinement(self):
        mid = np.array([-self.EPS / 2.0])
        coarse = mollified_cutoff(mid, self.L, self.EPS, 64)
        fine = mollified_cutoff(mid, self.L, self.EPS, 640)
        assert 0.0 < coarse < 1.0
        assert coarse == pytest.approx(fine, abs=1e-6)

    def test_band_width_validated(self):
        with pytest.raises(ValueError):
            mollified_cutoff(np.array([0.0]), self.L, self.L / 2)


class TestFourierSum:
    def test_tiny_coefficients_dropped(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0, (5,): 1e-16})
        assert fs.index.tolist() == [[0]]

    def test_zero_coefficients_dropped(self):
        fs = fourier_sum(1, 1.0, (0.0,), {})
        assert fs.support_size() == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficient_refused(self, bad):
        # A NaN peak used to fail every keep test and return an empty sum;
        # an inf peak kept only the inf entries.
        with pytest.raises(ValueError, match=r"non-finite coefficient .* lattice index \[3\]"):
            from_arrays(1, 1.0, (0.0,), [[0], [3], [1]], [1.0, bad, 0.5])

    def test_offset_range_validated(self):
        with pytest.raises(ValueError, match="offset"):
            fourier_sum(1, 2.0, (0.9,), {(0,): 1.0})

    def test_json_round_trip_lossless(self):
        fs = fourier_sum(
            2,
            3.0,
            (0.1234567890123456, 0.0),
            {(0, 1): 0.1 + 0.2j, (-3, 2): math.pi * 1e-7, (5, -5): -1.5j},
        )
        back = from_json(to_json(fs))
        assert back.d == fs.d and back.L == fs.L and back.a == fs.a
        assert back.coeffs == fs.coeffs

    @given(
        re=st.floats(-1e6, 1e6, allow_nan=False),
        im=st.floats(-1e6, 1e6, allow_nan=False),
        z=st.integers(-1000, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_bitwise(self, re, im, z):
        fs = fourier_sum(1, 2.0, (0.25,), {(z,): complex(re, im), (z + 1,): 1e9})
        back = from_json(to_json(fs))
        assert back.coeffs == fs.coeffs


class TestEvaluateSum:
    def test_empty_sum_is_zero(self):
        fs = fourier_sum(1, 1.0, (0.0,), {})
        assert evaluate_sum(fs, np.array([0.3])) == 0.0

    def test_constant_mode(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0})
        for x in (0.0, 0.37, -2.0):
            assert evaluate_sum(fs, np.array([x])) == pytest.approx(1.0)

    def test_two_modes_at_origin(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(1,): 0.5 + 1j, (-4,): 2.0})
        assert evaluate_sum(fs, np.array([0.0])) == pytest.approx(2.5 + 1j)


class TestNorms:
    def test_barron_norm_single_mode(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0})
        for s in (0.0, 1.0, 3.5):
            assert barron_norm(fs, WeightSpec.polynomial(s)) == pytest.approx(1.0)

    def test_barron_norm_hand_example(self):
        # |c| = 1 at |a + xi| = 1 and |c| = 2 at |a + xi| = 3, s = 1:
        # 1 * 2 + 2 * 4 = 10
        fs = fourier_sum(1, 1.0, (0.0,), {(1,): 1.0, (3,): 2.0})
        assert barron_norm(fs, WeightSpec.polynomial(1.0)) == pytest.approx(10.0)

    def test_barron_norm_s0_is_l1(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(2,): 3j, (-7,): -4.0})
        assert barron_norm(fs, WeightSpec.polynomial(0.0)) == pytest.approx(7.0)

    def test_barron_norm_subexponential_weight(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(2,): 1.0, (-3,): 0.5})
        w = WeightSpec.subexponential(0.5, 0.5)
        want = math.exp(0.5 * math.sqrt(2.0)) + 0.5 * math.exp(0.5 * math.sqrt(3.0))
        assert barron_norm(fs, w) == pytest.approx(want, rel=1e-12)

    def test_hm_norm_single_mode_l2(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0})
        assert hm_norm_exact(fs, 0) == pytest.approx(1.0, rel=1e-15)

    def test_hm_norm_single_mode_h1(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(1,): 1.0})
        assert hm_norm_exact(fs, 1) == pytest.approx(
            math.sqrt(1 + 4 * math.pi**2), rel=1e-15
        )

    def test_parseval_m0(self):
        rng = np.random.default_rng(9)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in rng.integers(-20, 20, size=6)
        }
        fs = fourier_sum(1, 2.5, (0.1,), coeffs)
        l2 = math.sqrt(sum(abs(c) ** 2 for c in fs.coeffs.values()))
        assert hm_norm_exact(fs, 0) == pytest.approx(math.sqrt(2.5) * l2, rel=1e-14)

    def test_h2_norm_matches_quadrature(self):
        coeffs = {(-2,): 0.5, (1,): 1.0 + 0.5j}
        fs = fourier_sum(1, 1.0, (0.1,), coeffs)
        resolution = 96
        freqs = fs.shifted_frequencies()[:, 0]
        c = fs.coefficient_vector()
        total = 0.0
        for order in range(3):
            scaled = c * (2j * np.pi * freqs) ** order

            def deriv_sq(p, scaled=scaled):
                vals = np.exp(2j * np.pi * np.outer(p[:, 0], freqs)) @ scaled
                return np.abs(vals) ** 2

            total += integrate(deriv_sq, [(0, 1)], resolution)
        assert hm_norm_exact(fs, 2) == pytest.approx(math.sqrt(total), rel=1e-10)

    def test_hm_norm_matches_quadrature(self):
        rng = np.random.default_rng(4)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in [-7, -2, 0, 3, 11]
        }
        fs = fourier_sum(1, 1.0, (0.05,), coeffs)
        resolution = 96

        def sq(p):
            return np.abs(evaluate_sum(fs, p)) ** 2

        def dsq(p):
            freqs = fs.shifted_frequencies()[:, 0]
            c = fs.coefficient_vector() * (2j * np.pi * freqs)
            vals = np.exp(2j * np.pi * np.outer(p[:, 0], freqs)) @ c
            return np.abs(vals) ** 2

        quad = math.sqrt(integrate(sq, [(0, 1)], resolution)
                         + integrate(dsq, [(0, 1)], resolution))
        assert hm_norm_exact(fs, 1) == pytest.approx(quad, abs=1e-6)


class TestPeriodize:
    def test_periodic_bandlimited_inversion(self):
        L, a = 5.0, (0.07,)
        coeffs = {(-2,): 0.5 + 0.25j, (0,): 1.0, (3,): -0.125j}
        src = fourier_sum(1, L, a, coeffs)
        rec = periodize_expand(
            lambda p: evaluate_sum(src, p), L, a, 5,
            support_bound=2.0, window=False,
        )
        for z, c in coeffs.items():
            assert rec.coeffs[z] == pytest.approx(c, abs=1e-8)
        spurious = {z: abs(c) for z, c in rec.coeffs.items() if z not in coeffs}
        assert not spurious or max(spurious.values()) < 1e-8

    def test_sinc_reconstruction(self):
        L, S, eps = 5.0, 2.0, 1.4
        fs = periodize_expand(
            sinc, L, (0.0,), 60,
            support_bound=S, eps=eps, alpha=3.0,
        )
        assert not fs.warnings
        probes = np.linspace(0.0, L - 2 * eps, 20)[:, None]
        err = np.max(np.abs(evaluate_sum(fs, probes) - sinc(probes)))
        assert err <= 1e-5

    def test_zero_function_empty_support(self):
        fs = periodize_expand(
            lambda p: np.zeros(len(p)), 5.0, (0.0,), 10, support_bound=2.0
        )
        assert fs.support_size() == 0

    def test_undersized_index_box_warns(self):
        fs = periodize_expand(
            sinc, 5.0, (0.0,), 2,
            support_bound=2.0,
        )
        assert fs.warnings and "truncation" in fs.warnings[0]

    def test_period_too_small_rejected(self):
        with pytest.raises(ValueError, match="period"):
            periodize_expand(sinc, 3.0, (0.0,), 10, support_bound=2.0)


    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 2"):
            periodize_expand(
                lambda p: np.ones(len(p)), 9.0, (0.0, 0.0, 0.0), 2,
                support_bound=1.0,
            )

    def test_mass_bound_stable_across_inputs(self):
        # Ratio of lattice l1 mass to the continuous |spectrum| mass stays
        # within +-20% of the first fitted value over three smooth inputs.
        w0 = WeightSpec.polynomial(0.0)
        cases = [(1.0, 0.4, 0.0), (1.0, 0.3, 1.0), (0.8, 0.5, 0.5)]
        ratios = []
        for x0, width, freq in cases:
            def f(p, x0=x0, width=width, freq=freq):
                x = np.asarray(p)[:, 0]
                return np.exp(-(((x - x0) / width) ** 2)) * np.cos(2 * np.pi * freq * x)

            def fhat_abs(xi, width=width, freq=freq):
                g = width * math.sqrt(math.pi) / 2
                return g * np.abs(
                    np.exp(-((np.pi * width * (xi - freq)) ** 2))
                    + np.exp(-((np.pi * width * (xi + freq)) ** 2))
                )

            fs = periodize_expand(
                f, 5.0, (0.0,), 60,
                support_bound=2.0, eps=1.4, alpha=3.0,
            )
            xi = np.linspace(-30, 30, 20001)
            ratios.append(barron_norm(fs, w0) / np.trapezoid(fhat_abs(xi), xi))
        fitted = ratios[0]
        assert all(0.8 * fitted <= r <= 1.2 * fitted for r in ratios)

    def test_two_dimensional_reconstruction(self):
        def f2(p):
            p = np.asarray(p)
            return np.exp(
                -(((p[:, 0] - 0.8) / 0.35) ** 2) - ((p[:, 1] - 0.7) / 0.3) ** 2
            )

        L, eps = 5.0, 1.4
        fs = periodize_expand(
            f2, L, (0.0, 0.0), 12,
            support_bound=1.6, eps=eps, alpha=3.0,
        )
        rng = np.random.default_rng(0)
        probes = rng.uniform(0.0, L - 2 * eps, (20, 2))
        err = np.max(np.abs(evaluate_sum(fs, probes) - f2(probes)))
        assert err <= 1e-3  # index-box truncation dominates at this z_box

    def test_two_dimensional_inversion(self):
        L, a = 5.0, (0.03, 0.0)
        coeffs = {(1, 0): 1.0, (0, -2): 0.5j, (2, 2): -0.25}
        src = fourier_sum(2, L, a, coeffs)
        rec = periodize_expand(
            lambda p: evaluate_sum(src, p), L, a, 3,
            support_bound=1.6, window=False,
        )
        for z, c in coeffs.items():
            assert rec.coeffs[z] == pytest.approx(c, abs=1e-10)

    def test_offset_scan_returns_grid_argmin(self):
        weight = WeightSpec.polynomial(0.0)
        best_a, best_fs = scan_offset(
            sinc, 1, 5.0, 20, weight,
            support_bound=2.0, grid=3,
        )
        at_zero = periodize_expand(
            sinc, 5.0, (0.0,), 20,
            support_bound=2.0,
        )
        assert barron_norm(best_fs, weight) <= barron_norm(at_zero, weight) + 1e-12
        assert 0.0 <= best_a[0] < 1 / 5.0
