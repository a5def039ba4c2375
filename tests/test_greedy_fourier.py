import itertools
import math

import numpy as np
import pytest

from barronlab.barron import WeightSpec, barron_norm, evaluate_sum, fourier_sum
from barronlab.greedy_fourier import (
    MAX_BOX_ROWS,
    order_frequencies,
    rate_exponents,
    smoothness_threshold,
    synthetic_heavy_tail,
    tail_error_hm,
    truncate_top_n,
)
from barronlab.numerics import integrate, loglog_fit, sobolev_weight


@pytest.fixture(scope="module")
def heavy_tail():
    fs = synthetic_heavy_tail(1, 2.0, 700.0, seed=7)
    sel = order_frequencies(fs, 0, 2.0)
    return fs, sel


class TestOrdering:
    def test_single_coefficient_identity(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(2,): 1.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert fs.index[sel.order].tolist() == [[2]]

    def test_hand_keys_with_tie(self):
        # |c| = 1 at |xi| = 0, 1 at |xi| = 1, 4 at |xi| = 3; m = 0, ks = 1:
        # keys 1, 0.5, 1; the tie at 1 breaks toward the smaller index.
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0, (1,): 1.0, (3,): 4.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert fs.index[sel.order].tolist() == [[0], [3], [1]]
        assert sel.sorted_keys == pytest.approx((1.0, 1.0, 0.5))

    def test_equal_coefficients_sorted_by_frequency(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(z,): 1.0 for z in (-9, -4, 0, 2, 7)})
        sel = order_frequencies(fs, 0, 1.5)
        norms = [abs(z[0]) for z in fs.index[sel.order].tolist()]
        assert norms == sorted(norms)

    def test_keys_nonincreasing(self, heavy_tail):
        _, sel = heavy_tail
        keys = np.array(sel.sorted_keys)
        assert np.all(np.diff(keys) <= 1e-15)

    def test_ell1_prefix_cumulative(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 3.0, (1,): 4.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert sel.ell1_mass(0) == 0.0
        assert sel.ell1_mass(2) == pytest.approx(7.0)
        assert sel.ell1_mass(99) == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_frequencies(fourier_sum(1, 1.0, (0.0,), {}), 0, 1.0)

    def test_ties_match_python_sort_reference(self):
        # All 8 signed images of (3, 1) and (1, 3) share |z| and |c|, so their
        # keys tie exactly; ties must resolve by lattice index, negative
        # components included, exactly as a Python sort on (-key, index).
        phases = (0.5, 0.5j, -0.5, -0.5j)
        images = [(sp * p, sq * q) for p, q in ((3, 1), (1, 3))
                  for sp in (1, -1) for sq in (1, -1)]
        coeffs = {z: phases[i % 4] for i, z in enumerate(images)}
        coeffs.update({(0, 0): 0.2, (2, -2): 1.0 - 1.0j, (-4, 0): 2.0, (0, 5): -3.0j})
        fs = fourier_sum(2, 0.5, (0.0, 0.0), coeffs)
        sel = order_frequencies(fs, 0, 1.5)
        index = list(fs.coeffs)
        xi = np.linalg.norm(np.array(index, dtype=float), axis=1) / fs.L
        key = (1.0 + xi) ** -1.5 * np.abs(fs.coefficient_vector())
        assert len({key[index.index(z)] for z in images}) == 1
        ref = sorted(range(len(index)), key=lambda i: (-key[i], index[i]))
        assert list(map(tuple, fs.index[sel.order].tolist())) == [index[i] for i in ref]
        assert sel.sorted_keys == pytest.approx([key[i] for i in ref], rel=1e-15)


class TestTruncate:
    def test_keep_everything(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0, (1,): 2.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert truncate_top_n(fs, sel, 10).coeffs == fs.coeffs

    def test_keep_nothing(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert truncate_top_n(fs, sel, 0).support_size() == 0

    def test_hand_example_top_two(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0, (1,): 1.0, (3,): 4.0})
        sel = order_frequencies(fs, 0, 1.0)
        kept = truncate_top_n(fs, sel, 2)
        assert sorted(kept.coeffs) == [(0,), (3,)]

    def test_negative_count_rejected(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 1.0})
        sel = order_frequencies(fs, 0, 1.0)
        with pytest.raises(ValueError):
            truncate_top_n(fs, sel, -1)


class TestTailError:
    def test_zero_once_support_kept(self, heavy_tail):
        fs, sel = heavy_tail
        assert tail_error_hm(fs, sel, fs.support_size(), 0) == 0.0

    def test_single_mode_all_tail(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(0,): 2.0})
        sel = order_frequencies(fs, 0, 1.0)
        assert tail_error_hm(fs, sel, 0, 0) == pytest.approx(2.0)

    def test_monotone_nonincreasing(self, heavy_tail):
        fs, sel = heavy_tail
        errs = [tail_error_hm(fs, sel, n, 0) for n in range(0, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_matches_quadrature_oracle_six_modes(self):
        rng = np.random.default_rng(12)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in [-6, -3, -1, 2, 4, 9]
        }
        fs = fourier_sum(1, 1.0, (0.03,), coeffs)
        sel = order_frequencies(fs, 1, 2.0)
        resolution = 128
        for n in range(0, 7):
            fn = truncate_top_n(fs, sel, n)

            def residual_sq(p, fn=fn):
                return np.abs(evaluate_sum(fs, p) - evaluate_sum(fn, p)) ** 2

            def residual_deriv_sq(p, fn=fn):
                def deriv(g, pts):
                    if not g.coeffs:
                        return np.zeros(len(pts), dtype=complex)
                    freqs = g.shifted_frequencies()[:, 0]
                    c = g.coefficient_vector() * (2j * np.pi * freqs)
                    return np.exp(2j * np.pi * np.outer(pts[:, 0], freqs)) @ c

                return np.abs(deriv(fs, p) - deriv(fn, p)) ** 2

            quad = math.sqrt(
                integrate(residual_sq, [(0, 1)], resolution)
                + integrate(residual_deriv_sq, [(0, 1)], resolution)
            )
            assert tail_error_hm(fs, sel, n, 1) == pytest.approx(quad, abs=1e-6)

    def test_telescoping_identity(self, heavy_tail):
        fs, sel = heavy_tail
        for n in (0, 3, 17, 100):
            t_n = tail_error_hm(fs, sel, n, 1)
            t_next = tail_error_hm(fs, sel, n + 1, 1)
            z = tuple(fs.index[sel.order[n]].tolist())
            eta = np.asarray(fs.a) + np.array(z) / fs.L
            drop = abs(fs.coeffs[z]) ** 2 * sobolev_weight(eta, 1) * fs.L
            assert t_n**2 - t_next**2 == pytest.approx(drop, rel=1e-9)


class TestRateInvariants:
    def test_lattice_sum_growth(self, heavy_tail):
        # sum over the kept set of (1 + |xi|)^(2(ks - m)) grows at least like
        # c * n^(1 + 2(ks - m)/d); c frozen from a one-time sweep.
        fs, sel = heavy_tail
        ks, m, d = 2.0, 0, 1
        c_frozen = 0.2
        for n in (8, 16, 32, 64, 128, 256, 512):
            total = sum(
                (1 + abs(z[0]) / fs.L) ** (2 * (ks - m)) for z in fs.index[sel.order[:n]].tolist()
            )
            assert total >= c_frozen * n ** (1 + 2 * (ks - m) / d)

    def test_rate_bound_fitted_at_smallest(self, heavy_tail):
        # err(n) <= C * bnorm * n^(-1/2 - (ks - m)/d) with C calibrated at
        # the first point of the asymptotic range (n = 16; below that the
        # additive-offset transient makes the prefactor non-monotone).
        fs, sel = heavy_tail
        bnorm = barron_norm(fs, WeightSpec.polynomial(2.0))
        grid = (16, 32, 64, 128, 256, 512)
        errors = {n: tail_error_hm(fs, sel, n, 0) for n in grid}
        c_fit = errors[grid[0]] * grid[0] ** 2.5 / bnorm
        for n in grid:
            assert errors[n] <= c_fit * bnorm * n**-2.5 * (1 + 1e-9)

    def test_heavy_tail_slope(self, heavy_tail):
        fs, sel = heavy_tail
        grid = [2**j for j in range(1, 9)]
        fit = loglog_fit([(n, tail_error_hm(fs, sel, n, 0)) for n in grid])
        assert fit.slope <= -2.5 + 0.15


class TestExponents:
    def test_case_split_and_threshold_formula(self):
        table = rate_exponents(0.5, 0.0, 1.0, 2)
        assert table.relu_rate_exponent == pytest.approx(0.5, abs=1e-12)
        assert table.relu_log_power == 0.0
        # (d + 1)(k - m + 1/2) + m + 1/2 at (2, 0, 1) = 3 * 1.5 + 0.5
        assert table.smoothness_threshold == pytest.approx(5.0, abs=1e-12)

    def test_greedy_exponent_matches_unit_smoothness(self):
        for d in (1, 2, 3, 5):
            table = rate_exponents(1.0, 0.0, 1.0, d)
            assert table.greedy_fourier_exponent == pytest.approx(
                0.5 + 1.0 / d, abs=1e-12
            )

    def test_rate_continuous_at_threshold(self):
        k, m, d = 1.0, 0.0, 2
        star = smoothness_threshold(k, m, d)
        below = rate_exponents(star - 1e-9, m, k, d).relu_rate_exponent
        at = rate_exponents(star, m, k, d).relu_rate_exponent
        above = rate_exponents(star + 1e-9, m, k, d).relu_rate_exponent
        assert at == k - m + 1
        assert below == pytest.approx(at, abs=1e-8)
        assert above == at

    def test_log_power_branches(self):
        k, m, d = 1.0, 0.0, 2
        star = smoothness_threshold(k, m, d)
        assert rate_exponents(star - 1.0, m, k, d).relu_log_power == 0.0
        assert rate_exponents(star + 1.0, m, k, d).relu_log_power == 1.0
        assert rate_exponents(star, m, k, d).relu_log_power == pytest.approx(
            1.0 + (k - m + 0.5)
        )

    def test_rate_capped_and_increasing_below_threshold(self):
        k, m, d = 2.0, 1.0, 3
        star = smoothness_threshold(k, m, d)
        values = [
            rate_exponents(s, m, k, d).relu_rate_exponent
            for s in np.linspace(m + 0.5, star + 2.0, 25)
        ]
        assert all(v <= k - m + 1 + 1e-12 for v in values)
        below = [
            rate_exponents(s, m, k, d).relu_rate_exponent
            for s in np.linspace(m + 0.5, star - 1e-6, 10)
        ]
        assert all(b > a for a, b in zip(below, below[1:]))

    def test_entropy_exponent_above_half(self):
        for d in (1, 2, 5, 20):
            for k in (0.0, 1.0, 3.0):
                assert rate_exponents(1.0, 0.0, k, d).uniform_entropy_exponent > 0.5

    def test_remaining_exponents(self):
        table = rate_exponents(2.0, 1.0, 3.0, 4)
        assert table.sobolev_exponent == pytest.approx(0.5)
        assert table.width_barrier_exponent == pytest.approx(3.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            rate_exponents(1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            rate_exponents(1.0, -1.0, 1.0, 2)


class TestSyntheticInput:
    def test_support_cap(self):
        fs = synthetic_heavy_tail(1, 2.0, 10.0, seed=0)
        assert fs.support_size() == 11  # z in [-5, 5] at spacing 2
        assert max(abs(z[0]) / fs.L for z in fs.coeffs) <= 10.0

    def test_weighted_mass_increments_shrink_as_support_grows(self):
        # The weighted l1 mass converges as the support widens: each
        # doubling of the cap adds strictly less than the previous one.
        w = WeightSpec.polynomial(2.0)
        masses = [
            barron_norm(synthetic_heavy_tail(1, 2.0, cap, seed=1), w)
            for cap in (100.0, 200.0, 400.0, 800.0)
        ]
        increments = [b - a for a, b in zip(masses, masses[1:])]
        assert all(inc > 0 for inc in increments)
        assert all(b < a for a, b in zip(increments, increments[1:]))

    @pytest.mark.parametrize("d, ks, xi_max, seed",
                             [(1, 2.0, 50.0, 4), (2, 3.0, 12.0, 6), (3, 2.0, 8.0, 5)])
    def test_matches_per_mode_reference(self, d, ks, xi_max, seed):
        # One phase draw per mode in lexicographic index order, as a loop.
        L = 0.5
        rng = np.random.default_rng(seed)
        z_max = int(math.floor(xi_max * L))
        ref = {}
        for z in itertools.product(range(-z_max, z_max + 1), repeat=d):
            if math.hypot(*z) <= xi_max * L:
                phase = np.exp(2j * np.pi * rng.random())
                ref[z] = phase * (1.0 + np.linalg.norm(z) / L) ** (-(ks + d + 0.1))
        fs = synthetic_heavy_tail(d, ks, xi_max, seed)
        assert list(fs.coeffs) == sorted(ref)
        want = np.array([ref[z] for z in sorted(ref)])
        np.testing.assert_allclose(fs.coefficient_vector(), want, rtol=4 * 2.0**-52, atol=0)

    @pytest.mark.parametrize("d, xi_max, box", [
        (3, 400.0, r"\(2\*200 \+ 1\)\^3 = 64481201 rows"),  # the default xi_max at d=3
        (2, 2048.0, r"\(2\*1024 \+ 1\)\^2 = 4198401 rows"),  # first odd side above 2^11
    ])
    def test_lattice_box_capped(self, d, xi_max, box):
        assert MAX_BOX_ROWS == 2**22
        with pytest.raises(ValueError, match=box):
            synthetic_heavy_tail(d, 2.0, xi_max, seed=0)

    def test_dimension_below_one_refused(self):
        with pytest.raises(ValueError, match="d >= 1"):
            synthetic_heavy_tail(0, 2.0, 10.0, seed=0)

    def test_two_dimensional_support_is_disc(self):
        fs = synthetic_heavy_tail(2, 1.0, 6.0, seed=2)
        assert all(math.hypot(*z) / fs.L <= 6.0 for z in fs.coeffs)

    def test_two_dimensional_tail_errors(self):
        fs = synthetic_heavy_tail(2, 1.0, 10.0, seed=3)
        sel = order_frequencies(fs, 0, 1.0)
        errs = [tail_error_hm(fs, sel, n, 0) for n in range(0, fs.support_size() + 1, 5)]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
        assert tail_error_hm(fs, sel, fs.support_size(), 0) == 0.0
        # telescoping carries over unchanged in two dimensions
        t3, t4 = tail_error_hm(fs, sel, 3, 0), tail_error_hm(fs, sel, 4, 0)
        z = tuple(fs.index[sel.order[3]].tolist())
        drop = abs(fs.coeffs[z]) ** 2 * fs.L**2
        assert t3**2 - t4**2 == pytest.approx(drop, rel=1e-9)
