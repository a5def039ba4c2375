import itertools
import math
import re

import numpy as np
import pytest

from barronlab.barron import WeightSpec, barron_norm, evaluate_sum, fourier_sum
from barronlab.greedy_fourier import (
    MAX_BOX_ROWS,
    MAX_SHELL_ROWS,
    heavy_tail_sweep,
    lattice_shell_counts,
    order_frequencies,
    rate_exponents,
    smoothness_threshold,
    synthetic_heavy_tail,
    tail_error_hm,
    tail_errors_hm,
    truncate_top_n,
)
from barronlab.numerics import grid_rows, loglog_fit, sobolev_weight
from oracles import integrate


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

    @pytest.mark.parametrize("m, ks", [(0, 1.5), (1, 2.0), (0, 0.0)])
    def test_stable_key_sort_matches_index_lexsort_on_shell_ties(self, m, ks):
        # Equal |c| on every lattice shell |z|^2 = r, with the four phases
        # 1, i, -1, -i that keep |c| exact, inserted in shuffled order: whole
        # shells tie.  The permutation must equal a lexsort on (-key, index).
        rng = np.random.default_rng(4)
        box = list(itertools.product(range(-7, 8), repeat=2))
        phases = (1.0, 1.0j, -1.0, -1.0j)
        coeffs = {box[i]: phases[i % 4] * (1.0 + sum(t * t for t in box[i])) ** -0.75
                  for i in rng.permutation(len(box))}
        fs = fourier_sum(2, 0.5, (0.0, 0.0), coeffs)
        sel = order_frequencies(fs, m, ks)
        xi = np.linalg.norm(fs.index.astype(float), axis=1) / fs.L
        keys = (1.0 + xi) ** (2.0 * m - ks) * np.abs(fs.values)
        assert len(np.unique(keys)) < len(keys) // 4
        want = np.lexsort(tuple(fs.index.T[::-1]) + (-keys,))
        assert np.array_equal(sel.order, want)
        assert np.array_equal(sel.sorted_keys, keys[want])


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


class TestTailSweep:
    @pytest.mark.parametrize("d, xi_max", [(1, 200.0), (2, 24.0), (3, 10.0)])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_matches_per_n_formula_bitwise(self, d, xi_max, m, seed):
        # Reference: gather the discarded rows afresh for every n, including
        # n past the support and n off any multiple of 8.
        fs = synthetic_heavy_tail(d, 2.0, xi_max, seed)
        sel = order_frequencies(fs, m, 2.0)
        tail = tail_errors_hm(fs, sel, m)
        for n in range(fs.support_size() + 2):
            discarded = sel.order[n:]
            want = 0.0
            if discarded.size:
                w = sobolev_weight(np.asarray(fs.a) + fs.index[discarded] / fs.L, m)
                mass = np.abs(fs.values[discarded]) ** 2
                want = math.sqrt(fs.L**d * float(np.dot(w, mass)))
            assert tail(n) == want
            assert tail_error_hm(fs, sel, n, m) == want

    def test_negative_count_reads_the_whole_support(self, heavy_tail):
        fs, sel = heavy_tail
        tail = tail_errors_hm(fs, sel, 0)
        assert tail(-3) == tail(0) == tail_error_hm(fs, sel, -3, 0)


class TestShellSweep:
    @staticmethod
    def box(d, ks, m, xi_max, seed=0):
        fs = synthetic_heavy_tail(d, ks, xi_max, seed)
        sel = order_frequencies(fs, m, ks)
        return fs, sel, tail_errors_hm(fs, sel, m)

    @pytest.mark.parametrize("d, xi_max", [(1, 200.0), (2, 40.0), (3, 16.0), (4, 10.0)])
    @pytest.mark.parametrize("ks, m", [(2.0, 0), (3.0, 1)])
    def test_matches_box_oracle(self, d, xi_max, ks, m):
        fs, sel, tail = self.box(d, ks, m, xi_max)
        error, key = heavy_tail_sweep(d, ks, m, xi_max, seed=0)
        size = fs.support_size()
        radius = np.linalg.norm(fs.index[sel.order], axis=1)
        split = np.flatnonzero(radius[1:] == radius[:-1]) + 1  # modes n - 1, n share a shell
        for n in (0, 1, int(split[len(split) // 2]), size - 1):
            assert error(n) == pytest.approx(tail(n), rel=1e-12, abs=0.0)
        for n in (1, int(split[len(split) // 2]), size - 1, size):
            assert key(n) == pytest.approx(sel.sorted_keys[n - 1], rel=1e-12, abs=0.0)
        assert key(size + 5) == pytest.approx(sel.sorted_keys[-1], rel=1e-12, abs=0.0)
        assert error(size - 1) > 0.0
        assert error(size) == error(size + 5) == tail(size + 5) == 0.0

    def test_drop_rule_applied_per_shell(self):
        # |c_z| falls below 1e-14 of the peak from |z| = 16,410 on: without
        # from_arrays' drop rule the tail error is off by 7.4e-9 relative at
        # n = 1024 and by a factor 79 at the last kept mode.
        fs, sel, tail = self.box(1, 2.0, 0, 1e5)
        error, _ = heavy_tail_sweep(1, 2.0, 0, 1e5, seed=0)
        size = fs.support_size()
        assert size < 100_001
        for n in (0, 1, 2, 64, 1024, size // 2, size - 1):
            assert error(n) == pytest.approx(tail(n), rel=1e-12, abs=0.0)
        assert error(size) == 0.0

    @pytest.mark.parametrize("d, z_max", [(2, 7), (3, 5), (4, 3), (6, 2)])
    def test_counts_match_box_enumeration(self, d, z_max):
        counts = lattice_shell_counts(d, z_max)
        box = grid_rows(np.arange(-z_max, z_max + 1), d)
        norms_sq = np.sum(box**2, axis=1)
        want = np.bincount(norms_sq, minlength=len(counts))[:len(counts)]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want)
        # Summed over the disc |z| <= z_max: the support of the box spectrum.
        assert counts[:z_max**2 + 1].sum() == synthetic_heavy_tail(d, 2.0, 2.0 * z_max,
                                                                   seed=0).support_size()

    def test_counts_that_float64_cannot_carry_are_refused(self):
        with pytest.raises(ValueError, match="not exact in float64; lower xi_max"):
            lattice_shell_counts(8, 200)

    @pytest.mark.parametrize("d, ks, m, xi_max", [
        (2, 2.0, 2, 24.0),  # w_2 is not radial at d = 2
        (1, -0.55, 0, 200.0),  # key ties: ks = m - (d + 0.1)/2
        (2, 1.0 - 2.1 / 2.0, 1, 24.0),
        (4, 1.0 - 4.1 / 2.0, 1, 8.0),  # the tie's exponent rounds to -3.6e-16
    ])
    def test_other_cases_take_the_box_path_bitwise(self, d, ks, m, xi_max):
        fs, sel, tail = self.box(d, ks, m, xi_max, seed=3)
        error, key = heavy_tail_sweep(d, ks, m, xi_max, seed=3)
        for n in range(fs.support_size() + 2):
            assert error(n) == tail(n)
        for n in range(1, fs.support_size() + 2):
            assert key(n) == sel.sorted_keys[min(n, fs.support_size()) - 1]

    def test_shell_path_ignores_the_seed(self):
        first, _ = heavy_tail_sweep(3, 2.0, 1, 400.0, seed=0)
        second, _ = heavy_tail_sweep(3, 2.0, 1, 400.0, seed=9)
        assert [first(n) for n in (0, 7, 4096)] == [second(n) for n in (0, 7, 4096)]

    @pytest.mark.parametrize("d, xi_max, rows", [
        (2, 1e5, "2.5e+09"),  # 2500100001 rows; the box refuses xi_max >= 2048 here
        (1, 2.0**22, "2.1e+06"),  # 2^21 + 1 rows; the box refuses it too: 2^22 + 1 rows
        (2, 1e300, "2.5e+599"),  # z_max has 300 digits, the row count 600
    ])
    def test_shell_table_capped(self, d, xi_max, rows):
        with pytest.raises(ValueError, match=re.escape(f"lattice-shell rows, got d={d} and {rows} "
                                                       f"rows at xi_max={xi_max}; lower xi_max")):
            heavy_tail_sweep(d, 2.0, 0, xi_max, seed=0)

    @pytest.mark.parametrize("d, xi_max", [(1, 2.0**22 - 1.0), (2, 2047.0)])
    def test_shell_cap_accepts_the_largest_box(self, d, xi_max):
        # z_max = 2^21 - 1 and 1023: the largest boxes under MAX_BOX_ROWS.
        with pytest.raises(ValueError, match="lattice box rows"):
            synthetic_heavy_tail(d, 2.0, xi_max + 1.0, seed=0)
        error, _ = heavy_tail_sweep(d, 2.0, 0, xi_max, seed=0)
        assert error(0) > error(1000) > 0.0


class TestShellCountOracles:
    """lattice_shell_counts against oracles that share none of its steps."""

    @staticmethod
    def divisor_sums(rows, weight):
        """sum_{m | n} weight(m) for 0 <= n < rows, by a sieve over m."""
        sums = np.zeros(rows, dtype=np.int64)
        for m in range(1, rows):
            sums[m::m] += weight(m)
        return sums

    @pytest.mark.parametrize("d, z_max", [(1, 12), (5, 4), (7, 2), (8, 2)])
    def test_counts_match_box_enumeration_at_odd_and_high_d(self, d, z_max):
        rows = (z_max + 1) ** 2
        norms_sq = np.sum(grid_rows(np.arange(-z_max, z_max + 1), d) ** 2, axis=1)
        counts = lattice_shell_counts(d, z_max)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(norms_sq, minlength=rows)[:rows])

    def test_r2_is_jacobis_divisor_difference(self):
        # r_2(n) = 4 (d_1(n) - d_3(n)), d_i counting the divisors = i mod 4.
        counts = lattice_shell_counts(2, 100)
        rows = len(counts)
        want = 4 * self.divisor_sums(rows, lambda m: (m % 4 == 1) - (m % 4 == 3))
        assert counts[0] == 1
        assert np.array_equal(counts[1:], want[1:])

    def test_r4_is_jacobis_four_square_sum(self):
        # r_4(n) = 8 sum_{m | n, 4 does not divide m} m.
        counts = lattice_shell_counts(4, 100)
        rows = len(counts)
        want = 8 * self.divisor_sums(rows, lambda m: m if m % 4 else 0)
        assert counts[0] == 1
        assert np.array_equal(counts[1:], want[1:])

    def test_disc_sums_at_the_d2_cap(self):
        # z_max = 1447 is the largest d = 2 table under MAX_SHELL_ROWS; the
        # lattice points of the disc |z|^2 <= N, counted column by column.
        z_max = 1447
        assert (z_max + 1) ** 2 <= MAX_SHELL_ROWS < (z_max + 2) ** 2
        disc = np.cumsum(lattice_shell_counts(2, z_max))
        for big_n in (0, 1, 2, 25, 10_007, 1_000_000, len(disc) - 1):
            s = math.isqrt(big_n)
            assert disc[big_n] == sum(2 * math.isqrt(big_n - a * a) + 1 for a in range(-s, s + 1))


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
        (3, 400.0, "(2*200 + 1)^3 = 6.45e+07 rows"),  # the default xi_max at d=3: 64481201 rows
        (2, 2048.0, "(2*1024 + 1)^2 = 4.2e+06 rows"),  # first odd side above 2^11: 4198401 rows
        (1, 1e300, "(2*5e+299 + 1)^1 = 1e+300 rows"),  # counts past 10^6 to three digits
    ], ids=["d3-xi400", "d2-xi2048", "d1-xi1e300"])
    def test_lattice_box_capped(self, d, xi_max, box):
        assert MAX_BOX_ROWS == 2**22
        with pytest.raises(ValueError, match=re.escape(box)):
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
