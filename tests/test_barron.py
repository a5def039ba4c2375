import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import barron, greedy_fourier
from barronlab.barron import (
    WeightSpec,
    barron_norm,
    bump_value,
    evaluate_sum,
    fourier_sum,
    from_arrays,
    hm_norm_exact,
    mollified_cutoff,
    periodize_expand,
    scan_offset,
    to_json,
)
from oracles import integrate


def sinc(p):
    x = np.asarray(p)[:, 0]
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(np.pi * x[nz]) / (np.pi * x[nz])
    return out


def bump2(p):
    p = np.asarray(p)
    return np.exp(-(((p[:, 0] - 0.8) / 0.35) ** 2) - ((p[:, 1] - 0.7) / 0.3) ** 2)


class TestBump:
    def test_peak_value(self):
        assert bump_value(0.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_vanishes_outside(self):
        assert bump_value(1.0) == 0.0
        assert bump_value(-1.5) == 0.0

    def test_even(self):
        assert bump_value(0.5) == bump_value(-0.5)

    @given(t=st.floats(-2.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_range(self, t):
        v = bump_value(t)
        assert 0.0 <= v <= math.exp(-1) + 1e-15


class TestWeightSpec:
    def test_polynomial_zero_is_flat(self):
        w = WeightSpec.polynomial(0.0)
        assert w(np.array([[3.0, 4.0]]))[0] == 1.0

    @pytest.mark.parametrize("weight", [WeightSpec.polynomial(1.5)])
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
        payload = json.loads(to_json(fs))
        back = from_arrays(payload["d"], payload["L"], payload["a"],
                           [e["z"] for e in payload["coeffs"]],
                           [complex(e["re"], e["im"]) for e in payload["coeffs"]])
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
        payload = json.loads(to_json(fs))
        back = from_arrays(payload["d"], payload["L"], payload["a"],
                           [e["z"] for e in payload["coeffs"]],
                           [complex(e["re"], e["im"]) for e in payload["coeffs"]])
        assert back.coeffs == fs.coeffs


def lexsort_reference(index, values):
    """``from_arrays``' rows by the plain path: drop, then gather in lexsort order."""
    mags = np.abs(values)
    keep = (mags >= barron.COEFF_DROP_RELATIVE * mags.max()) & (mags > 0.0)
    index, values = index[keep], values[keep]
    order = np.lexsort(index.T[::-1])
    return index[order], values[order]


def from_arrays_case(case, d):
    """Seeded (index, values) rows: int64 and complex128, so nothing is converted."""
    rng = np.random.default_rng(d)
    index = np.array(list(itertools.product(range(-2, 3), repeat=d)), dtype=np.int64)
    values = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
    if case == "unsorted":
        perm = rng.permutation(len(index))
        index, values = index[perm], values[perm]
    elif case == "duplicates":
        # Equal rows keep their input order under the stable sort.
        index = np.concatenate([index, index[::2]])
        values = np.concatenate([values, 2.0 * values[::2]])
    elif case == "dropped":
        values[1::3] *= 1e-16
        values[::4] = 0.0
    elif case == "float":
        # Sorted rows with real values: the complex array is made by the
        # conversion, while the int64 index is still the caller's own.
        values = values.real.copy()
    return index, values


class TestFromArrays:
    CASES = ("sorted", "unsorted", "duplicates", "dropped")

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_rows_match_the_lexsort_path(self, case, d):
        index, values = from_arrays_case(case, d)
        want_index, want_values = lexsort_reference(index, values)
        fs = from_arrays(d, 2.0, (0.0,) * d, index, values)
        assert fs.index.dtype == np.int64 and fs.values.dtype == complex
        assert fs.index.tobytes() == want_index.tobytes()
        assert fs.values.tobytes() == want_values.tobytes()
        if case == "dropped":
            assert 0 < fs.support_size() < len(values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES + ("float",))
    def test_callers_arrays_stay_writable_and_unshared(self, case, d):
        index, values = from_arrays_case(case, d)
        index_before, values_before = index.copy(), values.copy()
        fs = from_arrays(d, 2.0, (0.0,) * d, index, values)
        assert index.flags.writeable and values.flags.writeable
        assert not fs.index.flags.writeable and not fs.values.flags.writeable
        assert not np.shares_memory(fs.index, index)
        assert not np.shares_memory(fs.values, values)
        assert np.array_equal(index, index_before)
        assert np.array_equal(values, values_before)

    def test_drop_rule_bounds_the_l1_and_l2_moves_only(self, monkeypatch):
        # Every dropped |c| is below 1e-14 max|c|, which bounds the l1 and l2
        # moves; weighted masses are not bounded (measured relative moves on
        # this case: 1.3e-10 at s = 0, 5.0e-6 at s = 1, 5.2e-2 at s = 2).
        raw = []

        def recording(d, L, a, index, values, *args, **kwargs):
            raw.append((L, index, values))
            return from_arrays(d, L, a, index, values, *args, **kwargs)

        monkeypatch.setattr(greedy_fourier, "from_arrays", recording)
        fs = greedy_fourier.synthetic_heavy_tail(1, 2.0, 1e5, 0)
        ((L, index, values),) = raw
        mags, kept = np.abs(values), np.abs(fs.values)
        peak, dropped = mags.max(), len(values) - len(kept)
        assert (len(values), len(kept)) == (100_001, 32_819)
        assert mags.sum() - kept.sum() <= dropped * 1e-14 * peak
        assert np.linalg.norm(mags) - np.linalg.norm(kept) <= math.sqrt(dropped) * 1e-14 * peak
        weight = WeightSpec.polynomial(2.0)
        full = float(np.dot(weight(index / L), mags))
        assert (full - barron_norm(fs, weight)) / full > 1e-3


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


def gaussian(p):
    return np.exp(-(((np.asarray(p) - 1.0) / 0.4) ** 2).sum(axis=1))


def windowed_coefficients(f, L, a, support_bound, indices):
    """Oracle coefficients L^-d int cutoff * f * exp(-2 pi i (a + z/L) . x) dx
    over the cutoff support [-eps, L - eps]^d, one ``integrate`` per index on
    twice periodization's 32 ceil(L) nodes per axis."""
    d = len(a)
    eps, n = min(1.0, (L - support_bound) / 4.0), 32 * math.ceil(L)
    windowed = {}  # cutoff * f per node batch: the cutoff is the costly factor

    def coefficient(z):
        freq = np.asarray(a) + np.asarray(z) / L

        def integrand(p):
            key = p.tobytes()
            if key not in windowed:
                windowed[key] = mollified_cutoff(p, L, eps, resolution=n) * f(p)
            return windowed[key] * np.exp(-2j * np.pi * (p @ freq))

        return integrate(integrand, [(-eps, L - eps)] * d, 2 * n) / L**d

    return np.array([coefficient(z) for z in indices])


class TestPeriodize:
    @pytest.mark.parametrize("f, a, z_box, support", [
        (gaussian, (0.07,), 20, 2.0),
        (bump2, (0.07, 0.03), 12, 1.6),
    ], ids=["d1", "d2"])
    def test_coefficients_match_a_quadrature_oracle(self, f, a, z_box, support):
        # The windowed transform of every index at d = 1 and of a spread of
        # indices at d = 2, against a finer, independent quadrature of the
        # same integral.  Measured agreement: 6.6e-11 (d1) and 6.0e-12 (d2);
        # without the cutoff the coefficients miss by 1.7e-7 and 2.0e-8.
        fs = periodize_expand(f, 5.0, a, z_box, support_bound=support)
        assert not fs.warnings
        if len(a) == 1:
            indices = [(z,) for z in range(-z_box, z_box + 1)]
        else:
            indices = [(0, 0), (1, -2), (-3, 5), (7, 7), (12, -12), (-6, 0)]
        got = np.array([fs.coeffs.get(z, 0.0) for z in indices])
        want = windowed_coefficients(f, 5.0, a, support, indices)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_sinc_reconstruction(self):
        L, S = 5.0, 2.0
        eps = min(1.0, (L - S) / 4.0)
        fs = periodize_expand(sinc, L, (0.0,), 80, support_bound=S)
        assert not fs.warnings
        probes = np.linspace(0.0, L - 2 * eps, 20)[:, None]
        err = np.max(np.abs(evaluate_sum(fs, probes) - sinc(probes)))
        assert err <= 1e-4  # measured 7.5e-5 at z_box = 80, the limit at L = 5

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
                support_bound=2.0,
            )
            xi = np.linspace(-30, 30, 20001)
            ratios.append(barron_norm(fs, w0) / np.trapezoid(fhat_abs(xi), xi))
        fitted = ratios[0]
        assert all(0.8 * fitted <= r <= 1.2 * fitted for r in ratios)

    def test_two_dimensional_reconstruction(self):
        L, eps = 5.0, 0.85  # eps = min(1, (L - support_bound) / 4)
        fs = periodize_expand(bump2, L, (0.0, 0.0), 12, support_bound=1.6)
        rng = np.random.default_rng(0)
        probes = rng.uniform(0.0, L - 2 * eps, (20, 2))
        err = np.max(np.abs(evaluate_sum(fs, probes) - bump2(probes)))
        assert err <= 1e-3  # index-box truncation dominates at this z_box

    @pytest.mark.parametrize("z_box", [-1, -5, 2.5, math.nan])
    def test_index_box_must_be_a_nonnegative_integer(self, z_box):
        # A negative box used to return an empty expansion without a warning;
        # z_box = 2.5 returned half-integer modes filed under the indices
        # [-2, -1, 0, 0, 1, 2].
        with pytest.raises(ValueError, match="z_box"):
            periodize_expand(sinc, 5.0, (0.0,), z_box, support_bound=2.0)

    @pytest.mark.parametrize("d, L, support", [(1, 5.0, 2.0), (2, 6.0, 2.0)], ids=["d1", "d2"])
    def test_index_box_limit(self, d, L, support):
        # Beyond n/2 = 16 ceil(L) the n-node rule aliases; at the limit a
        # Gaussian is still reconstructed (measured 8.6e-9 at d1, 1.3e-10 at d2).
        limit = 16 * math.ceil(L)
        f = Counting(gaussian)
        with pytest.raises(ValueError, match=rf"z_box = {limit + 1} exceeds the limit .* = {limit}"):
            periodize_expand(f, L, (0.0,) * d, limit + 1, support_bound=support)
        assert f.calls == 0
        fs = periodize_expand(gaussian, L, (0.0,) * d, limit, support_bound=support)
        assert not fs.warnings
        probes = np.random.default_rng(0).uniform(0.0, L - 2.0, (50, d))
        assert np.max(np.abs(evaluate_sum(fs, probes) - gaussian(probes))) <= 1e-7

    def test_sinc_box_beyond_the_node_rule_refused(self):
        # z_box = 180 at L = 5 used to return a sum that missed sinc by 1.6,
        # with 84% of its l1 mass at |z| > 80 and no warning.
        with pytest.raises(ValueError, match="z_box = 180 exceeds the limit 16 ceil"):
            periodize_expand(sinc, 5.0, (0.0,), 180, support_bound=2.0)

    @pytest.mark.parametrize("a", [(0.5,), (-0.01,), (math.nan,), (0.0, 0.3)],
                             ids=["above", "below", "nan", "second-axis"])
    def test_offset_checked_before_any_quadrature(self, a):
        clear_periodize_caches()
        f = Counting(lambda p: np.ones(len(p)))
        with pytest.raises(ValueError, match="offset component"):
            periodize_expand(f, 5.0, a, 4, support_bound=1.0)
        assert f.calls == 0
        assert barron._node_plan.cache_info().currsize == 0
        assert barron._phase_matrix.cache_info().currsize == 0


def clear_periodize_caches():
    barron._node_plan.cache_clear()
    barron._phase_matrix.cache_clear()


class TestPeriodizeCaches:
    @pytest.mark.parametrize("f, d, z_box, heavy", [
        (sinc, 1, 24, False),
        (sinc, 1, 2, True),
        (bump2, 2, 12, False),
        (bump2, 2, 1, True),
    ], ids=["d1-window", "d1-heavy-window", "d2-window", "d2-heavy-window"])
    def test_same_bytes_with_caches_cleared_and_warm(self, f, d, z_box, heavy):
        a = (0.07,) * d
        counted = Counting(f)
        clear_periodize_caches()
        cold = periodize_expand(counted, 5.0, a, z_box, support_bound=1.6)
        assert counted.calls == (2 if heavy else 1)  # heavy: the doubled grid too
        hits = barron._phase_matrix.cache_info().hits
        warm = periodize_expand(f, 5.0, a, z_box, support_bound=1.6)
        assert barron._phase_matrix.cache_info().hits > hits
        assert to_json(warm) == to_json(cold)
        assert warm.warnings == cold.warnings

    def test_cached_arrays_are_read_only(self):
        clear_periodize_caches()
        seen = []

        def f(p):
            seen.append(p)
            return bump2(p)

        periodize_expand(f, 5.0, (0.0, 0.1), 12, support_bound=1.6)
        points, cutoff = barron._node_plan(5.0, 0.85, 160, 2)
        assert seen[0] is points
        assert not points.flags.writeable and not cutoff.flags.writeable
        phase = barron._phase_matrix(0.1, 5.0, 12, 0.85, 160)
        assert phase.shape == (25, 160) and not phase.flags.writeable
        assert barron._node_plan.cache_info().misses == 1
        assert barron._phase_matrix.cache_info().misses == 2

    @pytest.mark.parametrize("cached", ["_node_plan", "_phase_matrix"])
    def test_caches_are_bounded(self, cached):
        assert getattr(barron, cached).cache_info().maxsize is not None

    @pytest.mark.parametrize("documented", [periodize_expand, scan_offset])
    def test_docstrings_state_the_cached_memory(self, documented):
        assert "cache" in documented.__doc__ and "MB" in documented.__doc__


class Counting:
    """A target that counts how often it is sampled."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, p):
        self.calls += 1
        return self.f(p)


class TestScanOffset:
    @pytest.mark.parametrize("f, d, z_box, support, grid", [
        (sinc, 1, 20, 2.0, 3),
        (bump2, 2, 12, 1.6, 2),
        (bump2, 2, 1, 1.6, 2),
    ], ids=["d1", "d2", "d2-heavy"])
    def test_matches_a_loop_over_every_offset(self, monkeypatch, f, d, z_box,
                                              support, grid):
        # Every periodization of the scan, not only the kept one, equals a
        # periodization that samples the target itself.
        scanned = []

        def recording(*args, **kwargs):
            scanned.append(periodize_expand(*args, **kwargs))
            return scanned[-1]

        monkeypatch.setattr(barron, "periodize_expand", recording)
        weight = WeightSpec.polynomial(1.0)
        best_a, best_fs = scan_offset(f, d, 5.0, z_box, weight,
                                      support_bound=support, grid=grid)
        want_a, want_fs, want_mass, looped = None, None, math.inf, []
        for a in itertools.product(np.linspace(0.0, 1 / 5.0, grid, endpoint=False),
                                   repeat=d):
            fs = periodize_expand(f, 5.0, a, z_box, support_bound=support)
            looped.append(fs)
            if barron_norm(fs, weight) < want_mass:
                want_a, want_fs, want_mass = a, fs, barron_norm(fs, weight)
        assert [to_json(fs) for fs in scanned] == [to_json(fs) for fs in looped]
        assert [fs.warnings for fs in scanned] == [fs.warnings for fs in looped]
        assert best_a == tuple(float(v) for v in want_a)
        assert to_json(best_fs) == to_json(want_fs)

    def test_makes_each_first_axis_contraction_once(self, monkeypatch):
        # Grid 3 in d = 2: one first-axis contraction per a[0] and one
        # second-axis contraction per offset, 3 + 9 in all, not 2 * 9.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return tensordot(*args, **kwargs)

        tensordot = np.tensordot
        monkeypatch.setattr(np, "tensordot", counting)
        _, fs = scan_offset(bump2, 2, 5.0, 12, WeightSpec.polynomial(1.0),
                            support_bound=1.6, grid=3)
        assert not fs.warnings  # the base node grid alone
        assert calls == ([(160, 160)] + [(160, 25)] * 3) * 3

    def test_samples_a_resolved_target_once(self):
        f = Counting(sinc)
        scan_offset(f, 1, 5.0, 20, WeightSpec.polynomial(0.0),
                    support_bound=2.0, grid=3)
        assert f.calls == 1  # one node grid shared by the three offsets

    def test_samples_once_per_resolution_when_the_ring_is_heavy(self):
        f = Counting(sinc)
        _, fs = scan_offset(f, 1, 5.0, 2, WeightSpec.polynomial(0.0),
                            support_bound=2.0, grid=3)
        assert fs.warnings and "truncation" in fs.warnings[0]
        assert f.calls == 2  # the base grid and the doubled one

    def test_same_output_when_the_target_returns_one_array(self):
        # The samples are shared across offsets; a target that hands back
        # the same array object each time must neither change the result
        # nor see its array edited.
        held = {}

        def same_object(p):
            key = p.tobytes()
            if key not in held:
                held[key] = (sinc(p).astype(complex), sinc(p).astype(complex))
            return held[key][0]

        weight = WeightSpec.polynomial(1.0)
        fresh = scan_offset(sinc, 1, 5.0, 2, weight, support_bound=2.0, grid=3)
        shared = scan_offset(same_object, 1, 5.0, 2, weight, support_bound=2.0, grid=3)
        assert fresh[0] == shared[0]
        assert to_json(fresh[1]) == to_json(shared[1])
        assert all(np.array_equal(got, kept) for got, kept in held.values())

    def test_every_mass_infinite_names_the_weight(self):
        # Every offset's mass overflows to inf, so no offset is ever kept: this
        # used to end in a bare AssertionError (and under -O would have
        # returned ((), None)).
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="s = 1e"):
            scan_offset(lambda p: np.exp(-((p - 1) ** 2).sum(1)), 1, 5.0, 8,
                        WeightSpec.polynomial(1e308), support_bound=1.0)

    @pytest.mark.parametrize("grid", [0, -2, 2.5])
    def test_grid_must_be_a_positive_integer(self, grid):
        # grid=0 used to end in a bare AssertionError, grid=-2 in NumPy's
        # "Number of samples, -2, must be non-negative" and grid=2.5 in a
        # TypeError from np.linspace.
        with pytest.raises(ValueError, match="grid"):
            scan_offset(sinc, 1, 5.0, 4, WeightSpec.polynomial(0.0),
                        support_bound=2.0, grid=grid)
