import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab.subsample import hoeffding_delta, maurey_subsample


class TestHoeffdingDelta:
    def test_worked_value(self):
        assert hoeffding_delta(64, 1.0, 10, 0.05) == pytest.approx(0.21635, abs=5e-5)

    def test_quadrupling_samples_halves_level(self):
        base = hoeffding_delta(32, 1.0, 8, 0.05)
        assert hoeffding_delta(128, 1.0, 8, 0.05) == pytest.approx(base / 2, rel=1e-12)

    def test_zero_bound_gives_zero(self):
        assert hoeffding_delta(64, 0.0, 10, 0.05) == 0.0

    @given(
        n=st.integers(1, 10_000),
        bound=st.floats(0.0, 10.0),
        monomials=st.integers(1, 100),
        fail_prob=st.floats(0.001, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form(self, n, bound, monomials, fail_prob):
        got = hoeffding_delta(n, bound, monomials, fail_prob)
        want = bound * math.sqrt(math.log(2 * monomials / fail_prob) / (2 * n))
        assert got == want

    def test_monotonicities(self):
        assert hoeffding_delta(128, 1.0, 10, 0.05) < hoeffding_delta(64, 1.0, 10, 0.05)
        assert hoeffding_delta(64, 1.0, 20, 0.05) > hoeffding_delta(64, 1.0, 10, 0.05)
        assert hoeffding_delta(64, 2.0, 10, 0.05) > hoeffding_delta(64, 1.0, 10, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_delta(0, 1.0, 10, 0.05)
        with pytest.raises(ValueError):
            hoeffding_delta(64, 1.0, 10, 1.5)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_bound_that_is_not_finite_refused(self, bound):
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {bound}"):
            hoeffding_delta(64, bound, 10, 0.05)


class TestMaureySubsample:
    def test_full_selection_has_zero_deviation(self):
        rng = np.random.default_rng(0)
        terms = rng.uniform(-1, 1, (64, 5))
        result = maurey_subsample(terms, 64, restarts=4, seed=9, coeff_bound=1.0)
        assert result.deviation == 0.0
        assert result.indices == tuple(range(64))

    def test_identical_terms_have_zero_deviation(self):
        terms = np.tile(np.array([0.3, -0.7, 0.1]), (32, 1))
        result = maurey_subsample(terms, 8, restarts=4, seed=1, coeff_bound=0.7)
        # Subset and full means differ only by summation roundoff.
        assert result.deviation <= 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        terms = rng.uniform(-1, 1, (64, 5))
        r1 = maurey_subsample(terms, 16, restarts=8, seed=9, coeff_bound=1.0)
        r2 = maurey_subsample(terms[rng.permutation(64)], 16, restarts=8, seed=9,
                              coeff_bound=1.0)
        assert r1.deviation == r2.deviation

    def test_indices_point_into_caller_rows(self):
        # On unsorted input the returned indices select the caller's rows:
        # their mean deviates from the full mean by exactly the reported gap.
        rng = np.random.default_rng(4)
        terms = rng.uniform(-1, 1, (48, 6))
        result = maurey_subsample(terms, 12, restarts=16, seed=2, coeff_bound=1.0)
        assert list(result.indices) == sorted(result.indices)
        gap = np.max(np.abs(terms[list(result.indices)].mean(0) - terms.mean(0)))
        assert gap == pytest.approx(result.deviation, abs=1e-12)

    def test_oversized_subsample_rejected(self):
        with pytest.raises(ValueError):
            maurey_subsample(np.zeros((4, 2)), 5, seed=0, coeff_bound=1.0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_no_restart_refused(self, n):
        # With n < N this used to end in NumPy's argmin of an empty sequence.
        terms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            maurey_subsample(terms, n, restarts=0, coeff_bound=1.0)

    def test_no_monomial_column_refused(self):
        # An (N, 0) array used to end in NumPy's zero-size reduction error.
        with pytest.raises(ValueError, match=r"at least one monomial column \(M >= 1\), got M=0"):
            maurey_subsample(np.zeros((8, 0)), 4, coeff_bound=1.0)

    def test_declared_bound_checked(self):
        terms = np.full((8, 2), 3.0)
        with pytest.raises(ValueError, match="bound"):
            maurey_subsample(terms, 4, coeff_bound=1.0, seed=0)

    # Each returned deviation nan with accepted=False instead of refusing.
    def test_nan_term_refused(self):
        terms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        terms[2, 1] = np.nan
        with pytest.raises(ValueError, match="magnitude nan is not within the bound 1.0"):
            maurey_subsample(terms, 4, restarts=4, coeff_bound=1.0)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_bound_that_is_not_finite_refused(self, bound):
        terms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {bound}"):
            maurey_subsample(terms, 4, restarts=4, coeff_bound=bound)

    def test_bound_is_required(self):
        # Without it the Hoeffding bound behind ``accepted`` was the terms'
        # own largest magnitude.
        terms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        with pytest.raises(TypeError, match="coeff_bound"):
            maurey_subsample(terms, 4)

    def test_median_deviation_well_below_hoeffding(self):
        # Hoeffding is not tight; the restart median sitting under 0.7 of
        # the level guards against implementation errors.
        rng = np.random.default_rng(3)
        terms = rng.uniform(-1, 1, (256, 10))
        result = maurey_subsample(terms, 64, restarts=64, seed=4, coeff_bound=1.0)
        assert float(np.median(result.deviations)) <= 0.7 * result.hoeffding_bound

    def test_concentration_over_trials(self):
        level = hoeffding_delta(64, 1.0, 10, 0.05)
        hits = 0
        trials = 50
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            terms = rng.uniform(-1, 1, (256, 10))
            result = maurey_subsample(
                terms, 64, restarts=64, seed=2000 + trial, coeff_bound=1.0
            )
            hits += result.deviation <= level
        assert hits >= 0.9 * trials
