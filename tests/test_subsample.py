import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab.subsample import (
    atomic_measure,
    hoeffding_delta,
    maurey_subsample,
    truncate_dictionary_measure,
)


class TestTruncation:
    def test_all_zero_bias_keeps_everything(self):
        mu = atomic_measure([((0.0, 1.0), 0.0, 0.4), ((1.0, 0.0), 0.0, -0.3)])
        cap, kept = truncate_dictionary_measure(mu, 0.5, 1.0, 2)
        assert cap == 0.0
        assert len(kept.masses) == 2

    def test_far_atom_kept_when_tolerance_small(self):
        # (10 + 1)^2 = 121 >= 100, so the atom cannot be discarded.
        mu = atomic_measure([((1.0,), 10.0, 1.0)])
        cap, kept = truncate_dictionary_measure(mu, 100.0, 1.0, 2)
        assert cap == 10.0
        assert len(kept.masses) == 1

    def test_everything_discardable_when_tolerance_large(self):
        mu = atomic_measure([((1.0,), 10.0, 1.0)])
        cap, kept = truncate_dictionary_measure(mu, 130.0, 1.0, 2)
        assert cap == 0.0
        assert len(kept.masses) == 0

    def test_total_variation_never_increases(self):
        rng = np.random.default_rng(0)
        entries = []
        total = 0.0
        for _ in range(20):
            mass = rng.uniform(-0.05, 0.05)
            total += abs(mass)
            v = rng.standard_normal(2)
            entries.append((v / np.linalg.norm(v), rng.uniform(-5, 5), mass))
        mu = atomic_measure(entries)
        for eps in (0.01, 0.1, 1.0, 10.0):
            _, kept = truncate_dictionary_measure(mu, eps, 1.0, 2)
            assert kept.total_variation <= mu.total_variation + 1e-15

    def test_discarded_tail_below_tolerance(self):
        rng = np.random.default_rng(1)
        entries = [
            ((1.0,), float(b), 0.04) for b in rng.uniform(-6, 6, 25)
        ]
        mu = atomic_measure(entries)
        eps, c_omega, k = 2.0, 1.0, 2
        cap, kept = truncate_dictionary_measure(mu, eps, c_omega, k)
        discarded = np.abs(mu.biases) > cap
        tail = np.sum((np.abs(mu.biases[discarded]) + c_omega) ** k * np.abs(mu.masses[discarded]))
        assert tail < eps

    def test_unit_ball_precondition(self):
        mu = atomic_measure([((1.0,), 0.0, 2.0)])
        with pytest.raises(ValueError, match="unit-ball"):
            truncate_dictionary_measure(mu, 1.0, 1.0, 2)

    def test_tolerance_must_be_positive(self):
        mu = atomic_measure([((1.0,), 0.0, 1.0)])
        with pytest.raises(ValueError):
            truncate_dictionary_measure(mu, 0.0, 1.0, 2)

    def test_direction_normalized(self):
        with pytest.raises(ValueError, match="unit"):
            atomic_measure([((2.0, 0.0), 0.0, 1.0)])
        with pytest.raises(ValueError, match="atom 2 direction must be a unit vector"):
            atomic_measure([((1.0, 0.0), 0.0, 0.1), ((0.0, 1.0), 0.0, 0.1),
                            ((0.6, 0.6), 0.0, 0.1), ((3.0, 0.0), 0.0, 0.1)])

    def test_directions_share_one_dimension(self):
        with pytest.raises(ValueError, match=r"atom 1 has direction shape \(3,\), expected \(2,\)"):
            atomic_measure([((1.0, 0.0), 0.0, 0.1), ((1.0, 0.0, 0.0), 0.0, 0.1),
                            ((1.0,), 0.0, 0.1)])

    def test_arrays_are_read_only(self):
        mu = atomic_measure([((0.6, 0.8), -1.0, 0.5)])
        assert mu.directions.shape == (1, 2)
        assert mu.biases.tolist() == [-1.0] and mu.masses.tolist() == [0.5]
        _, kept = truncate_dictionary_measure(mu, 0.1, 1.0, 1)
        for array in (mu.directions, mu.biases, mu.masses, kept.directions, kept.biases):
            assert not array.flags.writeable


def brute_force_truncation(entries, eps, domain_bound, k):
    """O(N^2) reference: try every cap in increasing order, summing the
    discarded atoms' costs from scratch for each."""
    candidates = sorted({0.0} | {abs(b) for _, b, _ in entries})
    for c in candidates:
        tail = sum((abs(b) + domain_bound) ** k * abs(mass) for _, b, mass in entries if abs(b) > c)
        if tail < eps:
            return c, [e for e in entries if abs(e[1]) <= c]
    raise AssertionError("the largest cap always discards nothing")


class TestTruncationReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_cap_and_kept_atoms_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # Few distinct magnitudes: ties in |b|, +-b pairs and zero biases.
        biases = rng.choice([-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0], size=n)
        biases[: n // 3] = rng.uniform(-5.0, 5.0, n // 3)
        masses = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 1.0) * rng.choice([-1, 1], size=n)
        directions = rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        entries = [(tuple(w), float(b), float(m))
                   for w, b, m in zip(directions.tolist(), biases, masses)]
        mu = atomic_measure(entries)
        for domain_bound, k in ((1.0, 2), (0.5, 1), (2.0, 0)):
            full_cost = np.sum((np.abs(biases) + domain_bound) ** k * np.abs(masses))
            for eps in (full_cost * rng.uniform(0.0, 1.0, 8)).tolist() + [1e-9, 1e3]:
                cap, kept = truncate_dictionary_measure(mu, eps, domain_bound, k)
                want_cap, want_kept = brute_force_truncation(entries, eps, domain_bound, k)
                assert cap == want_cap
                assert kept.directions.tolist() == [list(e[0]) for e in want_kept]
                assert kept.biases.tolist() == [e[1] for e in want_kept]
                assert kept.masses.tolist() == [e[2] for e in want_kept]

    def test_empty_measure(self):
        mu = atomic_measure([])
        cap, kept = truncate_dictionary_measure(mu, 0.5, 1.0, 2)
        assert cap == brute_force_truncation([], 0.5, 1.0, 2)[0] == 0.0
        assert kept.directions.shape == (0, 0) and kept.masses.shape == (0,)
        assert mu.total_variation == 0.0


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


class TestMaureySubsample:
    def test_full_selection_has_zero_deviation(self):
        rng = np.random.default_rng(0)
        terms = rng.uniform(-1, 1, (64, 5))
        result = maurey_subsample(terms, 64, restarts=4, seed=9)
        assert result.deviation == 0.0
        assert result.indices == tuple(range(64))

    def test_identical_terms_have_zero_deviation(self):
        terms = np.tile(np.array([0.3, -0.7, 0.1]), (32, 1))
        result = maurey_subsample(terms, 8, restarts=4, seed=1)
        # Subset and full means differ only by summation roundoff.
        assert result.deviation <= 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        terms = rng.uniform(-1, 1, (64, 5))
        r1 = maurey_subsample(terms, 16, restarts=8, seed=9)
        r2 = maurey_subsample(terms[rng.permutation(64)], 16, restarts=8, seed=9)
        assert r1.deviation == r2.deviation

    def test_indices_point_into_caller_rows(self):
        # On unsorted input the returned indices select the caller's rows:
        # their mean deviates from the full mean by exactly the reported gap.
        rng = np.random.default_rng(4)
        terms = rng.uniform(-1, 1, (48, 6))
        result = maurey_subsample(terms, 12, restarts=16, seed=2)
        assert list(result.indices) == sorted(result.indices)
        gap = np.max(np.abs(terms[list(result.indices)].mean(0) - terms.mean(0)))
        assert gap == pytest.approx(result.deviation, abs=1e-12)

    def test_oversized_subsample_rejected(self):
        with pytest.raises(ValueError):
            maurey_subsample(np.zeros((4, 2)), 5, seed=0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_no_restart_refused(self, n):
        # With n < N this used to end in NumPy's argmin of an empty sequence.
        terms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            maurey_subsample(terms, n, restarts=0)

    def test_declared_bound_checked(self):
        terms = np.full((8, 2), 3.0)
        with pytest.raises(ValueError, match="bound"):
            maurey_subsample(terms, 4, coeff_bound=1.0, seed=0)

    def test_sup_bound_scales_with_monomial_count(self):
        rng = np.random.default_rng(5)
        terms = rng.uniform(-1, 1, (64, 10))
        result = maurey_subsample(terms, 16, restarts=16, seed=2, coeff_bound=1.0)
        assert result.sup_bound == pytest.approx(10 * result.deviation)

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
