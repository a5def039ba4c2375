import math

import numpy as np
import pytest

from barronlab import lower_bounds
from barronlab.barron import evaluate_sum, fourier_sum, hm_norm_exact
from barronlab.lower_bounds import (
    ConvergenceError,
    build_packing,
    decaying_spectrum,
    dyadic_blocks,
    example2_tail_mass,
    exp_ridge_fourier,
    fano_lower_bound,
    highfreq_gap,
    oscillatory_witness,
    pairwise_separation,
    plateau_weight,
    residual_tail_norm,
    tail_density,
)
from barronlab.numerics import axis_rule, tensor_nodes
from barronlab.relu_nets import sigma_k


class TestExpRidgeFourier:
    def test_value_at_zero(self):
        assert exp_ridge_fourier(0.5, 1.0, 0.0, 0.0) == pytest.approx(4.0)

    def test_quadratic_decay(self):
        for xi in (64.0, 256.0):
            ratio = abs(exp_ridge_fourier(1.0, 1.0, 0.0, 2 * xi)) / abs(
                exp_ridge_fourier(1.0, 1.0, 0.0, xi)
            )
            assert ratio == pytest.approx(0.25, rel=1e-3)

    def test_matches_quadrature_transform(self):
        x = np.linspace(-40, 40, 400001)
        for xi in (0.5, 1.0, 2.0):
            oracle = np.trapezoid(np.exp(-np.abs(x)) * np.exp(-1j * xi * x), x)
            assert exp_ridge_fourier(1.0, 1.0, 0.0, xi) == pytest.approx(
                oracle, abs=1e-4
            )

    def test_phase_factor(self):
        got = exp_ridge_fourier(1.0, 1.0, 2.0, 3.0)
        assert got == pytest.approx(2.0 * np.exp(6j) / (1 + 9), rel=1e-12)

    def test_decay_rate_validated(self):
        with pytest.raises(ValueError):
            exp_ridge_fourier(0.0, 1.0, 0.0, 1.0)


class TestHighFreqGap:
    def test_constant_target_well_approximated(self):
        probe = highfreq_gap(1.0, 0.0, 4, 128, seed=1)
        assert probe.error <= 0.05

    def test_errors_nonincreasing_in_width(self):
        probe = highfreq_gap(1.0, 16.0, 8, 128, seed=1)
        widths = probe.errors_by_width
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_scaled_error_floor_positive(self):
        values = []
        for omega0 in (8.0, 16.0, 32.0, 64.0):
            probe = highfreq_gap(1.0, omega0, 8, 256, seed=1)
            values.append(probe.error * omega0)
        assert min(values) > 0.0

    def test_prefix_errors_match_direct_lstsq(self):
        # Normal-equation residuals cancel to 0 at this size; a direct
        # least-squares solve on the same seeded atoms gives about 7.6e-5.
        omega0, n_units, candidates = 2.0, 12, 64
        probe = highfreq_gap(1.0, omega0, n_units, candidates, seed=0)
        nodes, weights = axis_rule(-1.0, 1.0, 256)
        root_w = np.sqrt(weights)
        target = root_w * np.exp(1j * omega0 * nodes)
        rng = np.random.default_rng(0)
        want = np.full(n_units, np.inf)
        for _ in range(candidates):
            params = rng.standard_normal((n_units, 2))
            atoms = root_w[:, None] * np.exp(-np.abs(
                nodes[:, None] * params[:, 0] * max(4.0, 2.0 * omega0) + params[:, 1] * 2.0))
            for width in range(1, n_units + 1):
                sol = np.linalg.lstsq(atoms[:, :width].astype(complex), target, rcond=None)[0]
                err = np.linalg.norm(target - atoms[:, :width] @ sol)
                want[width - 1] = min(want[width - 1], err)
        got = np.array(probe.errors_by_width)
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)
        assert probe.regularized == 0

    def test_deterministic(self):
        a = highfreq_gap(1.0, 8.0, 4, 64, seed=2)
        b = highfreq_gap(1.0, 8.0, 4, 64, seed=2)
        assert a.error == b.error


class TestDyadic:
    def test_single_frequency_single_block(self):
        fs = fourier_sum(1, 1.0, (0.0,), {(3,): 1.0})
        decomp = dyadic_blocks(fs)
        nonempty = [(k, b.support_size()) for k, b in decomp.blocks if b.coeffs]
        assert nonempty == [(1, 1)]

    def test_reconstruction_coefficientwise(self):
        rng = np.random.default_rng(8)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in rng.choice(np.arange(-60, 61), size=12, replace=False)
        }
        fs = fourier_sum(1, 1.0, (0.0,), coeffs)
        decomp = dyadic_blocks(fs)
        merged = {}
        for _, block in decomp.blocks:
            for z, c in block.coeffs.items():
                assert z not in merged
                merged[z] = c
        assert merged == fs.coeffs

    @pytest.mark.parametrize("L", [1.0, 3.0])
    def test_modes_land_in_their_sharp_annulus(self, L):
        # Level k >= 1 holds 2^k <= |z|/L < 2^(k+1), level 0 holds |z|/L < 2;
        # checked in exact integer arithmetic on both sides of every edge.
        edges = [int(L) * 2**k for k in range(1, 11)]
        zs = {0, 1, -1} | {s * (e + o) for e in edges for o in (-1, 0) for s in (1, -1)}
        fs = fourier_sum(1, L, (0.0,), {(z,): 1.0 + 0.001 * z for z in zs})
        seen = []
        for k, block in dyadic_blocks(fs).blocks:
            lo, hi = (0, 2) if k == 0 else (2**k, 2 ** (k + 1))
            for (z,) in block.index.tolist():
                assert lo * int(L) <= abs(z) < hi * int(L)
                seen.append(z)
        assert sorted(seen) == sorted(zs)

    def test_blocks_orthogonal(self):
        rng = np.random.default_rng(8)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in rng.choice(np.arange(-60, 61), size=12, replace=False)
        }
        fs = fourier_sum(1, 1.0, (0.0,), coeffs)
        decomp = dyadic_blocks(fs)
        blocks = [b for _, b in decomp.blocks if b.coeffs]
        x = (np.arange(256) / 256.0)[:, None]
        for i, bi in enumerate(blocks):
            vi = evaluate_sum(bi, x)
            for bj in blocks[i + 1:]:
                inner = np.mean(vi * np.conj(evaluate_sum(bj, x)))
                assert abs(inner) <= 1e-12

    def test_pythagoras_split(self):
        rng = np.random.default_rng(9)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in rng.choice(np.arange(-100, 101), size=15, replace=False)
        }
        fs = fourier_sum(1, 1.0, (0.0,), coeffs)
        decomp = dyadic_blocks(fs)
        total = hm_norm_exact(fs, 0)
        for k0 in (0, 1, 2, 4):
            head_sq = sum(
                hm_norm_exact(b, 0) ** 2 for k, b in decomp.blocks if k < k0
            )
            tail = residual_tail_norm(decomp, k0)
            assert head_sq + tail**2 == pytest.approx(total**2, rel=1e-12)

    def test_geometric_residuals_closed_form(self):
        geo = fourier_sum(1, 1.0, (0.0,), {(2**k,): 2.0**-k for k in range(8)})
        decomp = dyadic_blocks(geo)
        for k0 in (0, 3, 8, 12):
            want = math.sqrt(sum(4.0**-k for k in range(k0, 8))) if k0 < 8 else 0.0
            assert residual_tail_norm(decomp, k0) == pytest.approx(want, rel=1e-12)

    def test_block_norm_envelope(self):
        # |c_xi| = (1 + |xi|)^-1 spectrum: block norms fit C' 2^(-k/2) with
        # C' fitted at the first level (25% headroom absorbs the shell-sum
        # drift toward its limit).
        coeffs = {(z,): (1.0 + abs(z)) ** -1 for z in range(-128, 129)}
        fs = fourier_sum(1, 1.0, (0.0,), coeffs)
        decomp = dyadic_blocks(fs)
        norms = {k: hm_norm_exact(b, 0) for k, b in decomp.blocks if 1 <= k <= 6}
        c_fit = 1.25 * norms[1] * 2.0 ** (1 / 2)
        for k, norm in norms.items():
            assert norm <= c_fit * 2.0 ** (-k / 2)

    def test_residual_sums_cached_block_norms_bitwise(self):
        # Reference: each block's norm recomputed, summed in ascending level order.
        decomp = dyadic_blocks(decaying_spectrum(256.0, 1.0))
        top = decomp.blocks[-1][0]
        for from_level in range(-2, top + 3):
            want = 0.0
            for level, block in decomp.blocks:
                if level >= from_level:
                    want += hm_norm_exact(block, 0) ** 2
            assert residual_tail_norm(decomp, from_level) == math.sqrt(want)

    def test_spectrum_rows_capped(self):
        # 2^21 is the first xi_max whose 2 xi_max + 1 index rows exceed 2^22;
        # xi_max = 1e9 used to end in a 14.9 GiB allocation failure.
        with pytest.raises(ValueError, match="xi_max = 2097152.0 needs 4194305 index rows"):
            decaying_spectrum(2.0**21, 1.0)

    def test_dimension_restriction(self):
        fs = fourier_sum(2, 1.0, (0.0, 0.0), {(1, 1): 1.0})
        with pytest.raises(ValueError):
            dyadic_blocks(fs)


class TestOscillatoryWitness:
    def test_l2_norm_is_one(self):
        w = oscillatory_witness(16, 2, 2, 0)
        assert w.hm_norm == pytest.approx(1.0, rel=1e-12)

    def test_h1_norm_closed_form(self):
        w = oscillatory_witness(8, 1, 1, 1)
        assert w.K == 64.0
        assert w.hm_norm**2 == pytest.approx(1 + (2 * math.pi * 64.0) ** 2, rel=1e-12)

    def test_ratio_approaches_leading_term(self):
        for n in (8, 32, 128):
            w = oscillatory_witness(n, 1, 1, 1)
            if w.K >= 8:
                assert w.hm_norm / w.K == pytest.approx(2 * math.pi, rel=0.1)

    def test_norm_monotone_in_frequency(self):
        norms = [oscillatory_witness(n, 1, 1, 1).hm_norm for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_fractional_frequency_carried_by_offset(self):
        w = oscillatory_witness(3, 1, 2, 0)
        eta = w.fs.shifted_frequencies()[0]
        assert eta[0] == pytest.approx(3.0 ** (2 / 2), rel=1e-15)
        assert eta[1] == 0.0

    def test_dimension_below_one_refused(self):
        # Used to divide by d first and raise ZeroDivisionError.
        with pytest.raises(ValueError, match="dimension d must be >= 1, got 0"):
            oscillatory_witness(16, 2, 0, 0)


class TestPacking:
    def test_relu_scales_worked_example(self):
        family = build_packing("relu", 2, 2, 32, seed=0)
        assert family.m == 2
        assert family.R == pytest.approx(32.0 ** 1.5, rel=1e-15)
        assert family.signs.shape == (4, 2)

    def test_single_direction_gives_plus_minus_pair(self):
        family = build_packing("relu", 2, 2, 2, seed=0)
        assert family.m == 1
        assert family.signs.shape == (2, 1)
        x = family.directions.points[:1]
        plus = family.evaluate(1, x)
        minus = family.evaluate(0, x)
        assert plus == pytest.approx(-minus)

    def test_fourier_normalization(self):
        family = build_packing("fourier", 2, 1.0, 32, seed=0)
        expected_m = int(math.floor(32 ** 0.5))
        assert family.m == expected_m
        assert family.normalization == pytest.approx(
            1.0 / (math.sqrt(expected_m) * 32 ** (1 / 2)), rel=1e-15
        )

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_packing("fourier", 2, 1.0, 100_000, seed=0)

    @pytest.mark.parametrize("kind, k_or_s, n",
                             [("relu", 2, 2), ("relu", 2, 32), ("fourier", 1.0, 64)])
    def test_enumerated_signs_follow_bit_order(self, kind, k_or_s, n):
        family = build_packing(kind, 2, k_or_s, n, seed=0)
        m = family.m
        want = [[1 if (i >> j) & 1 else -1 for j in range(m)] for i in range(2**m)]
        assert family.signs.dtype == float and family.signs.tolist() == want

    def test_large_direction_count_samples_distinct_signs(self):
        family = build_packing("fourier", 2, 1.0, 196, seed=0)
        assert family.m == 14
        assert family.signs.shape == (4096, 14)
        assert len({tuple(r) for r in family.signs.tolist()}) == 4096
        # Row i spells code i of one seeded draw of distinct codes, bit j -> sign j.
        codes = np.random.default_rng(1).choice(2**14, 4096, replace=False)
        want = [[1 if (c >> j) & 1 else -1 for j in range(14)] for c in codes.tolist()]
        assert family.signs.tolist() == want

    @pytest.mark.parametrize("kind, k_or_s", [("fourier", 1.0), ("relu", 2)])
    def test_dimension_below_one_refused(self, kind, k_or_s):
        # Both kinds used to divide by d first and raise ZeroDivisionError.
        with pytest.raises(ValueError, match="dimension d must be >= 1, got 0"):
            build_packing(kind, 0, k_or_s, 32)

    @pytest.mark.parametrize("kind, k_or_s, named", [
        ("relu", 2.7, "k=2.7"),  # used to run as k = 2
        ("relu", 0.5, "k=0.5"),
        ("bogus", 1.0, "'bogus'"),
    ])
    def test_kind_and_relu_power_checked(self, kind, k_or_s, named):
        with pytest.raises(ValueError, match=named):
            build_packing(kind, 2, k_or_s, 32)

    def test_norm_symmetric_under_sign_flip(self):
        family = build_packing("relu", 2, 2, 32, seed=0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (64, 2))
        flip = {tuple(-s for s in row): i for i, row in enumerate(family.signs.tolist())}
        for i, row in enumerate(family.signs.tolist()):
            j = flip[tuple(row)]
            vi = np.abs(family.evaluate(i, pts))
            vj = np.abs(family.evaluate(j, pts))
            np.testing.assert_allclose(vi, vj, rtol=1e-12)


@pytest.fixture(scope="module")
def relu_family():
    return build_packing("relu", 2, 2, 32, seed=0)


class TestPairwiseSeparation:
    def test_identity_decomposition(self, relu_family):
        report = pairwise_separation(relu_family, pair_budget=64, seed=1)
        assert report.identity_violation <= 1e-9

    def test_main_term_reference(self, relu_family):
        report = pairwise_separation(relu_family, pair_budget=64, seed=1)
        want = 2.0 * relu_family.normalization * relu_family.R**relu_family.k
        assert report.main_term_reference == pytest.approx(want, rel=1e-12)

    def test_single_flip_main_term(self, relu_family):
        # Signs differing in exactly one coordinate: the diagonal term at
        # that witness point is 2 sigma_k(R) / sqrt(m) exactly.
        signs = relu_family.signs
        pairs = [
            (i, j)
            for i in range(len(signs))
            for j in range(i + 1, len(signs))
            if int(np.sum(signs[i] != signs[j])) == 1
        ]
        i, j = pairs[0]
        flip = int(np.argmax(signs[i] != signs[j]))
        x = relu_family.directions.points[flip]
        diff = relu_family.evaluate(i, x) - relu_family.evaluate(j, x)
        main = (
            relu_family.normalization
            * (signs[i][flip] - signs[j][flip])
            * relu_family.R ** relu_family.k
        )
        cross = diff - main
        assert main + cross == pytest.approx(diff, abs=1e-9)

    def test_distance_zero_for_same_signs(self, relu_family):
        x = relu_family.directions.points[: relu_family.m]
        for i in range(len(relu_family.signs)):
            diff = relu_family.evaluate(i, x) - relu_family.evaluate(i, x)
            assert np.max(np.abs(diff)) == 0.0

    def test_distance_symmetric(self, relu_family):
        x = relu_family.directions.points[: relu_family.m]
        a = np.max(np.abs(relu_family.evaluate(0, x) - relu_family.evaluate(2, x)))
        b = np.max(np.abs(relu_family.evaluate(2, x) - relu_family.evaluate(0, x)))
        assert a == b

    def test_fourier_kind_identity_and_main_term(self):
        family = build_packing("fourier", 2, 1.0, 32, seed=0)
        report = pairwise_separation(family, pair_budget=64, seed=1)
        assert report.identity_violation <= 1e-9
        assert report.main_term_reference == pytest.approx(
            2.0 * family.normalization, rel=1e-12
        )

    def test_l2_mode_runs(self, relu_family):
        report = pairwise_separation(
            relu_family, norm="l2", pair_budget=3, seed=0,
        )
        assert report.min_distance > 0.0

    @pytest.mark.parametrize("kind, k_or_s", [("relu", 2), ("fourier", 1.0)])
    def test_l2_distances_use_the_tensor_nodes(self, kind, k_or_s):
        # The reference evaluates each pair on the 48^2 tensor nodes.
        family = build_packing(kind, 2, k_or_s, 32, seed=0)
        pts, w = tensor_nodes([(0.0, 1.0)] * 2, 48)
        report = pairwise_separation(family, norm="l2", pair_budget=5, seed=2)
        want = [math.sqrt(np.dot(w, np.abs(family.evaluate(i, pts) - family.evaluate(j, pts)) ** 2))
                for i, j in zip(report.i.tolist(), report.j.tolist())]
        np.testing.assert_allclose(report.distance, want, rtol=1e-12)
        assert report.min_distance == report.distance.min()
        assert np.isnan(report.main_term).all() and np.isnan(report.cross_term).all()

    @pytest.mark.parametrize("budget, seed", [(1, 0), (17, 3), (495, 1)])
    def test_sampled_pairs_match_enumeration(self, budget, seed):
        # Reference: list every pair, then index it by the same seeded draw.
        family = build_packing("fourier", 2, 1.0, 32, seed=0)
        n = len(family.signs)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert len(all_pairs) == 496
        chosen = np.random.default_rng(seed).choice(len(all_pairs), size=budget, replace=False)
        report = pairwise_separation(family, pair_budget=budget, seed=seed)
        assert list(zip(report.i.tolist(), report.j.tolist())) == [
            all_pairs[c] for c in sorted(chosen)]

    def test_budget_above_pair_count_returns_every_pair_in_order(self, relu_family):
        n = len(relu_family.signs)
        report = pairwise_separation(relu_family, pair_budget=n * (n - 1) // 2)
        assert list(zip(report.i.tolist(), report.j.tolist())) == [
            (i, j) for i in range(n) for j in range(i + 1, n)]

    def test_budget_validated(self, relu_family):
        with pytest.raises(ValueError):
            pairwise_separation(relu_family, pair_budget=0)


def per_pair_witness(family, pairs):
    """Per-pair reference: the witness split of each pair, one matrix-vector
    product and scalar ``abs`` at a time."""
    directions = family.directions.points[: family.m]
    proj = family.R * (directions @ directions.T)
    atom = sigma_k(proj, family.k) if family.kind == "relu" else np.exp(2j * np.pi * proj)
    c = family.normalization
    rows, worst = [], 0.0
    for i, j in pairs:
        diff = family.signs[i] - family.signs[j]
        totals = c * (atom @ diff)
        w = int(np.argmax(np.abs(totals)))
        main = c * diff[w] * atom[w, w]
        cross = c * (atom[w] @ diff - diff[w] * atom[w, w])
        worst = max(worst, float(abs(main + cross - totals[w])))
        rows.append((float(np.max(np.abs(totals))), float(abs(main)), float(abs(cross))))
    return rows, worst


class TestBatchedWitnessExact:
    @pytest.mark.parametrize("kind, d, k_or_s, n, budget", [
        ("fourier", 2, 1.0, 64, 240), ("relu", 3, 1, 4000, 300)])
    def test_batch_equals_per_pair_loop_bit_for_bit(self, kind, d, k_or_s, n, budget):
        family = build_packing(kind, d, k_or_s, n, seed=0)
        report = pairwise_separation(family, pair_budget=budget, seed=1)
        assert report.pairs_evaluated == budget
        rows, worst = per_pair_witness(family, zip(report.i.tolist(), report.j.tolist()))
        distance, main, cross = (list(col) for col in zip(*rows))
        assert report.distance.tolist() == distance
        assert report.main_term.tolist() == main
        assert report.cross_term.tolist() == cross
        assert report.identity_violation == worst
        assert report.min_distance == min(distance)

    def test_report_arrays_are_read_only(self, relu_family):
        report = pairwise_separation(relu_family, pair_budget=4, seed=1)
        for array in (report.i, report.j, report.distance, report.main_term, report.cross_term):
            assert not array.flags.writeable and array.shape == (4,)


class TestFanoBound:
    def test_formula_evaluation(self):
        # separation * (1 - (kl + log 2) / log M) by hand
        got = fano_lower_bound(2.0, 0.5, 100)
        want = 2.0 * (1.0 - (0.5 + math.log(2.0)) / math.log(100))
        assert got == pytest.approx(want, rel=1e-15)

    def test_clamped_when_divergence_dominates(self):
        assert fano_lower_bound(5.0, 50.0, 4) == 0.0

    def test_grows_with_hypothesis_count(self):
        values = [fano_lower_bound(1.0, 1.0, m) for m in (8, 64, 4096)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            fano_lower_bound(-1.0, 0.1, 10)
        with pytest.raises(ValueError):
            fano_lower_bound(1.0, 0.1, 2)


class TestTailMass:
    def test_plateau_weight_branch(self):
        rng = np.random.default_rng(0)
        omega = rng.uniform(0.5, 5.0, 100)
        b = rng.uniform(-1, 1, 100) * 2 * omega
        assert np.all(plateau_weight(b, omega) == 1.0)
        assert plateau_weight(10.0, 1.0) == pytest.approx((1 + 8) ** -2)

    def test_normalization_matches_closed_form_m0(self):
        # Z(0) = sqrt(pi) * 16 + 4 pi by direct integration of the split.
        report = example2_tail_mass(0, 2.0)
        assert report.Z == pytest.approx(math.sqrt(math.pi) * 16 + 4 * math.pi,
                                         rel=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_refinements_agree(self, m):
        report = example2_tail_mass(m, 2.0)
        assert report.refinement_rel_diff <= 1e-3
        assert report.truncation_bound <= 1e-6

    def test_split_matches_two_dimensional_quadrature(self):
        # Independent route: tensor quadrature of the joint density over a
        # box that carries all but ~0.1% of the mass.
        report = example2_tail_mass(0, 2.0)
        pts, w = tensor_nodes([(-13.0, 13.0), (-220.0, 220.0)], 384)
        vals = tail_density(pts[:, 0], pts[:, 1], 0)
        z2d = float(np.dot(w, vals))
        assert z2d == pytest.approx(report.Z, rel=0.01)

    @pytest.mark.parametrize("A", [1.0, 2.0, 3.0])
    def test_tail_mass_dominates_reference_bound(self, A):
        for m in (0, 1, 2):
            report = example2_tail_mass(m, A)
            lhs = report.lambda_tail * A * math.exp(A * A / 4.0)
            rhs = 0.5 * 4.0 * math.sqrt(math.pi) / report.Z
            assert lhs >= rhs

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            example2_tail_mass(0, 0.5)
        with pytest.raises(ValueError):
            example2_tail_mass(-1, 2.0)

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(lower_bounds, "_TAIL_NODES", 2)
        with pytest.raises(ConvergenceError):
            example2_tail_mass(2, 2.0)

    @pytest.mark.parametrize("m", [28, 30, 400])
    def test_uncertified_truncation_refused(self, m):
        # The |omega| > 14 remainder bound is 1.6% of Z at m = 28 and 19% at
        # m = 30; m = 400 used to end in an OverflowError.
        with pytest.raises(ValueError, match=f"m={m}: the certified remainder .* "
                                             "exceeds 1% of Z"):
            example2_tail_mass(m, 2.0)

    def test_last_certified_order_accepted(self):
        report = example2_tail_mass(27, 2.0)
        assert 0.0 < report.truncation_bound <= 0.01 * report.Z
