import math
import types

import numpy as np
import pytest

from barronlab import lower_bounds, sphere_geom
from barronlab.barron import evaluate_sum, fourier_sum, from_arrays, hm_norm_exact
from barronlab.lower_bounds import (
    MAX_GAP_ATOMS,
    build_packing,
    decaying_spectrum,
    dyadic_blocks,
    example2_tail_mass,
    highfreq_gap,
    oscillatory_witness,
    pairwise_separation,
    residual_tail_norm,
)
from barronlab.numerics import axis_rule, ridge_block, tensor_nodes
from barronlab.relu_nets import sigma_k
from oracles import integrate, plateau_weight, tail_density


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

    def test_regularized_prefixes_bounded_by_direct_lstsq(self):
        # At alpha = 800 most atoms underflow: some columns are all zero and
        # others have norms near 1e-74 or 1e-253.  Least squares is invariant
        # to column scaling, so the reference drops the zero columns and
        # scales the rest to unit norm; unscaled lstsq truncates the tiny
        # columns and lands about 1e-3 above the minimum.
        alpha, omega0, n_units, candidates = 800.0, 8.0, 6, 64
        probe = highfreq_gap(alpha, omega0, n_units, candidates, seed=0)
        nodes, weights = axis_rule(-1.0, 1.0, 256)
        root_w = np.sqrt(weights)
        target = root_w * np.exp(1j * omega0 * nodes)
        rng = np.random.default_rng(0)
        want = np.full(n_units, np.inf)
        zero_columns = 0
        for start in range(0, candidates, 32):
            for params in rng.standard_normal((min(32, candidates - start), n_units, 2)):
                atoms = root_w[:, None] * np.exp(-alpha * np.abs(
                    nodes[:, None] * params[:, 0] * max(4.0, 2.0 * omega0) + params[:, 1] * 2.0))
                norms = np.linalg.norm(atoms, axis=0)
                zero_columns += int(np.sum(norms == 0.0))
                for width in range(1, n_units + 1):
                    live = np.flatnonzero(norms[:width] > 0.0)
                    scaled = (atoms[:, live] / norms[live]).astype(complex)
                    sol = np.linalg.lstsq(scaled, target, rcond=None)[0]
                    err = np.linalg.norm(target - scaled @ sol)
                    want[width - 1] = min(want[width - 1], err)
        got = np.array(probe.errors_by_width)
        assert probe.regularized == 24
        assert zero_columns <= probe.regularized
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        assert np.all(np.diff(got) <= 0.0)
        assert np.all(got >= want * (1.0 - 1e-8))

    @pytest.mark.parametrize("alpha", [-500.0, 0.0, -1.0, math.nan, math.inf])
    def test_decay_rate_must_be_positive_and_finite(self, alpha):
        # -500 gave nan errors; 0 and -1 gave numbers for atoms that do not decay.
        with pytest.raises(ValueError, match="decay rate alpha must be a positive finite"):
            highfreq_gap(alpha, 8.0, 4, 32)

    @pytest.mark.parametrize("omega0", [math.nan, math.inf, -math.inf])
    def test_frequency_must_be_finite(self, monkeypatch, omega0):
        # nan gave a nan error; inf a nan error with 32 columns regularized.
        def draw(*args, **kwargs):
            raise AssertionError("drew atom parameters")

        monkeypatch.setattr(np.random, "default_rng", draw)
        with pytest.raises(ValueError, match=f"frequency omega0 must be finite, got {omega0}"):
            highfreq_gap(1.0, omega0, 4, 8)

    def test_unit_count_capped_at_the_quadrature_nodes(self):
        # 300 units ended in NumPy's "operands could not be broadcast".
        with pytest.raises(ValueError, match=r"unit count must lie in \[1, 256\].*n_units=300"):
            highfreq_gap(1.0, 8.0, 300, 4)
        with pytest.raises(ValueError, match="n_units=0"):
            highfreq_gap(1.0, 8.0, 0, 4)
        assert len(highfreq_gap(1.0, 8.0, 256, 4).errors_by_width) == 256

    @pytest.mark.parametrize("n_units", [1, 8, 256])
    def test_atom_count_capped_before_the_draw(self, monkeypatch, n_units):
        # 100000000 candidates at 256 units ran on, unrefused, past 20 s.
        class Drawn(Exception):
            pass

        def draw(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(np.random, "default_rng", draw)
        at_cap = MAX_GAP_ATOMS // n_units
        with pytest.raises(ValueError, match=f"at most {MAX_GAP_ATOMS}, got candidates="
                           f"{at_cap + 1} \\* n_units={n_units} = {(at_cap + 1) * n_units}"):
            highfreq_gap(1.0, 8.0, n_units, at_cap + 1)
        with pytest.raises(Drawn):  # the cap itself is allowed
            highfreq_gap(1.0, 8.0, n_units, at_cap)


class TestHighFreqGapWorkers:
    """The probe's blocks run one after another on the calling thread, in one
    scratch buffer: the same bits for any block size."""

    # 1000 candidates: 32 blocks, the last one partial; blocks of 7 split
    # each count but 1 differently.
    @pytest.mark.parametrize("candidates", [1, 31, 33, 100, 256, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_bitwise_equal_for_any_worker_count(self, monkeypatch, candidates, seed):
        want = highfreq_gap(1.0, 16.0, 8, candidates, seed=seed)
        monkeypatch.setattr(lower_bounds, "_GAP_BLOCK", 7)
        got = highfreq_gap(1.0, 16.0, 8, candidates, seed=seed)
        assert got.errors_by_width == want.errors_by_width
        assert got == want

    def test_blocks_sized_by_bytes_leave_the_probe_unchanged(self, monkeypatch):
        # Blocks of at most 2^18 [A | b] floats: 3 candidates at 256 units,
        # and the same probe as fixed blocks of 32 at any width.
        for n_units, size in [(8, 32), (64, 15), (256, 3)]:
            sizes = []  # per probe, each block's candidates: the ridge operand's leading axis

            def recording(lifted, ridge, out, **kwargs):
                sizes[-1].append(len(ridge))
                return ridge_block(lifted, ridge, out, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(lower_bounds, "ridge_block", recording)
                sizes.append([])
                got = highfreq_gap(1.0, 16.0, n_units, 100, seed=0)
                patch.setattr(lower_bounds, "_GAP_BLOCK_FLOATS", 2**62)
                sizes.append([])
                want = highfreq_gap(1.0, 16.0, n_units, 100, seed=0)
            assert [blocks[0] for blocks in sizes] == [size, 32]
            assert [sum(blocks) for blocks in sizes] == [100, 100]
            assert got.errors_by_width == want.errors_by_width
            assert got == want

    def test_regularized_count_equal_for_any_worker_count(self, monkeypatch):
        want = highfreq_gap(800.0, 8.0, 6, 100, seed=0)
        assert want.regularized > 0
        monkeypatch.setattr(lower_bounds, "_GAP_BLOCK", 7)
        assert highfreq_gap(800.0, 8.0, 6, 100, seed=0) == want


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

    @pytest.mark.parametrize("zs", [
        [0, 1, -1, 2, -3, 40, -41, 63, 300, -300, 1000],  # levels 2-4, 6, 7 empty
        [],
    ], ids=["gaps", "empty"])
    def test_blocks_match_per_level_masks(self, zs):
        # Reference: one mask over all rows per level, the level read from
        # the integer bit length; the blocks must agree row for row.
        rng = np.random.default_rng(3)
        coeffs = {(z,): complex(rng.standard_normal(), rng.standard_normal())
                  for z in rng.permutation(zs).tolist()}
        fs = fourier_sum(1, 1.0, (0.25,), coeffs)
        level = np.array([max(0, abs(z).bit_length() - 1) for (z,) in fs.index.tolist()],
                         dtype=int)
        decomp = dyadic_blocks(fs)
        assert [k for k, _ in decomp.blocks] == list(range(level.max(initial=0) + 1))
        for k, block in decomp.blocks:
            assert block.a == fs.a and block.L == fs.L
            assert np.array_equal(block.index, fs.index[level == k])
            assert np.array_equal(block.values, fs.values[level == k])
        assert [b.support_size() for _, b in decomp.blocks] == \
            ([3, 2, 0, 0, 0, 3, 0, 0, 2, 1] if zs else [0])

    @pytest.mark.parametrize("L, a, lo, hi", [
        (1.0, 0.0, 0, 0),  # xi_max = 0
        (1.0, 0.0, -63, 63), (1.0, 0.0, -64, 64), (1.0, 0.0, -65, 65),
        (0.75, 0.5, -47, 47), (0.75, 0.5, -48, 48), (0.75, 0.5, -49, 49),  # xi_max 64 +- 4/3
        (3.0, 0.25, -48, 5), (3.0, 0.25, -5, 48), (3.0, 0.25, -49, 47),
    ])
    def test_blocks_match_argsort_reference(self, L, a, lo, hi):
        # Reference: every row's level, then one stable argsort by level.
        z = np.arange(lo, hi + 1)
        fs = from_arrays(1, L, (a,), z[:, None], np.exp(1j * z) / (1.0 + np.abs(z)))
        xi = np.abs(z) / L
        level = np.where(xi < 2.0, 0, np.frexp(xi)[1] - 1)
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(level.max() + 2))
        blocks = dyadic_blocks(fs).blocks
        assert [k for k, _ in blocks] == list(range(level.max() + 1))
        for (_, block), start, stop in zip(blocks, bounds[:-1], bounds[1:]):
            rows = order[start:stop]
            want = from_arrays(1, L, (a,), fs.index[rows], fs.values[rows])
            assert block.a == (a,) and block.L == L
            assert np.array_equal(block.index, want.index)
            assert np.array_equal(block.values, want.values)

    @pytest.mark.parametrize("spectrum", [
        lambda: decaying_spectrum(65536.0, 1.0), lambda: decaying_spectrum(300.0, 2.0),
        lambda: from_arrays(1, 3.0, (0.25,), np.arange(-49, 48)[:, None],
                            np.exp(1j * np.arange(-49, 48)) / 7.0),
    ], ids=["xi65536", "xi300-decay2", "L3-offset"])
    def test_sq_norms_from_runs_bitwise(self, spectrum):
        # Read before any block exists, the runs' squared norms are the bits
        # of each block's hm_norm_exact(block, 0) ** 2.
        decomp = dyadic_blocks(spectrum())
        got = decomp.sq_norms
        assert "blocks" not in decomp.__dict__
        assert got == tuple(hm_norm_exact(block, 0) ** 2 for _, block in decomp.blocks)

    def test_dyadic_residual_kind_never_builds_blocks(self, monkeypatch):
        from barronlab import rates
        made = []

        def recording(spectrum):
            made.append(dyadic_blocks(spectrum))
            return made[-1]

        monkeypatch.setattr(lower_bounds, "dyadic_blocks", recording)
        rates.run_experiment(rates.DYADIC_RESIDUAL, {"xi_max": 256.0}, [2, 4, 8, 16, 32, 64])
        (decomp,) = made
        assert "sq_norms" in decomp.__dict__ and "blocks" not in decomp.__dict__

    def test_dyadic_residual_peak_memory(self):
        # At xi_max = 65536 (131,073 rows, 3 MiB of index and coefficients) the
        # kind's traced peak stays within twice the spectrum's bytes; it was
        # 7.13 MiB while from_arrays sorted rows already in order and the
        # levels copied every row into blocks.
        import tracemalloc

        from barronlab import rates
        grid = [2**i for i in range(1, 11)]
        rates.run_experiment(rates.DYADIC_RESIDUAL, {"xi_max": 64.0}, grid[:6])  # imports
        tracemalloc.start()
        try:
            rates.run_experiment(rates.DYADIC_RESIDUAL, {"xi_max": 65536.0}, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        spectrum = decaying_spectrum(65536.0, 1.0)
        assert peak <= 2 * (spectrum.index.nbytes + spectrum.values.nbytes)

    def test_decaying_spectrum_values_in_one_buffer(self):
        # In place, the coefficients keep the bits of (1 + |z|) ** -decay.
        for xi_max, decay in ((1000.0, 1.0), (77.0, 0.75), (5.0, 2.0)):
            z = np.arange(-int(xi_max), int(xi_max) + 1)
            fs = decaying_spectrum(xi_max, decay)
            assert fs.values.tobytes() == ((1.0 + np.abs(z)) ** (-decay)).astype(complex).tobytes()
            assert np.array_equal(fs.index[:, 0], z)

    def test_spectrum_rows_capped(self):
        # 2^21 is the first xi_max whose 2 xi_max + 1 index rows exceed 2^22;
        # xi_max = 1e9 used to end in a 14.9 GiB allocation failure.
        with pytest.raises(ValueError, match=r"xi_max = 2097152.0 needs 4.19e\+06 index rows"):
            decaying_spectrum(2.0**21, 1.0)
        # A huge xi_max names its row count in three digits, not 301.
        with pytest.raises(ValueError, match=r"xi_max = 1e\+300 needs 2e\+300 index rows, "
                                             "above the cap of 4194304"):
            decaying_spectrum(1e300, 1.0)

    @pytest.mark.parametrize("xi_max", [-5.0, -0.5])
    def test_negative_xi_max_refused(self, xi_max):
        # Used to give an empty spectrum and one all-zero level-0 block.
        with pytest.raises(ValueError, match=f"xi_max must be >= 0, got xi_max = {xi_max}"):
            decaying_spectrum(xi_max, 1.0)

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

    @pytest.mark.parametrize("k", [-1, -2, 0.5])
    def test_power_must_be_a_nonnegative_integer(self, k):
        # k = -1 gave K = 1.0 for every n, and k = -2 gave K = 0.125 at n = 8.
        with pytest.raises(ValueError, match=f"power k must be a nonnegative integer, got k={k}"):
            oscillatory_witness(8, k, 1, 1)


class TestPacking:
    def test_relu_scales_worked_example(self):
        family = build_packing("relu", 2, 2, 32, seed=0)
        assert family.m == 2
        assert family.R == pytest.approx(32.0 ** 1.5, rel=1e-15)
        assert family.signs.shape == (4, 2)

    @pytest.mark.parametrize("kind, k_or_s, n", [
        ("relu", 2, 0),  # used to give a pair at distance 0
        ("fourier", 1.0, 0),  # used to divide by zero
        ("relu", 2, -3),  # used to raise a TypeError from a complex power
    ])
    def test_budget_below_one_refused(self, kind, k_or_s, n):
        with pytest.raises(ValueError, match=f"packing budget n must be >= 1, got n={n}"):
            build_packing(kind, 2, k_or_s, n)

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
        # The message named m alone, so a rates sweep could not say which n.
        with pytest.raises(ValueError, match="m = 316 at n=100000 exceeds the desk-scale cap"):
            build_packing("fourier", 2, 1.0, 100_000, seed=0)

    def test_short_placement_names_m_and_n(self, monkeypatch):
        # The placed count depends on the seeded pool; the message named neither m nor n.
        monkeypatch.setattr(sphere_geom, "separated_subset",
                            lambda *args, **kwargs: types.SimpleNamespace(size=3))
        with pytest.raises(ValueError, match=r"could only place 3 of m = 5 directions "
                                             r"at separation \S+ at n=32"):
            build_packing("fourier", 2, 1.0, 32, seed=0)

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
        with pytest.raises(ValueError, match="dimension d must be >= 2, got 0"):
            build_packing(kind, 0, k_or_s, 32)

    @pytest.mark.parametrize("kind, k_or_s", [("fourier", 1.0), ("relu", 2)])
    def test_line_refused_before_any_direction_is_drawn(self, monkeypatch, kind, k_or_s):
        # d = 1 used to compute the family's scales, then reach the refusal
        # of separated_subset, whose directions lie on S^(d-1).
        from barronlab import lower_bounds, sphere_geom
        drawn = []
        monkeypatch.setattr(sphere_geom, "separated_subset", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match="S\\^\\(d-1\\): dimension d must be >= 2, got 1"):
            build_packing(kind, 1, k_or_s, 32)
        assert drawn == []

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
        assert report.refinement_rel_diff <= 1e-12

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

    @staticmethod
    def wide_range_mass(m, lo):
        # The omega-marginal of tail_density on both half-lines, out to 60.
        def marginal(pts):
            omega = pts[:, 0]
            return (2.0 * (4.0 * omega + 2.0) * (1.0 + omega) ** m * math.sqrt(math.pi)
                    * np.exp(-(omega**2) / 4.0))
        return integrate(marginal, [(lo, 60.0)], 512)

    @pytest.mark.parametrize("m, A", [(0, 13.9), (27, 13.0), (30, 2.0), (0, 14.0),
                                      (0, 20.0), (2, 50.0)])
    def test_tail_mass_matches_wide_range_quadrature(self, m, A):
        # The omega <= 14 cutoff read (0, 13.9) 50% low and (27, 13.0) 0.72%
        # low, and refused m >= 28 and A >= 14.
        report = example2_tail_mass(m, A)
        reference = self.wide_range_mass(m, A) / self.wide_range_mass(m, 0.0)
        assert report.lambda_tail == pytest.approx(reference, rel=1e-9)
        assert report.refinement_rel_diff <= 1e-12

    def test_normalization_matches_wide_range_quadrature(self):
        report = example2_tail_mass(40, 2.0)
        assert report.Z == pytest.approx(self.wide_range_mass(40, 0.0), rel=1e-9)

    @pytest.mark.parametrize("m", [263, 400, 10**9, pytest.param(10**400, id="10^400")])
    def test_non_finite_normalization_refused(self, m):
        with pytest.raises(ValueError, match=f"m={m}: the normalization Z leaves the float "
                                             "range"):
            example2_tail_mass(m, 2.0)

    def test_last_certified_order_accepted(self):
        # m = 262 is the largest order whose Z is a finite float.
        report = example2_tail_mass(262, 2.0)
        assert math.isfinite(report.Z) and report.refinement_rel_diff <= 1e-12

    @pytest.mark.parametrize("A", [53.3, 60.0])
    def test_underflowing_tail_refused(self, A):
        with pytest.raises(ValueError, match=f"cutoff A={A}: the tail mass .* at m=0 "
                                             "underflows the float range"):
            example2_tail_mass(0, A)
        assert example2_tail_mass(262, A).lambda_tail > 0.0
