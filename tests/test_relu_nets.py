import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import numerics, relu_nets
from barronlab.numerics import grid_rows, loglog_fit, multi_indices
from barronlab.relu_nets import (
    Cube,
    CubePartition,
    SobolevApproximant,
    compile_sobolev_approximant,
    evaluate_network,
    evaluate_product_sum,
    indicator_bump,
    monomial_network_1d,
    monomial_product_expansion,
    network_hm_upper,
    probe_target,
    relu_network,
    ridge_local_taylor,
    sigma_k,
)
from barronlab.sphere_geom import uniform_sphere


class TestActivation:
    def test_heaviside_convention(self):
        assert sigma_k(-1.0, 0) == 0.0
        assert sigma_k(0.0, 0) == 0.0
        assert sigma_k(0.5, 0) == 1.0

    def test_square(self):
        assert sigma_k(3.0, 2) == 9.0

    @given(t=st.floats(-50, 50), k=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_left(self, t, k):
        v = sigma_k(t, k)
        assert v >= 0.0
        if t <= 0:
            assert v == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            sigma_k(1.0, -1)


class TestNetworkEvaluation:
    def test_empty_network(self):
        net = relu_network([])
        assert evaluate_network(net, np.array([[1.0, 2.0]]))[0] == 0.0

    def test_single_linear_unit(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.0, 1)])
        assert evaluate_network(net, np.array([2.0, 5.0])) == pytest.approx(2.0)

    def test_mirrored_pair_is_identity(self):
        net = relu_network([(1.0, (1.0,), 0.0, 1), (-1.0, (-1.0,), 0.0, 1)])
        assert evaluate_network(net, np.array([-3.0])) == pytest.approx(-3.0)

    def test_evaluation_additive_over_concatenation(self):
        rng = np.random.default_rng(2)
        units_a = [(rng.standard_normal(), uniform_sphere(rng, 1, 2)[0],
                    rng.standard_normal(), 2) for _ in range(4)]
        units_b = [(rng.standard_normal(), uniform_sphere(rng, 1, 2)[0],
                    rng.standard_normal(), 1) for _ in range(3)]
        pts = rng.standard_normal((50, 2))
        total = evaluate_network(relu_network(units_a + units_b), pts)
        parts = evaluate_network(relu_network(units_a), pts) + evaluate_network(
            relu_network(units_b), pts
        )
        # Addition order differs between the two paths, so equality holds at
        # machine precision rather than bitwise.
        np.testing.assert_allclose(total, parts, rtol=1e-13, atol=1e-13)

    def test_ell1_mass(self):
        net = relu_network([(3.0, (1.0,), 0.0, 1), (-4.0, (1.0,), 1.0, 1)])
        assert net.ell1 == pytest.approx(7.0)

    def test_complex_outer_coefficients(self):
        net = relu_network([(1j, (1.0,), 0.0, 2)])
        val = evaluate_network(net, np.array([2.0]))
        assert val == pytest.approx(4j)
        assert net.ell1 == pytest.approx(1.0)


def random_network(rng, width, d, powers, complex_outer=False):
    outer = rng.standard_normal(width) + (1j * rng.standard_normal(width) if complex_outer else 0)
    return relu_network([(outer[i], rng.standard_normal(d), rng.uniform(-1.0, 1.0),
                          powers[i % len(powers)]) for i in range(width)])


# (width, d, powers, complex outer weights, points): one power with many row
# blocks and N not a multiple of the block; mixed powers with k = 0 and
# complex weights; fewer blocks than cores; a single point.
WORKER_CASES = [(1000, 3, [2], False, 5003), (601, 2, [0, 1, 2, 3], True, 1001),
                (2000, 3, [2], False, 50), (5, 1, [1, 0], True, 1)]


class TestEvaluateWorkers:
    @pytest.mark.parametrize("width, d, powers, complex_outer, n", WORKER_CASES)
    def test_bitwise_equal_for_any_worker_count(self, set_cores, width, d, powers,
                                                complex_outer, n):
        rng = np.random.default_rng(width + n)
        net = random_network(rng, width, d, powers, complex_outer)
        pts = rng.standard_normal((n, d))
        set_cores(1)
        want = evaluate_network(net, pts)
        assert np.iscomplexobj(want) == complex_outer
        for cores in (2, 3, 8):
            set_cores(cores)
            got = evaluate_network(net, pts)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_stress_more_threads_than_cores(self, set_cores, monkeypatch):
        # A fresh pool of 7 threads on a short switch interval: shares that
        # lost or mixed each other's row updates would change the bytes.
        rng = np.random.default_rng(5)
        net = random_network(rng, 400, 2, [1, 2])
        pts = rng.standard_normal((20_000, 2))
        set_cores(1)
        want = evaluate_network(net, pts)
        set_cores(8)
        monkeypatch.setattr(numerics, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert evaluate_network(net, pts).tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)
            numerics._pool.shutdown()


class TestNetworkArrays:
    UNITS = [(2.0 - 1j, (0.6, 0.8), -0.5, 2), (-3.0, [1.0, 0.0], 1.25, 0),
             (0.5j, np.array([0.0, -1.0]), 0.0, 3)]

    def test_arrays_and_derived_views(self):
        net = relu_network(self.UNITS)
        np.testing.assert_array_equal(net.outer, [2.0 - 1j, -3.0, 0.5j])
        np.testing.assert_array_equal(net.directions, [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(net.biases, [-0.5, 1.25, 0.0])
        np.testing.assert_array_equal(net.powers, [2, 0, 3])
        assert (net.d, net.width) == (2, 3)
        assert net.ell1 == pytest.approx(math.sqrt(5.0) + 3.0 + 0.5, rel=1e-15)
        assert [tuple(u) for u in net.units] == [
            (complex(a), tuple(float(w) for w in omega), b, k) for a, omega, b, k in self.UNITS
        ]

    def test_arrays_are_read_only(self):
        net = relu_network(self.UNITS)
        for array in (net.outer, net.directions, net.biases, net.powers):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_empty_network(self):
        net = relu_network([])
        assert (net.d, net.width, net.ell1, net.units) == (0, 0, 0.0, ())

    @pytest.mark.parametrize("power", [-1, 1.5])
    def test_power_must_be_nonnegative_integer(self, power):
        with pytest.raises(ValueError, match="unit 1 power"):
            relu_network([self.UNITS[0], (1.0, (1.0, 0.0), 0.0, power)])

    def test_one_dimension_for_all_units(self):
        with pytest.raises(ValueError, match="unit 2 has direction shape"):
            relu_network(self.UNITS[:2] + [(1.0, (1.0, 0.0, 0.0), 0.0, 1)])


class TestMonomials:
    def test_square_at_negative(self):
        net = monomial_network_1d(2)
        assert evaluate_network(net, np.array([-3.0])) == pytest.approx(9.0)

    def test_cube_at_negative(self):
        net = monomial_network_1d(3)
        assert evaluate_network(net, np.array([-2.0])) == pytest.approx(-8.0)

    def test_identity_map_random(self):
        net = monomial_network_1d(1)
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 1000)
        got = evaluate_network(net, x[:, None])
        assert np.max(np.abs(got - x)) <= 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            monomial_network_1d(0)

    @given(m=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_identity(self, m):
        net = monomial_network_1d(m)
        rng = np.random.default_rng(m)
        x = rng.uniform(-5, 5, 200)
        got = evaluate_network(net, x[:, None])
        scale = np.maximum(1.0, np.abs(x) ** m)
        assert np.max(np.abs(got - x**m) / scale) <= 1e-12


class TestCubePartition:
    def test_cell_count_and_coverage(self):
        part = CubePartition(2, 3)
        cells = part.cells()
        assert len(cells) == 9
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (500, 2))
        idx = part.cell_index(pts)
        for i, cell in enumerate(cells):
            lo, hi = np.array(cell.bounds()).T
            mine = pts[idx == i]
            assert np.all((mine >= lo) & (mine <= hi))
        # every point lands in exactly one cell index, including the x = 1 face
        assert np.all((0 <= idx) & (idx < 9))
        assert part.cell_index(np.array([[1.0, 1.0]]))[0] == 8

    def test_cells_tile_without_overlap(self):
        part = CubePartition(1, 4)
        bounds = sorted(c.bounds()[0] for c in part.cells())
        assert bounds[0][0] == 0.0 and bounds[-1][1] == 1.0
        for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
            assert hi_a == pytest.approx(lo_b)

    def test_dimension_below_one_refused(self):
        with pytest.raises(ValueError, match="dimension d must be >= 1, got 0"):
            CubePartition(0, 3)


def per_term_product_sum(alpha, x):
    """Per-term reference: the itertools.product((1, -1)) expansion, each term
    multiplied out factor by factor and added to a running total in order."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    active = [j for j, a in enumerate(alpha) if a > 0]
    total = np.zeros(len(pts))
    for choice in itertools.product((1, -1), repeat=len(active)):
        vals = np.full(len(pts), float(math.prod(
            (-1) ** alpha[j] for j, s in zip(active, choice) if s == -1)))
        for j, s in zip(active, choice):
            vals = vals * sigma_k(s * pts[:, j], alpha[j])
        total += vals
    return total


class TestProductExpansion:
    def test_bilinear_hand_value(self):
        expansion = monomial_product_expansion((1, 1), 2)
        assert expansion.arg_signs.shape == (4, 2) and expansion.signs.shape == (4,)
        val = evaluate_product_sum(expansion, np.array([-1.0, 2.0]))
        assert val == pytest.approx(-2.0)

    def test_rows_follow_itertools_product_order(self):
        expansion = monomial_product_expansion((2, 0, 1), 3)
        choices = list(itertools.product((1, -1), repeat=2))
        assert expansion.powers.tolist() == [2, 0, 1]
        assert expansion.arg_signs.tolist() == [[s0, 0, s2] for s0, s2 in choices]
        assert expansion.signs.tolist() == [(-1 if s2 == -1 else 1) for _, s2 in choices]

    @pytest.mark.parametrize("alpha", [(1,), (0, 0), (3, 1), (1, 1, 1), (2, 0, 2), (0, 4)])
    def test_evaluation_equals_per_term_sum_exactly(self, alpha):
        pts = np.random.default_rng(sum(alpha)).uniform(-10.0, 10.0, (500, len(alpha)))
        got = evaluate_product_sum(monomial_product_expansion(alpha, 4), pts)
        assert np.array_equal(got, per_term_product_sum(alpha, pts))

    @pytest.mark.parametrize("alpha", [(1.5, 1), (1, 0.25, 0)])
    def test_non_integer_exponent_rejected(self, alpha):
        # int(1.5) would turn x^1.5 y into x y: 4 instead of 8 at (4, 1).
        with pytest.raises(ValueError, match="integer"):
            monomial_product_expansion(alpha, 3)

    def test_integral_float_exponent_accepted(self):
        expansion = monomial_product_expansion((2.0, 1), 3)
        assert evaluate_product_sum(expansion, np.array([4.0, 1.5])) == pytest.approx(24.0)

    @pytest.mark.parametrize("x, got_d", [((2.0, 3.0, 5.0), 3), ((2.0,), 1)])
    def test_point_dimension_checked(self, x, got_d):
        # Without the check (2, 3, 5) gave 6.0 and (2,) a bare IndexError.
        expansion = monomial_product_expansion((1, 1), 2)
        with pytest.raises(ValueError, match=f"dimension {got_d}, expected 2"):
            evaluate_product_sum(expansion, np.array(x))
        with pytest.raises(ValueError, match=f"dimension {got_d}, expected 2"):
            evaluate_product_sum(expansion, np.array([x, x]))

    def test_mixed_degree_random_points(self):
        expansion = monomial_product_expansion((2, 0, 1), 4)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, (1000, 3))
        got = evaluate_product_sum(expansion, pts)
        want = pts[:, 0] ** 2 * pts[:, 2]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_exponent_skips_doubling(self):
        expansion = monomial_product_expansion((0, 3), 3)
        assert expansion.arg_signs.tolist() == [[0, 1], [0, -1]]
        assert expansion.signs.tolist() == [1, -1]

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError):
            monomial_product_expansion((3, 2), 4)


class TestRidgeTaylor:
    def test_positive_cell_exact(self):
        fit = ridge_local_taylor((1.0,), 0.0, Cube((0.5,), 0.25), 2)
        assert fit.case == "positive"
        assert fit.measured_error == 0.0

    def test_negative_cell_exact(self):
        fit = ridge_local_taylor((1.0,), -1.0, Cube((0.5,), 0.25), 2)
        assert fit.case == "negative"
        assert fit.measured_error == 0.0

    @pytest.mark.parametrize("t0", [0.02, -0.02])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_off_centre_straddling_keeps_centre_branch(self, t0, k):
        # The centre's branch is exact on its own side of the kink, so the error
        # is reached at the far end of the other side: delta - |t0|, where the
        # other branch would give delta + |t0|.
        fit = ridge_local_taylor((1.0,), 0.0, Cube((t0,), 0.125), k)
        assert fit.case == "straddling"
        assert fit.measured_error == pytest.approx((fit.delta - abs(t0)) ** k, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_straddling_homogeneity(self, k):
        errors = {}
        for j in range(3, 9):
            cell = Cube((0.0,), 2.0**-j)
            fit = ridge_local_taylor((1.0,), 0.0, cell, k)
            assert fit.case == "straddling"
            errors[j] = fit.measured_error
        for j in range(3, 8):
            assert errors[j] == pytest.approx(2.0**k * errors[j + 1], abs=1e-9)

    def test_straddling_reports_both_reference_bounds(self):
        fit = ridge_local_taylor((1.0,), 0.0, Cube((0.0,), 0.125), 2)
        delta = fit.delta
        assert fit.taylor_bound == pytest.approx(delta**3 / 3)
        assert fit.homogeneity_bound == pytest.approx(delta**2)
        # Measured error tracks delta^k, not the (k+1)-power form.
        assert fit.measured_error == pytest.approx(fit.homogeneity_bound, rel=1e-12)

    def test_centered_linear_ratio_window(self):
        for j in range(3, 9):
            side = 2.0**-j
            fit = ridge_local_taylor((1.0,), 0.0, Cube((0.0,), side), 1)
            assert 0.2 <= fit.measured_error / side <= 0.6

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            ridge_local_taylor((2.0,), 0.0, Cube((0.0,), 0.1), 1)


class TestIndicator:
    def test_values_at_center_boundary_outside(self):
        cell = Cube((0.5, 0.5), 0.5)
        phi = indicator_bump(cell, 10.0)
        assert phi(np.array([0.5, 0.5])) == 1.0
        assert phi(np.array([0.75, 0.5])) == 0.0
        assert phi(np.array([0.9, 0.5])) == 0.0

    def test_band_must_fit(self):
        with pytest.raises(ValueError, match="band"):
            indicator_bump(Cube((0.5,), 0.1), 10.0)

    def test_partition_of_unity_off_bands(self):
        part = CubePartition(1, 4)
        sharpness = 20.0
        phis = [indicator_bump(c, sharpness) for c in part.cells()]
        xs = np.linspace(0.01, 0.99, 197)[:, None]
        total = sum(np.atleast_1d(p(xs)) for p in phis)
        boundaries = np.arange(0, 1.25, 0.25)
        dist = np.min(np.abs(xs - boundaries[None, :]), axis=1)
        interior = dist > 1.0 / sharpness
        assert np.max(np.abs(total[interior] - 1.0)) == 0.0


class TestCompile:
    def test_oversized_compile_refused_before_sampling(self, monkeypatch):
        # q = 100000 at d = 3 used to fail allocating 2.60 EiB in grids.
        monkeypatch.setattr(CubePartition, "grids", None)
        with pytest.raises(ValueError, match=r"q = 100000, d = 3, ell = 2 .* above the cap 8388608"):
            compile_sobolev_approximant(None, 2, CubePartition(3, 100000))

    @pytest.mark.parametrize("d, q, ell, admitted", [
        (3, 32, 3, True),  # 7,077,888 rows
        (3, 34, 3, False),
        (1, 2**23 // 3, 0, True),
        (1, 2**23 // 3 + 1, 0, False),
        (np.int64(3), np.int64(2**22), np.int64(2), False),  # int64 rows would wrap to 0
    ])
    def test_compile_size_cap(self, d, q, ell, admitted):
        assert relu_nets.MAX_COMPILE_ROWS == 2**23
        if admitted:
            relu_nets.check_compile_size(d, q, ell)
        else:
            with pytest.raises(ValueError, match=f"q = {q}, d = {d}, ell = {ell}"):
                relu_nets.check_compile_size(d, q, ell)

    @pytest.mark.parametrize("d, q, admitted", [
        (1, 2**23 // 64, True), (1, 2**23 // 64 + 1, False),  # 64 points per axis at d = 1
        (2, 321, True), (2, 322, False),  # 9 above: 2889^2 and 2898^2 rows
        (3, 22, True), (3, 23, False),
    ])
    def test_cell_check_size_cap(self, monkeypatch, d, q, admitted):
        def sampled(*args):
            raise LookupError("sampled")

        monkeypatch.setattr(relu_nets, "_cell_samples", sampled)
        approx = SobolevApproximant(CubePartition(d, q), np.zeros((1, d), dtype=int),
                                    np.zeros((q**d, 1)))
        per_axis = 64 if d == 1 else 9
        with pytest.raises(LookupError if admitted else ValueError,
                           match="sampled" if admitted else
                           f"q = {q}, d = {d} at {per_axis} points per axis .* above the cap"):
            approx.cell_errors(None)

    def test_reproduces_global_polynomial(self):
        f = lambda p: 2.0 - p[:, 0] + 3.0 * p[:, 0] ** 2
        approx = compile_sobolev_approximant(f, 2, CubePartition(1, 4))
        assert approx.sup_error(f) <= 1e-10

    def test_single_cell_cubic(self):
        f = lambda p: p[:, 0] ** 3
        approx = compile_sobolev_approximant(f, 3, CubePartition(1, 1))
        assert approx.sup_error(f) <= 1e-10

    def test_two_dimensional_polynomial(self):
        f = lambda p: p[:, 0] * p[:, 1] + p[:, 1] ** 2
        approx = compile_sobolev_approximant(f, 2, CubePartition(2, 3))
        assert approx.sup_error(f) <= 1e-10

    def test_three_dimensional_probe_grid(self):
        # d = 3 probes 65 points per axis; 401^3 rows needed gigabytes.
        def f(p):
            assert len(p) <= 65**3
            return np.sin(2 * np.pi * p[:, 0]) * p[:, 1] + p[:, 2] ** 2

        approx = compile_sobolev_approximant(f, 2, CubePartition(3, 2))
        pts = grid_rows(np.linspace(0.0, 1.0, 65), 3)
        assert approx.sup_error(f) == np.max(np.abs(f(pts) - approx(pts)))

    def test_sine_sweep_slopes(self):
        # Full grid {2..32}: the q = 2 cells align with the half-wave
        # symmetry of the target, which depresses that error and flattens
        # the fit; the cell-diameter rate shows from q = 4 on.
        f = lambda p: np.sin(2 * np.pi * np.asarray(p)[:, 0])
        errors = {
            q: compile_sobolev_approximant(f, 2, CubePartition(1, q)).sup_error(f)
            for q in (2, 4, 8, 16, 32, 64)
        }
        full = loglog_fit([(q, errors[q]) for q in (2, 4, 8, 16, 32)])
        assert full.slope <= -2.0 + 0.2
        asymptotic = loglog_fit([(q, errors[q]) for q in (4, 8, 16, 32, 64)])
        assert asymptotic.slope <= -3.0 + 0.2

    def test_smoothed_differs_only_in_bands(self):
        f = lambda p: np.sin(2 * np.pi * np.asarray(p)[:, 0])
        sharpness = 20.0
        approx = compile_sobolev_approximant(
            f, 2, CubePartition(1, 4), smoothing=sharpness
        )
        xs = np.linspace(0.0, 1.0, 801)[:, None]
        plain = approx(xs)
        smooth = approx.smoothed(xs)
        boundaries = np.arange(0, 1.25, 0.25)
        dist = np.min(np.abs(xs - boundaries[None, :]), axis=1)
        off_band = dist > 1.0 / sharpness
        assert np.max(np.abs(plain[off_band] - smooth[off_band])) == 0.0
        assert np.max(np.abs(plain - smooth)) > 0.0

    def test_triangle_split_through_piecewise_form(self):
        f = lambda p: np.sin(2 * np.pi * np.asarray(p)[:, 0])
        approx = compile_sobolev_approximant(
            f, 2, CubePartition(1, 8), smoothing=40.0
        )
        xs = np.linspace(0.0, 1.0, 1601)[:, None]
        target = f(xs)
        lhs = np.max(np.abs(target - approx.smoothed(xs)))
        rhs = np.max(np.abs(target - approx(xs))) + np.max(
            np.abs(approx(xs) - approx.smoothed(xs))
        )
        assert lhs <= rhs + 1e-15


def per_cell_reference(f, ell: int, part: CubePartition) -> np.ndarray:
    """Per-cell least-squares fits on each cell's own (ell + 3)^d grid."""
    alphas = sorted(multi_indices(part.d, ell))
    rows = []
    for cell in part.cells():
        pts = cell.grid(ell + 3)
        y = (pts - np.asarray(cell.center)) * (2.0 / cell.side)
        design = np.stack([np.prod(y**np.array(a), axis=1) for a in alphas], axis=-1)
        rows.append(np.linalg.lstsq(design, f(pts), rcond=None)[0])
    return np.array(rows)


def smooth_target(pts):
    pts = np.asarray(pts)
    return np.sin(3.0 * pts[:, 0] + 1.0) * np.cos(2.0 * pts[:, -1]) + pts[:, 0] ** 3


class TestArrayApproximant:
    @pytest.mark.parametrize("d, q, ell", [(1, 7, 3), (2, 5, 2), (3, 3, 2)])
    def test_coefficients_match_per_cell_lstsq(self, d, q, ell):
        part = CubePartition(d, q)
        approx = compile_sobolev_approximant(smooth_target, ell, part)
        assert approx.exponents.tolist() == [list(a) for a in sorted(multi_indices(d, ell))]
        want = per_cell_reference(smooth_target, ell, part)
        np.testing.assert_allclose(approx.coefficients, want, rtol=0, atol=1e-10)

    def test_grids_match_cell_grids(self):
        for d, q in [(1, 4), (2, 3), (3, 2)]:
            part = CubePartition(d, q)
            grids = part.grids(4)
            for i, cell in enumerate(part.cells()):
                assert np.array_equal(grids[i], cell.grid(4))
            assert np.array_equal(part.centers(), [c.center for c in part.cells()])

    def test_call_uses_containing_cell_on_faces_and_upper_boundary(self):
        q = 4
        part = CubePartition(2, q)
        approx = compile_sobolev_approximant(smooth_target, 2, part)
        coeffs = per_cell_reference(smooth_target, 2, part)
        alphas = np.array(sorted(multi_indices(2, 2)))

        def poly(i, center, p):
            y = (p - np.asarray(center)) * (2.0 * q)
            return float(coeffs[i] @ np.prod(y**alphas, axis=1))

        faces = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.3])
        pts = np.stack(np.meshgrid(faces, faces, indexing="ij"), axis=-1).reshape(-1, 2)
        for p in pts:
            # Faces belong to the cell above them; x = 1 to the last cell.
            ij = np.minimum(np.floor(p * q).astype(int), q - 1)
            assert approx(p) == pytest.approx(poly(ij[0] * q + ij[1], (ij + 0.5) / q, p),
                                              abs=1e-12)
        # Neighbouring cells disagree on a face, so the test sees a wrong pick.
        p = np.array([0.25, 0.375])
        assert abs(approx(p) - poly(1, (0.125, 0.375), p)) > 1e-6

    @pytest.mark.parametrize("d, q, ell", [(1, 5, 2), (2, 3, 2), (3, 2, 1)])
    def test_cell_errors_match_per_cell_reference(self, d, q, ell):
        # Each cell's own closed grid, faces included, against its own polynomial.
        part = CubePartition(d, q)
        approx = compile_sobolev_approximant(smooth_target, ell, part)
        alphas = np.array(sorted(multi_indices(d, ell)))
        want = []
        for cell, c in zip(part.cells(), per_cell_reference(smooth_target, ell, part)):
            pts = cell.grid(64 if d == 1 else 9)
            y = (pts - np.asarray(cell.center)) * (2.0 / cell.side)
            poly = np.prod(y[:, None, :] ** alphas, axis=-1) @ c
            want.append(np.max(np.abs(smooth_target(pts) - poly)))
        np.testing.assert_allclose(approx.cell_errors(smooth_target), want, rtol=0, atol=1e-10)

    def test_smoothed_is_call_times_own_indicator(self):
        part = CubePartition(2, 8)
        approx = compile_sobolev_approximant(smooth_target, 2, part, smoothing=40.0)
        rng = np.random.default_rng(11)
        pts = np.concatenate([rng.random((400, 2)),
                              [[0.25, 0.5], [1.0, 1.0], [0.0, 0.125], [0.51, 0.0]]])
        ids = part.cell_index(pts)
        phi = np.array([approx.indicators[i](p) for i, p in zip(ids, pts)])
        assert np.array_equal(approx.smoothed(pts), approx(pts) * phi)
        outside = np.array([[-0.1, 0.5], [1.1, 0.5], [0.5, 1.2], [-0.3, -0.3], [2.0, 0.7]])
        assert np.all(approx.smoothed(outside) == 0.0)

    @pytest.mark.parametrize("d, q, ell", [(1, 3, 2), (1, 7, 3), (2, 3, 2), (2, 7, 3),
                                           (3, 3, 2), (3, 4, 3)])
    def test_sup_error_is_max_over_probe_grid(self, d, q, ell):
        # With q = 3 and q = 7 the inner cell faces fall between probes; the
        # last probe of every axis lies on the x = 1 face.
        approx = compile_sobolev_approximant(smooth_target, ell, CubePartition(d, q))
        pts = grid_rows(np.linspace(0.0, 1.0, 401 if d <= 2 else 65), d)
        want = np.max(np.abs(smooth_target(pts) - approx(pts)))
        assert approx.sup_error(smooth_target) == want

    @pytest.mark.parametrize("d, q, ell", [(1, 3, 2), (1, 7, 3), (2, 3, 2), (2, 7, 3),
                                           (3, 3, 2), (3, 4, 3),
                                           (1, 500, 2), (2, 401, 2), (3, 65, 2)])
    def test_probe_error_is_max_over_probe_grid(self, d, q, ell):
        # Random coefficients, so q can exceed the probes per axis: with
        # q = 500 some cells hold no probe (empty runs), and with q = 401
        # (d = 2) or q = 65 (d = 3) every cell holds exactly one probe.
        exponents = np.array(sorted(multi_indices(d, ell)), dtype=int)
        coefficients = np.random.default_rng(q).normal(size=(q**d, len(exponents)))
        approx = SobolevApproximant(CubePartition(d, q), exponents, coefficients)
        target = probe_target(smooth_target, d)
        assert target.shape == (401 if d <= 2 else 65,) * d
        pts = grid_rows(np.linspace(0.0, 1.0, target.shape[0]), d)
        want = np.max(np.abs(smooth_target(pts) - approx(pts)))
        assert approx.probe_error(target) == want
        assert approx.sup_error(smooth_target) == want

    def test_probe_error_refuses_target_of_wrong_shape(self):
        approx = compile_sobolev_approximant(smooth_target, 1, CubePartition(2, 4))
        # A (401,) target would otherwise broadcast against the 401 x 401 grid.
        with pytest.raises(ValueError, match=r"shape \(401,\), expected \(401, 401\)"):
            approx.probe_error(probe_target(smooth_target, 1))
        with pytest.raises(ValueError, match=r"shape \(65, 65, 65\), expected \(401, 401\)"):
            approx.probe_error(probe_target(smooth_target, 3))

    def test_indicators_built_once(self):
        approx = compile_sobolev_approximant(smooth_target, 1, CubePartition(2, 4),
                                             smoothing=40.0)
        assert approx.indicators is approx.indicators
        assert len(approx.indicators) == 16

    def test_smoothing_band_validated(self):
        with pytest.raises(ValueError, match="band"):
            compile_sobolev_approximant(smooth_target, 2, CubePartition(2, 8), smoothing=10.0)


class TestGroupedEvaluation:
    def test_mixed_powers_complex_weights_match_per_unit_loop(self):
        rng = np.random.default_rng(8)
        powers = rng.integers(0, 4, 60)
        units = [(complex(*rng.standard_normal(2)), rng.standard_normal(3),
                  rng.uniform(-1, 1), int(k)) for k in powers]
        net = relu_network(units)
        n = 9001
        for k in np.unique(powers):
            rows = relu_nets._EVAL_BLOCK // int(np.sum(powers == k))
            assert n > rows and n % rows != 0
        pts = rng.uniform(-1, 1, (n, 3))
        want = np.zeros(n, dtype=complex)
        for a, omega, b, k in units:
            want += a * sigma_k(pts @ omega + b, k)
        got = evaluate_network(net, pts)
        assert np.iscomplexobj(got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_activation_bitwise_equal_to_sigma_k_per_power(self):
        rng = np.random.default_rng(4)
        powers = np.repeat(np.arange(4), 25)
        units = [(complex(*rng.standard_normal(2)), rng.standard_normal(3),
                  rng.uniform(-1, 1), int(k)) for k in powers]
        # Unit 0 has power 0 and a pre-activation of exactly 0 at the first point.
        units[0] = (1.5 - 0.5j, np.array([1.0, 0.0, 0.0]), -0.5, 0)
        net = relu_network(units)
        pts = np.vstack([[0.5, 0.3, -0.7], rng.uniform(-1, 1, (200, 3))])
        assert len(pts) * 25 <= relu_nets._EVAL_BLOCK  # one block per power
        total = np.zeros((len(pts), 2))
        for k in range(4):
            group = np.flatnonzero(net.powers == k)
            outer = np.stack([net.outer.real, net.outer.imag], axis=1)[group]
            t = pts @ net.directions[group].T + net.biases[group]
            total += sigma_k(t, k) @ outer
        assert np.array_equal(evaluate_network(net, pts), total[:, 0] + 1j * total[:, 1])
        assert evaluate_network(relu_network(units[:1]), pts[0]) == 0.0

    def test_real_weights_give_real_values(self):
        net = relu_network([(2.0, (1.0, 0.0), 0.5, 2), (-1.0, (0.0, 1.0), 0.0, 0)])
        got = evaluate_network(net, np.array([[1.0, 1.0], [0.0, -1.0]]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [2.0 * 1.5**2 - 1.0, 2.0 * 0.25])


def exact_box_integral(omega, b, box, p: int) -> Fraction:
    """Integral of sigma_p(omega . x + b) over the box, exactly: the vertex sum
    of sigma_{p+n}(omega . v + b) over the n axes with omega_j != 0, divided by
    (p+1)...(p+n) prod_j omega_j; each axis with omega_j = 0 adds its length."""
    active = [j for j, w in enumerate(omega) if w != 0]
    scale = Fraction(1, math.prod(range(p + 1, p + len(active) + 1)))
    for j, (lo, hi) in enumerate(box):
        scale = scale / omega[j] if j in active else scale * (Fraction(hi) - Fraction(lo))
    total = Fraction(0)
    for corner in itertools.product((0, 1), repeat=len(active)):
        t = Fraction(b) + sum(omega[j] * Fraction(box[j][side]) for j, side in zip(active, corner))
        if t > 0:
            total += (-1) ** (len(active) - sum(corner)) * t ** (p + len(active))
    return scale * total


def exact_unit_hm_norms(net, box, m: int) -> np.ndarray:
    """Unit H^m norms in Fraction arithmetic: sum over |alpha| <= m of
    prod_j omega_j^(2 alpha_j) (k! / (k - r)!)^2 times the box integral of
    sigma_{k-r}^2 = sigma_{2(k-r)}, r = |alpha|."""
    norms = []
    for unit in net.units:
        omega, k = [Fraction(w) for w in unit.direction], unit.power
        by_order = [Fraction(0)] * (m + 1)
        for alpha in multi_indices(len(omega), m):
            by_order[sum(alpha)] += math.prod(w ** (2 * a) for w, a in zip(omega, alpha))
        norms.append(math.sqrt(sum(
            by_order[r] * math.perm(k, r) ** 2
            * exact_box_integral(omega, unit.bias, box, 2 * (k - r)) for r in range(m + 1))))
    return np.array(norms)


class TestHmUpperBound:
    OMEGA = [(0.0, 1.0), (0.0, 1.0)]

    def test_single_unit_bound_is_unit_norm(self):
        net = relu_network([(1.0, (0.6, 0.8), 0.5, 2)])
        hb = network_hm_upper(net, self.OMEGA, 1, 2.0)
        assert hb.bound == pytest.approx(hb.max_unit_norm)
        assert hb.ell1 == 1.0

    def test_outer_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        units = [
            (rng.standard_normal(), uniform_sphere(rng, 1, 2)[0],
             rng.uniform(-1, 1), 2)
            for _ in range(5)
        ]
        base = network_hm_upper(relu_network(units), self.OMEGA, 1, 2.0)
        scaled_units = [(3.0 * a, w, b, k) for a, w, b, k in units]
        scaled = network_hm_upper(relu_network(scaled_units), self.OMEGA, 1, 2.0)
        assert scaled.bound == pytest.approx(3.0 * base.bound, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_unit_norms_match_per_unit_reference(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        powers = rng.permutation(np.repeat([0, 1, 2] if m == 0 else [m + 1, m + 2, m + 3], 6))
        omegas = uniform_sphere(rng, len(powers), d) if d > 1 else rng.choice(
            [-1.0, 1.0], (len(powers), 1))
        if d > 1:
            omegas[0, 0], omegas[1, -1] = 1e-7, 0.0
            omegas[:2] /= np.linalg.norm(omegas[:2], axis=1, keepdims=True)
        units = [(rng.standard_normal(), omegas[i], rng.uniform(-2, 2), int(k))
                 for i, k in enumerate(powers)]
        box = [(0.0, 1.0)] * d
        hb = network_hm_upper(relu_network(units), box, m, 2.0)
        want = exact_unit_hm_norms(relu_network(units), box, m)
        norms = np.array(hb.unit_norms)
        assert np.all(norms >= want)
        # Less the stated 1e-12 margin, the norms are the exact ones.
        np.testing.assert_allclose(norms / (1.0 + 1e-12), want, rtol=1e-12, atol=0)
        assert hb.max_unit_norm == max(hb.unit_norms)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_unit_norms_equal_per_order_layouts(self, d, m):
        # The certificate lays out each unit's quadrature once for all orders.
        # Every order's rows stacked under one exponent row give the same
        # bits; one call per order lays out fewer nodes for the lower orders,
        # so it agrees to rounding.
        rng = np.random.default_rng(20 * d + m)
        omegas = uniform_sphere(rng, 12, d) if d > 1 else rng.choice([-1.0, 1.0], (12, 1))
        powers = rng.integers(m + 1 if m else 0, m + 4, 12)
        net = relu_network([(rng.standard_normal(), omegas[i], rng.uniform(-2, 2), int(k))
                            for i, k in enumerate(powers)])
        box = [(-0.5, 1.0)] * d
        norms = np.array(network_hm_upper(net, box, m, 2.0).unit_norms)
        lo, hi = np.array(box).T
        p = 2 * (net.powers - np.arange(m + 1)[:, None])
        weights = numerics.homogeneous_sums(net.directions ** 2, m) * np.array(
            [[math.perm(int(k), r) ** 2 for k in net.powers] for r in range(m + 1)])

        def unit_norms(integrals):
            return np.sqrt(np.sum(weights * integrals, axis=0)) * (1.0 + 1e-12)

        stacked = relu_nets._ridge_box_integrals(
            np.tile(net.directions, (m + 1, 1)), np.tile(net.biases, m + 1), lo, hi,
            p.reshape(1, -1)).reshape(p.shape)
        np.testing.assert_array_equal(norms, unit_norms(stacked))
        per_order = np.vstack([relu_nets._ridge_box_integrals(
            net.directions, net.biases, lo, hi, row[None]) for row in p])
        np.testing.assert_allclose(norms, unit_norms(per_order), rtol=1e-13, atol=0)

    def test_unit_norms_exact_on_uneven_box(self):
        rng = np.random.default_rng(11)
        omegas = uniform_sphere(rng, 24, 3)
        units = [(1.0, omegas[i], rng.uniform(-2, 2), int(k))
                 for i, k in enumerate(rng.integers(2, 5, 24))]
        box = [(-1.0, 2.0), (0.5, 1.0), (-0.25, 0.0)]
        norms = np.array(network_hm_upper(relu_network(units), box, 1, 2.0).unit_norms)
        want = exact_unit_hm_norms(relu_network(units), box, 1)
        assert np.all(norms >= want)
        np.testing.assert_allclose(norms / (1.0 + 1e-12), want, rtol=1e-12, atol=0)

    def test_bound_not_below_exact_norm_on_benchmark_law(self):
        # The unit law of test_width_independent_for_unit_ell1.  With the
        # former 48^2 tensor rule this seed put the bound 4e-16 and one unit
        # norm 1.6e-8 (relative) below the exact values.
        rng = np.random.default_rng(52)
        omegas = uniform_sphere(rng, 8, 2)
        biases = rng.uniform(0.0, 2.0, 8)
        raw = rng.uniform(0.2, 1.0, 8)
        net = relu_network([(raw[i] / raw.sum(), omegas[i], biases[i], 2) for i in range(8)])
        hb = network_hm_upper(net, self.OMEGA, 1, 2.0)
        want = exact_unit_hm_norms(net, self.OMEGA, 1)
        assert np.all(np.array(hb.unit_norms) >= want)
        assert hb.bound >= float(want.max()) * net.ell1
        assert hb.bound == hb.max_unit_norm * hb.ell1

    def test_box_must_match_network_dimension(self):
        net = relu_network([(1.0, (0.6, 0.8), 0.5, 2)])
        with pytest.raises(ValueError, match="box has 3 axes, expected 2"):
            network_hm_upper(net, [(0.0, 1.0)] * 3, 1, 2.0)
        with pytest.raises(ValueError, match="degenerate box on axis 1"):
            network_hm_upper(net, [(0.0, 1.0), (1.0, 1.0)], 1, 2.0)

    @pytest.mark.parametrize("bad_unit, match", [
        ((1.0, (0.6, 0.6), 5.0, 1), "unit 1 is not dictionary"),
        ((1.0, (0.6, 0.8), 5.0, 1), "unit 1 violates the bias cap: \\|5.0\\|"),
        ((1.0, (0.6, 0.8), 0.0, 1), "unit 1 has power 1; order m=1 needs power >= 2"),
    ])
    def test_errors_name_first_offending_unit(self, bad_unit, match):
        units = [(1.0, (1.0, 0.0), 0.0, 2), bad_unit, (1.0, (1.0, 1.0), 9.0, 0)]
        with pytest.raises(ValueError, match=match):
            network_hm_upper(relu_network(units), self.OMEGA, 1, 2.0)

    def test_bias_cap_violation_names_unit(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.0, 2), (1.0, (0.0, 1.0), 5.0, 2)])
        with pytest.raises(ValueError, match="unit 1"):
            network_hm_upper(net, self.OMEGA, 1, 2.0)

    def test_non_unit_direction_rejected(self):
        net = relu_network([(1.0, (1.0, 1.0), 0.0, 2)])
        with pytest.raises(ValueError, match="dictionary"):
            network_hm_upper(net, self.OMEGA, 1, 2.0)

    def test_order_needs_enough_power(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.0, 1)])
        with pytest.raises(ValueError, match="power"):
            network_hm_upper(net, self.OMEGA, 1, 2.0)

    def test_order_zero_allows_heaviside(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.1, 0)])
        hb = network_hm_upper(net, self.OMEGA, 0, 2.0)
        assert hb.bound > 0.0

    def test_width_independent_for_unit_ell1(self):
        # Fixed unit-parameter law: uniform directions, b ~ U[0, 2],
        # positive outer weights normalized to l1 mass 1.
        rng = np.random.default_rng(42)
        medians = {}
        for width in (8, 32, 128):
            bounds = []
            for _ in range(40):
                omegas = uniform_sphere(rng, width, 2)
                biases = rng.uniform(0.0, 2.0, width)
                raw = rng.uniform(0.2, 1.0, width)
                outer = raw / raw.sum()
                net = relu_network(
                    [(outer[i], omegas[i], biases[i], 2) for i in range(width)]
                )
                hb = network_hm_upper(net, self.OMEGA, 1, 2.0)
                bounds.append(hb.bound)
            medians[width] = float(np.median(bounds))
        assert max(medians.values()) / min(medians.values()) <= 1.5
