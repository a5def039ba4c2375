import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import relu_nets
from barronlab.numerics import QuadratureSpec, loglog_fit, multi_indices
from barronlab.relu_nets import (
    CellPolynomial,
    Cube,
    CubePartition,
    compile_sobolev_approximant,
    evaluate_network,
    evaluate_product_sum,
    indicator_bump,
    monomial_network_1d,
    monomial_product_expansion,
    network_from_json,
    network_hm_upper,
    network_to_json,
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

    def test_json_round_trip(self):
        net = relu_network(
            [(0.5 + 0.25j, (0.6, 0.8), -1.25, 2), (1e-7, (0.0, 1.0), 0.125, 3)]
        )
        back = network_from_json(network_to_json(net))
        assert back == net


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


class TestBiasChannel:
    def test_constant_unit_emits_value(self):
        from barronlab.relu_nets import ReluNetwork, bias_channel

        unit = bias_channel(2.5, 2, 3)
        net = ReluNetwork((unit,), 3)
        pts = np.random.default_rng(0).standard_normal((50, 2)) * 10
        vals = evaluate_network(net, pts)
        np.testing.assert_allclose(vals, 2.5, rtol=1e-14)


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


class TestProductExpansion:
    def test_bilinear_hand_value(self):
        expansion = monomial_product_expansion((1, 1), 2)
        assert len(expansion.terms) == 4
        val = evaluate_product_sum(expansion, np.array([-1.0, 2.0]))
        assert val == pytest.approx(-2.0)

    def test_mixed_degree_random_points(self):
        expansion = monomial_product_expansion((2, 0, 1), 4)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, (1000, 3))
        got = evaluate_product_sum(expansion, pts)
        want = pts[:, 0] ** 2 * pts[:, 2]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_exponent_skips_doubling(self):
        expansion = monomial_product_expansion((0, 3), 3)
        assert len(expansion.terms) == 2
        assert all(len(t.factors) == 1 for t in expansion.terms)

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
        assert fit.poly(np.array([0.5])) == 0.0

    def test_positive_polynomial_matches_ridge_power(self):
        theta = np.array([0.6, 0.8])
        fit = ridge_local_taylor(theta, 2.0, Cube((0.5, 0.5), 0.2), 3)
        rng = np.random.default_rng(3)
        pts = 0.5 + rng.uniform(-0.1, 0.1, (100, 2))
        want = (pts @ theta + 2.0) ** 3
        assert np.max(np.abs(fit.poly(pts) - want)) <= 1e-10

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
        assert approx.sup_error(f, probes_per_axis=41) <= 1e-10

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

    def test_l2_error_below_sup_error(self):
        f = lambda p: np.sin(2 * np.pi * np.asarray(p)[:, 0])
        approx = compile_sobolev_approximant(f, 2, CubePartition(1, 8))
        assert 0.0 < approx.l2_error(f) <= approx.sup_error(f)

    def test_underdetermined_grid_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            compile_sobolev_approximant(
                lambda p: p[:, 0], 3, CubePartition(1, 2), samples_per_axis=2
            )

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
        part = CubePartition(2, 3)
        grids = part.grids(4)
        for i, cell in enumerate(part.cells()):
            assert np.array_equal(grids[i], cell.grid(4))
        assert np.array_equal(part.centers(), [c.center for c in part.cells()])

    def test_call_uses_containing_cell_on_faces_and_upper_boundary(self):
        q = 4
        part = CubePartition(2, q)
        approx = compile_sobolev_approximant(smooth_target, 2, part)
        coeffs = per_cell_reference(smooth_target, 2, part)
        alphas = sorted(multi_indices(2, 2))
        faces = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.3])
        pts = np.stack(np.meshgrid(faces, faces, indexing="ij"), axis=-1).reshape(-1, 2)
        for p in pts:
            # Faces belong to the cell above them; x = 1 to the last cell.
            ij = np.minimum(np.floor(p * q).astype(int), q - 1)
            i = ij[0] * q + ij[1]
            poly = CellPolynomial(tuple((ij + 0.5) / q), 2.0 * q, dict(zip(alphas, coeffs[i])))
            assert approx(p) == pytest.approx(poly(p), abs=1e-12)
        # Neighbouring cells disagree on a face, so the test sees a wrong pick.
        left = CellPolynomial((0.125, 0.375), 8.0, dict(zip(alphas, coeffs[1])))
        assert abs(approx(np.array([0.25, 0.375])) - left(np.array([0.25, 0.375]))) > 1e-6

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

    def test_real_weights_give_real_values(self):
        net = relu_network([(2.0, (1.0, 0.0), 0.5, 2), (-1.0, (0.0, 1.0), 0.0, 0)])
        got = evaluate_network(net, np.array([[1.0, 1.0], [0.0, -1.0]]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [2.0 * 1.5**2 - 1.0, 2.0 * 0.25])


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
                hb = network_hm_upper(net, self.OMEGA, 1, 2.0,
                                      QuadratureSpec(resolution=32))
                bounds.append(hb.bound)
            medians[width] = float(np.median(bounds))
        assert max(medians.values()) / min(medians.values()) <= 1.5
