import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import barron, lower_bounds, relu_nets
from barronlab.numerics import (
    as_batch,
    count_text,
    grid_rows,
    homogeneous_sums,
    loglog_fit,
    multi_indices,
    ridge_block,
    sigma_k,
    sobolev_weight,
    tensor_nodes,
    unbatch,
)
from oracles import integrate

# Independent reference: composite trapezoid with 1e6 nodes on [-5, 5].
GAUSSIAN_TRAPEZOID_ORACLE = 1.7724538509027907


class TestIntegrate:
    """``tensor_nodes``, through the quadrature oracle of the exact norms."""

    def test_constant_field_unit_square(self):
        val = integrate(lambda p: np.ones(len(p)), [(0, 1), (0, 1)], 64)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_sin_squared(self):
        val = integrate(
            lambda p: np.sin(2 * np.pi * p[:, 0]) ** 2,
            [(0, 1)],
            64,
        )
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_matches_trapezoid_oracle(self):
        val = integrate(
            lambda p: np.exp(-p[:, 0] ** 2),
            [(-5, 5)],
            64,
        )
        assert val == pytest.approx(GAUSSIAN_TRAPEZOID_ORACLE, abs=1e-6)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    @pytest.mark.parametrize("resolution", [3, 5, 8])
    def test_gauss_legendre_polynomial_exactness(self, resolution):
        deg = 2 * resolution - 1
        val = integrate(
            lambda p: p[:, 0] ** deg + p[:, 1] ** deg,
            [(0, 1), (0, 1)],
            resolution,
        )
        assert val == pytest.approx(2.0 / (deg + 1), abs=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate box on axis 1"):
            tensor_nodes([(0, 1), (1, 1)], 8)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="resolution must be >= 2, got 0"):
            tensor_nodes([(0, 1), (0, 1)], 0)


@pytest.mark.parametrize("call", [
    lambda: tensor_nodes([(0, 1)], 1),
    lambda: barron.mollified_cutoff(np.array([0.0]), 5.0, 0.75, 1),
], ids=["tensor_nodes", "mollified_cutoff"])
def test_every_resolution_entry_point_refuses_one_node(call):
    with pytest.raises(ValueError, match="resolution must be >= 2, got 1"):
        call()


def brute_force_sums(y: np.ndarray, m: int) -> np.ndarray:
    """h_0..h_m by the multi-index loop sobolev_weight once ran: one pass
    and one power per factor for each of the C(m + d, d) exponent tuples."""
    rows = np.zeros((m + 1, len(y)))
    for alpha in multi_indices(y.shape[1], m):
        term = np.ones(len(y))
        for j, aj in enumerate(alpha):
            if aj:
                term = term * y[:, j] ** aj
        rows[sum(alpha)] += term
    return rows


class TestHomogeneousSums:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_multi_index_loop(self, d):
        rng = np.random.default_rng(d)
        axis = np.zeros((3 * d + 1, d))  # the origin and three points on each axis
        for j in range(d):
            axis[3 * j + 1:3 * j + 4, j] = [-2.5, 0.3, 7.0]
        for eta in (rng.standard_normal((64, d)) * 3.0, axis):
            y = (2.0 * np.pi * eta) ** 2
            for m in range(5):
                want = brute_force_sums(y, m)
                np.testing.assert_allclose(homogeneous_sums(y, m), want, rtol=1e-13, atol=0)
                np.testing.assert_allclose(sobolev_weight(eta, m), want.sum(axis=0),
                                           rtol=1e-13, atol=0)


class TestSobolevWeight:
    def test_order_zero_is_one(self):
        assert sobolev_weight([3.7, -1.2], 0) == 1.0
        assert sobolev_weight([0.0], 0) == 1.0

    def test_hand_expansion_d1_m1(self):
        # alpha in {0, 1}: 1 + (2 pi)^2
        assert sobolev_weight([1.0], 1) == pytest.approx(1 + 4 * math.pi**2, rel=1e-15)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        etas = rng.standard_normal((50, 3)) * 5
        assert np.all(sobolev_weight(etas, 2) >= 1.0)

    def test_comparison_with_power_weight(self):
        # Constants frozen from a one-time sweep over directions and radii.
        c_low, c_high = 0.9, 1600.0
        radii = np.logspace(-2, 3, 41)
        rng = np.random.default_rng(0)
        for _ in range(8):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            for r in radii:
                ratio = sobolev_weight(r * v, 2) / (1 + r) ** 4
                assert c_low <= ratio <= c_high

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sobolev_weight([1.0], -1)

    def test_multi_indices_count(self):
        # |{alpha : |alpha| <= m}| = C(m + d, d)
        assert len(list(multi_indices(3, 2))) == math.comb(5, 3)


class TestLogLogFit:
    def test_exact_power_law(self):
        fit = loglog_fit([(1, 1.0), (10, 0.1), (100, 0.01)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([(10, 0.5)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            loglog_fit([(1, 1.0), (2, 0.0)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_nonfinite_error_refused_naming_n_and_value(self, bad):
        # An infinite error gave slope NaN with r^2 1.0.
        with pytest.raises(ValueError, match=f"got {bad} at n=4"):
            loglog_fit([(2, 1.0), (4, bad), (8, 0.5)])

    def test_synthetic_three_quarters(self):
        samples = [(n, 3.0 * n**-0.75) for n in range(2, 257)]
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(-0.75, abs=1e-9)

    def test_duplicate_n_refused(self):
        # Repeated n were averaged in log space before the fit.
        with pytest.raises(ValueError, match="n=8 appears twice"):
            loglog_fit([(2, 1.0), (8, 2.0), (8, 8.0)])

    @given(
        slope=st.floats(-3.0, -0.1),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_generated_exponent(self, slope, scale):
        samples = [(n, scale * n**slope) for n in (2, 4, 8, 16, 32, 64)]
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(slope, abs=1e-9)


class TestPointOrBatch:
    def test_one_scalar_or_point_becomes_a_batch_of_one(self):
        batch, single = as_batch(3, ndim=0)
        assert single and batch.shape == (1,) and batch.dtype == float
        batch, single = as_batch([1, 2])
        assert single and batch.shape == (1, 2) and batch.dtype == float
        batch, single = as_batch([[1.0, 2.0], [3.0, 4.0]], d=2)
        assert not single and batch.shape == (2, 2)

    def test_wrong_dimension_named(self):
        with pytest.raises(ValueError, match="points have dimension 3, expected 2"):
            as_batch([1.0, 2.0, 3.0], d=2)

    def test_unbatch_gives_a_python_number_for_one_item(self):
        values = np.array([1.5, 2.5])
        assert type(unbatch(values, True)) is float
        assert unbatch(values, False) is values


# Every evaluator that takes one point or a batch, as (name, point dimension
# or None for any, one-item argument, evaluator); d = 2 where it is fixed.
_CELL = relu_nets.Cube((0.5, 0.5), 1.0)
_APPROX = relu_nets.compile_sobolev_approximant(
    lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2, 1, relu_nets.CubePartition(2, 2),
    smoothing=8.0)
_PACKING = lower_bounds.build_packing("fourier", 2, 1.0, 16)
_NETWORK = relu_nets.relu_network([(1.0, (0.6, 0.8), 0.1, 2), (-0.5, (1.0, 0.0), -0.2, 2)])
_PRODUCT = relu_nets.monomial_product_expansion((1, 1), 2)
_FOURIER = barron.fourier_sum(2, 1.0, (0.0, 0.0), {(1, 0): 1.0, (0, 2): 0.5j})
EVALUATORS = [
    ("sigma_k", None, 0.3, lambda t: relu_nets.sigma_k(t, 2)),
    ("bump_value", None, 0.3, barron.bump_value),
    ("sobolev_weight", None, [0.5, 1.0, 0.25], lambda eta: sobolev_weight(eta, 2)),
    ("WeightSpec", None, [0.5, 1.0, 0.25], barron.WeightSpec.polynomial(1.5)),
    ("mollified_cutoff", None, [0.5, 1.0, 0.25],
     lambda x: barron.mollified_cutoff(x, 2.0, 0.25)),
    ("evaluate_sum", 2, [0.3, 0.6], lambda x: barron.evaluate_sum(_FOURIER, x)),
    ("evaluate_network", 2, [0.3, 0.6], lambda x: relu_nets.evaluate_network(_NETWORK, x)),
    ("evaluate_product_sum", 2, [0.3, 0.6],
     lambda x: relu_nets.evaluate_product_sum(_PRODUCT, x)),
    ("IndicatorBump", 2, [0.3, 0.6], relu_nets.indicator_bump(_CELL, 4.0)),
    ("SobolevApproximant", 2, [0.3, 0.6], _APPROX),
    ("SobolevApproximant.smoothed", 2, [0.3, 0.6], _APPROX.smoothed),
    ("cell_index", 2, [0.3, 0.6], _APPROX.partition.cell_index),
    ("PackingFamily.evaluate", 2, [0.3, 0.6], lambda x: _PACKING.evaluate(1, x)),
]
FIXED_DIMENSION = [e for e in EVALUATORS if e[1] is not None]


@pytest.mark.parametrize("name, d, item, evaluate", FIXED_DIMENSION,
                         ids=[e[0] for e in FIXED_DIMENSION])
@pytest.mark.parametrize("extra", [-1, 1])
def test_batch_of_wrong_dimension_refused(name, d, item, evaluate, extra):
    # IndicatorBump broadcast a (3, 1) batch against its centre and returned
    # numbers; the approximant, cell_index and the packing family raised NumPy
    # errors that named no dimension.
    with pytest.raises(ValueError, match=f"points have dimension {d + extra}, expected {d}"):
        evaluate(np.full((3, d + extra), 0.25))


@pytest.mark.parametrize("name, d, item, evaluate", EVALUATORS, ids=[e[0] for e in EVALUATORS])
def test_one_item_gives_a_python_number(name, d, item, evaluate):
    # PackingFamily.evaluate returned numpy.complex128 and cell_index an array.
    value, batch = evaluate(item), evaluate(np.array([item]))
    assert type(value) is type(batch[0].item())
    assert value == batch[0]


class TestCountText:
    @pytest.mark.parametrize("n, want", [
        (0, "0"), (999_999, "999999"), (10**6, "1000000"), (10**6 + 1, "1e+06"),
        (4_194_305, "4.19e+06"), (8_398_404, "8.4e+06"), (2 * 10**300 + 1, "2e+300"),
        (2 * int(1e308) + 1, "2e+308"), (125 * 10**120, "1.25e+122"),
        (123_456 * 10**400, "1.23e+405"), (10**1000, "1e+1000"),
    ])
    def test_full_to_a_million_then_three_digits(self, n, want):
        assert count_text(n) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10**6 + 1, 10**307))
    def test_float_range_matches_format_3g(self, n):
        assert count_text(n) == f"{float(n):.3g}"


class TestGridRows:
    @pytest.mark.parametrize("axis", [np.arange(-3, 4), np.linspace(0.0, 1.0, 5),
                                      np.array([2.5])])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_meshgrid_rows_and_keeps_the_dtype(self, axis, d):
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        want = np.stack([g.ravel() for g in mesh], axis=-1)
        got = grid_rows(axis, d)
        assert got.dtype == axis.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# Signed zeros, NaN, ties and values either side of the kink.
SPECIAL_T = np.array([[-0.0, 0.0, np.nan, 1.5, 1.5, -1.5, -1.5, 1e-300],
                      [-np.inf, np.inf, 2.0, 2.0, -0.0, 0.0, np.nan, -1e-300]])


def lifted_operands(rng, rows, d, units):
    """[x | 1] rows with NaN, and [Omega^T; b] with exact zeros t = x . omega + b."""
    lifted = np.hstack([rng.standard_normal((rows, d)), np.ones((rows, 1))])
    lifted[0, 0], lifted[1, :d] = np.nan, 1.0
    ridge = rng.standard_normal((d + 1, units))
    ridge[:d, 0], ridge[d, 0] = 1.0, -float(d)  # row 1 lands exactly on the kink
    return lifted, ridge


class TestRidgeBlock:
    """``ridge_block``, the one kernel that lays out ridge atoms."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_sigma_k_bitwise_equal_to_its_rule(self, k):
        want = (SPECIAL_T > 0).astype(float) if k == 0 else np.maximum(SPECIAL_T, 0.0) ** k
        assert sigma_k(SPECIAL_T, k).tobytes() == want.tobytes()
        out = np.full(SPECIAL_T.shape, 7.0)
        assert sigma_k(SPECIAL_T, k, out=out) is out
        assert out.tobytes() == want.tobytes()
        t = SPECIAL_T.copy()
        sigma_k(t, k, out=t)  # in place, as the kernel calls it
        assert t.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_sigma_k_path_bitwise_equal_to_matmul_then_rule(self, k):
        lifted, ridge = lifted_operands(np.random.default_rng(k), 40, 3, 9)
        t = np.matmul(lifted, ridge)
        assert t[1, 0] == 0.0 and np.isnan(t[0]).all()
        want = (t > 0).astype(float) if k == 0 else np.maximum(t, 0.0) ** k
        out = np.empty(t.shape)
        assert ridge_block(lifted, ridge, out, k=k) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 800.0])
    def test_exponential_path_bitwise_equal_to_its_rule(self, alpha):
        lifted, ridge = lifted_operands(np.random.default_rng(11), 40, 1, 9)
        t = np.matmul(lifted, ridge)
        out = ridge_block(lifted, ridge, np.empty(t.shape), alpha=alpha)
        assert out.tobytes() == np.exp(np.abs(t) * -alpha).tobytes()

    @pytest.mark.parametrize("k, alpha", [(None, 1.0), (0, None), (2, None)])
    def test_stacked_and_strided_blocks_match_separate_calls(self, k, alpha):
        # The gap probe's layout: C stacked (2, n) ridges over one [nodes | 1],
        # written through a swapped view of a (C, n, rows) scratch.
        rng = np.random.default_rng(3)
        nodes = np.linspace(-1.0, 1.0, 256)
        lifted = np.stack([nodes, np.ones(256)], axis=1)
        ridge = np.swapaxes(rng.standard_normal((5, 8, 2)) * (4.0, 2.0), 1, 2)
        separate = np.stack([ridge_block(lifted, r, np.empty((256, 8)), k=k, alpha=alpha)
                             for r in ridge])
        stacked = ridge_block(lifted, ridge, np.empty((5, 256, 8)), k=k, alpha=alpha)
        scratch = np.full((5, 10, 256), 7.0)
        ridge_block(lifted, ridge, np.swapaxes(scratch[:, :8], 1, 2), k=k, alpha=alpha)
        assert stacked.tobytes() == separate.tobytes()
        assert np.swapaxes(scratch[:, :8], 1, 2).copy().tobytes() == stacked.tobytes()
        assert (scratch[:, 8:] == 7.0).all()  # columns past the atoms are left alone

    @pytest.mark.parametrize("call", [
        lambda: lower_bounds.highfreq_gap(1.0, 16.0, 8, 100, seed=0),
        lambda: relu_nets.evaluate_network(relu_nets.relu_network(
            [(1.0, (0.6, 0.8), 0.1, 2)]), np.ones((5, 2))),
    ], ids=["highfreq_gap", "evaluate_network"])
    def test_both_atom_layouts_go_through_the_kernel(self, monkeypatch, call):
        seen = []

        def counting(*args, **kwargs):
            seen.append(kwargs)
            return ridge_block(*args, **kwargs)

        monkeypatch.setattr(lower_bounds, "ridge_block", counting)
        monkeypatch.setattr(relu_nets, "ridge_block", counting)
        call()
        assert seen
