import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barronlab import barron, lower_bounds, relu_nets
from barronlab.numerics import (
    IntegrationError,
    as_batch,
    grid_rows,
    homogeneous_sums,
    integrate,
    loglog_fit,
    multi_indices,
    parallel_map,
    shares,
    sobolev_weight,
    unbatch,
)

# Independent reference: composite trapezoid with 1e6 nodes on [-5, 5].
GAUSSIAN_TRAPEZOID_ORACLE = 1.7724538509027907


class TestIntegrate:
    def test_constant_field_unit_square(self):
        val = integrate(lambda p: np.ones(len(p)), [(0, 1), (0, 1)])
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

    def test_complex_integrand_componentwise(self):
        val = integrate(
            lambda p: np.exp(2j * np.pi * p[:, 0]),
            [(0, 1)],
            32,
        )
        assert isinstance(val, complex)
        assert abs(val) < 1e-12

    def test_non_finite_value_names_node(self):
        def f(p):
            out = np.ones(len(p))
            out[p[:, 0] > 0.5] = np.nan
            return out

        with pytest.raises(IntegrationError, match="node"):
            integrate(f, [(0, 1)], 8)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            integrate(lambda p: np.ones(len(p)), [(1, 1)])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            integrate(lambda p: np.ones(len(p)), [(0, 1)], 1)

    def test_more_than_three_axes_refused(self):
        with pytest.raises(ValueError, match="at most 3 axes, got 4"):
            integrate(lambda p: np.ones(len(p)), [(0, 1)] * 4)


def _unit_field(p):
    return np.ones(len(p))


@pytest.mark.parametrize("call", [
    lambda: integrate(_unit_field, [(0, 1)], 1),
    lambda: barron.mollified_cutoff(np.array([0.0]), 5.0, 0.75, 1),
], ids=["integrate", "mollified_cutoff"])
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
_NETWORK = relu_nets.relu_network([(1.0, (0.6, 0.8), 0.1, 2), (-0.5, (1.0, 0.0), -0.2, 1)])
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


def run_with_timeout(fn, seconds=60.0):
    """fn() on a daemon thread; fails instead of hanging if it does not end."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "call did not complete"
    return result[0]


class TestParallelMap:
    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
    def test_results_in_item_order(self, set_cores, cores, n):
        set_cores(cores)
        assert parallel_map(lambda i: i * i, range(n)) == [i * i for i in range(n)]

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
    def test_shares_are_contiguous_and_balanced(self, set_cores, cores, n):
        set_cores(cores)
        parts = shares(list(range(n)))
        assert len(parts) == min(cores, n)
        assert [i for part in parts for i in part] == list(range(n))
        sizes = [len(part) for part in parts]
        assert sizes == sorted(sizes, reverse=True)
        assert not sizes or sizes[0] - sizes[-1] <= 1

    def test_shares_run_at_the_same_time(self, set_cores):
        # Each of the two shares waits for the other: run one after the
        # other, the barrier would time out.
        set_cores(2)
        barrier = threading.Barrier(2, timeout=30)

        def meet(i):
            barrier.wait()
            return i

        assert parallel_map(meet, [0, 1]) == [0, 1]

    def test_nested_call_completes(self, set_cores):
        set_cores(2)

        def outer(i):
            return sum(parallel_map(lambda j: i * j, range(4)))

        got = run_with_timeout(lambda: parallel_map(outer, range(6)))
        assert got == [6 * i for i in range(6)]

    @pytest.mark.parametrize("bad", [0, 5])  # in the caller's share, in the pool's
    def test_exception_in_a_share_reaches_the_caller(self, set_cores, bad):
        set_cores(2)

        def fn(i):
            if i == bad:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            parallel_map(fn, range(6))
        assert parallel_map(lambda i: i, range(6)) == list(range(6))  # pool still works
