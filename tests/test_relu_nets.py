import itertools
import math
import sys
import threading
import tracemalloc
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
    ReluNetwork,
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
from oracles import unit_sum


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
        got = evaluate_network(net, np.ones((4, 3)))
        assert got.dtype == np.float64 and got.tolist() == [0.0] * 4
        assert evaluate_network(net, np.ones(3)) == 0.0

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
                    rng.standard_normal(), 2) for _ in range(3)]
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

    def test_empty_batch(self):
        # The batch's box is its min and max, which raise on 0 rows.
        got = evaluate_network(split_network(np.random.default_rng(0), 3, 2), np.empty((0, 3)))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_single_point_is_a_python_float(self):
        # One point is a box of no width: every unit keeps one sign on it.
        net = split_network(np.random.default_rng(1), 2, 1)
        point = np.array([0.25, 0.75])
        got = evaluate_network(net, point)
        assert type(got) is float
        assert got == pytest.approx(unit_sum(net, point[None])[0], rel=1e-13, abs=1e-13)


def split_network(rng, d, k, third=300):
    """Unit directions and normal outer weights in three thirds on [0, 1]^d:
    biases in [2, 3] keep t > 0 there, biases in [-3, -2] keep t < 0, and the
    last third's hyperplanes pass within 0.1 of the centre, so they straddle."""
    omega = uniform_sphere(rng, 3 * third, d)
    straddle = rng.uniform(-0.1, 0.1, third) - omega[2 * third:] @ np.full(d, 0.5)
    biases = np.concatenate([rng.uniform(2.0, 3.0, third), rng.uniform(-3.0, -2.0, third),
                             straddle])
    return ReluNetwork(*numerics.read_only(rng.standard_normal(3 * third), omega, biases), k)


def unit_cube_points(rng, n, d):
    """n uniform points of [0, 1]^d and two opposite corners, so the batch's box is the cube."""
    return np.vstack([rng.random((n, d)), np.zeros(d), np.ones(d)])


@pytest.fixture
def ridge_calls(monkeypatch):
    """The ``ridge`` operand of each ``ridge_block`` call that relu_nets makes."""
    seen = []

    def spy(lifted, ridge, out, **kwargs):
        seen.append(ridge.copy())
        return numerics.ridge_block(lifted, ridge, out, **kwargs)

    monkeypatch.setattr(relu_nets, "ridge_block", spy)
    return seen


@pytest.fixture
def tile_calls(monkeypatch):
    """(points, ridge) of each ``ridge_block`` call that relu_nets makes."""
    seen = []

    def spy(lifted, ridge, out, **kwargs):
        seen.append((lifted[:, :-1].copy(), ridge.copy()))
        return numerics.ridge_block(lifted, ridge, out, **kwargs)

    monkeypatch.setattr(relu_nets, "ridge_block", spy)
    return seen


def tile_boxes(pts):
    """Each point's tile and each tile's own bounding box, by the rule that
    ``evaluate_network`` states: g parts per axis of the batch's box, the most
    that leave ``_TILE_POINTS`` points a tile."""
    n, d = pts.shape
    g = max(1, int((n / relu_nets._TILE_POINTS) ** (1 / d) + 1e-9))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    tile = np.ravel_multi_index(np.minimum(((pts - lo) * (g / (hi - lo))).astype(int), g - 1).T,
                                (g,) * d)
    return tile, {t: (pts[tile == t].min(axis=0), pts[tile == t].max(axis=0))
                  for t in np.unique(tile).tolist()}


def straddling(net, box):
    """The units whose t = omega . x + b takes both signs on the box (lo, hi)."""
    lo, hi = box
    mid = net.directions @ (0.5 * (lo + hi)) + net.biases
    spread = np.abs(net.directions) @ (0.5 * (hi - lo))
    return (mid - spread <= 0) & (mid + spread > 0)


class TestEvaluateSplit:
    """Units that keep one sign on a tile's box: dropped below it, one degree-k
    form above it, atoms only for the units that straddle it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_the_unit_loop(self, ridge_calls, d, k):
        rng = np.random.default_rng(10 * d + k)
        net = split_network(rng, d, k)
        pts = unit_cube_points(rng, 2000, d)
        want = unit_sum(net, pts)
        got = evaluate_network(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # (d + 1)^k (300 + n) < 300 n up to 4^4 = 256 on every tile (one of 2002
        # points in d = 3, 4 of about 500 in d = 1 and 2): the atoms are units of
        # the straddling third only, and all of it on the one tile.
        third = np.vstack([net.directions[600:].T, net.biases[600:]])
        assert ridge_calls
        for ridge in ridge_calls:
            assert (ridge[:, :, None] == third[:, None, :]).all(axis=0).any(axis=1).all()
        if d == 3:
            assert {ridge.shape[1] for ridge in ridge_calls} == {300}

    @pytest.mark.parametrize("d, k", [(1, 4), (2, 3), (3, 2)])
    def test_box_far_from_the_origin(self, d, k):
        # On [1000, 1001]^d the raw [x | 1] has entries near 1000 while t stays
        # within 4 of 0: a form about the origin would lose about 3k digits.
        # The unit loop rounds t to 1e-13 of itself there, hence 1e-12.
        rng = np.random.default_rng(d)
        net = split_network(rng, d, k)
        shift = np.full(d, 1000.0)
        net = ReluNetwork(net.outer, net.directions, net.biases - net.directions @ shift, k)
        pts = unit_cube_points(rng, 2000, d) + shift
        want = unit_sum(net, pts)
        got = evaluate_network(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d, k", [(1, 0), (2, 2), (3, 1)])
    def test_atoms_only_for_the_straddling_units(self, tile_calls, d, k):
        # Each ridge_block call sees exactly the units that straddle its tile's
        # own box, in unit order: 4000 points make 8, 2 and 2 tiles per axis.
        rng = np.random.default_rng(d + k)
        net = split_network(rng, d, k)
        pts = unit_cube_points(rng, 4000, d)
        got = evaluate_network(net, pts)
        want = unit_sum(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        tile, boxes = tile_boxes(pts)
        full = np.vstack([net.directions.T, net.biases])
        seen = set()
        for rows, ridge in tile_calls:
            owner = tile[np.flatnonzero((pts == rows[0]).all(axis=1))[0]]
            assert ridge.tobytes() == full[:, straddling(net, boxes[owner])].tobytes()
            seen.add(owner)
        assert len(boxes) == {1: 8, 2: 4, 3: 8}[d]
        assert len(seen) > 1 and seen == {t for t, box in boxes.items()
                                          if straddling(net, box).any()}

    @pytest.mark.parametrize("extra", [0, 1])
    def test_form_only_above_its_entry_count(self, ridge_calls, extra):
        # Dyadic weights and points make every sum exact.  On 300 points,
        # 9 (9 + 300) >= 9 * 300 keeps (d + 1)^k = 9 positive units as atoms;
        # with one more unit 9 (10 + 300) < 10 * 300, so they collapse and no
        # atom is built.
        d, k = 2, 2
        rng = np.random.default_rng(extra)
        width = (d + 1) ** k + extra
        omega = rng.integers(-4, 5, (width, d)) / 8
        biases = 2.0 + rng.integers(0, 8, width) / 8  # t >= 1 on [0, 1]^2
        outer = rng.integers(-8, 9, width) / 4
        pts = rng.integers(0, 9, (300, d)) / 8
        net = relu_network([(outer[i], omega[i], biases[i], k) for i in range(width)])
        got = evaluate_network(net, pts)
        want = sigma_k(pts @ omega.T + biases, k) @ outer
        if extra:
            assert not ridge_calls
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        else:
            assert {ridge.shape[1] for ridge in ridge_calls} == {width}
            assert got.tobytes() == want.tobytes()

    def test_heaviside_touching_a_face_is_not_collapsed(self, ridge_calls):
        # x_1 = 1/4 and x_1 = 1 bound the box, so the face units have t = 0 on
        # a face, where sigma_0 is 0; the three far units do collapse.
        face = [(1.0, (1.0, 0.0), -0.25, 0), (2.0, (1.0, 0.0), -0.25, 0),
                (4.0, (-1.0, 0.0), 1.0, 0)]
        far = [(8.0, (0.0, 1.0), 2.0, 0), (16.0, (1.0, 1.0), 3.0, 0),
               (32.0, (0.0, -1.0), 4.0, 0)]
        net = relu_network(face + far)
        pts = np.array([[0.25, 0.5], [0.5, 0.0], [1.0, 1.0], [0.75, 0.25]])
        got = evaluate_network(net, pts)
        np.testing.assert_array_equal(got, [60.0, 63.0, 59.0, 63.0])
        np.testing.assert_array_equal(got, unit_sum(net, pts))
        assert [ridge.shape[1] for ridge in ridge_calls] == [3]

    def test_form_memory_within_the_block_budget(self, ridge_calls):
        # 4^4 (5000 + 1000) < 5000 * 1000 on each of 8 tiles of 1000 points, so
        # the 5000 positive units collapse.  Their products at once would take
        # 10 MB, and the form's first step on every point at once 4 MB.
        rng = np.random.default_rng(9)
        width, d, k = 5000, 3, 4
        net = ReluNetwork(*numerics.read_only(rng.standard_normal(width),
                                              uniform_sphere(rng, width, d),
                                              rng.uniform(2.0, 3.0, width)), k)
        pts = unit_cube_points(rng, 8000, d)
        tracemalloc.start()
        try:
            got = evaluate_network(net, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ridge_calls
        assert peak < 3 * 8 * relu_nets._EVAL_BLOCK
        want = unit_sum(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 16])
    def test_small_batches_keep_the_atoms(self, ridge_calls, n):
        # 16 (2000 + n) >= 2000 n up to n = 16: building the form would cost more than the
        # atoms it saves, so every positive unit gets its atom.
        rng = np.random.default_rng(n)
        net = ReluNetwork(*numerics.read_only(rng.standard_normal(2000),
                                              uniform_sphere(rng, 2000, 3),
                                              rng.uniform(2.0, 3.0, 2000)), 2)
        evaluate_network(net, rng.random((n, 3)))
        assert {ridge.shape[1] for ridge in ridge_calls} == {2000}


def random_network(rng, width, d, k):
    """Normal outer weights and directions and biases from U[-1, 1]."""
    return ReluNetwork(*numerics.read_only(rng.standard_normal(width),
                                           rng.standard_normal((width, d)),
                                           rng.uniform(-1.0, 1.0, width)), k)


def unit_law_network(rng, width, d, k, biases):
    """Uniform directions, normal outer weights and biases from U[lo, hi]."""
    return ReluNetwork(*numerics.read_only(rng.standard_normal(width),
                                           uniform_sphere(rng, width, d),
                                           rng.uniform(*biases, width)), k)


class TestEvaluateTiles:
    """Tiles of the batch's box, each with its own dropped, collapsed and
    straddling units, against the dense unit sum."""

    @pytest.mark.parametrize("biases", [(0.0, 2.0), (-1.0, 1.0)], ids=["b02", "b11"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_the_dense_reference(self, k, d, biases):
        # Random points, 200 of them twice, 200 on tile faces and the two
        # corners of [0, 1]^d: 4402 points make 9, 3 and 2 tiles per axis.
        # Some units' hyperplanes run through a tile face or a tile corner.
        rng = np.random.default_rng(100 * k + 10 * d + (biases[0] < 0))
        g = {1: 9, 2: 3, 3: 2}[d]
        face = rng.random((200, d))
        face[:, 0] = rng.integers(0, g + 1, 200) / g
        pts = np.vstack([rng.random((4000, d)), np.zeros(d), np.ones(d), face])
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), 200)]])
        assert len(tile_boxes(pts)[1]) == g ** d
        net = unit_law_network(rng, 600, d, k, biases)
        corner = np.full(d, 1 / g)
        through = [(1.0, np.eye(d)[0], -1 / g, k), (-2.0, np.ones(d), -corner.sum(), k)]
        net = relu_network(list(zip(net.outer, net.directions, net.biases, [k] * 600))
                           + through)
        want = unit_sum(net, pts)
        got = evaluate_network(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_heaviside_step_on_tile_faces_and_corners(self, ridge_calls):
        # 2000 points make 2 x 2 tiles of [0, 1]^2, split at x_j = 1/2.  Units
        # through the face x_1 = 1/2 and the corner (1/2, 1/2) get t = 0 there,
        # where sigma_0 is 0; dyadic points and weights make every sum exact.
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 65, (2000, 2)) / 64
        pts[:300, 0] = 0.5
        pts[300:310] = 0.5
        pts[-2:] = [[0.0, 0.0], [1.0, 1.0]]
        assert len(tile_boxes(pts)[1]) == 4
        on_lines = [(1.0, (1.0, 0.0), -0.5, 0), (2.0, (1.0, 1.0), -1.0, 0),
                    (4.0, (-1.0, 0.0), 0.5, 0)]
        positive = [(float(2 ** -j), (0.0, 1.0), 1.5 + j / 64, 0) for j in range(20)]
        negative = [(8.0, (1.0, 1.0), -2.5, 0)]
        net = relu_network(on_lines + positive + negative)
        got = evaluate_network(net, pts)
        np.testing.assert_array_equal(got, unit_sum(net, pts))
        assert got[300] == sum(a for a, *_ in positive)  # t = 0 for all three at the corner
        assert ridge_calls and all(ridge.shape[1] <= 3 for ridge in ridge_calls)

    def test_one_tile_keeps_the_box_rule(self, monkeypatch, tile_calls):
        # With one tile per call (g = 1, as below 2^d _TILE_POINTS points), the
        # atoms are the units that straddle the whole batch's box, as before tiles.
        monkeypatch.setattr(relu_nets, "_TILE_POINTS", 10**9)
        rng = np.random.default_rng(6)
        net = split_network(rng, 2, 2)
        pts = unit_cube_points(rng, 4000, 2)
        evaluate_network(net, pts)
        whole = straddling(net, (pts.min(axis=0), pts.max(axis=0)))
        full = np.vstack([net.directions.T, net.biases])
        assert tile_calls and all(ridge.tobytes() == full[:, whole].tobytes()
                                  for _, ridge in tile_calls)

    @pytest.mark.parametrize("d, k, n", [(1, 2, 30_000), (3, 3, 8000)])
    def test_tiles_memory_within_the_block_budget(self, d, k, n):
        # b in [-1, 1]: on each tile some units drop, some collapse and some
        # straddle.  At once, the 66 tiles of d = 1 would classify 330,000
        # unit signs per array, and the atoms of one of the 8 tiles of d = 3
        # (up to 1803 straddling units on 1034 points) would take 15 MB.
        rng = np.random.default_rng(d)
        net = unit_law_network(rng, 5000, d, k, (-1.0, 1.0))
        pts = unit_cube_points(rng, n, d)
        tracemalloc.start()
        try:
            got = evaluate_network(net, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * relu_nets._EVAL_BLOCK
        want = unit_sum(net, pts)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))



# (width, d, power, points): many row blocks and N not a multiple of the
# block; the Heaviside k = 0; a small batch; a single point; a width above the
# block, so one row per block.
WORKER_CASES = [(1000, 3, 2, 5003), (601, 2, 0, 1001), (2000, 3, 2, 50), (5, 1, 3, 1),
                (140_000, 2, 1, 7)]


class TestEvaluateWorkers:
    """``evaluate_network`` runs on the calling thread and keeps no state
    between calls: a second call gives the same bits, also from many callers'
    threads at once."""

    @pytest.mark.parametrize("width, d, k, n", WORKER_CASES)
    def test_bitwise_equal_for_any_worker_count(self, width, d, k, n):
        rng = np.random.default_rng(width + n)
        net = random_network(rng, width, d, k)
        pts = rng.standard_normal((n, d))
        want = evaluate_network(net, pts)
        assert want.dtype == np.float64
        dense = unit_sum(net, pts)
        assert np.max(np.abs(want - dense)) <= 1e-13 * max(np.max(np.abs(dense)), 1e-300)
        got = evaluate_network(net, pts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width, d, k, n", [(2000, 3, 2, 5003), (601, 2, 0, 1001),
                                                (300, 1, 3, 50)])
    def test_collapsed_units_bitwise_equal_for_any_worker_count(self, ridge_calls,
                                                                 width, d, k, n):
        # b in [1, 2] on [0, 1]^d: many units collapse into the form, the rest straddle.
        rng = np.random.default_rng(width + n)
        net = unit_law_network(rng, width, d, k, (1.0, 2.0))
        pts = rng.random((n, d))
        want = evaluate_network(net, pts)
        assert all(ridge.shape[1] < width - (d + 1) ** k for ridge in ridge_calls)
        dense = unit_sum(net, pts)
        assert np.max(np.abs(want - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert evaluate_network(net, pts).tobytes() == want.tobytes()

    def test_heaviside_is_zero_on_the_ridge_hyperplanes(self):
        # Each product in [x | 1] @ [Omega^T; b] is exact here, so points on
        # omega . x + b = 0 get t = 0 and sigma_0(0) = 0, over many tiles.
        net = relu_network([(1.0, (1.0, 0.0), -0.5, 0), (2.0, (0.0, 1.0), -0.25, 0),
                            (4.0, (1.0, 1.0), -1.0, 0)])
        pts = np.tile([[0.5, 0.25], [0.5, 0.5], [0.75, 0.25], [0.5, 0.0], [0.75, 0.5]],
                      (20_000, 1))
        want = np.tile([0.0, 2.0, 1.0, 0.0, 7.0], 20_000)
        np.testing.assert_array_equal(evaluate_network(net, pts), want)

    def test_stress_more_threads_than_cores(self):
        # Eight callers' threads and a short switch interval: calls that shared
        # a buffer or any other state would change the bytes.
        rng = np.random.default_rng(5)
        net = random_network(rng, 400, 2, 2)
        pts = rng.standard_normal((20_000, 2))
        want = evaluate_network(net, pts)
        results = [[] for _ in range(8)]

        def call(out):
            for _ in range(3):
                out.append(evaluate_network(net, pts).tobytes())

        threads = [threading.Thread(target=call, args=(out,), daemon=True) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a call did not complete"
        assert results == [[want.tobytes()] * 3] * 8

class TestNetworkArrays:
    UNITS = [(2.0, (0.6, 0.8), -0.5, 2), (-3.0, [1.0, 0.0], 1.25, 2),
             (0.5 + 0j, np.array([0.0, -1.0]), 0.0, 2)]

    def test_arrays_and_derived_views(self):
        net = relu_network(self.UNITS)
        assert net.outer.dtype == np.float64 and net.power == 2
        np.testing.assert_array_equal(net.outer, [2.0, -3.0, 0.5])
        np.testing.assert_array_equal(net.directions, [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(net.biases, [-0.5, 1.25, 0.0])
        assert (net.d, net.width) == (2, 3)
        assert net.ell1 == 5.5
        assert [tuple(u) for u in net.units] == [
            (a.real, tuple(float(w) for w in omega), b, k) for a, omega, b, k in self.UNITS
        ]

    def test_arrays_are_read_only(self):
        net = relu_network(self.UNITS)
        for array in (net.outer, net.directions, net.biases):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_empty_network(self):
        net = relu_network([])
        assert (net.d, net.width, net.ell1, net.units, net.power) == (0, 0, 0.0, (), 0)

    @pytest.mark.parametrize("power", [-1, 1.5])
    def test_power_must_be_nonnegative_integer(self, power):
        with pytest.raises(ValueError, match="unit 0 power must be a nonnegative integer"):
            relu_network([(1.0, (1.0, 0.0), 0.0, power), self.UNITS[0]])

    @pytest.mark.parametrize("power", [0, 1, 3])
    def test_mixed_power_refused_naming_the_unit(self, power):
        # Each network has one power; a second one used to form its own group.
        with pytest.raises(ValueError, match=f"unit 2 has power {power}, unlike unit 0's 2"):
            relu_network(self.UNITS[:2] + [(1.0, (1.0, 0.0), 0.0, power), self.UNITS[2]])

    @pytest.mark.parametrize("outer", [1j, 2.0 - 1e-300j, np.complex128(0.5 + 0.5j)])
    def test_complex_weight_refused_naming_the_unit(self, outer):
        # Outer weights are real; a complex one used to give complex values.
        with pytest.raises(ValueError, match="unit 1 has outer weight .* which is not real"):
            relu_network([self.UNITS[0], (outer, (1.0, 0.0), 0.0, 2), self.UNITS[1]])

    def test_one_dimension_for_all_units(self):
        with pytest.raises(ValueError, match=r"unit 2 has direction shape \(3,\), not \(2,\)"):
            relu_network(self.UNITS[:2] + [(1.0, (1.0, 0.0, 0.0), 0.0, 2)])

    @pytest.mark.parametrize("bad_unit, match", [
        ((np.nan, (0.6, 0.8), 0.5, 2), "unit 1 has outer weight nan, which is not finite"),
        ((-np.inf, (0.6, 0.8), 0.5, 2), "unit 1 has outer weight -inf, which is not finite"),
        ((1.0, (0.6, 0.8), np.nan, 2), "unit 1 has bias nan, which is not finite"),
        ((1.0, (0.6, 0.8), np.inf, 2), "unit 1 has bias inf, which is not finite"),
        ((1.0, (np.nan, 0.8), 0.5, 2), r"unit 1 has direction \[nan, 0.8\], which is not finite"),
        ((1.0, (0.6, np.inf), 0.5, 2), r"unit 1 has direction \[0.6, inf\], which is not finite"),
    ], ids=["nan-outer", "inf-outer", "nan-bias", "inf-bias", "nan-direction", "inf-direction"])
    def test_non_finite_refused_naming_the_unit(self, bad_unit, match):
        # The last unit offends in every way, so each message names the first.
        units = [self.UNITS[0], bad_unit, (np.inf, (np.nan, 1.0), np.nan, 2)]
        with pytest.raises(ValueError, match=match):
            relu_network(units)


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


def cube_bounds(cell: Cube) -> list[tuple[float, float]]:
    """(lo, hi) of each axis of the cell: its centre -/+ half its side."""
    h = cell.side / 2.0
    return [(c - h, c + h) for c in cell.center]


class TestCubePartition:
    def test_cell_count_and_coverage(self):
        part = CubePartition(2, 3)
        cells = part.cells()
        assert len(cells) == 9
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (500, 2))
        idx = part.cell_index(pts)
        for i, cell in enumerate(cells):
            lo, hi = np.array(cube_bounds(cell)).T
            mine = pts[idx == i]
            assert np.all((mine >= lo) & (mine <= hi))
        # every point lands in exactly one cell index, including the x = 1 face
        assert np.all((0 <= idx) & (idx < 9))
        assert part.cell_index(np.array([[1.0, 1.0]]))[0] == 8

    def test_cells_tile_without_overlap(self):
        part = CubePartition(1, 4)
        bounds = sorted(cube_bounds(c)[0] for c in part.cells())
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

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_straddling_error_in_closed_form_at_high_dimension(self, k):
        # The error was a maximum over 41^d grid points: about 460 GB at d = 6.
        theta = np.full(8, 8**-0.5)
        cell = Cube((0.1,) * 4 + (-0.05,) * 4, 0.25)
        fit = ridge_local_taylor(theta, -0.02, cell, k)
        t0, delta = float(theta @ np.array(cell.center) - 0.02), 8 * 8**-0.5 * 0.125
        assert fit.case == "straddling" and fit.delta == pytest.approx(delta, rel=1e-15)
        assert fit.measured_error == (fit.delta - abs(t0)) ** k


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


def cell_grid(cell: Cube, per_axis: int) -> np.ndarray:
    """The cell's own tensor grid, one np.linspace per axis, ends included."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in cube_bounds(cell)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def per_cell_reference(f, ell: int, part: CubePartition) -> np.ndarray:
    """Per-cell least-squares fits on each cell's own (ell + 3)^d grid."""
    alphas = sorted(multi_indices(part.d, ell))
    rows = []
    for cell in part.cells():
        pts = cell_grid(cell, ell + 3)
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
                assert np.array_equal(grids[i], cell_grid(cell, 4))
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
            pts = cell_grid(cell, 64 if d == 1 else 9)
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
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_each_power_matches_per_unit_loop(self, k):
        rng = np.random.default_rng(8 + k)
        units = [(rng.standard_normal(), rng.standard_normal(3), rng.uniform(-1, 1), k)
                 for _ in range(60)]
        n, rows = 9001, relu_nets._EVAL_BLOCK // 60
        assert n > rows and n % rows != 0
        pts = rng.uniform(-1, 1, (n, 3))
        want = np.zeros(n)
        for a, omega, b, _ in units:
            want += a * sigma_k(pts @ omega + b, k)
        got = evaluate_network(relu_network(units), pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_activation_bitwise_equal_to_sigma_k_per_power(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([[0.5, 0.3, -0.7], rng.uniform(-1, 1, (200, 3))])
        assert len(pts) * 25 <= relu_nets._EVAL_BLOCK  # one block
        for k in range(4):
            units = [(rng.standard_normal(), rng.standard_normal(3), rng.uniform(-1, 1), k)
                     for _ in range(25)]
            # Unit 0 has a pre-activation of exactly 0 at the first point.
            units[0] = (1.5, np.array([1.0, 0.0, 0.0]), -0.5, k)
            net = relu_network(units)
            want = sigma_k(pts @ net.directions.T + net.biases, k) @ net.outer
            assert np.array_equal(evaluate_network(net, pts), want)
            assert evaluate_network(relu_network(units[:1]), pts[0]) == 0.0

    def test_real_weights_give_real_values(self):
        net = relu_network([(2.0, (1.0, 0.0), 0.5, 2), (-1.0, (0.0, 1.0), 0.0, 2)])
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

    def test_unit_norms_are_a_read_only_float_array(self):
        # Not a tuple of W Python floats walked out of the norms array.
        net = certificate_network(np.random.default_rng(1), 130, 2, 2)
        for hb, width in ((network_hm_upper(net, self.OMEGA, 1, 2.0), 130),
                          (network_hm_upper(relu_network([]), self.OMEGA, 1, 2.0), 0)):
            assert hb.unit_norms.dtype == float and hb.unit_norms.shape == (width,)
            assert not hb.unit_norms.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_unit_norms_match_per_unit_reference(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        for k in [0, 1, 2] if m == 0 else [m + 1, m + 2, m + 3]:
            omegas = uniform_sphere(rng, 6, d) if d > 1 else rng.choice([-1.0, 1.0], (6, 1))
            if d > 1:
                omegas[0, 0], omegas[1, -1] = 1e-7, 0.0
                omegas[:2] /= np.linalg.norm(omegas[:2], axis=1, keepdims=True)
            net = relu_network([(rng.standard_normal(), omega, rng.uniform(-2, 2), k)
                                for omega in omegas])
            box = [(0.0, 1.0)] * d
            hb = network_hm_upper(net, box, m, 2.0)
            want = exact_unit_hm_norms(net, box, m)
            norms = np.array(hb.unit_norms)
            assert np.all(norms >= want)
            # Less the stated 1e-12 margin, the norms are the exact ones.
            np.testing.assert_allclose(norms / (1.0 + 1e-12), want, rtol=1e-12, atol=0)
            assert hb.max_unit_norm == max(hb.unit_norms)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_unit_norms_equal_per_order_layouts(self, d, m):
        # The certificate lays out each unit's quadrature once for all orders,
        # in one call with the exponent column 2 (k - r).  One call per order
        # lays out fewer nodes for the lower orders, so it agrees to rounding.
        rng = np.random.default_rng(20 * d + m)
        box = [(-0.5, 1.0)] * d
        lo, hi = np.array(box).T
        for k in range(m + 1 if m else 0, m + 4):
            omegas = uniform_sphere(rng, 6, d) if d > 1 else rng.choice([-1.0, 1.0], (6, 1))
            net = relu_network([(rng.standard_normal(), omega, rng.uniform(-2, 2), k)
                                for omega in omegas])
            norms = np.array(network_hm_upper(net, box, m, 2.0).unit_norms)
            p = 2 * (k - np.arange(m + 1))
            weights = numerics.homogeneous_sums(net.directions ** 2, m) * np.array(
                [math.perm(k, r) ** 2 for r in range(m + 1)])[:, None]

            def unit_norms(integrals):
                return np.sqrt(np.sum(weights * integrals, axis=0)) * (1.0 + 1e-12)

            column = relu_nets._ridge_box_integrals(net.directions, net.biases, lo, hi,
                                                    p[:, None])
            assert column.shape == (m + 1, 6)
            np.testing.assert_array_equal(norms, unit_norms(column))
            per_order = np.vstack([relu_nets._ridge_box_integrals(
                net.directions, net.biases, lo, hi, np.array([[q]])) for q in p])
            np.testing.assert_allclose(norms, unit_norms(per_order), rtol=1e-13, atol=0)

    def test_unit_norms_exact_on_uneven_box(self):
        rng = np.random.default_rng(11)
        box = [(-1.0, 2.0), (0.5, 1.0), (-0.25, 0.0)]
        for k in (2, 3, 4):
            net = relu_network([(1.0, omega, rng.uniform(-2, 2), k)
                                for omega in uniform_sphere(rng, 8, 3)])
            norms = np.array(network_hm_upper(net, box, 1, 2.0).unit_norms)
            want = exact_unit_hm_norms(net, box, 1)
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
        ((1.0, (0.6, 0.6), 5.0, 2), "unit 1 is not dictionary"),
        ((1.0, (0.6, 0.8), 5.0, 2), "unit 1 violates the bias cap: \\|5.0\\|"),
    ])
    def test_errors_name_first_offending_unit(self, bad_unit, match):
        units = [(1.0, (1.0, 0.0), 0.0, 2), bad_unit, (1.0, (1.0, 1.0), 9.0, 2)]
        with pytest.raises(ValueError, match=match):
            network_hm_upper(relu_network(units), self.OMEGA, 1, 2.0)

    @pytest.mark.parametrize("bad_unit, cap, match", [
        ((1.0, (np.nan, 0.0), 0.0, 2), 2.0, "unit 1 is not dictionary"),
        ((1.0, (0.6, 0.8), np.nan, 2), 2.0, "unit 1 violates the bias cap: \\|nan\\|"),
        ((1.0, (0.6, 0.8), 0.5, 2), np.nan, "unit 0 violates the bias cap: \\|0.0\\| > nan"),
        ((np.nan, (0.6, 0.8), 0.5, 2), 2.0, "unit 1 has outer weight nan, which is not finite"),
        ((np.inf, (0.6, 0.8), 0.5, 2), 2.0, "unit 1 has outer weight inf, which is not finite"),
        ((1.0, (0.6, 0.8), np.inf, 2), np.inf, "unit 1 has bias inf, which is not finite"),
    ], ids=["nan-direction", "nan-bias", "nan-cap", "nan-outer", "inf-outer", "inf-bias-inf-cap"])
    def test_nan_fails_the_checks(self, bad_unit, cap, match):
        # NaN compares false both ways, so a check that only looks for a
        # violation would let it through and the bound would read NaN; an
        # infinite outer weight, or an infinite bias under an infinite cap,
        # would make it read inf or NaN.  The last unit offends too.
        # ``relu_network`` refuses these units, so the network is built from
        # read-only arrays directly, as a caller of the constructor could.
        units = [(1.0, (1.0, 0.0), 0.0, 2), bad_unit, (np.nan, (1.0, 1.0), np.nan, 2)]
        outer, directions, biases, _ = (np.array(column, dtype=float) for column in zip(*units))
        net = ReluNetwork(*numerics.read_only(outer, directions, biases), 2)
        with pytest.raises(ValueError, match=match):
            network_hm_upper(net, self.OMEGA, 1, cap)

    @pytest.mark.parametrize("m", [-1, 1.5])
    def test_order_must_be_a_nonnegative_integer(self, m):
        net = relu_network([(1.0, (0.6, 0.8), 0.5, 4)])
        with pytest.raises(ValueError, match=f"order m must be a nonnegative integer, got {m}"):
            network_hm_upper(net, self.OMEGA, m, 2.0)

    def test_bias_cap_violation_names_unit(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.0, 2), (1.0, (0.0, 1.0), 5.0, 2)])
        with pytest.raises(ValueError, match="unit 1"):
            network_hm_upper(net, self.OMEGA, 1, 2.0)

    def test_non_unit_direction_rejected(self):
        net = relu_network([(1.0, (1.0, 1.0), 0.0, 2)])
        with pytest.raises(ValueError, match="dictionary"):
            network_hm_upper(net, self.OMEGA, 1, 2.0)

    def test_order_needs_enough_power(self):
        net = relu_network([(1.0, (1.0, 0.0), 0.0, 1), (1.0, (1.0, 1.0), 9.0, 1)])
        with pytest.raises(ValueError, match="network has power 1; order m=1 needs power >= 2"):
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


def certificate_network(rng, width, d, k):
    """``width`` units of the benchmark law: unit directions, b ~ U[0, 2] and
    positive outer weights of l1 mass 1."""
    omegas = uniform_sphere(rng, width, d) if d > 1 else rng.choice([-1.0, 1.0], (width, 1))
    raw = rng.uniform(0.2, 1.0, width)
    return relu_network([(raw[i] / raw.sum(), omegas[i], b, k)
                         for i, b in enumerate(rng.uniform(0.0, 2.0, width))])


B = relu_nets._CERT_BLOCK
# (k, m) pairs per dimension, the Heaviside among them.
CERT_POWERS = {1: [(1, 0), (0, 0)], 2: [(2, 1), (3, 2), (4, 0)], 3: [(2, 1)]}


class TestCertificateBlocks:
    @pytest.mark.parametrize("width", [1, B - 1, B, B + 1, 2 * B + 1, 500])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_for_any_worker_count(self, width, d):
        # Each step of the box integrals works on one unit's row, so the blocked
        # norms equal the one-call norms over all units.
        rng = np.random.default_rng(width + 10 * d)
        box = [(-0.5, 1.0)] * d
        lo, hi = np.array(box).T
        for k, m in CERT_POWERS[d]:
            net = certificate_network(rng, width, d, k)
            orders = np.arange(m + 1)[:, None]
            weights = numerics.homogeneous_sums(net.directions ** 2, m) * np.cumprod(
                np.vstack([1.0, k - orders[:-1]]), axis=0) ** 2
            integrals = relu_nets._ridge_box_integrals(net.directions, net.biases, lo, hi,
                                                       2 * (k - orders))
            want = np.sqrt(np.sum(weights * integrals, axis=0)) * (1.0 + 1e-12)
            hb = network_hm_upper(net, box, m, 2.0)
            assert np.array(hb.unit_norms).tobytes() == want.tobytes()
            assert hb.bound == float(want.max()) * net.ell1

    @pytest.mark.parametrize("width", [1, B - 1, B, B + 1, 2 * B + 1, 500])
    def test_blocks_hold_fixed_unit_counts(self, monkeypatch, width):
        # Every block but the last holds B units, and the blocks cover each unit once.
        net = certificate_network(np.random.default_rng(width), width, 2, 2)
        whole = relu_nets._ridge_box_integrals
        seen = []

        def spy(omega, bias, lo, hi, p, tables):
            seen.append(bias)
            return whole(omega, bias, lo, hi, p, tables)

        monkeypatch.setattr(relu_nets, "_ridge_box_integrals", spy)
        network_hm_upper(net, TestHmUpperBound.OMEGA, 1, 2.0)
        sizes = sorted(len(bias) for bias in seen)
        assert sizes == sorted([B] * (width // B) + [width % B] * (width % B > 0))
        covered = np.sort(np.concatenate(seen))
        assert covered.tobytes() == np.sort(net.biases).tobytes()

    @pytest.mark.parametrize("width", [1, B - 1, B, B + 1, 2 * B + 1, 500])
    def test_blocks_share_one_pair_of_tables(self, monkeypatch, width):
        # The first block makes the two power tables; every later block writes
        # views of their leading units, and its integrals keep their bits.
        net = certificate_network(np.random.default_rng(width + 1), width, 3, 3)
        whole = relu_nets._ridge_box_integrals
        seen = []

        def spy(omega, bias, lo, hi, p, tables):
            before = list(tables)
            got = whole(omega, bias, lo, hi, p, tables)
            seen.append((tables, before, list(tables)))
            assert got.tobytes() == whole(omega, bias, lo, hi, p).tobytes()
            return got

        monkeypatch.setattr(relu_nets, "_ridge_box_integrals", spy)
        network_hm_upper(net, [(-0.5, 1.0)] * 3, 2, 2.0)
        (tables, before, first), *later = seen
        assert before == [] and len(first) == 2
        assert all(table.shape[:2] == (3, min(width, B)) for table in first)
        for held, before, after in later:
            assert held is tables
            assert all(x is y for x, y in zip(before, first)) and len(before) == 2
            assert all(x is y for x, y in zip(after, first)) and len(after) == 2

    def test_blocks_run_in_a_plain_loop(self, monkeypatch):
        # Two cores made the certificate at most 1.11x faster, so it starts
        # no threads, and no share's fixed cost.
        def refuse(*args):
            raise AssertionError("network_hm_upper started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        net = certificate_network(np.random.default_rng(500), 500, 3, 2)
        hb = network_hm_upper(net, [(0.0, 1.0)] * 3, 1, 2.0)
        assert hb.unit_norms.shape == (500,)

    def test_memory_bounded_by_the_blocks(self):
        # The one-call layout held every unit's nodes at once: 70 MiB here.
        net = certificate_network(np.random.default_rng(4096), 4096, 3, 2)
        box = [(0.0, 1.0)] * 3
        network_hm_upper(net, box, 1, 2.0)  # first-call caches outside the trace
        tracemalloc.start()
        try:
            network_hm_upper(net, box, 1, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
