import numpy as np
import pytest

from barronlab.numerics import loglog_fit
from barronlab.sphere_geom import (
    covering_radius,
    greedy_net,
    net_from_csv,
    net_to_csv,
    separated_subset,
    uniform_sphere,
)


def circle_points(m):
    ang = 2 * np.pi * np.arange(m) / m
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestGreedyNet:
    def test_single_point_is_unit(self):
        net = greedy_net(2, 1, candidate_pool=64, seed=0)
        assert net.size == 1
        assert np.linalg.norm(net.points[0]) == pytest.approx(1.0, abs=1e-12)

    def test_second_point_near_antipode(self):
        net = greedy_net(2, 2, candidate_pool=512, seed=3)
        assert np.linalg.norm(net.points[1] + net.points[0]) <= 0.05

    def test_four_points_nearly_square(self):
        net = greedy_net(2, 4, seed=3)
        assert net.min_sep >= 1.2

    def test_deterministic_given_seed(self):
        a = greedy_net(3, 6, seed=11)
        b = greedy_net(3, 6, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_prefix_min_separation_nonincreasing(self):
        net = greedy_net(3, 12, seed=5)
        pts = net.points

        def min_sep(prefix):
            gram = prefix @ prefix.T
            sq = np.maximum(0.0, 2.0 - 2.0 * gram)
            np.fill_diagonal(sq, np.inf)
            return float(np.sqrt(sq.min()))

        seps = [min_sep(pts[:j]) for j in range(2, len(pts) + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(seps, seps[1:]))

    def test_pool_floor_enforced(self):
        with pytest.raises(ValueError, match="pool"):
            greedy_net(2, 4, candidate_pool=100, seed=0)


class TestCoveringRadius:
    def test_zero_when_probes_are_the_net(self):
        # Gram-matrix distances put the self-distance at sqrt(eps) scale.
        pts = circle_points(16)
        assert covering_radius(pts, probe_points=pts) <= 1e-7

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_equally_spaced_circle_matches_chord_formula(self, m):
        probed = covering_radius(circle_points(m), probes=200_000, seed=1)
        ideal = 2 * np.sin(np.pi / (2 * m))
        assert probed == pytest.approx(ideal, rel=0.02)

    def test_probe_floor_enforced(self):
        with pytest.raises(ValueError, match="probes"):
            covering_radius(circle_points(4), probes=100)

    def test_scaling_exponent_d3(self):
        samples = []
        for m in (16, 64, 256):
            net = greedy_net(3, m, candidate_pool=64 * m, seed=5)
            samples.append((m, net.cover_rad))
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(-0.5, abs=0.15)

    def test_scaling_exponent_d2(self):
        samples = []
        for m in (4, 8, 16, 32, 64, 128):
            net = greedy_net(2, m, candidate_pool=64 * m, seed=9)
            samples.append((m, net.cover_rad))
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(-1.0, abs=0.15)


class TestSeparatedSubset:
    def test_diameter_separation_gives_single_point(self):
        net = separated_subset(2, 2.0, candidate_pool=4096, seed=2)
        assert net.size == 1

    def test_circle_count_window(self):
        net = separated_subset(2, 0.5, candidate_pool=8192, seed=2)
        assert 8 <= net.size <= 25

    def test_pairwise_distances_respect_delta(self):
        delta = 0.4
        net = separated_subset(3, delta, candidate_pool=8192, seed=7)
        assert net.min_sep >= delta

    def test_maximality_certified_by_probing(self):
        delta = 0.5
        net = separated_subset(2, delta, candidate_pool=8192, seed=2)
        assert net.cover_rad <= delta

    def test_size_scaling_d3(self):
        # size >= c * delta^-(d-1) with c frozen from a one-time sweep
        # (observed delta^2-scaled sizes were 8.0 to 9.0).
        c_frozen = 6.0
        for delta in (0.8, 0.4, 0.2):
            net = separated_subset(3, delta, candidate_pool=16384, seed=4)
            assert net.size >= c_frozen * delta**-2

    def test_separation_must_be_positive(self):
        with pytest.raises(ValueError):
            separated_subset(2, 0.0)

    @pytest.mark.parametrize("d, delta, pool, seed", [(2, 0.05, 2048, 0), (3, 0.3, 2048, 5),
                                                      (4, 2.0, 256, 1)])
    def test_kept_points_match_list_reference(self, d, delta, pool, seed):
        # Reference: rebuild the kept array for every candidate, in pool order.
        kept = []
        for cand in uniform_sphere(np.random.default_rng(seed), pool, d):
            if not kept:
                kept.append(cand)
                continue
            sq = np.maximum(0.0, 2.0 - 2.0 * (np.array(kept) @ cand))
            if np.sqrt(sq.min()) >= delta:
                kept.append(cand)
        net = separated_subset(d, delta, candidate_pool=pool, seed=seed)
        assert np.array_equal(net.points, np.array(kept))
        assert not net.points.flags.writeable


class TestCsv:
    def test_round_trip(self):
        net = greedy_net(3, 5, seed=13)
        back = net_from_csv(net_to_csv(net))
        assert np.array_equal(back.points, net.points)
        assert back.min_sep == pytest.approx(net.min_sep, rel=1e-15)


class TestUniformSphere:
    def test_unit_norms(self):
        pts = uniform_sphere(np.random.default_rng(0), 100, 4)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
