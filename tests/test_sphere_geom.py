import tracemalloc

import numpy as np
import pytest

from barronlab import sphere_geom
from barronlab.cli import dispatch
from barronlab.numerics import loglog_fit
from barronlab.sphere_geom import (
    MAX_NET_WORK,
    _pairwise_min_distance,
    covering_radius,
    greedy_net,
    separated_subset,
    uniform_sphere,
)
from oracles import whole_matrix_covering_radius, whole_matrix_min_distance


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

    def test_work_cap_refused_before_the_pool_is_drawn(self, capsys, monkeypatch):
        # A pool draw raises Drawn, so no case here allocates or runs a net.
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(sphere_geom, "uniform_sphere", draw)
        with pytest.raises(Drawn):  # 1024 * 256 * 1024 = MAX_NET_WORK is taken
            greedy_net(3, 1024)
        with pytest.raises(Drawn):
            greedy_net(3, 2048, candidate_pool=64 * 2048)
        with pytest.raises(ValueError, match=f"m \\* candidate pool <= {MAX_NET_WORK}, "
                                             "got m = 1025 with a pool of 262400"):
            greedy_net(3, 1025)
        assert dispatch(["sphere-net", "--d", "3", "--m", "4000"]) == 2
        assert "got m = 4000 with a pool of 1024000" in capsys.readouterr().err
        assert dispatch(["rates", "--kind", "sphere-cover", "--n-grid", "4096:131072"]) == 2
        assert "got m = 131072 with a pool of 8388608" in capsys.readouterr().err

    def test_sphere_cover_refuses_its_largest_m_before_the_sweep(self, capsys, monkeypatch):
        # The cap was checked only inside each sub-run, so 64:4096 built the
        # nets at m = 64 ... 2048 (2.6 s) before refusing m = 4096.
        def draw(*args):
            raise LookupError("drew a pool")

        monkeypatch.setattr(sphere_geom, "uniform_sphere", draw)
        assert dispatch(["rates", "--kind", "sphere-cover", "--n-grid", "64:4096"]) == 2
        assert "got m = 4096 with a pool of 262144" in capsys.readouterr().err
        with pytest.raises(LookupError):  # 2048 * 64 * 2048 = MAX_NET_WORK is taken
            dispatch(["rates", "--kind", "sphere-cover", "--n-grid", "64:2048"])

    def test_pool_floor_enforced(self):
        with pytest.raises(ValueError, match="pool"):
            greedy_net(2, 4, candidate_pool=100, seed=0)

    @pytest.mark.parametrize("d, m, pool, seed", [(2, 9, 64 * 9, 0), (3, 12, 1001, 5),
                                                  (4, 7, None, 2), (3, 1, 64, 3)])
    def test_matches_brute_force_farthest_point(self, d, m, pool, seed):
        # Reference: at every step recompute each pool row's min squared
        # distance to all chosen rows; first maximum wins.
        rows = uniform_sphere(np.random.default_rng(seed), pool or 256 * m, d)
        chosen = [0]
        while len(chosen) < m:
            sq = np.min([np.maximum(0.0, 2.0 - 2.0 * (rows @ rows[c])) for c in chosen], axis=0)
            chosen.append(int(np.argmax(sq)))
        net = greedy_net(d, m, candidate_pool=pool, seed=seed)
        assert len(set(chosen)) == m
        assert np.array_equal(net.points, rows[chosen])
        assert not net.points.flags.writeable

    def test_points_are_rows_of_seeded_pool(self):
        m, pool = 40, 64 * 40 + 17
        rows = uniform_sphere(np.random.default_rng(8), pool, 3)
        net = greedy_net(3, m, candidate_pool=pool, seed=8)
        hits = [np.flatnonzero((rows == p).all(axis=1)) for p in net.points]
        assert all(len(h) == 1 for h in hits)
        assert hits[0][0] == 0 and len({int(h[0]) for h in hits}) == m


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

    # Besides the first three cases: a pool that is not a multiple of the
    # 256-row filter block, a pool smaller than one block, a delta small
    # enough that most of the first block is kept, and seed 2 over many blocks.
    @pytest.mark.parametrize("d, delta, pool, seed", [(2, 0.05, 2048, 0), (3, 0.3, 2048, 5),
                                                      (4, 2.0, 256, 1), (3, 0.2, 1000, 3),
                                                      (2, 0.1, 100, 4), (3, 0.01, 700, 6),
                                                      (3, 0.15, 4099, 2)])
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


B = sphere_geom._BLOCK


def net_rows(d, m):
    return uniform_sphere(np.random.default_rng(10 * d + m), m, d)


class TestDistanceBlocks:
    """The blocked distance kernel against whole distance matrices, bit for
    bit: the per-element operations and the probe draws are the same."""

    @pytest.mark.parametrize("m", [1, 2, B - 1, B + 1, 1024])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("probes", [10**4, 10**4 + 1])
    def test_covering_radius_matches_the_whole_matrix(self, d, m, probes):
        points = net_rows(d, m)
        want = whole_matrix_covering_radius(points, probes, seed=m)
        assert covering_radius(points, probes, seed=m).hex() == want.hex()

    # 2 10^5 probes are 49 batches; at m = 1024 the whole-matrix reference
    # alone takes about 2 s (2-vCPU VM), so m = 1024 runs 10^4 probes only.
    @pytest.mark.parametrize("m", [1, 2, B - 1, B + 1])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_covering_radius_matches_over_many_batches(self, d, m):
        points = net_rows(d, m)
        want = whole_matrix_covering_radius(points, 2 * 10**5, seed=d)
        assert covering_radius(points, 2 * 10**5, seed=d).hex() == want.hex()

    @pytest.mark.parametrize("m", [1, 2, B - 1, B + 1, 1024])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_explicit_probes_longer_than_a_block(self, d, m):
        # The farthest probe goes last, into the partial block.
        points = net_rows(d, m)
        probes = uniform_sphere(np.random.default_rng(m), 3 * B + 7, d)
        far = np.argmax(np.min(2.0 - 2.0 * (probes @ points.T), axis=1))
        probes[[far, -1]] = probes[[-1, far]]
        want = whole_matrix_covering_radius(points, probe_points=probes)
        assert covering_radius(points, probe_points=probes).hex() == want.hex()

    @pytest.mark.parametrize("m", [1, 2, B - 1, B + 1, 1024])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_min_separation_matches_the_whole_matrix(self, d, m):
        points = net_rows(d, m)
        want = whole_matrix_min_distance(points)
        assert _pairwise_min_distance(points).hex() == want.hex()

    @pytest.mark.parametrize("m", [2, B + 1, 1024])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_min_separation_of_a_repeated_row(self, d, m):
        # The last row repeats the earlier row whose rounded q . q is largest:
        # where that is above 1, only the clamp at 0 keeps the repeat's
        # distance from being the square root of a negative number.
        points = net_rows(d, m)
        points[-1] = points[np.argmax(np.diag(points @ points.T)[:-1])]
        want = whole_matrix_min_distance(points)
        assert _pairwise_min_distance(points).hex() == want.hex()

    def test_covering_radius_memory_within_blocks(self):
        # Whole 4096-probe batches against 1024 points take 32 MiB a matrix
        # and peak at 96 MiB; one (B, 1024) block is 2 MiB.
        points = net_rows(3, 1024)
        tracemalloc.start()
        try:
            covering_radius(points, 10**4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCsv:
    def test_round_trip(self, capsys):
        # sphere-net's 17 significant digits parse back to the same doubles.
        assert dispatch(["sphere-net", "--d", "3", "--m", "5", "--seed", "13"]) == 0
        lines = capsys.readouterr().out.splitlines()
        net = greedy_net(3, 5, seed=13)
        back = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.array_equal(back, net.points)
        assert _pairwise_min_distance(back) == pytest.approx(net.min_sep, rel=1e-15)


class TestUniformSphere:
    def test_unit_norms(self):
        pts = uniform_sphere(np.random.default_rng(0), 100, 4)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
