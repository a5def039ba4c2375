"""Acceptance gate: one test (or pair) per numbered criterion, each printing
a PASS/FAIL line (visible under ``pytest -s``).

Every tolerance is pinned here, not configurable.  Criterion 1 carries one
deliberately red assertion: the recorded worked-example threshold value 5.5
contradicts the threshold formula (d + 1)(k - m + 1/2) + m + 1/2, which
gives 5.0 at (d, m, k) = (2, 0, 1) and which the continuity and
monotonicity checks elsewhere in the suite require.  The assertion pins the
recorded value as stated instead of masking the conflict.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from barronlab import greedy_fourier, lower_bounds, relu_nets, sphere_geom, subsample
from barronlab.barron import evaluate_sum, fourier_sum, hm_norm_exact
from barronlab.cli import dispatch
from barronlab.numerics import loglog_fit
from barronlab.relu_nets import Cube, CubePartition
from barronlab.sphere_geom import uniform_sphere


@contextlib.contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"acceptance {label}: PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_01_exponent_worked_values():
    """Rate calculator reproduces t(0.5) = 0.5 and the unit-smoothness rate."""
    with criterion("C1 exponent calculators"):
        table = greedy_fourier.rate_exponents(0.5, 0.0, 1.0, 2)
        assert table.relu_rate_exponent == pytest.approx(0.5, abs=1e-12)
        for d in (1, 2, 3, 7):
            unit = greedy_fourier.rate_exponents(1.0, 0.0, 1.0, d)
            assert unit.greedy_fourier_exponent == pytest.approx(
                0.5 + 1.0 / d, abs=1e-12
            )


def test_criterion_01_threshold_recorded_value():
    """Pins the recorded worked-example threshold 5.5 at (d, m, k) = (2, 0, 1).

    Known red: (2 + 1) * (1 - 0 + 0.5) + 0 + 0.5 = 5.0, and the case-split
    rate is continuous at 5.0 (both branches give k - m + 1 = 2 there) but
    discontinuous at 5.5, so no formula satisfies both this value and the
    continuity property asserted in test_greedy_fourier.  The recorded
    value is asserted verbatim rather than silently corrected.
    """
    with criterion("C1 threshold worked value"):
        table = greedy_fourier.rate_exponents(0.5, 0.0, 1.0, 2)
        assert table.smoothness_threshold == pytest.approx(5.5, abs=1e-12)


def test_criterion_02_greedy_truncation_rate():
    """Heavy-tail input, d=1, ks=2, m=0: slope, monotonicity, exact tails."""
    with criterion("C2 greedy truncation rate"):
        started = time.perf_counter()
        fs = greedy_fourier.synthetic_heavy_tail(1, 2.0, 400.0, seed=7)
        sel = greedy_fourier.order_frequencies(fs, 0, 2.0)
        grid = [2**j for j in range(1, 9)]
        errors = [greedy_fourier.tail_error_hm(fs, sel, n, 0) for n in grid]

        fit = loglog_fit(list(zip(grid, errors)))
        assert fit.slope <= -2.5 + 0.15
        assert all(b <= a for a, b in zip(errors, errors[1:]))

        # Independent oracle: equispaced sampling integrates products of
        # lattice modes exactly once the grid outruns the bandwidth.
        n_nodes = 1024
        x = (np.arange(n_nodes) * fs.L / n_nodes)[:, None]
        full = evaluate_sum(fs, x)
        for n in (4, 64, 256):
            truncated = greedy_fourier.truncate_top_n(fs, sel, n)
            resid = full - evaluate_sum(truncated, x)
            oracle = math.sqrt(fs.L * float(np.mean(np.abs(resid) ** 2)))
            assert greedy_fourier.tail_error_hm(fs, sel, n, 0) == pytest.approx(
                oracle, abs=1e-6
            )
        assert time.perf_counter() - started <= 10.0


def test_criterion_03_monomial_identities():
    """Exact one-sided power algebra for |alpha| <= 4 in d <= 3."""
    with criterion("C3 monomial identities"):
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for m in range(1, 5):
            net = relu_nets.monomial_network_1d(m)
            x = rng.uniform(-10.0, 10.0, 10_000)
            got = relu_nets.evaluate_network(net, x[:, None])
            want = x**m
            scale = np.maximum(1.0, np.abs(want))
            worst = max(worst, float(np.max(np.abs(got - want) / scale)))
        for d in (2, 3):
            for alpha in relu_nets.multi_indices(d, 4):
                if sum(alpha) == 0:
                    continue
                expansion = relu_nets.monomial_product_expansion(alpha, 4)
                pts = rng.uniform(-10.0, 10.0, (10_000, d))
                got = relu_nets.evaluate_product_sum(expansion, pts)
                want = np.prod(pts ** np.array(alpha), axis=1)
                scale = np.maximum(1.0, np.abs(want))
                worst = max(worst, float(np.max(np.abs(got - want) / scale)))
        assert worst <= 1e-10
        assert time.perf_counter() - started <= 5.0


def test_criterion_04_local_ridge_surrogates():
    """Sign-definite cells are exact; straddling error scales as delta^k."""
    with criterion("C4 local ridge surrogates"):
        exact = relu_nets.ridge_local_taylor((1.0,), 1.0, Cube((0.5,), 0.25), 2)
        assert exact.case == "positive" and exact.measured_error == 0.0
        vanished = relu_nets.ridge_local_taylor((1.0,), -2.0, Cube((0.5,), 0.25), 2)
        assert vanished.case == "negative" and vanished.measured_error == 0.0

        for k in (1, 2, 3):
            fits = {
                j: relu_nets.ridge_local_taylor((1.0,), 0.0, Cube((0.0,), 2.0**-j), k)
                for j in range(3, 9)
            }
            for j in range(3, 8):
                assert fits[j].measured_error == pytest.approx(
                    2.0**k * fits[j + 1].measured_error, abs=1e-9
                )
            for fit in fits.values():
                # Both reference bounds are reported; the measured error
                # follows the delta^k form, not delta^(k+1) / (k+1).
                assert fit.taylor_bound == pytest.approx(
                    fit.delta ** (k + 1) / (k + 1), rel=1e-12
                )
                assert fit.homogeneity_bound == pytest.approx(
                    fit.delta**k, rel=1e-12
                )
                assert fit.measured_error <= fit.homogeneity_bound * (1 + 1e-12)


def test_criterion_05_cube_partition_compiler():
    """sin target sweeps at the Sobolev rate; polynomials reproduce exactly."""
    with criterion("C5 cube-partition compiler"):
        started = time.perf_counter()
        f = lambda p: np.sin(2 * np.pi * np.asarray(p)[:, 0])
        samples = []
        for q in (2, 4, 8, 16, 32):
            approx = relu_nets.compile_sobolev_approximant(f, 2, CubePartition(1, q))
            samples.append((q, approx.sup_error(f)))
        fit = loglog_fit(samples)
        assert fit.slope <= -2.0 + 0.2

        poly = lambda p: 1.0 - 2.0 * p[:, 0] + 0.5 * p[:, 0] ** 2
        approx = relu_nets.compile_sobolev_approximant(poly, 2, CubePartition(1, 5))
        assert approx.sup_error(poly) <= 1e-10
        cubic = lambda p: p[:, 0] ** 3
        single = relu_nets.compile_sobolev_approximant(cubic, 3, CubePartition(1, 1))
        assert single.sup_error(cubic) <= 1e-10
        assert time.perf_counter() - started <= 10.0


def test_criterion_06_sphere_nets():
    """Greedy covers track equal spacing (d=2) and the m^(-1/2) law (d=3)."""
    with criterion("C6 sphere nets"):
        started = time.perf_counter()
        for m in (4, 8, 16):
            net = sphere_geom.greedy_net(2, m, seed=11)
            ideal = 2 * math.sin(math.pi / (2 * m))
            assert net.cover_rad <= 2.0 * ideal
        samples = []
        for m in (16, 64, 256):
            net = sphere_geom.greedy_net(3, m, candidate_pool=64 * m, seed=5)
            samples.append((m, net.cover_rad))
        fit = loglog_fit(samples)
        assert fit.slope == pytest.approx(-0.5, abs=0.15)
        assert time.perf_counter() - started <= 30.0


def test_criterion_07_subsampling_concentration():
    """Best-of-64 restarts beats the Hoeffding level in >= 90% of trials."""
    with criterion("C7 subsampling concentration"):
        started = time.perf_counter()
        level = subsample.hoeffding_delta(64, 1.0, 10, 0.05)
        assert level == pytest.approx(0.2164, abs=5e-5)
        hits = 0
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            terms = rng.uniform(-1.0, 1.0, (256, 10))
            result = subsample.maurey_subsample(
                terms, 64, restarts=64, seed=2000 + trial, coeff_bound=1.0
            )
            hits += result.deviation <= level
        assert hits >= 180
        assert time.perf_counter() - started <= 30.0


def test_criterion_08_dyadic_machinery():
    """Exact reconstruction, exact Pythagoras, 2^(-k/2) block envelope."""
    with criterion("C8 dyadic machinery"):
        rng = np.random.default_rng(8)
        coeffs = {
            (int(z),): complex(rng.standard_normal(), rng.standard_normal())
            for z in rng.choice(np.arange(-100, 101), size=12, replace=False)
        }
        fs = fourier_sum(1, 1.0, (0.0,), coeffs)
        decomp = lower_bounds.dyadic_blocks(fs)
        merged = {}
        for _, block in decomp.blocks:
            merged.update(block.coeffs)
        assert set(merged) == set(fs.coeffs)
        assert all(abs(merged[z] - fs.coeffs[z]) <= 1e-12 for z in fs.coeffs)

        total = hm_norm_exact(fs, 0)
        for k0 in (0, 2, 5):
            head_sq = sum(
                hm_norm_exact(b, 0) ** 2 for k, b in decomp.blocks if k < k0
            )
            tail = lower_bounds.residual_tail_norm(decomp, k0)
            assert abs(head_sq + tail**2 - total**2) <= 1e-12 * total**2

        spectrum = fourier_sum(
            1, 1.0, (0.0,), {(z,): (1.0 + abs(z)) ** -1 for z in range(-128, 129)}
        )
        blocks = lower_bounds.dyadic_blocks(spectrum)
        norms = {k: hm_norm_exact(b, 0) for k, b in blocks.blocks if 1 <= k <= 6}
        c_fit = 1.25 * norms[1] * 2.0 ** (1 / 2)
        assert all(norms[k] <= c_fit * 2.0 ** (-k / 2) for k in norms)


def test_criterion_09_high_frequency_gap_probe():
    """Informational probe: scaled error floor positive, width-monotone."""
    with criterion("C9 high-frequency gap probe"):
        started = time.perf_counter()
        scaled = []
        for omega0 in (8.0, 16.0, 32.0, 64.0):
            probe = lower_bounds.highfreq_gap(1.0, omega0, 8, 512, seed=1)
            scaled.append(probe.error * omega0)
            widths = probe.errors_by_width
            assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
        assert min(scaled) > 0.0
        assert time.perf_counter() - started <= 60.0


def test_criterion_10_tail_mass_integrals():
    """Normalization converges under refinement; tail mass beats the bound."""
    with criterion("C10 tail mass integrals"):
        for m in (0, 1, 2):
            report = lower_bounds.example2_tail_mass(m, 2.0)
            assert report.refinement_rel_diff <= 5e-4  # 3 significant digits
        for A in (1.0, 2.0, 3.0):
            for m in (0, 1, 2):
                report = lower_bounds.example2_tail_mass(m, A)
                lhs = report.lambda_tail * A * math.exp(A * A / 4.0)
                rhs = 0.5 * 4.0 * math.sqrt(math.pi) / report.Z
                assert lhs >= rhs


def test_criterion_11_l1_norm_certificates():
    """Witness norms match the geometric closed form; certificates are
    width-independent (medians of 100 bounds per width within 1.5x)."""
    with criterion("C11 l1 norm certificates"):
        for n, k, d, m in [(8, 1, 1, 1), (16, 2, 2, 1), (4, 1, 2, 2), (32, 1, 1, 0)]:
            witness = lower_bounds.oscillatory_witness(n, k, d, m)
            closed = math.sqrt(
                sum((2 * math.pi * witness.K) ** (2 * a) for a in range(m + 1))
            )
            assert witness.hm_norm == pytest.approx(closed, rel=1e-9)

        rng = np.random.default_rng(42)
        medians = {}
        for width in (8, 32, 128):
            bounds = []
            for _ in range(100):
                omegas = uniform_sphere(rng, width, 2)
                biases = rng.uniform(0.0, 2.0, width)
                raw = rng.uniform(0.2, 1.0, width)
                outer = raw / raw.sum()
                net = relu_nets.relu_network(
                    [(outer[i], omegas[i], biases[i], 2) for i in range(width)]
                )
                hb = relu_nets.network_hm_upper(
                    net, [(0.0, 1.0), (0.0, 1.0)], 1, 2.0
                )
                bounds.append(hb.bound)
            medians[width] = float(np.median(bounds))
        assert max(medians.values()) / min(medians.values()) <= 1.5


def test_criterion_12_packing_decomposition():
    """Main + cross = total at every witness point; distances degenerate
    and symmetric where they must."""
    with criterion("C12 packing decomposition"):
        family = lower_bounds.build_packing("relu", 2, 2, 32, seed=0)
        report = lower_bounds.pairwise_separation(family, pair_budget=64, seed=1)
        assert report.identity_violation <= 1e-9
        assert np.isfinite(report.cross_term).all()

        x = family.directions.points[: family.m]
        for i in range(len(family.signs)):
            assert np.max(np.abs(family.evaluate(i, x) - family.evaluate(i, x))) == 0.0
        forward = np.max(np.abs(family.evaluate(0, x) - family.evaluate(3, x)))
        backward = np.max(np.abs(family.evaluate(3, x) - family.evaluate(0, x)))
        assert forward == backward


def test_criterion_13_cli_determinism(tmp_path, capsys):
    """Fixed argv and seed produce byte-identical output files."""
    with criterion("C13 CLI determinism"):
        cases = [
            ["greedy-fourier", "--n-grid", "2:256", "--seed", "7"],
            ["sphere-net", "--d", "3", "--m", "16", "--seed", "3"],
            ["example2-tail", "--m", "1", "--A", "2"],
            ["exponents", "--d", "2", "--m", "0", "--k", "1", "--s", "0.5"],
        ]
        for idx, args in enumerate(cases):
            first = tmp_path / f"first_{idx}.out"
            second = tmp_path / f"second_{idx}.out"
            assert dispatch(args + ["--output", str(first)]) == 0
            assert dispatch(args + ["--output", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()


def test_exponent_json_worked_example(capsys):
    """CLI surface of criterion 1: JSON carries t = 0.5 for the worked point."""
    with criterion("C1 CLI exponents"):
        code = dispatch(["exponents", "--d", "2", "--m", "0", "--k", "1",
                         "--s", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == pytest.approx(0.5, abs=1e-12)
