import importlib.util
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from barronlab import cli, greedy_fourier, rates, relu_nets, sphere_geom, subsample
from barronlab.numerics import RateFit


def _run_all_experiments_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestGridValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError, match="4 points"):
            rates.run_experiment(rates.GREEDY_FOURIER, None, [2, 4, 8])

    def test_not_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            rates.run_experiment(rates.GREEDY_FOURIER, None, [2, 4, 4, 8, 64])

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="decades"):
            rates.run_experiment(rates.GREEDY_FOURIER, None, [2, 4, 8, 16])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            rates.run_experiment("nope", None, [2, 4, 8, 64])


class TestGreedyFourierExperiment:
    GRID = [2, 4, 8, 16, 32, 64, 128, 256]

    def test_bound_satisfied_with_monotone_errors(self):
        report = rates.run_experiment(
            rates.GREEDY_FOURIER, {"d": 1, "ks": 2.0, "m": 0}, self.GRID, seed=7
        )
        assert report.verdict == rates.BOUND_SATISFIED
        errors = [e for _, e in report.samples]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert report.predicted_exponent == pytest.approx(2.5)

    def test_reproducible_bitwise(self):
        a = rates.run_experiment(rates.GREEDY_FOURIER, None, self.GRID, seed=3)
        b = rates.run_experiment(rates.GREEDY_FOURIER, None, self.GRID, seed=3)
        assert a.samples == b.samples
        assert a.fit == b.fit


    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ks, m", [(1.5, 0), (2.0, 1), (3.7, 1), (2.0, 2)])
    def test_prediction_is_the_calculators(self, d, ks, m):
        report = rates.run_experiment(rates.GREEDY_FOURIER,
                                      {"d": d, "ks": ks, "m": m, "xi_max": 64.0}, [1, 4, 16, 32])
        table = greedy_fourier.rate_exponents(ks, m, 1, d)
        assert report.predicted_exponent == table.greedy_fourier_exponent
        assert report.predicted_exponent == 0.5 + (ks - m) / d


class TestOtherKinds:
    def test_sobolev_compile(self):
        report = rates.run_experiment(
            rates.SOBOLEV_COMPILE, {"ell": 2}, [2, 4, 8, 16, 32, 64], seed=0
        )
        assert report.verdict == rates.BOUND_SATISFIED
        assert report.predicted_exponent == pytest.approx(2.0)

    def test_sobolev_compile_matches_per_q_sup_error(self):
        grid = [2, 4, 8, 16, 32, 64]
        report = rates.run_experiment(rates.SOBOLEV_COMPILE, {"d": 2}, grid)
        f = rates.sine_target
        assert report.samples == tuple(
            (q, relu_nets.compile_sobolev_approximant(
                f, 2, relu_nets.CubePartition(2, q)).sup_error(f)) for q in grid)

    def test_sobolev_compile_probes_target_once_per_sweep(self, monkeypatch):
        probe_calls = []
        sine_target = rates.sine_target

        def counted(pts):
            if len(pts) == 401**2:
                probe_calls.append(len(pts))
            return sine_target(pts)

        monkeypatch.setattr(rates, "sine_target", counted)
        rates.run_experiment(rates.SOBOLEV_COMPILE, {"d": 2}, [2, 4, 8, 16, 32, 64])
        assert probe_calls == [401**2]

    def test_sphere_cover(self):
        report = rates.run_experiment(
            rates.SPHERE_COVER, {"d": 2}, [4, 8, 16, 32, 64, 128], seed=1
        )
        assert report.verdict == rates.BOUND_SATISFIED

    def test_subsample_concentration(self):
        report = rates.run_experiment(
            rates.SUBSAMPLE_CONCENTRATION, {"N": 256, "M": 10},
            [4, 8, 16, 32, 64, 128], seed=2,
        )
        assert report.verdict in (rates.BOUND_SATISFIED, rates.BOUND_VIOLATED)
        assert len(report.samples) == 6

    def test_dyadic_residual(self):
        report = rates.run_experiment(
            rates.DYADIC_RESIDUAL, None, [2, 4, 8, 16, 32, 64], seed=0
        )
        assert report.verdict == rates.BOUND_SATISFIED
        errors = [e for _, e in report.samples]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("decay", [0.75, 2.0])
    def test_dyadic_residual_predicts_from_decay(self, decay):
        # The tail (1 + |z|)^(-decay) beyond 2^k has norm ~ n^(1/2 - decay);
        # 0.5 whatever the decay read bound-violated at 0.75 (slope -0.316).
        report = rates.run_experiment(rates.DYADIC_RESIDUAL, {"decay": decay},
                                      [2, 4, 8, 16, 32, 64])
        assert report.predicted_exponent == decay - 0.5
        assert report.verdict == rates.BOUND_SATISFIED

    def test_dyadic_residual_refuses_a_tail_that_does_not_decay(self, monkeypatch):
        from barronlab import lower_bounds
        monkeypatch.setattr(lower_bounds, "decaying_spectrum", None)
        with pytest.raises(ValueError, match="needs decay > 0.5 for a residual that decays, "
                                             "got decay=0.4"):
            rates.run_experiment(rates.DYADIC_RESIDUAL, {"decay": 0.4}, [2, 4, 8, 16, 32, 64])

    def test_packing_separation_is_informational(self):
        report = rates.run_experiment(
            rates.PACKING_SEPARATION,
            {"family": "fourier", "d": 2, "k_or_s": 1.0},
            [8, 16, 32, 64, 128, 256], seed=3,
        )
        assert report.verdict == rates.INFORMATIONAL

    def test_subrun_beyond_the_direction_cap_is_refused(self):
        # Was recorded under "failures" with an informational verdict.
        with pytest.raises(ValueError, match="m = 32 at n=1024 exceeds the desk-scale cap"):
            rates.run_experiment(
                rates.PACKING_SEPARATION,
                {"family": "fourier", "d": 2, "k_or_s": 1.0},
                [64, 256, 1024, 100_000], seed=3,
            )

    def test_programming_error_propagates(self, monkeypatch):
        # A bug must crash the run instead of exiting as informational.
        def broken(*args):
            raise TypeError("broken runner")

        monkeypatch.setattr(greedy_fourier, "heavy_tail_sweep",
                            lambda *args: (broken, None))
        with pytest.raises(TypeError, match="broken runner"):
            rates.run_experiment(rates.GREEDY_FOURIER, None,
                                 [2, 4, 8, 16, 32, 64], seed=0)


class TestRefusedSweeps:
    # Each sweep exited 0 as informational, with a null fit or "failures",
    # except m=200, which fitted slope NaN with r^2 1.0 through infinities.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, params, grid, named", [
        (rates.GREEDY_FOURIER, {"xi_max": 2}, [2, 4, 8, 16, 32, 64, 128, 256],
         "got 0.0 at n=4"),
        (rates.DYADIC_RESIDUAL, None, [2**i for i in range(1, 11)], "got 0.0 at n=512"),
        (rates.PACKING_SEPARATION, None, [8 * 4**i for i in range(8)],
         "m = 22 at n=512 exceeds"),
        (rates.PACKING_SEPARATION, {"k_or_s": 1000}, [2, 4, 8, 16, 32, 64, 128, 256],
         "R^1000 with R = n^0.5 leaves the float range at n=8"),
        (rates.GREEDY_FOURIER, {"m": 200}, [2, 4, 8, 16, 32, 64, 128, 256],
         "got m=200, ks=2.0 at xi_max=400"),
    ])
    def test_refusal_names_n_and_value(self, kind, params, grid, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            rates.run_experiment(kind, params, grid)

    # Each ran every sub-run in overflowing arithmetic before the fit refused.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [{"m": 46}, {"m": 1, "xi_max": 1e308}, {"ks": -1e308}])
    def test_greedy_overflow_refused_before_the_sweep(self, monkeypatch, params):
        monkeypatch.setattr(greedy_fourier, "heavy_tail_sweep", lambda *a: pytest.fail("swept"))
        with pytest.raises(ValueError, match=r"and w_m\(xi_max\) below 2\^1023, got m="):
            rates.run_experiment(rates.GREEDY_FOURIER, params, [2, 4, 8, 16, 32, 64, 128, 256])

    @pytest.mark.filterwarnings("error")
    def test_greedy_largest_finite_weight_still_runs(self):
        # (2 pi 400)^90 is about 2^1016.5, so w_45 at the default xi_max is finite.
        # The overflow check takes m = 45; the sweep refuses it at ks = 2 only
        # because 1/2 + (ks - m)/d < 0 predicts no decay.
        tail, _ = greedy_fourier.heavy_tail_sweep(1, 2.0, 45, 400.0, 0)
        assert all(0.0 < tail(n) < math.inf for n in (2, 4, 8, 16, 32, 64, 128, 256))
        with pytest.raises(ValueError, match="decays, got ks=2.0, m=45, d=1"):
            rates.run_experiment(rates.GREEDY_FOURIER, {"m": 45},
                                 [2, 4, 8, 16, 32, 64, 128, 256])

    # Each printed bound-satisfied: tail errors never grow in n, so a
    # prediction of no decay could not fail.
    @pytest.mark.parametrize("params, named", [
        ({"ks": -5}, "ks=-5.0, m=0, d=1"),
        ({"ks": 0.4, "m": 1}, "ks=0.4, m=1, d=1"),
        ({"ks": 1.0, "m": 2, "d": 2}, "ks=1.0, m=2, d=2"),  # exactly 0
    ])
    def test_greedy_prediction_of_no_decay_refused(self, monkeypatch, params, named):
        monkeypatch.setattr(greedy_fourier, "heavy_tail_sweep", lambda *a: pytest.fail("swept"))
        with pytest.raises(ValueError, match=re.escape(
                f"needs 1/2 + (ks - m)/d > 0 for a tail that decays, got {named}")):
            rates.run_experiment(rates.GREEDY_FOURIER, params, [2, 4, 8, 16, 32, 64, 128, 256])

    def test_broadcast_bug_in_a_subrun_propagates(self, monkeypatch):
        real = sphere_geom.greedy_net

        def broken(d, m, **kwargs):
            if m >= 32:
                np.zeros(3) + np.zeros(4)
            return real(d, m, **kwargs)

        monkeypatch.setattr(sphere_geom, "greedy_net", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            rates.run_experiment(rates.SPHERE_COVER, {"d": 2}, [4, 8, 16, 32, 64, 128, 256])


class TestParameters:
    GRID = [2, 4, 8, 16, 32, 64]

    def test_unknown_key_names_key_and_accepted_keys(self):
        # 'xi-max' used to be ignored: the run went on with xi_max = 400.
        # tolerance=0.2 used to turn a bound-violated sweep into
        # bound-satisfied, and s=0.1 replaced sobolev-compile's prediction.
        for kind, key, accepted in [
            (rates.GREEDY_FOURIER, "xi-max", "d, ks, m, xi_max"),
            (rates.GREEDY_FOURIER, "tolerance", "d, ks, m, xi_max"),
            (rates.SOBOLEV_COMPILE, "s", "d, ell"),
        ]:
            with pytest.raises(ValueError, match=f"'{key}' for kind {kind}; "
                                                 f"accepted: {accepted}$"):
                rates.run_experiment(kind, {key: 0.2}, self.GRID)

    @pytest.mark.parametrize("kind", rates.EXPERIMENT_KINDS)
    def test_every_kind_takes_its_defaults_and_tolerance(self, kind, monkeypatch):
        # The slope slack is the code's constant, recorded in every report;
        # no parameter sets it.
        defaults = rates.KINDS[kind][0]
        config = rates.kind_config(kind, defaults)
        assert list(config) == list(defaults)
        for key in ("tolerance", "seed"):
            with pytest.raises(ValueError, match=f"'{key}'"):
                rates.kind_config(kind, {key: 1})
        monkeypatch.setitem(rates.KINDS, kind, rates.KINDS[kind]._replace(
            setup=lambda c, grid, seed: (1.0, lambda n, _: 1.0 / n)))
        report = rates.run_experiment(kind, None, self.GRID)
        assert report.config["tolerance"] == rates.SLOPE_TOLERANCE

    def test_values_cast_to_default_types(self):
        config = rates.kind_config(rates.GREEDY_FOURIER, {"d": 2.0, "ks": 3, "xi_max": 60})
        assert (config["d"], config["ks"], config["xi_max"]) == (2, 3.0, 60.0)
        assert type(config["d"]) is int and type(config["ks"]) is float
        assert type(config["xi_max"]) is float

    def test_text_values_cast_like_numbers(self):
        # The command line hands its KEY=VALUE text over uncast; "1.0" for
        # an integer key used to end in int()'s bare "invalid literal".
        text = rates.kind_config(rates.GREEDY_FOURIER,
                                 {"d": "2", "ks": "3", "m": "1.0", "xi_max": "6e1"})
        assert text == rates.kind_config(rates.GREEDY_FOURIER,
                                         {"d": 2, "ks": 3.0, "m": 1, "xi_max": 60.0})
        assert type(text["d"]) is int and type(text["m"]) is int

    @pytest.mark.parametrize("key", ["d", "m"])
    def test_non_integral_value_for_integer_key_refused(self, key):
        # int() used to truncate: m=0.5 ran as m=0 and reported that run.
        with pytest.raises(ValueError, match=f"'{key}' for kind greedy-fourier must be "
                                             "an integer, got 0.5"):
            rates.kind_config(rates.GREEDY_FOURIER, {key: 0.5})

    @pytest.mark.parametrize("kind, key", [
        (rates.GREEDY_FOURIER, "xi_max"),  # used to end in an OverflowError
        (rates.DYADIC_RESIDUAL, "xi_max"),  # likewise
        (rates.GREEDY_FOURIER, "m"),
    ])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_refused(self, kind, key, value):
        with pytest.raises(ValueError, match=f"'{key}' for kind {kind} must be finite"):
            rates.kind_config(kind, {key: value})

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in rates.EXPERIMENT_KINDS
        for key, value in rates.kind_config(kind, None).items() if not isinstance(value, str)
    ])
    def test_non_numeric_value_names_key_kind_and_value(self, kind, key):
        # Used to end in the bare "could not convert string to float: 'abc'".
        with pytest.raises(ValueError, match=f"'{key}' for kind {kind} must be a number, "
                                             "got 'abc'"):
            rates.kind_config(kind, {key: "abc"})

    def test_no_restart_refused_before_the_sweep(self, monkeypatch):
        # Used to exit as informational with every n < N sub-run failed.
        monkeypatch.setattr(subsample, "maurey_subsample", None)
        with pytest.raises(ValueError, match="needs restarts >= 1, got restarts=0"):
            rates.run_experiment(rates.SUBSAMPLE_CONCENTRATION, {"restarts": 0}, self.GRID)

    @pytest.mark.parametrize("grid, big_n", [([2, 4, 8, 16, 32, 64, 128, 256], 256),
                                             (GRID, 64), (GRID, 40)])
    def test_grid_reaching_n_refused_before_the_sweep(self, monkeypatch, grid, big_n):
        # At n = N the identity selection has deviation 0: the default grid
        # 2:256 at N = 256 exited as informational with "fit": null.
        monkeypatch.setattr(subsample, "maurey_subsample", None)
        with pytest.raises(ValueError, match=f"needs every n < N, got n={grid[-1]} "
                                             f"with N={big_n}"):
            rates.run_experiment(rates.SUBSAMPLE_CONCENTRATION, {"N": big_n}, grid)

    @pytest.mark.parametrize("big_n", [0, -2])
    def test_no_term_refused_before_the_sweep(self, monkeypatch, big_n):
        # Used to exit as informational with every sub-run failed.
        monkeypatch.setattr(subsample, "maurey_subsample", None)
        with pytest.raises(ValueError, match=f"needs N >= 1, got N={big_n}"):
            rates.run_experiment(rates.SUBSAMPLE_CONCENTRATION, {"N": big_n}, self.GRID)

    @pytest.mark.parametrize("big_n, n_monomials, named", [
        (-3, 10, "N=-3"), (0, 10, "N=0"), (256, -1, "M=-1"), (256, 0, "M=0"),
    ])
    def test_seeded_subsample_names_an_empty_size(self, big_n, n_monomials, named):
        # Negative sizes ended in NumPy's "negative dimensions are not allowed".
        with pytest.raises(ValueError, match=f"subsampling needs .* >= 1, got {named}"):
            rates.seeded_subsample(big_n, n_monomials, 4, 8, 0)

    def test_negative_xi_max_refused_before_the_sweep(self):
        # Used to exit as informational with a null fit.
        with pytest.raises(ValueError, match="xi_max must be >= 0"):
            rates.run_experiment(rates.DYADIC_RESIDUAL, {"xi_max": -5}, self.GRID)

    @pytest.mark.parametrize("key, value", [("m", -1), ("xi_max", -5.0)])
    def test_negative_greedy_parameter_refused_before_the_sweep(self, monkeypatch,
                                                                 key, value):
        # m = -1 used to exit as informational with every sub-run failed;
        # xi_max = -5 ended in "cannot order an empty expansion".
        monkeypatch.setattr(greedy_fourier, "heavy_tail_sweep", None)
        with pytest.raises(ValueError, match=f"needs {key} >= 0, got {key}={value}"):
            rates.run_experiment(rates.GREEDY_FOURIER, {key: value}, self.GRID)

    @pytest.mark.parametrize("key, value, named", [
        ("ell", -1, "ell >= 0, got ell=-1"),
        ("d", 4, "d <= 3, got d=4"),
    ], ids=["ell", "d"])
    def test_sobolev_compile_parameter_refused_before_the_sweep(self, monkeypatch,
                                                                key, value, named):
        # ell and d used to exit as informational with every sub-run failed.
        # No target is taken first.
        monkeypatch.setattr(relu_nets, "compile_sobolev_approximant", None)
        monkeypatch.setattr(rates, "sine_target", None)
        with pytest.raises(ValueError, match=f"kind sobolev-compile needs {named}"):
            rates.run_experiment(rates.SOBOLEV_COMPILE, {key: value}, self.GRID)

    def test_sobolev_compile_oversized_grid_refused_before_the_sweep(self, monkeypatch):
        # The grid's largest q is checked against the compile cap before the
        # target is built or probed, so nothing large is allocated.
        monkeypatch.setattr(relu_nets, "compile_sobolev_approximant", None)
        monkeypatch.setattr(relu_nets, "probe_target", None)
        monkeypatch.setattr(rates, "sine_target", None)
        with pytest.raises(ValueError, match=f"q = {self.GRID[-1]}, d = 3, ell = 2"):
            rates.run_experiment(rates.SOBOLEV_COMPILE, {"d": 3}, self.GRID)

    def test_derived_defaults_filled_in(self):
        report = rates.run_experiment(rates.GREEDY_FOURIER, None, self.GRID)
        assert report.config["xi_max"] == 400.0
        report = rates.run_experiment(rates.SOBOLEV_COMPILE, {"ell": 1}, self.GRID)
        assert "s" not in report.config and report.predicted_exponent == 1.0

    @pytest.mark.parametrize("kind, d, least", [
        (rates.SPHERE_COVER, 1, 2),  # used to divide by d - 1 = 0
        (rates.PACKING_SEPARATION, 0, 2),  # used to divide by 2 d = 0
        (rates.PACKING_SEPARATION, 1, 2),  # every sub-run failed: no sphere S^0 net
        (rates.GREEDY_FOURIER, 0, 1),
        (rates.SOBOLEV_COMPILE, 0, 1),
    ])
    def test_dimension_below_least_refused(self, kind, d, least):
        with pytest.raises(ValueError, match=f"needs d >= {least}, got d={d}"):
            rates.run_experiment(kind, {"d": d}, self.GRID)

    def test_run_all_experiments_entries_pass_the_parameter_check(self):
        # Checks the script's RUNS table without running any sweep.
        script = _run_all_experiments_script()
        assert {kind for kind, _, _ in script.RUNS} == set(rates.EXPERIMENT_KINDS)
        for kind, params, grid in script.RUNS:
            rates.kind_config(kind, params)
            rates._validate_grid(grid)

    def test_run_all_experiments_stdout_is_seeded(self, monkeypatch, capsys, tmp_path):
        # Each verdict line used to end in the run's wall time, so two seeded
        # runs could differ in stdout; the time now goes to stderr.
        script = _run_all_experiments_script()
        streams = []
        for outdir in ("first", "second"):
            monkeypatch.setattr(sys, "argv", ["run_all_experiments.py",
                                              str(tmp_path / outdir), "--seed", "0"])
            script.main()
            streams.append(capsys.readouterr())
        assert streams[0].out == streams[1].out
        assert len(streams[0].out.splitlines()) == len(script.RUNS)
        assert len(streams[0].err.splitlines()) == len(script.RUNS)

    @pytest.mark.parametrize("verdict, code", [
        (rates.BOUND_VIOLATED, 1), (rates.BOUND_SATISFIED, 0), (rates.INFORMATIONAL, 0)])
    def test_run_all_experiments_exits_one_on_a_failed_verdict(
            self, monkeypatch, capsys, tmp_path, verdict, code):
        script = _run_all_experiments_script()
        monkeypatch.setattr(script, "RUNS", [run for run in script.RUNS
                                             if run[0] == rates.DYADIC_RESIDUAL])
        monkeypatch.setattr(rates, "_verdict", lambda fit, predicted, check: verdict)
        monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", str(tmp_path)])
        assert script.main() == code
        assert f"verdict={verdict}" in capsys.readouterr().out


class TestGreedyFourierDimension:
    def test_three_dimensional_sweep_reports_a_verdict(self):
        # 49^3 box rows, 8 grid points up to n = 4096, default ks, m, seed and
        # tolerance.  Measured: slope -1.041 against the predicted -1.167.
        report = rates.run_experiment(
            rates.GREEDY_FOURIER, {"d": 3, "xi_max": 48.0},
            [32, 64, 128, 256, 512, 1024, 2048, 4096], seed=0,
        )
        assert report.predicted_exponent == pytest.approx(0.5 + 2.0 / 3.0)
        assert report.verdict == rates.BOUND_SATISFIED

    def test_default_xi_max_refused_at_three_dimensions(self):
        # m = 2 is not radial at d = 3, so the sweep takes the 401^3-row box.
        with pytest.raises(ValueError, match=r"\(2\*200 \+ 1\)\^3 = 6\.45e\+07 rows"):
            rates.run_experiment(rates.GREEDY_FOURIER, {"d": 3, "m": 2},
                                 [2, 4, 8, 16, 32, 64])

    def test_default_xi_max_runs_at_three_dimensions_from_shells(self):
        # Refused as a 401^3-row box before the shell path: 201^2 shell rows.
        report = rates.run_experiment(rates.GREEDY_FOURIER, {"d": 3},
                                      [2, 4, 8, 16, 32, 64])
        assert report.config["xi_max"] == 400.0
        assert all(e > 0 for _, e in report.samples)


class TestVerdictRule:
    def test_pure_function_of_fit_and_prediction(self):
        fit = RateFit(slope=-2.0, intercept=0.0, r_squared=1.0)
        # The fixed slack 0.15 lies between 0.1 and 0.2.
        assert rates._verdict(fit, 2.1, rates.UPPER) == rates.BOUND_SATISFIED
        assert rates._verdict(fit, 2.2, rates.UPPER) == rates.BOUND_VIOLATED
        assert rates._verdict(fit, 2.5, rates.INFORMATIONAL) == rates.INFORMATIONAL

    @pytest.mark.parametrize("predicted", [1.0 / 3.0, 0.5, 1.0, 7.0 / 6.0, 2.0])
    def test_upper_boundary_is_inclusive(self, predicted):
        edge = -predicted + rates.SLOPE_TOLERANCE
        above = np.nextafter(edge, np.inf)
        assert rates._verdict(RateFit(edge, 0.0, 1.0), predicted, rates.UPPER) \
            == rates.BOUND_SATISFIED
        assert rates._verdict(RateFit(above, 0.0, 1.0), predicted, rates.UPPER) \
            == rates.BOUND_VIOLATED

    @pytest.mark.parametrize("slope", [-1e6, -2.0, -0.85, np.nextafter(-0.85, np.inf), 0.0, 5.0])
    def test_informational_holds_at_any_slope(self, slope):
        fit = RateFit(slope=slope, intercept=0.0, r_squared=1.0)
        assert rates._verdict(fit, 1.0, rates.INFORMATIONAL) == rates.INFORMATIONAL

    def test_every_kind_declares_a_known_check(self):
        fit = RateFit(slope=-1.0, intercept=0.0, r_squared=1.0)
        for entry in rates.KINDS.values():
            assert rates._verdict(fit, 1.0, entry.check) in (
                rates.BOUND_SATISFIED, rates.INFORMATIONAL)
        with pytest.raises(ValueError, match="unknown verdict check 'lower'"):
            rates._verdict(fit, 1.0, "lower")

    def test_only_a_violated_bound_fails(self):
        assert rates.failed(rates.BOUND_VIOLATED)
        assert not rates.failed(rates.BOUND_SATISFIED)
        assert not rates.failed(rates.INFORMATIONAL)


class TestSerialization:
    def test_json_schema_and_determinism(self):
        report = rates.run_experiment(
            rates.DYADIC_RESIDUAL, None, [2, 4, 8, 16, 32, 64], seed=0
        )
        payload = json.loads(rates.report_to_json(report))
        assert set(payload) == {
            "kind", "config", "samples", "fit", "predicted", "verdict", "seconds",
        }
        assert payload["seconds"] is None and report.seconds >= 0.0
        assert payload["samples"][0].keys() == {"n", "error"}
        assert {"slope", "intercept", "r2"} == set(payload["fit"])

    def test_csv_rows(self):
        report = rates.run_experiment(
            rates.DYADIC_RESIDUAL, None, [2, 4, 8, 16, 32, 64], seed=0
        )
        lines = cli.csv_text([("n", "error"), *report.samples]).splitlines()
        assert lines[0] == "n,error"
        assert len(lines) == 1 + len(report.samples)
        assert [(int(n), float(e)) for n, e in (line.split(",") for line in lines[1:])] \
            == list(report.samples)
