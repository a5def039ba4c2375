import csv
import io
import json
import math
import pathlib
import re
import os
import shlex
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from barronlab import cli, rates, relu_nets, sphere_geom
from barronlab.cli import ANCHORS, build_parser, dispatch, _parse_grid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
SUBCOMMANDS = list(PARSERS)
TWO_FORMATS = {"relu-compile": "csv", "sphere-net": "csv", "packing": "csv", "rates": "json"}


def readme_commands() -> list[list[str]]:
    """Arguments of the ``barronlab ...`` lines in the README's command block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("barronlab ")]


def run_cli(capsys, *args):
    code = dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_geometric(self):
        assert _parse_grid("2:256") == [2, 4, 8, 16, 32, 64, 128, 256]

    def test_geometric_with_factor(self):
        assert _parse_grid("2:256:4") == [2, 8, 32, 128]

    def test_comma_list(self):
        assert _parse_grid("3,5,9") == [3, 5, 9]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            _parse_grid("abc")


class TestExponentsCommand:
    def test_worked_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--d", "2", "--m", "0", "--k", "1", "--s", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == pytest.approx(0.5, abs=1e-12)
        assert "threshold" in payload
        assert payload["log_power"] == 0.0


class TestListFlag:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_prints_anchor_and_computes_nothing(self, capsys, monkeypatch, command):
        def refuse(args):
            raise AssertionError(f"{command} --list ran its handler")

        for name in dir(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, refuse)
        code, out, _ = run_cli(capsys, command, "--list")
        assert code == 0
        assert out == ANCHORS[command] + "\n"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "exponents", "--bogus")
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_precondition_violation_names_parameter(self, capsys):
        code, _, err = run_cli(capsys, "example2-tail", "--A", "0.5")
        assert code == 2
        assert "A >= 1" in err

    @pytest.mark.parametrize("args", [
        ("rates", "--kind", "dyadic-residual", "--n-grid", "0,10,100,1000"),
        ("greedy-fourier", "--n-grid", "0,8,64,512"),
    ])
    def test_grid_below_one_is_usage_error(self, capsys, args):
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "n grid values must be >= 1, got [0, " in err

    def test_unknown_param_names_the_key(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--kind", "greedy-fourier",
                                 "--param", "xi-max=100")
        assert code == 2 and out == ""
        assert "'xi-max'" in err and "xi_max" in err

    @pytest.mark.parametrize("args, key", [
        # The README's bound-violated d = 6 row exited 0 as bound-satisfied.
        (("--kind", "greedy-fourier", "--param", "d=6", "--param", "xi_max=160",
          "--n-grid", "32:1000000", "--param", "tolerance=0.2"), "tolerance"),
        # Reported "predicted": 0.1 and bound-satisfied.
        (("--kind", "sobolev-compile", "--n-grid", "2:64", "--param", "s=0.1"), "s"),
    ], ids=["tolerance", "s"])
    def test_verdict_gate_param_is_usage_error(self, capsys, args, key):
        code, out, err = run_cli(capsys, "rates", *args)
        assert code == 2 and out == ""
        assert f"unknown parameter '{key}'" in err

    @pytest.mark.parametrize("args, named", [
        # rates used to exit 0, informational, with every sub-run failed;
        # packing ran k = 2.7 as k = 2.
        (("rates", "--kind", "packing-separation", "--param", "family=bogus",
          "--n-grid", "8:256"), "family='bogus'"),
        (("rates", "--kind", "packing-separation", "--param", "family=relu",
          "--param", "k_or_s=2.5", "--n-grid", "8:256"), "k_or_s=2.5"),
        (("packing", "--kind", "relu", "--k", "2.7", "--n", "32"), "k=2.7"),
    ])
    def test_misread_packing_parameter_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert named in err

    def test_relu_compile_has_no_smoothing_flag(self, capsys):
        # --smoothing was validated and then dropped: it changed no output.
        code, out, _ = run_cli(capsys, "relu-compile", "--q", "4", "--smoothing", "100")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("args", [
        ("rates", "--kind", "sphere-cover", "--param", "d=1"),
        ("rates", "--kind", "packing-separation", "--param", "d=0"),
    ])
    def test_dimension_out_of_range_is_usage_error(self, capsys, args):
        # Both used to end in a ZeroDivisionError traceback and exit 1.
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "needs d >= " in err

    @pytest.mark.parametrize("args", [
        ("packing", "--kind", "fourier", "--d", "0"),
        ("witness", "--d", "0"),
        ("relu-compile", "--d", "0"),
    ])
    def test_dimension_zero_names_d(self, capsys, args):
        # packing and witness used to end in a ZeroDivisionError traceback
        # (exit 1); relu-compile exited 2 with a NumPy message naming no
        # parameter.
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "dimension d must be >= 1, got 0" in err

    @pytest.mark.parametrize("args, named", [
        (("relu-compile", "--d", "3", "--q", "100000"), "q = 100000, d = 3, ell = 2"),
        (("rates", "--kind", "sobolev-compile", "--param", "d=3", "--n-grid", "2:128"),
         "q = 128, d = 3, ell = 2"),
    ], ids=["relu-compile", "rates"])
    def test_oversized_compile_refused(self, capsys, monkeypatch, args, named):
        # relu-compile --d 3 --q 100000 used to exit 1 with a NumPy
        # _ArrayMemoryError traceback (2.60 EiB for CubePartition.grids).
        # Nothing here may allocate: without the refusal, grids and
        # probe_target end in a TypeError instead.
        monkeypatch.setattr(relu_nets.CubePartition, "grids", None)
        monkeypatch.setattr(relu_nets, "probe_target", None)
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert named in err

    def test_format_declared_where_there_are_two(self):
        declared = {name: next(a.default for a in p._actions if a.dest == "format")
                    for name, p in PARSERS.items()
                    if any(a.dest == "format" for a in p._actions)}
        assert declared == TWO_FORMATS

    @pytest.mark.parametrize("command", sorted(set(SUBCOMMANDS) - set(TWO_FORMATS)))
    def test_format_on_single_format_subcommand_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--format", "csv")
        assert code == 2 and out == ""
        assert "--format" in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_seed_on_every_subcommand(self, command):
        assert any(a.dest == "seed" for a in PARSERS[command]._actions)

    @pytest.mark.parametrize("args, flag", [
        # The first four used to end in an OverflowError traceback (exit 1),
        # and example1-gap printed inf,nan,nan with exit 0.
        (("greedy-fourier", "--xi-max", "inf"), "--xi-max"),
        (("dyadic", "--xi-max", "inf"), "--xi-max"),
        (("rates", "--kind", "greedy-fourier", "--param", "xi_max=inf"), "'xi_max'"),
        (("rates", "--kind", "dyadic-residual", "--param", "xi_max=inf"), "'xi_max'"),
        (("example1-gap", "--omega0-grid", "8,inf"), "--omega0-grid"),
        (("exponents", "--s", "nan"), "--s"),
        (("example2-tail", "--A=-inf"), "--A"),
    ])
    def test_non_finite_number_is_usage_error(self, capsys, args, flag):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert flag in err and "finite" in err

    def test_malformed_float_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dyadic", "--decay", "abc")
        assert code == 2 and out == ""
        assert "--decay" in err and "'abc'" in err

    @pytest.mark.parametrize("args", [
        ("monomial-check", "--k", "-1"),  # used to print "pass": true
        ("monomial-check", "--k", "0"),  # likewise, checking no monomial
        ("monomial-check", "--points", "5"),  # used to end in a NumPy traceback
    ])
    def test_monomial_check_refuses_an_empty_check(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "--k >= 1 and --points >= 10" in err

    def test_monomial_power_beyond_the_float_range_is_usage_error(self, capsys):
        # x^309 overflows at |x| near 10; --k 309 printed "pass": true with exit 0.
        code, out, err = run_cli(capsys, "monomial-check", "--k", "309")
        assert code == 2 and out == ""
        assert "monomial-check needs --k <= 308, got --k 309" in err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "monomial-check", "--k", "308", "--points", "10")
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("args", [
        ("subsample", "--restarts", "0"),
        ("rates", "--kind", "subsample-concentration", "--param", "restarts=0",
         "--n-grid", "4:256"),
    ])
    def test_no_restart_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "restarts" in err

    def test_subsample_grid_reaching_n_is_usage_error(self, capsys):
        # The default grid 2:256 at N = 256 exited 0 as informational.
        code, out, err = run_cli(capsys, "rates", "--kind", "subsample-concentration")
        assert code == 2 and out == ""
        assert "needs every n < N, got n=256 with N=256" in err

    def test_resolution_flag_is_unknown(self, capsys):
        code, out, err = run_cli(capsys, "example2-tail", "--resolution", "128")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --resolution 128" in err

    @pytest.mark.parametrize("m", ["263", "400"])
    def test_non_finite_normalization_is_usage_error(self, capsys, m):
        # m = 400 once ended in an OverflowError traceback (exit 1).
        code, out, err = run_cli(capsys, "example2-tail", "--m", m)
        assert code == 2 and out == ""
        assert f"m={m}: the normalization Z leaves the float range" in err

    def test_underflowing_tail_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "example2-tail", "--A", "60")
        assert code == 2 and out == ""
        assert "cutoff A=60.0: the tail mass 0 at m=0 underflows the float range" in err

    @pytest.mark.parametrize("args", [("--m", "30"), ("--A", "14"), ("--A", "20")])
    def test_orders_and_cutoffs_past_the_old_truncation_succeed(self, capsys, args):
        # The omega <= 14 truncation refused m >= 28 and A >= 14.
        code, out, _ = run_cli(capsys, "example2-tail", *args)
        assert code == 0 and json.loads(out)["lambda_tail"] > 0.0

    @pytest.mark.parametrize("args", [
        ("dyadic", "--xi-max", "2097152"),
        ("rates", "--kind", "dyadic-residual", "--param", "xi_max=2097152"),
    ])
    def test_oversized_dyadic_spectrum_is_usage_error(self, capsys, args):
        # 2^21 is the first xi_max above the 2^22-row cap; 1e9 ended in a
        # 14.9 GiB allocation failure (exit 1).
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "xi_max = 2097152.0 needs 4194305 index rows" in err

    @pytest.mark.parametrize("args", [
        ("greedy-fourier", "--d", "2", "--xi-max", "1e5"),
        ("rates", "--kind", "greedy-fourier", "--param", "d=2", "--param", "xi_max=1e5"),
    ])
    def test_oversized_shell_table_is_usage_error(self, capsys, args):
        # 50001^2 lattice-shell rows, refused before any allocation.
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "at most 2097152 lattice-shell rows" in err
        assert "2500100001 rows at xi_max=100000.0" in err

    def test_exponents_beyond_the_float_range_are_usage_error(self, capsys):
        # Printed "greedy_fourier_exponent": Infinity, which is not JSON, with exit 0.
        code, out, err = run_cli(capsys, "exponents", "--d", "2", "--s", "1e308",
                                 "--k", "1e308")
        assert code == 2 and out == ""
        assert "s=1e+308, m=0.0, k=1e+308, d=2 leave the float range" in err
        assert "greedy_fourier_exponent, relu_rate_exponent, smoothness_threshold" in err

    @pytest.mark.parametrize("args", [
        ("subsample", "--M", "0"),
        ("rates", "--kind", "subsample-concentration", "--param", "M=0",
         "--n-grid", "4:128"),
    ])
    def test_no_monomial_is_usage_error(self, capsys, args):
        # Both named no parameter; the rates sweep even exited 0.
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "M=0" in err

    @pytest.mark.parametrize("args", [
        ("packing", "--n", "0"),  # printed a pair at distance 0, exit 0
        ("packing", "--kind", "fourier", "--n", "0"),  # ZeroDivisionError traceback
        ("packing", "--kind", "relu", "--n", "-3"),  # TypeError traceback
    ])
    def test_packing_budget_below_one_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert f"packing budget n must be >= 1, got n={args[-1]}" in err

    @pytest.mark.parametrize("args, named", [
        (("--kind", "fourier", "--k", "1000"), "R^1000 with R = n^0.5"),  # OverflowError
        (("--kind", "relu", "--k", "400"), "R^400 with R = n^200.5"),  # printed inf,inf,nan rows
    ])
    def test_packing_scale_beyond_the_float_range_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, "packing", *args)
        assert code == 2 and out == ""
        assert f"{named} leaves the float range at n=32, k={float(args[-1])}" in err

    def test_packing_separation_refuses_scales_beyond_the_float_range(self, capsys):
        # Ended in an OverflowError traceback, then exited 0 with the
        # refusals under "failures" and a slope through n = 2 and 4 alone.
        code, out, err = run_cli(capsys, "rates", "--kind", "packing-separation",
                                 "--param", "k_or_s=1000")
        assert code == 2 and out == ""
        assert "R^1000 with R = n^0.5 leaves the float range at n=8" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, named", [
        # "fit": null, exit 0
        (("--kind", "greedy-fourier", "--param", "xi_max=2"), "got 0.0 at n=4"),
        (("--kind", "dyadic-residual", "--n-grid", "2:1024"), "got 0.0 at n=512"),
        # five sub-runs under "failures", exit 0
        (("--kind", "packing-separation", "--n-grid", "8:200000:4"), "m = 22 at n=512"),
        # slope NaN with r2 1.0, exit 1, and stdout that was not RFC 8259 JSON;
        # then a fit refusal after overflow warnings from every sub-run
        (("--kind", "greedy-fourier", "--param", "m=200"), "got m=200, ks=2.0 at xi_max=400"),
    ])
    def test_sweep_that_cannot_be_fitted_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, "rates", *args)
        assert code == 2 and out == ""
        assert named in err

    def test_broadcast_bug_in_a_sweep_is_not_informational(self, capsys, monkeypatch):
        # Exited 0 as informational with four "could not be broadcast" failures.
        real = sphere_geom.greedy_net

        def broken(d, m, **kwargs):
            if m >= 32:
                np.zeros(3) + np.zeros(4)
            return real(d, m, **kwargs)

        monkeypatch.setattr(sphere_geom, "greedy_net", broken)
        code, out, err = run_cli(capsys, "rates", "--kind", "sphere-cover",
                                 "--n-grid", "4:256", "--param", "d=2")
        assert code == 2 and out == ""
        assert "could not be broadcast" in err

    @pytest.mark.parametrize("args", [
        ("dyadic", "--xi-max", "-5"),  # printed an all-zero level-0 row, exit 0
        ("rates", "--kind", "dyadic-residual", "--param", "xi_max=-5"),  # informational
    ])
    def test_negative_xi_max_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "xi_max must be >= 0, got xi_max = -5.0" in err

    @pytest.mark.parametrize("alpha", ["-500", "0", "-1"])
    def test_non_decaying_gap_atoms_are_usage_error(self, capsys, alpha):
        # -500 printed 8,nan,nan with exit 0; 0 and -1 printed numbers for
        # atoms that do not decay.
        code, out, err = run_cli(capsys, "example1-gap", "--omega0-grid", "8", "--units", "4",
                                 "--candidates", "32", "--alpha", alpha)
        assert code == 2 and out == ""
        assert f"decay rate alpha must be a positive finite number, got {float(alpha)}" in err

    def test_gap_units_above_the_quadrature_nodes_are_usage_error(self, capsys):
        # Exited 2 with NumPy's "operands could not be broadcast together".
        code, out, err = run_cli(capsys, "example1-gap", "--omega0-grid", "8", "--units", "300",
                                 "--candidates", "4")
        assert code == 2 and out == ""
        assert "unit count must lie in [1, 256]" in err and "n_units=300" in err
        code, out, _ = run_cli(capsys, "example1-gap", "--omega0-grid", "8", "--units", "256",
                               "--candidates", "4")
        assert code == 0 and out.startswith("omega0,error,error_times_omega0\n8,")

    @pytest.mark.parametrize("param, named", [
        ("ell=-1", "ell >= 0, got ell=-1"),
        ("d=4", "d <= 3, got d=4"),
    ], ids=["ell", "d"])
    def test_sobolev_compile_parameter_is_usage_error(self, capsys, param, named):
        # Both exited 0 as informational with six failed sub-runs.
        code, out, err = run_cli(capsys, "rates", "--kind", "sobolev-compile",
                                 "--n-grid", "2:64", "--param", param)
        assert code == 2 and out == ""
        assert f"kind sobolev-compile needs {named}" in err

    @pytest.mark.parametrize("k", ["-1", "-2"])
    def test_negative_witness_power_is_usage_error(self, capsys, k):
        # -1 printed K = 1.0 for every n and -2 printed K = 0.125, exit 0.
        code, out, err = run_cli(capsys, "witness", "--k", k)
        assert code == 2 and out == ""
        assert f"power k must be a nonnegative integer, got k={k}" in err

    @pytest.mark.parametrize("args, named", [
        (("--n", "8", "--k", "400"), "K = n^((k+1)/d) must be below 2^63, got n=8, k=400"),
        (("--n", "100000", "--k", "60"), "below 2^63, got n=100000, k=60"),  # int64 overflow
        (("--n", "8", "--m", "200"), "(2 pi K)^(2m) must be below 2^1023, got m=200"),
        (("--n", "8", "--m", "100"), "got m=100 at K=64"),  # printed "hm_norm": Infinity
    ])
    def test_witness_beyond_the_number_range_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, "witness", *args)
        assert code == 2 and out == ""
        assert named in err

    @pytest.mark.parametrize("args, named", [
        (("greedy-fourier", "--m", "-1"), "m=-1"),  # IndexError traceback, exit 1
        (("rates", "--kind", "greedy-fourier", "--param", "m=-1"), "m=-1"),  # informational
        (("greedy-fourier", "--xi-max", "-5"), "xi_max=-5.0"),  # "empty expansion"
        (("rates", "--kind", "greedy-fourier", "--param", "xi_max=-5"), "xi_max=-5.0"),
    ])
    def test_negative_greedy_parameter_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert f"greedy-fourier needs {named.split('=')[0]} >= 0, got {named}" in err

    @pytest.mark.parametrize("args, named", [
        (("subsample", "--M", "-1"), "M=-1"),  # NumPy's "negative dimensions"
        (("subsample", "--N", "-3"), "N=-3"),  # likewise
        (("rates", "--kind", "subsample-concentration", "--param", "N=0",
          "--n-grid", "4:128"), "N=0"),  # informational, every sub-run failed
        (("rates", "--kind", "subsample-concentration", "--param", "N=-2",
          "--n-grid", "4:128"), "N=-2"),  # likewise
    ])
    def test_empty_subsample_size_is_usage_error(self, capsys, args, named):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert named in err

    @pytest.mark.parametrize("args", [
        ("rates", "--n-grid", "8:4"),
        ("greedy-fourier", "--n-grid", "8:4"),
        ("rates", "--param", "xi_max"),
    ])
    def test_malformed_grid_or_param_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "bad grid bounds in '8:4'" in err or "bad --param 'xi_max'" in err

    def test_unopenable_output_path_is_usage_error(self, capsys, tmp_path):
        # Ended in a FileNotFoundError traceback and exit 1, after the work.
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "exponents", "--d", "2", "--s", "0.5",
                                 "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write --output {path}: No such file or directory\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize("grid", [",", ""])
    def test_empty_omega0_grid_is_usage_error(self, capsys, grid):
        # Printed only the CSV header and exited 0.
        code, out, err = run_cli(capsys, "example1-gap", "--omega0-grid", grid)
        assert code == 2 and out == ""
        assert f"argument --omega0-grid: expected at least one number, got {grid!r}" in err

    def test_non_numeric_param_names_key_kind_and_value(self, capsys):
        # Ended in the bare "could not convert string to float: 'abc'".
        code, out, err = run_cli(capsys, "rates", "--param", "d=abc")
        assert code == 2 and out == ""
        assert err == ("error: parameter 'd' for kind greedy-fourier must be a number, "
                       "got 'abc'\n")

    def test_packing_identity_violation_exits_one(self, capsys, monkeypatch):
        # NaN passed the check and printed its rows with exit 0.
        for violation, shown in ((2e-9, "2.000e-09"), (math.nan, "nan")):
            report = types.SimpleNamespace(identity_violation=violation)
            monkeypatch.setattr(rates, "seeded_packing", lambda *args: (None, report))
            code, out, err = run_cli(capsys, "packing")
            assert code == 1 and out == ""
            assert f"identity violation {shown} exceeds 1e-9" in err

    def test_monomial_check_non_finite_deviation_exits_one(self, capsys, monkeypatch):
        # The builtin max dropped NaN deviations and printed "pass": true.
        monkeypatch.setattr(relu_nets, "evaluate_network", lambda net, x: np.full(len(x), np.nan))
        code, out, err = run_cli(capsys, "monomial-check", "--k", "2")
        assert code == 1 and out == ""
        assert "monomial-check: deviation nan is not finite" in err

    def test_monomial_check_green(self, capsys):
        code, out, _ = run_cli(capsys, "monomial-check", "--k", "4")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("greedy-fourier", "--n-grid", "2:256", "--seed", "7"),
            ("sphere-net", "--d", "2", "--m", "8", "--seed", "3"),
            ("example2-tail", "--m", "1", "--A", "2"),
            ("subsample", "--N", "64", "--n", "16", "--M", "5",
             "--restarts", "8", "--seed", "1"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, args):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "greedy-fourier", "--n-grid", "2:64", "--seed", "5",
                "--output", str(a))
        run_cli(capsys, "greedy-fourier", "--n-grid", "2:64", "--seed", "5",
                "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestOutputs:
    def test_greedy_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "greedy-fourier", "--n-grid", "2:64")
        assert code == 0
        assert out.splitlines()[0] == "n,error,bound,key_of_last_kept"

    def test_sphere_net_csv_rows(self, capsys):
        code, out, err = run_cli(capsys, "sphere-net", "--d", "3", "--m", "5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 5 and all(len(r) == 3 for r in rows)
        assert "cover_rad" in err

    def test_subsample_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "subsample", "--N", "32", "--n", "8", "--M", "4",
            "--restarts", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "restart,deviation,accepted"
        assert len(lines) == 5

    def test_packing_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "packing", "--kind", "relu", "--d", "2", "--k", "2",
            "--n", "32", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2
        assert payload["identity_violation"] <= 1e-9

    def test_packing_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "packing", "--kind", "relu", "--d", "2", "--k", "2", "--n", "32"
        )
        assert code == 0
        assert out.splitlines()[0] == "pair_index,i,j,distance,main_term,cross_term"

    def test_dyadic_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dyadic", "--xi-max", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,block_norm,residual_from_level"
        assert len(lines) == 7  # levels 0..5 for |xi| <= 32

    def test_gap_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "example1-gap", "--omega0-grid", "8,16", "--units", "3",
            "--candidates", "32",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega0,error,error_times_omega0"
        assert len(lines) == 3

    def test_tail_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "example2-tail", "--m", "0", "--A", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"m", "A", "Z", "lambda_tail", "tail_bound"}

    def test_witness_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--n", "8", "--k", "1", "--d", "1", "--m", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["K"] == 64.0
        assert payload["hm_norm"] > 64.0

    def test_relu_compile_csv(self, capsys):
        code, out, _ = run_cli(capsys, "relu-compile", "--ell", "2", "--q", "4")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[0] == "cell_index"
        assert header[-1] == "sup_error"
        assert len(out.strip().splitlines()) == 5

    def test_relu_compile_csv_check_refused_before_sampling(self, capsys, monkeypatch):
        # The compile samples 1610^2 = 2,592,100 rows, under the cap; the CSV's
        # per-cell check would sample 2898^2 = 8,398,404, over it.
        grids = relu_nets.CubePartition.grids

        def capped(self, per_axis):
            assert (self.q * per_axis) ** self.d <= relu_nets.MAX_COMPILE_ROWS, "sampled past cap"
            return grids(self, per_axis)

        monkeypatch.setattr(relu_nets.CubePartition, "grids", capped)
        code, out, err = run_cli(capsys, "relu-compile", "--d", "2", "--q", "322")
        assert (code, out) == (2, "")
        assert "q = 322, d = 2 at 9 points per axis samples 8398404 rows" in err
        code, out, _ = run_cli(capsys, "relu-compile", "--format", "json", "--d", "2",
                               "--q", "322")
        assert code == 0 and json.loads(out)["q"] == 322

    def test_rates_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--kind", "dyadic-residual", "--n-grid", "2:64"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "bound-satisfied"
        assert payload["seconds"] is None

    def test_greedy_csv_errors_equal_rates_samples(self, capsys):
        common = ("--n-grid", "4:1024", "--seed", "2")
        code, out, _ = run_cli(capsys, "greedy-fourier", "--d", "2", "--ks", "3",
                               "--m", "1", "--xi-max", "60", *common)
        assert code in (0, 1)
        rows = list(csv.DictReader(io.StringIO(out)))
        code, out, _ = run_cli(capsys, "rates", "--kind", "greedy-fourier", "--param", "d=2",
                               "--param", "ks=3", "--param", "m=1", "--param", "xi_max=60",
                               *common)
        assert code in (0, 1)
        samples = json.loads(out)["samples"]
        assert [int(r["n"]) for r in rows] == [s["n"] for s in samples]
        assert [float(r["error"]) for r in rows] == [s["error"] for s in samples]

    def test_relu_compile_json_sup_error(self, capsys):
        code, out, _ = run_cli(capsys, "relu-compile", "--format", "json", "--d", "2",
                               "--ell", "1", "--q", "4", "--cycles", "2")
        assert code == 0
        f = rates.sine_target(2.0)
        approx = relu_nets.compile_sobolev_approximant(f, 1, relu_nets.CubePartition(2, 4))
        assert json.loads(out) == {"d": 2, "ell": 1, "q": 4, "sup_error": approx.sup_error(f)}

    def test_sphere_net_json(self, capsys):
        code, out, _ = run_cli(capsys, "sphere-net", "--format", "json", "--d", "3",
                               "--m", "6", "--seed", "4")
        assert code == 0
        net = sphere_geom.greedy_net(3, 6, seed=4)
        assert json.loads(out) == {"d": 3, "m": 6, "min_sep": net.min_sep,
                                   "cover_rad": net.cover_rad}

    def test_rates_csv_equals_report_to_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--format", "csv", "--kind", "sphere-cover",
                               "--n-grid", "4:128", "--seed", "3")
        assert code == 0
        assert out == rates.report_to_csv(
            rates.run_experiment(rates.SPHERE_COVER, None, [4, 8, 16, 32, 64, 128], 3))

    def test_rates_kind_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--kind", "sobolev-compile", "--n-grid", "2:64",
            "--param", "ell=2",
        )
        assert code == 0
        assert json.loads(out)["config"]["ell"] == 2


class TestReadmeCommands:
    def test_every_subcommand_documented(self):
        assert sorted(argv[0] for argv in readme_commands()) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("kind", rates.EXPERIMENT_KINDS)
    def test_kind_table_lists_every_param(self, kind):
        row = next(line for line in README.read_text(encoding="utf-8").splitlines()
                   if line.startswith(f"| `{kind}` |"))
        assert re.findall(r"`(\w+)=", row.split("|")[2]) == list(rates.KINDS[kind][0])

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_runs_and_prints_json_or_csv(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        try:
            json.loads(out)
        except json.JSONDecodeError:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and len({len(row) for row in rows}) == 1


def _fresh_process(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that imports
    barronlab from this checkout."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_import_leaves_the_thread_pool_module_unloaded():
    # concurrent.futures costs a cold process about 7 ms; only a parallel
    # call should load it, not every command's start.
    code = "import sys, barronlab.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_process(code).strip() == "False"


LOADED_BARRONLAB = "print(*sorted(m for m in sys.modules if m.startswith('barronlab')))"


def test_import_loads_only_the_parser_modules():
    # The parser needs rates' kind names; every other module waits for its
    # subcommand.  subsample stays loaded by rates (see rates' imports).
    out = _fresh_process(f"import sys, barronlab.cli; {LOADED_BARRONLAB}")
    assert out.split() == ["barronlab", "barronlab.cli", "barronlab.numerics",
                           "barronlab.rates", "barronlab.subsample"]


# Modules each README command must leave unloaded in a fresh process.
UNUSED_MODULES = {
    "exponents": ("lower_bounds", "relu_nets", "sphere_geom"),
    "greedy-fourier": ("lower_bounds", "relu_nets", "sphere_geom"),
    "relu-compile": ("lower_bounds", "barron", "greedy_fourier", "sphere_geom"),
    "monomial-check": ("lower_bounds", "barron", "greedy_fourier", "sphere_geom"),
    "rates": ("lower_bounds", "barron", "greedy_fourier", "sphere_geom"),
    "sphere-net": ("lower_bounds", "relu_nets", "barron", "greedy_fourier"),
    "subsample": ("lower_bounds", "relu_nets", "barron", "greedy_fourier"),
    "packing": ("relu_nets", "greedy_fourier"),
    "dyadic": ("relu_nets", "sphere_geom", "greedy_fourier"),
    "example1-gap": ("relu_nets", "sphere_geom", "greedy_fourier"),
    "example2-tail": ("relu_nets", "sphere_geom", "greedy_fourier"),
    "witness": ("relu_nets", "sphere_geom", "greedy_fourier"),
}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_loads_only_the_modules_it_runs(argv):
    code = ("import contextlib, io, sys\n"
            "from barronlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.dispatch(sys.argv[1:])\n"
            f"print(code); {LOADED_BARRONLAB}")
    exit_code, loaded = _fresh_process(code, *argv).splitlines()
    assert exit_code == "0"
    assert set(loaded.split()).isdisjoint(f"barronlab.{m}" for m in UNUSED_MODULES[argv[0]])
