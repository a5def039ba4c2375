import csv
import io
import json
import pathlib
import re
import shlex

import pytest

from barronlab import cli, rates
from barronlab.cli import ANCHORS, build_parser, dispatch, _parse_grid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
SUBCOMMANDS = list(PARSERS)
TWO_FORMATS = {"greedy-fourier": "csv", "relu-compile": "csv", "sphere-net": "csv",
               "packing": "csv", "rates": "json"}


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

    @pytest.mark.parametrize("args", [
        ("subsample", "--restarts", "0"),
        ("rates", "--kind", "subsample-concentration", "--param", "restarts=0",
         "--n-grid", "4:256"),
    ])
    def test_no_restart_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "restarts" in err

    def test_resolution_flag_is_unknown(self, capsys):
        code, out, err = run_cli(capsys, "example2-tail", "--resolution", "128")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --resolution 128" in err

    @pytest.mark.parametrize("m", ["30", "400"])
    def test_uncertified_tail_order_is_usage_error(self, capsys, m):
        # m = 30 printed Z and lambda_tail with a 0.19 Z remainder bound;
        # m = 400 ended in an OverflowError traceback (exit 1).
        code, out, err = run_cli(capsys, "example2-tail", "--m", m)
        assert code == 2 and out == ""
        assert f"m={m}: the certified remainder" in err and "exceeds 1% of Z" in err

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
        ("subsample", "--M", "0"),
        ("rates", "--kind", "subsample-concentration", "--param", "M=0",
         "--n-grid", "4:128"),
    ])
    def test_no_monomial_is_usage_error(self, capsys, args):
        # Both named no parameter; the rates sweep even exited 0.
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "M=0" in err

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
