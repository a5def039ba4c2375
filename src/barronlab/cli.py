"""Command-line entry point: every construction and experiment behind one
deterministic, machine-readable interface.

Exit codes: 0 on success (all verdicts satisfied or informational), 1 when
an asserted invariant fails, 2 on argument or precondition errors.  All
requested output goes to --output (default stdout); diagnostics and timing
go to stderr.  Identical argv and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import rates  # each handler imports the other modules its subcommand runs


def csv_text(rows) -> str:
    """One comma-joined line per row, floats in 17 significant digits and
    every other value as ``str``; a header is the first row."""
    return "".join(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in rows)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --output {output}: {exc.strerror}") from None


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a number that is not inf or nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    values = [_finite_float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def seed_arg(text: str) -> int:
    """argparse type of every ``--seed``: an integer >= 0, as NumPy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parse_grid(text: str) -> list[int]:
    """Parse ``lo:hi[:factor]`` geometric grids or comma lists of integers."""
    def integer(entry: str) -> int:
        try:
            return int(entry)
        except ValueError:
            raise ValueError(f"bad grid {text!r}: {entry!r} is not an integer") from None

    if "," in text:
        return [integer(v) for v in text.split(",") if v.strip()]
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad grid {text!r}: use lo:hi[:factor] or a comma list")
    lo, hi = integer(parts[0]), integer(parts[1])
    factor = integer(parts[2]) if len(parts) == 3 else 2
    if lo < 1 or hi < lo or factor < 2:
        raise ValueError(f"bad grid bounds in {text!r}")
    grid = []
    n = lo
    while n <= hi:
        grid.append(n)
        n *= factor
    return grid


def _parse_params(entries) -> dict:
    """KEY=VALUE texts as a dict of texts; ``rates.kind_config`` casts them."""
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"bad --param {entry!r}: expected KEY=VALUE")
    return dict(entry.split("=", 1) for entry in entries)


ANCHORS = {
    "exponents": "closed-form rate exponents: greedy truncation, case-split "
                 "dictionary rate with log power and smoothness threshold, "
                 "uniform entropy exponent, Sobolev rate, width barrier",
    "greedy-fourier": "weighted greedy truncation of a heavy-tail lattice "
                      "spectrum; exact tail errors against the predicted rate",
    "relu-compile": "cube-partition polynomial compilation of a smooth target "
                    "with per-cell least-squares fits",
    "monomial-check": "exact one-sided power representations of monomials, "
                      "univariate and product form",
    "sphere-net": "greedy farthest-candidate direction net with separation "
                  "and probed covering radius",
    "subsample": "best-of-restarts subsampling of a convex combination with "
                 "a Hoeffding deviation certificate",
    "packing": "sign-vector packing family over separated directions with "
               "the main/cross separation split at witness points",
    "dyadic": "sharp dyadic frequency blocks: exact reconstruction, "
              "orthogonal residual tails",
    "example1-gap": "least-squares probe of the high-frequency approximation "
                    "gap of low-pass exponential ridge atoms",
    "example2-tail": "normalization and tail mass of the arctan-dictionary "
                     "measure in closed form",
    "witness": "single oscillatory mode with exact Sobolev norm growth",
    "rates": "generic rate sweep for any experiment kind with verdicts",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barronlab",
        description="Constructive approximation experiments with verified rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=seed_arg, default=0)

    p = sub.add_parser("exponents", help=ANCHORS["exponents"])
    common(p)
    p.add_argument("--d", type=int, required=False, default=1)
    p.add_argument("--m", type=_finite_float, default=0.0)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.set_defaults(handler=_cmd_exponents)

    p = sub.add_parser("greedy-fourier", help=ANCHORS["greedy-fourier"])
    common(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--ks", type=_finite_float, default=2.0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n-grid", default="2:256")
    p.add_argument("--xi-max", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_greedy_fourier)

    p = sub.add_parser("relu-compile", help=ANCHORS["relu-compile"])
    common(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--q", type=int, default=8)
    p.set_defaults(handler=_cmd_relu_compile)

    p = sub.add_parser("monomial-check", help=ANCHORS["monomial-check"])
    common(p)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(handler=_cmd_monomial_check)

    p = sub.add_parser("sphere-net", help=ANCHORS["sphere-net"])
    common(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=8)
    p.set_defaults(handler=_cmd_sphere_net)

    p = sub.add_parser("subsample", help=ANCHORS["subsample"])
    common(p)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--restarts", type=int, default=64)
    p.set_defaults(handler=_cmd_subsample)

    p = sub.add_parser("packing", help=ANCHORS["packing"])
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--kind", choices=("fourier", "relu"), default="relu")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=_finite_float, default=2.0,
                   help="power (relu kind) or smoothness (fourier kind)")
    p.add_argument("--n", type=int, default=32)
    p.set_defaults(handler=_cmd_packing)

    p = sub.add_parser("dyadic", help=ANCHORS["dyadic"])
    common(p)
    p.add_argument("--xi-max", type=_finite_float, default=128.0)
    p.set_defaults(handler=_cmd_dyadic)

    p = sub.add_parser("example1-gap", help=ANCHORS["example1-gap"])
    common(p)
    p.add_argument("--omega0-grid", type=_finite_floats, default="8,16,32,64")
    p.add_argument("--units", type=int, default=8)
    p.add_argument("--candidates", type=int, default=512)
    p.set_defaults(handler=_cmd_example1_gap)

    p = sub.add_parser("example2-tail", help=ANCHORS["example2-tail"])
    common(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--A", type=_finite_float, default=2.0)
    p.set_defaults(handler=_cmd_example2_tail)

    p = sub.add_parser("witness", help=ANCHORS["witness"])
    common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("rates", help=ANCHORS["rates"])
    common(p)
    p.add_argument("--kind", choices=rates.EXPERIMENT_KINDS, required=False,
                   default=rates.GREEDY_FOURIER)
    p.add_argument("--n-grid", default="2:256")
    p.add_argument("--param", action="append", default=[],
                   help="kind-specific KEY=VALUE, repeatable")
    p.set_defaults(handler=_cmd_rates)

    return parser


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _cmd_exponents(args) -> int:
    from . import greedy_fourier
    table = greedy_fourier.rate_exponents(args.s, args.m, args.k, args.d)
    payload = {
        "d": args.d, "m": args.m, "k": args.k, "s": args.s,
        "greedy_fourier_exponent": table.greedy_fourier_exponent,
        "t": table.relu_rate_exponent,
        "log_power": table.relu_log_power,
        "threshold": table.smoothness_threshold,
        "uniform_entropy_exponent": table.uniform_entropy_exponent,
        "sobolev_exponent": table.sobolev_exponent,
        "width_barrier_exponent": table.width_barrier_exponent,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_greedy_fourier(args) -> int:
    grid = _parse_grid(args.n_grid)
    params = {"d": args.d, "ks": args.ks, "m": args.m, "xi_max": args.xi_max}
    report = rates.run_experiment(rates.GREEDY_FOURIER, params, grid, args.seed)
    n0, e0 = report.samples[0]
    c_fit = e0 * n0 ** report.predicted_exponent
    rows = [(n, err, c_fit * n ** (-report.predicted_exponent), key)
            for (n, err), key in zip(report.samples, report.last_kept_keys)]
    _emit(csv_text([("n", "error", "bound", "key_of_last_kept"), *rows]), args.output)
    print(f"verdict: {report.verdict} (slope fit in {report.seconds:.2f}s)",
          file=sys.stderr)
    return 0 if report.verdict != rates.BOUND_VIOLATED else 1


def _cmd_relu_compile(args) -> int:
    from . import relu_nets
    partition = relu_nets.CubePartition(args.d, args.q)
    approx = relu_nets.compile_sobolev_approximant(rates.sine_target, args.ell, partition)
    errors = approx.cell_errors(rates.sine_target)
    keep = (approx.coefficients != 0.0).any(axis=0)
    coeffs = approx.coefficients[:, keep] + 0.0  # -0.0 prints as 0
    header = ["cell_index", "center", *("c_" + "".join(map(str, a))
                                        for a in approx.exponents[keep].tolist()), "sup_error"]
    rows = [(i, csv_text([center]).strip().replace(",", ";"), *coeffs[i], errors[i])
            for i, center in enumerate(partition.centers().tolist())]
    _emit(csv_text([header, *rows]), args.output)
    return 0


def _cmd_monomial_check(args) -> int:
    from . import relu_nets
    if args.k < 1:
        raise ValueError(f"monomial-check needs --k >= 1, got --k {args.k}")
    if args.k > 308:  # x^k at |x| < 10 leaves the float range above 308
        raise ValueError(f"monomial-check needs --k <= 308, got --k {args.k}")
    rng = np.random.default_rng(args.seed)
    deviations = []
    for m in range(1, args.k + 1):
        net = relu_nets.monomial_network_1d(m)
        x = rng.uniform(-10.0, 10.0, size=10_000)
        got = relu_nets.evaluate_network(net, x[:, None])
        want = x**m
        scale = np.maximum(1.0, np.abs(want))
        deviations.append(np.max(np.abs(got - want) / scale))
    for d in (2, 3):
        for alpha in relu_nets.multi_indices(d, min(args.k, 4)):
            if sum(alpha) == 0:
                continue
            expansion = relu_nets.monomial_product_expansion(alpha, args.k)
            pts = rng.uniform(-10.0, 10.0, size=(1_000, d))
            got = relu_nets.evaluate_product_sum(expansion, pts)
            want = np.prod(pts ** np.array(alpha), axis=1)
            scale = np.maximum(1.0, np.abs(want))
            deviations.append(np.max(np.abs(got - want) / scale))
    worst = float(np.max(deviations))  # unlike the builtin max, NaN propagates
    if not math.isfinite(worst):
        print(f"monomial-check: deviation {worst} is not finite", file=sys.stderr)
        return 1
    passed = worst <= 1e-10
    payload = {"max_relative_deviation": worst, "pass": bool(passed),
               "k": args.k}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return 0 if passed else 1


def _cmd_sphere_net(args) -> int:
    from . import sphere_geom
    net = sphere_geom.greedy_net(args.d, args.m, seed=args.seed)
    _emit(csv_text(net.points.tolist()), args.output)
    print(f"min_sep={net.min_sep:.6g} cover_rad={net.cover_rad:.6g}",
          file=sys.stderr)
    return 0


def _cmd_subsample(args) -> int:
    result = rates.seeded_subsample(args.N, args.M, args.n, args.restarts, args.seed)
    rows = [(i, dev, int(dev <= result.hoeffding_bound))
            for i, dev in enumerate(result.deviations)]
    _emit(csv_text([("restart", "deviation", "accepted"), *rows]), args.output)
    print(
        f"best_deviation={result.deviation:.6g} "
        f"hoeffding={result.hoeffding_bound:.6g} accepted={result.accepted}",
        file=sys.stderr,
    )
    return 0


def _cmd_packing(args) -> int:
    family, report = rates.seeded_packing(args.kind, args.d, args.k, args.n, 64,
                                          args.seed)
    if not report.identity_violation <= 1e-9:  # also refuses NaN
        print(
            f"identity violation {report.identity_violation:.3e} exceeds 1e-9",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        payload = {
            "kind": family.kind, "d": family.d, "m": family.m, "R": family.R,
            "delta": family.delta,
            "min_distance": report.min_distance,
            "main_term_reference": report.main_term_reference,
            "identity_violation": report.identity_violation,
            "pairs": report.pairs_evaluated,
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    else:
        columns = (report.i, report.j, report.distance, report.main_term, report.cross_term)
        rows = [(idx, *pair) for idx, pair in enumerate(zip(*(c.tolist() for c in columns)))]
        _emit(csv_text([("pair_index", "i", "j", "distance", "main_term", "cross_term"), *rows]),
              args.output)
    return 0


def _cmd_dyadic(args) -> int:
    from . import barron, lower_bounds
    decomp = lower_bounds.dyadic_blocks(
        lower_bounds.decaying_spectrum(args.xi_max, 1.0)
    )
    rows = [(level, barron.hm_norm_exact(block, 0), lower_bounds.residual_tail_norm(decomp, level))
            for level, block in decomp.blocks]
    _emit(csv_text([("level", "block_norm", "residual_from_level"), *rows]), args.output)
    return 0


def _cmd_example1_gap(args) -> int:
    from . import lower_bounds
    errors = [lower_bounds.highfreq_gap(1.0, omega0, args.units, args.candidates,
                                        seed=args.seed).error for omega0 in args.omega0_grid]
    rows = [(omega0, e, e * omega0) for omega0, e in zip(args.omega0_grid, errors)]
    _emit(csv_text([("omega0", "error", "error_times_omega0"), *rows]), args.output)
    return 0


def _cmd_example2_tail(args) -> int:
    from . import lower_bounds
    report = lower_bounds.example2_tail_mass(args.m, args.A)
    payload = {
        "m": report.m, "A": report.A, "Z": report.Z,
        "lambda_tail": report.lambda_tail, "tail_bound": report.tail_bound,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_witness(args) -> int:
    from . import lower_bounds
    witness = lower_bounds.oscillatory_witness(args.n, args.k, args.d, args.m)
    payload = {
        "n": args.n, "k": args.k, "d": args.d, "m": args.m,
        "K": witness.K, "hm_norm": witness.hm_norm,
        "predicted_growth": witness.predicted_growth,
        "ratio_to_leading": witness.ratio_to_leading,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_rates(args) -> int:
    grid = _parse_grid(args.n_grid)
    params = _parse_params(args.param)
    report = rates.run_experiment(args.kind, params, grid, args.seed)
    _emit(rates.report_to_json(report) + "\n", args.output)
    print(f"verdict: {report.verdict} ({report.seconds:.2f}s)", file=sys.stderr)
    return 0 if report.verdict != rates.BOUND_VIOLATED else 1


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
