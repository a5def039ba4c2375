#!/usr/bin/env python3
"""Run every rate experiment at its default desk scale and write reports.

Usage: python scripts/run_all_experiments.py [OUTDIR] [--seed S]

Writes one JSON report and one CSV sample table per experiment kind into
OUTDIR (default ./out), plus a one-line verdict summary per run on stdout.
Files and stdout are deterministic for a fixed seed; each run's wall time
goes to stderr.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from barronlab import cli, rates  # noqa: E402

RUNS = [
    (rates.GREEDY_FOURIER, {"d": 1, "ks": 2.0, "m": 0},
     [2, 4, 8, 16, 32, 64, 128, 256]),
    (rates.SOBOLEV_COMPILE, {"ell": 2}, [2, 4, 8, 16, 32, 64]),
    (rates.SPHERE_COVER, {"d": 2}, [4, 8, 16, 32, 64, 128]),
    (rates.SPHERE_COVER, {"d": 3}, [8, 16, 32, 64, 128, 256]),
    (rates.SUBSAMPLE_CONCENTRATION, {"N": 256, "M": 10},
     [4, 8, 16, 32, 64, 128]),
    (rates.PACKING_SEPARATION, {"family": "fourier", "d": 2, "k_or_s": 1.0},
     [8, 16, 32, 64, 128, 256]),
    (rates.DYADIC_RESIDUAL, {}, [2, 4, 8, 16, 32, 64]),
    (rates.GREEDY_FOURIER, {"d": 3, "xi_max": 48.0},
     [32, 64, 128, 256, 512, 1024, 2048, 4096]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="out")
    parser.add_argument("--seed", type=cli.seed_arg, default=0)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for index, (kind, params, grid) in enumerate(RUNS):
        report = rates.run_experiment(kind, params, grid, seed=args.seed)
        stem = f"{index:02d}_{kind}" + (f"_d{params['d']}" if "d" in params else "")
        (outdir / f"{stem}.json").write_text(rates.report_to_json(report) + "\n")
        (outdir / f"{stem}.csv").write_text(cli.csv_text([("n", "error"), *report.samples]))
        print(
            f"{kind:24s} slope={report.fit.slope:+8.3f} "
            f"predicted=-{report.predicted_exponent:.3f} "
            f"verdict={report.verdict}"
        )
        print(f"{stem}: {report.seconds:.1f}s", file=sys.stderr)
        if rates.failed(report.verdict):
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
