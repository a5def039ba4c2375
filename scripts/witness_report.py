#!/usr/bin/env python3
"""Tabulate the witness constructions at desk scale.

Usage: python scripts/witness_report.py [--seed S]

Prints four sections: oscillatory-mode Sobolev growth, packing-family
separations with the main/cross split, the tail-mass table of the
arctan-dictionary measure, and the high-frequency gap probe.  Deterministic
for a fixed seed.
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from barronlab import cli, lower_bounds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=cli.seed_arg, default=0)
    args = parser.parse_args()

    print("# oscillatory witnesses: exact H^m norm vs predicted growth")
    print("n,k,d,m,K,hm_norm,predicted_growth")
    for n in (4, 16, 64):
        for m in (0, 1, 2):
            w = lower_bounds.oscillatory_witness(n, 1, 1, m)
            print(f"{n},1,1,{m},{w.K:.6g},{w.hm_norm:.6g},{w.predicted_growth:.6g}")

    print("\n# packing separations (witness-point mode)")
    print("kind,n,m,R,min_distance,main_term_reference,identity_violation")
    for kind, k_or_s, n in [("relu", 2, 32), ("relu", 2, 128), ("fourier", 1.0, 64)]:
        family = lower_bounds.build_packing(kind, 2, k_or_s, n, seed=args.seed)
        report = lower_bounds.pairwise_separation(
            family, pair_budget=64, seed=args.seed + 1
        )
        print(
            f"{kind},{n},{family.m},{family.R:.6g},{report.min_distance:.6g},"
            f"{report.main_term_reference:.6g},{report.identity_violation:.2e}"
        )

    print("\n# tail mass of the arctan-dictionary measure")
    print("m,A,Z,lambda_tail,tail_bound,margin")
    for m in (0, 1, 2):
        for A in (1.0, 2.0, 3.0):
            r = lower_bounds.example2_tail_mass(m, A)
            lhs = r.lambda_tail * A * math.exp(A * A / 4.0)
            rhs = 0.5 * 4.0 * math.sqrt(math.pi) / r.Z
            print(
                f"{m},{A:.0f},{r.Z:.6g},{r.lambda_tail:.6g},{r.tail_bound:.6g},"
                f"{lhs / rhs:.3g}"
            )

    print("\n# high-frequency gap probe (8 units, 512 candidates)")
    print("omega0,error,error_times_omega0")
    for omega0 in (8.0, 16.0, 32.0, 64.0):
        probe = lower_bounds.highfreq_gap(1.0, omega0, 8, 512, seed=args.seed)
        print(f"{omega0:.0f},{probe.error:.6g},{probe.error * omega0:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
