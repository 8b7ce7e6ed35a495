#!/usr/bin/env python3
"""Sweep the parallelism threshold of the complex Moore-type experiment.

For each eps on a grid this runs the premise-conditioned complex sampler,
records the smallest observed normalized pairing |<y,z>| / (|y| |z|), and
compares it against the two candidate floors

    first  = 1 - eps - sqrt(2 eps)
    second = 1 - 4 eps + 2 eps^2

The first floor holds over real spaces (moore-1.9); whether it survives
complexification is the open point the scan probes.  The second floor is
proved over both fields (buzano-moore-1.16 is cataloged for both).
A row whose min column dips below the first column would be a finding
(exit code 3 mirrors the CLI convention); nothing of the sort has been
observed.

Usage:
    python3 scripts/moore_complex_scan.py --samples 20000 --eps-min 0.01 \
        --eps-max 0.3 --steps 12
"""

import argparse
import sys

from ineq_forge.cli import _dims_flag
from ineq_forge.falsifier import (
    FieldChoice,
    SearchConfig,
    Verdict,
    moore_complex_experiment,
)
from ineq_forge.spaces import DomainError


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=20000,
                        help="premise-satisfying samples per eps (default 20000)")
    parser.add_argument("--eps-min", type=float, default=0.01)
    parser.add_argument("--eps-max", type=float, default=0.30)
    parser.add_argument("--steps", type=int, default=12,
                        help="grid points, spaced evenly (default 12)")
    parser.add_argument("--dims", type=_dims_flag, default=(2, 6),
                        help="ambient dimension range A..B, or N for N..N (default 2..6)")
    parser.add_argument("--ascent-steps", type=int, default=0,
                        help="refinement steps on the worst candidates (default 0)")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return _scan(args)
    except DomainError as exc:
        print(f"moore_complex_scan: error: {exc}", file=sys.stderr)
        return 1


def _scan(args) -> int:
    header = f"{'eps':>8}  {'first':>10}  {'second':>10}  {'min_ratio':>10}  {'slack':>10}  verdict"
    print(header)
    print("-" * len(header))
    found = False
    for k in range(args.steps):
        if args.steps == 1:
            eps = args.eps_min
        else:
            eps = args.eps_min + (args.eps_max - args.eps_min) * k / (args.steps - 1)
        config = SearchConfig(
            seed=args.seed,
            trials=args.samples,
            dims=args.dims,
            ascent_steps=args.ascent_steps,
            field=FieldChoice.COMPLEX,
        )
        report = moore_complex_experiment(eps, config)
        if report.min_observed_ratio is None:  # no sample met the premises
            observed = f"{'n/a':>10}  {'n/a':>10}"
        else:
            slack = report.min_observed_ratio - report.first_bound
            observed = f"{report.min_observed_ratio:10.6f}  {slack:10.6f}"
        print(f"{eps:8.4f}  {report.first_bound:10.6f}  {report.second_bound:10.6f}  "
              f"{observed}  {report.verdict.value}")
        if report.verdict is Verdict.COUNTEREXAMPLE_FOUND:
            found = True
    return 3 if found else 0


if __name__ == "__main__":
    sys.exit(main())
