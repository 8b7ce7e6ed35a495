#!/usr/bin/env python3
"""Probe how tight each cataloged bound is under random search plus ascent.

Runs the falsifier twice per inequality, once with pure random sampling and
once with gradient ascent enabled, and tabulates the near-equality counts
and worst margins side by side. Bounds that are attained on a thick set
(the dim-1 complexified bound, the window bounds at x = y) show near counts
at or near the trial count already without ascent; bounds attained only on
thin sets need the ascent column to show movement. A violations column that
is ever nonzero would be a bug in the catalog, not a finding about the
mathematics, and makes the script exit 2.

Usage:
    python3 scripts/tightness_probe.py --trials 2000 --ascent-steps 80
"""

import argparse
import sys

from ineq_forge.cli import _dims_flag, _search_names
from ineq_forge.falsifier import FieldChoice, GramKind, SearchConfig, falsify
from ineq_forge.spaces import DomainError


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--names", type=str, default="all",
                        help="comma-separated inequality names (default all)")
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--ascent-steps", type=int, default=80)
    parser.add_argument("--step", type=float, default=1e-2)
    parser.add_argument("--dims", type=_dims_flag, default=(2, 6),
                        help="ambient dimension range A..B, or N for N..N (default 2..6)")
    parser.add_argument("--field", choices=("real", "complex", "both"), default="both")
    parser.add_argument("--gram", choices=("identity", "random"), default="identity")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return _probe(args, _search_names(args.names, FieldChoice(args.field)))
    except DomainError as exc:
        print(f"tightness_probe: error: {exc}", file=sys.stderr)
        return 1


def _probe(args, names) -> int:
    base = dict(
        seed=args.seed,
        trials=args.trials,
        dims=args.dims,
        step_size=args.step,
        field=FieldChoice(args.field),
        gram=GramKind(args.gram),
    )
    header = (f"{'ineq':<22} {'starved':>8} {'near':>7} {'near+asc':>9} "
              f"{'worst_margin':>14} {'worst+asc':>14} {'viol':>5}")
    print(header)
    print("-" * len(header))
    violations = 0

    def fmt(margin):
        return f"{margin:>14.3e}" if margin is not None else f"{'n/a':>14}"

    for name in names:
        sampled = falsify(name, SearchConfig(ascent_steps=0, **base))
        refined = falsify(name, SearchConfig(ascent_steps=args.ascent_steps, **base))
        violations += refined.violation_count
        print(f"{name:<22} {sampled.premise_starved:>8} {sampled.near_equality_count:>7} "
              f"{refined.near_equality_count:>9} {fmt(sampled.worst_margin)} "
              f"{fmt(refined.worst_margin)} {refined.violation_count:>5}")
    return 2 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
