"""Measure the baseline that perfbench/baseline.json records.

    python3 perfbench/baseline.py

For every workload: one untraced run per seed in SEEDS, each as long as
BENCHMARK.json's run_seconds, summarized per end-to-end metric as median,
quartiles and spread (interquartile distance over the median, the figure
each metric's bound in BENCHMARK.json must cover), then one traced run at
the first seed for the per-layer figures.  RESERVED_SEED is recorded and
never run here, so that a later performance claim can be checked on inputs
that did not shape it.  The file also records which end-to-end metric each
layer metric should move, on which workloads.  The exit code is 1 when an
output check failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import DROPPED, WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))
RESERVED_SEED = 101


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": SEEDS, "reserved_seed": RESERVED_SEED, "seconds": seconds, "workloads": {}, "env": None}
    ok = True
    for name, workload in WORKLOADS.items():
        per_metric = {}
        for seed in SEEDS:
            result, env, _ = run_workload(name, seed, seconds, trace=False)
            ok &= result["correct"]
            out["env"] = out["env"] or env
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced, _, _ = run_workload(name, SEEDS[0], seconds, trace=True)
        ok &= traced["correct"]
        end_to_end = {k: summarize(v) for k, v in per_metric.items()}
        for k, s in end_to_end.items():
            flag = "" if k == "setup_s" or s["spread"] < bounds[k] / 3 else "  <-- above a third of the bound"
            print(f"{name} {k}: median {s['median']:.6g}, spread {s['spread']:.4f} (bound {bounds[k]}){flag}",
                  flush=True)
        out["workloads"][name] = {
            "why": workload.why,
            "end_to_end": end_to_end,
            "per_layer_at_first_seed": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    out["dropped_workloads"] = DROPPED
    out["layer_moves"] = {
        name: {"unit": unit, "better": better, "moves": list(moves), "on": list(on), "no_change_on": list(same)}
        for name, unit, better, moves, on, same in LAYER_METRICS
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
