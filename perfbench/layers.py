"""Per-layer metrics of the traced run, computed from the spans and counters
that tracing.py dumped.

Per-call, per-trial and share metrics cover the workload's verify and
falsify invocations, so that "per trial" means per trial requested from
them; the workload's moore-complex invocation is left out, and the
moore-complex figures, like the extended-precision evaluation ones, come
from the fixed layer probe (child.py).  The pool figures come from the pool
probe (workloads.pool_probe), which runs in every traced run, and the ascent
figures cover the workload's local_ascent calls plus the probe's four, so
that they are measured on every workload.  A share is a layer's inclusive
time over the cli.main wall time of those invocations; shares of nested
layers overlap (ascent probes are evaluations).  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

KINDS = ("vector", "conditional", "family", "complexified")

# (name, unit, better, end-to-end metrics it should move, on which
#  workloads, workloads where no change is predicted).  No timed workload
#  runs the process pool, so the pool metrics move no end-to-end metric.
_E2E = ("wall_s", "trials_per_s")
_ALL = ("sweep", "hunt")
LAYER_METRICS = (
    ("falsifier.sample.us_per_trial", "us", "lower", _E2E, ("sweep",), ("hunt",)),
    *[(f"falsifier.sample.us_per_trial.{k}", "us", "lower", _E2E, ("sweep",), ("hunt",)) for k in KINDS],
    ("falsifier.sample.share", "frac", "lower", _E2E, ("sweep",), ("hunt",)),
    ("falsifier.sample.starved_frac", "frac", "lower", _E2E, ("sweep",), ("hunt",)),
    ("catalog.eval.us_per_call", "us", "lower", _E2E + ("peak_rss_mb",), _ALL, ()),
    *[(f"catalog.eval.us_per_call.{k}", "us", "lower", _E2E, _ALL, ()) for k in KINDS],
    ("catalog.eval.calls_per_trial", "count/trial", "lower", _E2E, _ALL, ()),
    ("catalog.eval.share", "frac", "lower", _E2E, _ALL, ()),
    ("catalog.eval_ext.us_per_call", "us", "lower", (), (), _ALL),
    *[(f"catalog.eval_ext.us_per_call.{k}", "us", "lower", (), (), _ALL) for k in KINDS],
    ("falsifier.confirm.calls", "count", "lower", (), (), _ALL),
    ("falsifier.confirm.rejected", "count", "lower", (), (), _ALL),
    ("catalog.digest.us_per_call", "us", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("catalog.digest.calls", "count", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("catalog.digest.share", "frac", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("cli.to_json.us_per_line", "us", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("cli.records.self_s", "s", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("cli.records.share", "frac", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("cli.bytes_out", "bytes", "lower", ("wall_s",), ("sweep",), ("hunt",)),
    ("falsifier.search.self_us_per_trial", "us", "lower", _E2E, ("sweep",), ("hunt",)),
    ("falsifier.near_eq_found", "count", "higher", (), ("hunt",), ()),
    ("falsifier.ascent.calls", "count", "higher", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.ascent.steps_accepted", "count", "higher", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.ascent.evals_per_step", "count/step", "lower", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.ascent.improved_frac", "frac", "higher", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.ascent.ms_per_step", "ms", "lower", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.ascent.share", "frac", "lower", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.moore.us_per_sample", "us", "lower", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.moore.refine_s", "s", "lower", ("wall_s",), ("hunt",), ("sweep",)),
    ("falsifier.pool.speedup", "ratio", "higher", (), (), ()),
    ("falsifier.pool.scaling_eff", "frac", "higher", (), (), ()),
    ("orthonormal.gram_schmidt.us_per_call", "us", "lower", ("wall_s",), _ALL, ()),
    ("orthonormal.gram_schmidt.calls_per_trial", "count/trial", "lower", ("wall_s",), _ALL, ()),
    ("orthonormal.gram_schmidt.fail_frac", "frac", "lower", ("wall_s",), _ALL, ()),
    ("spaces.inner.calls_per_trial", "count/trial", "lower", ("wall_s",), _ALL, ()),
    ("spaces.norm.calls_per_trial", "count/trial", "lower", ("wall_s",), _ALL, ()),
    ("spaces.as_vector.calls_per_trial", "count/trial", "lower", ("wall_s",), _ALL, ()),
    ("spaces.validation.share", "frac", "lower", ("wall_s",), _ALL, ()),
    ("setup.import_s.numpy", "s", "lower", ("setup_s",), _ALL, ()),
    ("setup.import_s.scipy", "s", "lower", ("setup_s",), _ALL, ()),
    ("setup.import_s.ineq_forge", "s", "lower", ("setup_s",), _ALL, ()),
    ("trace.overhead_frac", "frac", "lower", (), (), ()),
    ("trace.unattributed_share", "frac", "lower", (), (), ()),
)


def import_seconds(stderr: str) -> dict:
    """Import times from `python -X importtime` output: the cumulative time
    of the outermost numpy and scipy imports, and the self time of the
    ineq_forge modules (their own code, without what they import)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        label = parts[2].rstrip()
        rows.append((len(label) - len(label.lstrip()), label.strip(), int(parts[0]), int(parts[1])))
    totals = {"numpy": 0, "scipy": 0, "ineq_forge": 0}
    ancestors = []
    # importtime prints a module after everything it imported, deeper
    # indented; read backwards, each line's ancestors are on the stack
    for depth, name, self_us, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "ineq_forge":
            totals[top] += self_us
        elif top in totals and all(a[1] != top for a in ancestors):
            totals[top] += cumulative_us
        ancestors.append((depth, top))
    return {name: us / 1e6 for name, us in totals.items()}


def _durations(spans, name):
    return [(s[5] - s[4]) for s in spans if s[0] == name]


def _mean_us(ns_values):
    return statistics.fmean(ns_values) / 1e3 if ns_values else 0.0


def _self_ns(spans):
    covered = defaultdict(int)
    for s in spans:
        if s[1] >= 0:
            covered[s[1]] += s[5] - s[4]
    return [(s[5] - s[4]) - covered[i] for i, s in enumerate(spans)]


def _inside(spans, ancestor_name):
    """For each span, whether an enclosing span is named ancestor_name."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[1]
        inside[i] = p >= 0 and (spans[p][0] == ancestor_name or inside[p])
    return inside


def layer_metrics(traced, reports, trials, probe, imports, untraced_wall, pool_walls, pool_workers) -> dict:
    """Every per-layer metric of LAYER_METRICS.

    traced:  the trace dumps of the workload's traced verify/falsify invocations;
    reports: the report lines of those invocations;
    trials:  the trials requested in those invocations;
    probe:   the probe child's result;
    imports: a list of import_seconds() results;
    untraced_wall: cli.main wall of the untraced pass of the same invocations;
    pool_walls: [(wall at one worker, wall at pool_workers)] of the pool probe's pairs.
    """
    spans = []
    counts = Counter()
    ns = Counter()
    ascents = []
    self_ns = []
    ascent_child_evals = 0
    probe_spans = probe["trace"]["spans"]
    for dump in (*traced, probe["trace"]):
        ascents.extend(dump["ascents"])
        ascent_child_evals += sum(
            1 for s, inside in zip(dump["spans"], _inside(dump["spans"], "falsifier.ascent"))
            if inside and s[0] == "catalog.eval")
    for dump in traced:
        # parent indices are local to a dump, so self times are computed per dump
        spans.extend(dump["spans"])
        self_ns.extend(_self_ns(dump["spans"]))
        counts.update(dump["counts"])
        ns.update(dump["ns"])

    wall_ns = sum(_durations(spans, "cli.main"))
    trials = max(trials, 1)
    m = {}

    def per_kind(prefix, span_list, name):
        durations = [s[5] - s[4] for s in span_list if s[0] == name]
        m[prefix] = _mean_us(durations)
        for kind in KINDS:
            m[f"{prefix}.{kind}"] = _mean_us([s[5] - s[4] for s in span_list if s[0] == name and s[2] == kind])
        return durations

    sample = per_kind("falsifier.sample.us_per_trial", spans, "falsifier.sample")
    m["falsifier.sample.share"] = sum(sample) / wall_ns
    m["falsifier.sample.starved_frac"] = sum(r["premise_starved"] for r in reports) / trials

    evals = per_kind("catalog.eval.us_per_call", spans, "catalog.eval")
    m["catalog.eval.calls_per_trial"] = len(evals) / trials
    m["catalog.eval.share"] = sum(evals) / wall_ns
    per_kind("catalog.eval_ext.us_per_call", probe_spans, "catalog.eval_ext")
    m["falsifier.confirm.calls"] = len(_durations(spans, "catalog.eval_ext"))
    m["falsifier.confirm.rejected"] = counts["falsifier.confirm.rejected"]

    digest = _durations(spans, "catalog.digest")
    m["catalog.digest.us_per_call"] = _mean_us(digest)
    m["catalog.digest.calls"] = len(digest)
    m["catalog.digest.share"] = sum(digest) / wall_ns

    m["cli.to_json.us_per_line"] = _mean_us(_durations(spans, "cli.to_json"))
    inside_library = sum(_durations(spans, "falsifier.search"))
    m["cli.records.self_s"] = (wall_ns - inside_library) / 1e9
    m["cli.records.share"] = (wall_ns - inside_library) / wall_ns
    m["cli.bytes_out"] = counts["cli.bytes_out"]

    search_self = sum(t for s, t in zip(spans, self_ns) if s[0] == "falsifier.search")
    m["falsifier.search.self_us_per_trial"] = search_self / trials / 1e3
    m["falsifier.near_eq_found"] = sum(r["near_equality_count"] for r in reports)

    ascent_ns = _durations(spans, "falsifier.ascent")
    steps = sum(a[0] for a in ascents)
    m["falsifier.ascent.calls"] = len(ascents)
    m["falsifier.ascent.steps_accepted"] = steps
    m["falsifier.ascent.evals_per_step"] = ascent_child_evals / max(steps, 1)
    m["falsifier.ascent.improved_frac"] = sum(1 for a in ascents if a[1]) / max(len(ascents), 1)
    all_ascent_ns = sum(ascent_ns) + sum(_durations(probe_spans, "falsifier.ascent"))
    m["falsifier.ascent.ms_per_step"] = all_ascent_ns / max(steps, 1) / 1e6
    m["falsifier.ascent.share"] = sum(ascent_ns) / wall_ns

    moore_0 = statistics.median(probe["moore_s"]["0"])
    m["falsifier.moore.us_per_sample"] = moore_0 / probe["moore_samples"] * 1e6
    m["falsifier.moore.refine_s"] = statistics.median(probe["moore_s"]["k"]) - moore_0

    speedup = statistics.median(one / several for one, several in pool_walls)
    m["falsifier.pool.speedup"] = speedup
    m["falsifier.pool.scaling_eff"] = speedup / pool_workers

    gs = _durations(spans, "orthonormal.gram_schmidt")
    m["orthonormal.gram_schmidt.us_per_call"] = _mean_us(gs)
    m["orthonormal.gram_schmidt.calls_per_trial"] = len(gs) / trials
    m["orthonormal.gram_schmidt.fail_frac"] = counts["orthonormal.gram_schmidt.rank_deficient"] / max(len(gs), 1)

    for name in ("inner", "norm", "as_vector"):
        m[f"spaces.{name}.calls_per_trial"] = counts[f"spaces.{name}"] / trials
    m["spaces.validation.share"] = ns["spaces.as_vector"] / wall_ns

    for name in ("numpy", "scipy", "ineq_forge"):
        m[f"setup.import_s.{name}"] = statistics.median(i[name] for i in imports)

    m["trace.overhead_frac"] = wall_ns / 1e9 / untraced_wall - 1.0
    root_self = sum(t for s, t in zip(spans, self_ns) if s[0] == "cli.main")
    m["trace.unattributed_share"] = root_self / wall_ns
    return m
