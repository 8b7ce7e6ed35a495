"""The benchmark's workloads and the checks every CLI output must pass.

A workload is a fixed list of CLI invocations built from a seed.  One pass
runs each invocation once, in order, each in a fresh interpreter.  The checks
read only what the CLI wrote (exit code, record lines, manifest); float
values are compared against nothing stored, because a later kernel rewrite
may move them by a few ulps.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

# The pool probe: the sweep flags on the cheapest and the dearest sampler
# kind, vector (schwarz) and two-family (generalized-2.1), at 8192 trials
# each, which is exactly two 4096-trial shards, so two workers get equal
# work.  It runs in every traced run, at one and at two workers; as a timed
# workload (sweep-2w, on four names) it was dropped, see README.md.  Two
# names, not four, keep a traced run within its time limit on a slow host.
POOL_NAMES = ("schwarz", "generalized-2.1")

# "full" is what the benchmark measures, "tiny" what the self-test runs.
# The tiny pool probe keeps more than one shard so the pool path still runs.
SIZES = {
    "full": {"samples": 200, "hunt_trials": 8, "hunt_seeds": 4, "ascent_steps": 2, "moore_samples": 400,
             "pool_samples": 8192, "pool_dims": "1..8"},
    "tiny": {"samples": 6, "hunt_trials": 8, "hunt_seeds": 2, "ascent_steps": 1, "moore_samples": 20,
             "pool_samples": 4097, "pool_dims": "1..2"},
}

_TIMESTAMPS = re.compile(r'"(started_at|finished_at)":"[^"]*"')


@dataclass(frozen=True)
class Invocation:
    """One CLI run and what its output must contain."""

    argv: tuple  # CLI arguments; the runner appends --out for `emit`
    threads: int  # INEQ_FORGE_THREADS
    names: tuple  # report lines expected, in order; empty for moore-complex
    trials: int  # trials (moore-complex: samples) requested per name
    emit: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def trials_requested(self) -> int:
        return self.trials * max(len(self.names), 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, sizes, catalog names) -> list of Invocation


def _sweep_argv(names, samples, dims, seed):
    return ("verify", "--ineq", names, "--dims", dims, "--field", "both", "--gram", "random",
            "--samples", str(samples), "--seed", str(seed))


def _sweep(seed, size, catalog):
    # Plain and emitting runs share one workload: apart, each one's run was
    # too short to steady (see DROPPED), together they are one pass.
    n = size["samples"]
    argv = _sweep_argv("all", n, "1..8", seed)
    return [Invocation(argv, 1, catalog, n),
            Invocation(argv + ("--emit-instances",), 1, catalog, n, emit=True)]


def _hunt(seed, size, catalog):
    # The ascent cost of a falsify run depends on which trials make its top
    # K (the family sizes drawn, for one), so one seed's cost differs from
    # another's by up to 20%; falsify over several seeds per pass averages
    # that out.  The sub-seeds of different benchmark seeds never overlap.
    # With fewer trials per name than falsify's top K (8), every trial is
    # refined, so the trial count sets the ascent work, and a short pass
    # leaves room for more passes per run.
    k = str(size["ascent_steps"])
    n = size["hunt_seeds"]
    invocations = [
        Invocation(("falsify", "--ineq", "all", "--dims", "2..6", "--gram", "identity",
                    "--trials", str(size["hunt_trials"]), "--ascent-steps", k, "--seed", str(seed * n + j)),
                   1, catalog, size["hunt_trials"])
        for j in range(n)
    ]
    moore = ("moore-complex", "--eps", "0.05", "--ascent-steps", k,
             "--samples", str(size["moore_samples"]), "--seed", str(seed))
    return invocations + [Invocation(moore, 1, (), size["moore_samples"])]


def pool_probe(seed, size, threads):
    """The pool probe's one invocation at the given worker count."""
    n = size["pool_samples"]
    argv = _sweep_argv(",".join(POOL_NAMES), n, size["pool_dims"], seed)
    return Invocation(argv, threads, POOL_NAMES, n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "the acceptance sweep scaled down, run plain and with every instance digested and written; sampling, evaluation and the record path are the whole cost", _sweep),
        Workload("hunt", "falsify with ascent plus moore-complex with refinement; runs both descent routines, and sampling is a small share", _hunt),
    )
}


# Timed workloads tried and dropped, with the spread (interquartile distance
# over median, across one run per seed) that ruled each out.  Both were
# measured before timings were scaled to the reference speed (run.py), with
# wall_s taken as the sum of each invocation's fastest pass.
DROPPED = {
    "sweep-2w": {
        "invocation": "verify --ineq schwarz,buzano-moore-1.16,generalized-2.1,kurepa-3.2"
                      " --dims 1..8 --field both --gram random --samples 8192, INEQ_FORGE_THREADS=2",
        "seeds": [21, 22, 23, 24, 25],
        "run_seconds": 20,
        "spread": {"wall_s": 0.192, "trials_per_s": 0.212},
        "spread_of_sweep_on_the_same_runs": {"wall_s": 0.085, "trials_per_s": 0.084},
        "why": "a 10 s pass leaves three passes per run, too few to steady it within the time budget; "
               "it runs, on two of its four names, as the pool probe of every traced run instead",
    },
    "emit": {
        "invocation": "verify --ineq all --dims 1..8 --field both --gram random --samples 200 --emit-instances --out FILE",
        "seeds": list(range(1, 11)),
        "run_seconds": 25,
        "spread": {"wall_s": 0.266, "trials_per_s": 0.262},
        "spread_of_a_first_set_of_ten": {"wall_s": 0.171, "trials_per_s": 0.180},
        "why": "above its 0.25 bound in the second set of ten runs; merged into sweep, whose pass now runs "
               "the plain and the emitting invocation, so that each timed run is twice as long",
    },
}


# output checks ----------------------------------------------------------------


@dataclass
class Checked:
    """What the checker found in one invocation's output."""

    failures: list
    reports: list  # parsed report lines (verify/falsify) or the moore record
    record_digest: str  # sha256 of the record bytes with timestamps blanked


def _parse_records(lines, failures):
    parsed = []
    for number, line in enumerate(lines, 1):
        try:
            value = json.loads(line)
        except json.JSONDecodeError:
            value = None
        if not isinstance(value, dict):
            failures.append(f"record line {number} is not a JSON object")
            value = {}
        parsed.append(value)
    return parsed


def check_output(inv: Invocation, returncode: int, stdout: str, out_file: str = "") -> Checked:
    """Check one invocation's exit code, manifest and record lines.

    `stdout` is everything the CLI wrote to standard output and `out_file`
    the contents of its --out file (empty unless `inv.emit`).
    """
    failures = []
    if returncode == 2:
        failures.append("exit 2: a violation or failed round-trip was reported")
    elif returncode == 3:
        failures.append("exit 3: moore-complex reported a finding")
    elif returncode != 0:
        failures.append(f"exit {returncode}")

    stdout_lines = stdout.splitlines()
    manifest = None
    if stdout_lines:
        try:
            manifest = json.loads(stdout_lines[-1])
        except json.JSONDecodeError:
            manifest = None
    if not isinstance(manifest, dict) or "totals" not in manifest or "command" not in manifest:
        failures.append("the last stdout line is not a run manifest")
        manifest = None
    record_lines = out_file.splitlines() if inv.emit else stdout_lines[:-1]
    if inv.emit and len(stdout_lines) != 1:
        failures.append("with --out, stdout must hold only the manifest")

    if manifest is not None:
        if manifest["command"] != inv.command:
            failures.append(f"manifest command {manifest['command']!r} != {inv.command!r}")
        expected = {name: inv.trials for name in inv.names} or {"moore-complex": inv.trials}
        if manifest["totals"] != expected:
            failures.append("manifest totals do not match the requested trials")

    records = _parse_records(record_lines, failures)
    if inv.command == "moore-complex":
        reports = records
        _check_moore(inv, records, failures)
    else:
        reports = [r for r in records if "trials_run" in r]
        _check_reports(inv, records, reports, failures)

    normalized = "\n".join(record_lines + [_TIMESTAMPS.sub(r'"\1":""', stdout_lines[-1] if stdout_lines else "")])
    return Checked(
        failures=failures,
        reports=reports,
        record_digest=hashlib.sha256(normalized.encode("utf-8")).hexdigest(),
    )


def _check_reports(inv, records, reports, failures):
    names = tuple(r.get("ineq") for r in reports)
    if names != inv.names:
        failures.append(f"report lines cover {names}, expected {inv.names}")
    instances = {}
    for r in records:
        if "trials_run" not in r:
            instances[r.get("ineq")] = instances.get(r.get("ineq"), 0) + 1
    if instances and not inv.emit:
        failures.append("instance lines without --emit-instances")
    for r in reports:
        name = r.get("ineq")
        hist = r.get("margin_histogram")
        if not isinstance(hist, list):
            failures.append(f"{name}: no margin histogram")
            continue
        if r.get("trials_run") != inv.trials:
            failures.append(f"{name}: trials_run {r.get('trials_run')} != {inv.trials}")
        if sum(hist) + r.get("premise_starved", 0) != r.get("trials_run"):
            failures.append(f"{name}: histogram total plus premise_starved != trials_run")
        if r.get("violation_count") != 0:
            failures.append(f"{name}: violation_count {r.get('violation_count')}")
        if inv.emit and instances.get(name, 0) != sum(hist):
            failures.append(f"{name}: {instances.get(name, 0)} instance lines, histogram total {sum(hist)}")


def _check_moore(inv, records, failures):
    if len(records) != 1:
        failures.append(f"moore-complex wrote {len(records)} records, expected 1")
        return
    r = records[0]
    if r.get("verdict") != "NoCounterexampleFound":
        failures.append(f"moore-complex verdict {r.get('verdict')!r}")
    if r.get("samples") != inv.trials:
        failures.append(f"moore-complex samples {r.get('samples')} != {inv.trials}")
    if r.get("samples_satisfying_premises") != r.get("samples"):
        failures.append("moore-complex: not every sample satisfies the premises")
