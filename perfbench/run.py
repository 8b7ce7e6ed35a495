"""Benchmark for ineq-forge, driven through its CLI entry ineq_forge.cli.main.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every CLI invocation runs in a fresh interpreter (child.py) that imports the
checkout's src/, so no in-process cache survives from one invocation to the
next.  With --trace 0 the run repeats passes over the workload's invocations
until --seconds have gone by (and at least MIN_PASSES times), checks every
output, and reports the end-to-end metrics: wall_s sums each invocation's
median over the passes, the others are medians too.  Every timing is scaled
to a reference machine speed, measured by a calibration chunk that child.py
runs beside it (see README.md).
With --trace 1 it runs one untraced and one traced pass, the pool probe in
three pairs of one and two workers, the layer probe and three -X importtime
launches, and reports the per-layer metrics of layers.py.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, attempted and failed counting CLI invocations.  The lines before
it print each metric by name with its unit, the environment stamp and any
failed check.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the benchmark cannot run (for instance without src/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, import_seconds, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, check_output, pool_probe  # noqa: E402

MIN_PASSES = 3
SETUP_LAUNCHES = 3  # import-only launches per timed run, besides each invocation's own set-up
IMPORTTIME_LAUNCHES = 3
POOL_WORKERS = 2  # the pool probe runs at one worker and at this many
POOL_PAIRS = 3  # pool probe pairs; the speed-up is their median
CHILD_TIMEOUT_S = 120
# The times of child.py's calibration and import chunks at the reference
# speed to which every end-to-end timing is scaled: about this VM's fast mode
# (README.md).
CALIBRATION_REF_S = 0.0005
IMPORT_CHUNK_REF_S = 0.00025

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed output check)."""


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    walls: list = field(default_factory=list)  # cli.main wall of each invocation
    setups: list = field(default_factory=list)  # scaled to the reference speed
    scales: list = field(default_factory=list)  # each wall's factor to the reference speed
    peak_rss_mb: float = 0.0
    failed: int = 0
    digests: list = field(default_factory=list)
    checked: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


class Runner:
    """Launches child processes inside one scratch directory of the checkout."""

    def __init__(self, work: Path, size: dict):
        self.work = work
        self.size = size
        self.launches = 0
        self.catalog = None
        self.child_info = {}

    def launch(self, mode, args=(), threads=1, importtime=False):
        """Run child.py; return (exit code, result dict or None, stdout path,
        stderr text, launch time)."""
        self.launches += 1
        tag = self.work / f"{self.launches:04d}"
        result_path = Path(f"{tag}.result.json")
        stdout_path = Path(f"{tag}.stdout")
        cmd = [sys.executable, "-I"]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), mode, str(SRC), str(result_path), *args]
        env = dict(os.environ, INEQ_FORGE_THREADS=str(threads))
        with open(stdout_path, "wb") as out, open(f"{tag}.stderr", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.work,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = -signal.SIGKILL
            except BaseException:
                # interrupted (SIGINT, or SIGTERM via main's handler): the
                # child and its pool workers must not outlive the benchmark
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        stderr = Path(f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
        result = None
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        return code, result, stdout_path, stderr, launched

    def setup_once(self):
        """One import-only launch; returns its set-up time in seconds."""
        code, result, _, stderr, launched = self.launch("import")
        if code != 0 or result is None:
            raise BenchError(f"the package does not import:\n{stderr}")
        if self.catalog is None:
            self.catalog = tuple(result["catalog"])
            self.child_info = {k: result[k] for k in ("numpy", "scipy", "longdouble_eps")}
        return _setup_s(result, launched)

    def import_times(self):
        code, _, _, stderr, _ = self.launch("import", importtime=True)
        if code != 0:
            raise BenchError(f"the package does not import:\n{stderr}")
        return import_seconds(stderr)

    def run_pass(self, invocations, trace=False) -> Pass:
        p = Pass()
        for inv in invocations:
            argv = list(inv.argv)
            out_path = None
            if inv.emit:
                out_path = self.work / "records.jsonl"
                argv += ["--out", str(out_path)]
            code, result, stdout_path, stderr, launched = self.launch(
                "trace" if trace else "run", argv, threads=inv.threads)
            stdout = stdout_path.read_text(encoding="utf-8")
            out_text = out_path.read_text(encoding="utf-8") if out_path and out_path.is_file() else ""
            checked = check_output(inv, code, stdout, out_text)
            if result is None:
                checked.failures.append("the child wrote no result: " + stderr.strip()[-2000:])
            else:
                p.walls.append(result["wall_s"])
                if "calibration_s" in result:  # untraced
                    p.setups.append(_setup_s(result, launched))
                    p.scales.append(_scale(result["calibration_s"]))
                p.peak_rss_mb = max(p.peak_rss_mb, result["peak_rss_mb"])
                if trace:
                    p.traces.append(result["trace"])
            p.digests.append(checked.record_digest)
            p.checked.append(checked)
            if checked.failures:
                p.failed += 1
                p.failures.append(f"{' '.join(inv.argv)}: " + "; ".join(checked.failures))
            for path in (stdout_path, out_path):
                if path is not None and path.exists():
                    path.unlink()
        return p


def _scale(chunks) -> float:
    """Factor that scales a timing to the reference speed: the calibration
    chunk's reference time over its mean time in the chunks sampled with it."""
    return CALIBRATION_REF_S / statistics.fmean(chunks)


def _setup_s(result, launched) -> float:
    """A launch's set-up time without the import chunks, at the reference speed."""
    chunks = result["import_chunks_s"]
    return (result["imported_at"] - launched - sum(chunks)) * IMPORT_CHUNK_REF_S / statistics.fmean(chunks)


def _same_records(reference: Pass, other: Pass, label: str) -> None:
    """Record bytes, timestamps aside, must not depend on the pass, the
    worker count or tracing; a mismatch fails the later pass's invocation."""
    for i, (a, b) in enumerate(zip(reference.digests, other.digests)):
        if a != b and not other.checked[i].failures:
            other.failed += 1
            other.checked[i].failures.append("record bytes differ")
            other.failures.append(f"invocation {i + 1}: record bytes differ from {label}")


def _tally(passes):
    """(attempted, failed, failure messages) over the invocations of passes."""
    return (sum(len(p.checked) for p in passes), sum(p.failed for p in passes),
            [f for p in passes for f in p.failures])


def timed_run(runner: Runner, workload, seed: int, seconds: float):
    runner.setup_once()  # warms the file and bytecode caches; not counted
    setups = [runner.setup_once() for _ in range(SETUP_LAUNCHES)]
    invocations = workload.build(seed, runner.size, runner.catalog)
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        p = runner.run_pass(invocations)
        sys.stderr.write(f"pass {len(passes) + 1}: wall " + ", ".join(f"{w:.4f}" for w in p.walls)
                         + " s, set-up " + ", ".join(f"{s:.4f}" for s in p.setups)
                         + " s, scale " + ", ".join(f"{f:.3f}" for f in p.scales) + "\n")
        if passes:
            _same_records(passes[0], p, "the first pass")
        passes.append(p)
    for p in passes:
        setups.extend(p.setups)
    # The host's speed changes by up to 2x within seconds and for minutes at
    # a time, so every timing is scaled to the reference speed measured
    # beside it in the same process (see README.md).
    complete = [p for p in passes if len(p.scales) == len(invocations)]
    metrics = {}
    if complete:
        wall = sum(statistics.median(p.walls[i] * p.scales[i] for p in complete)
                   for i in range(len(invocations)))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "trials_per_s": sum(inv.trials_requested for inv in invocations) / wall,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in complete),
        }
    attempted, failed, failures = _tally(passes)
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed, failures


def traced_run(runner: Runner, workload, seed: int):
    runner.setup_once()
    invocations = workload.build(seed, runner.size, runner.catalog)
    untraced = runner.run_pass(invocations)
    traced = runner.run_pass(invocations, trace=True)
    _same_records(untraced, traced, "the untraced pass")
    # pairs alternate which worker count runs first, so that a drift in the
    # machine's speed does not favour one of them
    pairs = []
    for i in range(POOL_PAIRS):
        order = (1, POOL_WORKERS) if i % 2 == 0 else (POOL_WORKERS, 1)
        pairs.append({n: runner.run_pass([pool_probe(seed, runner.size, n)]) for n in order})
    pool_passes = [p for pair in pairs for p in pair.values()]
    for p in pool_passes[1:]:
        _same_records(pairs[0][1], p, "the pool probe's first run at one worker")
    attempted, failed, failures = _tally((untraced, traced, *pool_passes))
    if failed:
        return {}, attempted, failed, failures

    code, probe, _, stderr, _ = runner.launch("probe", (str(seed), str(runner.size["ascent_steps"])))
    if code != 0 or probe is None:
        raise BenchError(f"the layer probe failed:\n{stderr}")
    imports = [runner.import_times() for _ in range(IMPORTTIME_LAUNCHES)]
    # per-trial figures count verify/falsify trials only, see layers.py
    searched = [i for i, inv in enumerate(invocations) if inv.names]
    reports = [r for i in searched for r in traced.checked[i].reports]
    trials = sum(invocations[i].trials_requested for i in searched)
    values = layer_metrics([traced.traces[i] for i in searched], reports, trials, probe, imports,
                           sum(untraced.walls[i] for i in searched),
                           [(pair[1].wall_s, pair[POOL_WORKERS].wall_s) for pair in pairs], POOL_WORKERS)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    return {k: {"value": values[k], "unit": units[k]} for k in units}, attempted, failed, failures


# environment stamp --------------------------------------------------------------


def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache():
    best = (-1, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, size)
    return best[1]


def _git_commit():
    """HEAD read from .git directly: the benchmark may run in a checkout that
    is not a repository, and must not read outside it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ineq_forge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(runner: Runner, loadavg_start) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        **runner.child_info,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# command line ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload in a scratch directory; return (result line dict,
    environment stamp, failure messages)."""
    loadavg_start = _loadavg()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        runner = Runner(work, SIZES[size])
        if trace:
            metrics, attempted, failed, failures = traced_run(runner, WORKLOADS[name], seed)
        else:
            metrics, attempted, failed, failures = timed_run(runner, WORKLOADS[name], seed, seconds)
        env = environment(runner, loadavg_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, env, failures


def _print_metrics(label, result):
    for name, metric in result["metrics"].items():
        print(f"{label}{name} = {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"{label}ops_failed_frac = {frac:.6g} ({result['failed']} of {result['attempted']} invocations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ineq_forge" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no ineq_forge sources under {SRC}; run from a full checkout\n")
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, env, failures = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for message in failures:
                sys.stderr.write(f"check failed [{name}]: {message}\n")
            label = f"{name}." if len(names) > 1 else ""
            _print_metrics(label, result)
            print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, "env": env}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({label + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
