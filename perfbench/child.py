"""One measured process, started in a fresh interpreter by run.py.

    python3 -I perfbench/child.py MODE SRC RESULT [ARGS...]

MODE is one of
  import  import ineq_forge.cli and stop (set-up samples, -X importtime);
  run     call ineq_forge.cli.main(ARGS) untraced, sampling the calibration
          chunk (below) during it;
  trace   the same with the tracing wrappers installed;
  probe   time the layers a workload may not reach (ARGS: seed, ascent steps).

SRC is the checkout's src/ directory, put first on sys.path so the code
measured is the checked-out code, never an installed copy.  RESULT is where
the timings (and, when traced, the spans) are written as JSON.  The exit code
is the CLI's.
"""

import signal
import sys
import time

MODE, SRC, RESULT = sys.argv[1:4]
ARGS = sys.argv[4:]
sys.path.insert(0, SRC)

# The import chunk: a pure Python loop, sampled every IMPORT_CHUNK_INTERVAL_S
# during the import, as the calibration chunk (below) is during cli.main.
# The set-up tracks its time more closely than the numpy chunk's: over
# launches, log set-up time rose 0.84 times as fast as log chunk time
# (correlation 0.79), against 0.24 for the numpy chunk timed after the
# import.  Not in -X importtime launches, whose module times it would inflate.
IMPORT_CHUNK_ROUNDS = 3000
IMPORT_CHUNK_INTERVAL_S = 0.01


def _import_chunk() -> float:
    total = 0
    t0 = time.perf_counter()
    for i in range(IMPORT_CHUNK_ROUNDS):
        total += i * i % 7
    return time.perf_counter() - t0


IMPORT_CHUNKS = []
if MODE in ("import", "run") and "importtime" not in sys._xoptions:
    signal.signal(signal.SIGALRM, lambda signum, frame: IMPORT_CHUNKS.append(_import_chunk()))
    signal.setitimer(signal.ITIMER_REAL, IMPORT_CHUNK_INTERVAL_S, IMPORT_CHUNK_INTERVAL_S)

import ineq_forge.cli as cli  # noqa: E402  (set-up ends here)

IMPORTED_AT = time.monotonic()
signal.setitimer(signal.ITIMER_REAL, 0)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# The probe's fixed sizes: extended evaluation of 16 sweep trials per name
# (both fields at dims 1..8), one ascent per sampler kind at the hunt's step
# count, and the hunt's moore-complex size, three timings each at 0 and K.
PROBE_EXT_TRIALS = 16
PROBE_ASCENT_NAMES = ("schwarz", "moore-1.9", "generalized-2.1", "kurepa-3.2")
PROBE_MOORE_SAMPLES = 400
PROBE_MOORE_REPEATS = 3

# The calibration chunk: fixed work of the kind the CLI does (small numpy
# products and norms inside a Python loop).  A shared host's speed changes
# by up to 2x from one second to the next, and the chunk slows with the CLI.
# A SIGALRM handler runs it every CALIBRATION_INTERVAL_S while cli.main runs,
# and run.py scales the wall time by the chunk's mean time; the handler's own
# time is taken out of the wall time.  A run shorter than one interval is
# scaled by CALIBRATION_AFTER_CHUNKS run after it.
CALIBRATION_ROUNDS = 150
CALIBRATION_INTERVAL_S = 0.02
CALIBRATION_AFTER_CHUNKS = 4
_CAL_MATRIX = np.arange(36.0).reshape(6, 6) / 36.0
_CAL_VECTOR = np.linspace(-1.0, 1.0, 6)


def _calibration_chunk() -> float:
    total = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        total += float(_CAL_VECTOR @ (_CAL_MATRIX @ _CAL_VECTOR)) + float(np.linalg.norm(_CAL_VECTOR)) + i * 0.5
    return time.perf_counter() - t0


def _calibrated_main(args):
    """cli.main(args) with the calibration chunk sampled during it; returns
    (exit code, wall time without the chunks, chunk times)."""
    chunks = []
    signal.signal(signal.SIGALRM, lambda signum, frame: chunks.append(_calibration_chunk()))
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        rc = cli.main(args)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall -= sum(chunks)
    if not chunks:
        chunks = [_calibration_chunk() for _ in range(CALIBRATION_AFTER_CHUNKS)]
    return rc, wall, chunks


def _peak_rss_mb() -> float:
    """Highest RSS of this process and of the pool workers it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _probe(seed: int, steps: int) -> dict:
    from ineq_forge import falsifier
    from ineq_forge.catalog import CATALOG, run_catalog
    from ineq_forge.falsifier import FieldChoice, GramKind, SearchConfig, moore_complex_experiment, sample_instance

    sweep = SearchConfig(seed=seed, trials=PROBE_EXT_TRIALS, dims=(1, 8), field=FieldChoice.BOTH,
                         gram=GramKind.RANDOM)
    hunt = SearchConfig(seed=seed, trials=1, dims=(2, 6), ascent_steps=steps)
    ext = [(name, sample_instance(sweep, name, i)) for name in CATALOG for i in range(PROBE_EXT_TRIALS)]
    starts = [(name, sample_instance(hunt, name, 0)) for name in PROBE_ASCENT_NAMES]

    # moore-complex is timed untraced: at 0 steps it is sampling plus
    # evaluation per sample, the difference at K steps is the refinement.
    moore = {0: [], steps: []}
    for _ in range(PROBE_MOORE_REPEATS):
        for k in moore:
            config = SearchConfig(seed=seed, trials=PROBE_MOORE_SAMPLES, ascent_steps=k,
                                  field=FieldChoice.COMPLEX)
            t0 = time.perf_counter()
            moore_complex_experiment(0.05, config)
            moore[k].append(time.perf_counter() - t0)

    import tracing

    tracer = tracing.install()
    with tracer.root("probe.eval_ext"):
        for name, sampled in ext:
            run_catalog(name, sampled.space, sampled.inputs, extended=True)
    with tracer.root("probe.ascent"):
        for name, sampled in starts:
            # through the module attribute, which install() has rebound
            falsifier.local_ascent(name, sampled.space, sampled.inputs, hunt)
    return {"moore_samples": PROBE_MOORE_SAMPLES, "moore_s": {"0": moore[0], "k": moore[steps]},
            "trace": tracer.dump()}


def main() -> int:
    result = {
        "imported_at": IMPORTED_AT,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "catalog": list(cli.catalog_names()),
    }
    rc = 0
    if MODE in ("import", "run"):
        result["import_chunks_s"] = IMPORT_CHUNKS
    if MODE == "probe":
        result.update(_probe(int(ARGS[0]), int(ARGS[1])))
    elif MODE in ("run", "trace"):
        tracer = None
        if MODE == "trace":
            import tracing

            tracer = tracing.install()
            t0 = time.perf_counter()
            with tracer.root("cli.main"):
                rc = cli.main(ARGS)
            result["wall_s"] = time.perf_counter() - t0
        else:
            rc, result["wall_s"], result["calibration_s"] = _calibrated_main(ARGS)
        sys.stdout.flush()
        result["rc"] = rc
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.dump()
    elif MODE != "import":
        sys.stderr.write(f"child.py: unknown mode {MODE!r}\n")
        return 1
    with open(RESULT, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
