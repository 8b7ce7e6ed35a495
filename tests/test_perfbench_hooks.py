"""The benchmark's tracing hooks still find what they wrap.

`perfbench/tracing.py` rebinds module attributes of the package and wraps
`CatalogEntry.run` with its signature, so a rename or a new call shape in
`src/` can leave a span silently empty.  A subprocess installs the tracer,
runs a tiny `verify`, `falsify` with ascent and `moore-complex` through
`cli.main`, then the probe's extended `run_catalog(name, space, dict)` call
for every name, and reports which spans were recorded.  It writes no
bytecode, so nothing under `perfbench/` changes.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from ineq_forge import cli
from ineq_forge.catalog import CATALOG, run_catalog
from ineq_forge.falsifier import FieldChoice, GramKind, SearchConfig, sample_instance

tracer = tracing.install()
runs = (
    ["verify", "--ineq", "schwarz,generalized-2.1", "--samples", "4", "--dims", "2..3"],
    ["falsify", "--ineq", "generalized-2.1", "--trials", "4", "--dims", "2..3", "--ascent-steps", "2"],
    ["moore-complex", "--eps", "0.05", "--samples", "4", "--dims", "2..3", "--ascent-steps", "1"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
config = SearchConfig(seed=1, trials=2, dims=(2, 2), field=FieldChoice.BOTH, gram=GramKind.RANDOM)
probed = 0
for name, entry in CATALOG.items():
    for index in range(len(entry.fields)):
        sampled = sample_instance(config, name, index)
        run_catalog(name, sampled.space, sampled.inputs, extended=True)
        probed += 1
names = sorted({span[0] for span in tracer.spans})
print(json.dumps({"codes": codes, "probed": probed, "spans": names}))
"""

SPANS = (
    "falsifier.sample",
    "catalog.eval",
    "catalog.eval_ext",
    "catalog.digest",
    "falsifier.ascent",
    "orthonormal.gram_schmidt",
    "cli.to_json",
)


def test_tracer_records_every_hooked_span():
    env = {k: v for k, v in os.environ.items() if k != "INEQ_FORGE_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _SCRIPT, str(REPO / "perfbench"), str(REPO / "src")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["probed"] == 21  # 16 names, 5 of them over both fields
    missing = [name for name in SPANS if name not in result["spans"]]
    assert not missing, result["spans"]
