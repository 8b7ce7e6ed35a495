"""Spans and counters around ineq_forge's public functions, installed from
outside the package by rebinding module attributes.

Nothing under src/ is edited: `install()` replaces each traced function with
a wrapper in every loaded ineq_forge module that holds a reference to it
(`from .x import f` copies the name, so each importer is patched), and
`CatalogEntry.run` on the class.  Spans stay in memory; `dump()` returns them
once the run ends.

A span is [name, parent, kind, trial, start_ns, end_ns]: `parent` is the
index of the enclosing span (-1 for a root), `kind` the sampler kind of the
inequality involved, `trial` the [name, index] of the trial the span works
for.  The sample, evaluate, digest and ascent spans of a trial carry that
trial, so a trial's work can be found even when it is split in time (emit
samples each trial twice).  The fine-grained spaces functions (inner, norm,
as_vector) get counters and one aggregate timer instead of spans, because
they run tens of times per trial.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter_ns


def sampler_kind(entry) -> str:
    """Which sampler an inequality uses: conditional, family, complexified
    or vector."""
    if entry.has_premises:
        return "conditional"
    if entry.family_args:
        return "family"
    if entry.complexified_args:
        return "complexified"
    return "vector"


class Tracer:
    def __init__(self, kinds: dict):
        self.kinds = kinds
        self.spans = []
        self.counts = Counter()
        self.ns = Counter()
        self.ascents = []  # [steps accepted, improved] per local_ascent call
        self.trial = None
        self._stack = []

    def open(self, name: str, kind=None, trial=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, parent, kind, trial, _now(), 0])
        return index

    def close(self, index: int) -> None:
        self.spans[index][5] = _now()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "ns": dict(self.ns),
                "ascents": self.ascents}


def _rebind(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("ineq_forge"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer, name, fn, kind_of=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name, kind_of(args) if kind_of else None, tracer.trial)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _counted(tracer, name, fn, timed=False):
    def counter(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    def timer(*args, **kwargs):
        tracer.counts[name] += 1
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.ns[name] += _now() - start

    return timer if timed else counter


def install() -> Tracer:
    from ineq_forge import catalog, cli, falsifier, orthonormal, spaces

    tracer = Tracer({name: sampler_kind(entry) for name, entry in catalog.CATALOG.items()})
    kind_by_name = tracer.kinds.get

    sample = falsifier.sample_instance

    def traced_sample(config, ineq_name, trial_index):
        tracer.trial = [ineq_name, trial_index]
        index = tracer.open("falsifier.sample", kind_by_name(ineq_name), tracer.trial)
        try:
            return sample(config, ineq_name, trial_index)
        finally:
            tracer.close(index)

    _rebind(sample, traced_sample)

    run = catalog.CatalogEntry.run

    def traced_run(self, space, inputs, params=None, *, extended=False):
        name = "catalog.eval_ext" if extended else "catalog.eval"
        index = tracer.open(name, tracer.kinds.get(self.name), tracer.trial)
        try:
            return run(self, space, inputs, params, extended=extended)
        finally:
            tracer.close(index)

    catalog.CatalogEntry.run = traced_run

    _rebind(catalog.instance_digest,
            _spanned(tracer, "catalog.digest", catalog.instance_digest, lambda a: kind_by_name(a[0])))
    _rebind(falsifier.falsify,
            _spanned(tracer, "falsifier.search", falsifier.falsify, lambda a: kind_by_name(a[0])))

    ascent = falsifier.local_ascent

    def traced_ascent(ineq_name, space, inputs, config, params=None):
        index = tracer.open("falsifier.ascent", kind_by_name(ineq_name), tracer.trial)
        try:
            result = ascent(ineq_name, space, inputs, config, params)
        finally:
            tracer.close(index)
        tracer.ascents.append([len(result.trace) - 1, result.trace[-1] < result.trace[0]])
        return result

    _rebind(ascent, traced_ascent)

    confirm = falsifier._confirmed_violation

    def traced_confirm(*args, **kwargs):
        confirmed = confirm(*args, **kwargs)
        if not confirmed:
            tracer.counts["falsifier.confirm.rejected"] += 1
        return confirmed

    _rebind(confirm, traced_confirm)

    # only the binding in falsifier: the sampler and the ascent codec
    gram_schmidt = falsifier.gram_schmidt

    def traced_gram_schmidt(*args, **kwargs):
        index = tracer.open("orthonormal.gram_schmidt", None, tracer.trial)
        try:
            return gram_schmidt(*args, **kwargs)
        except orthonormal.RankDeficientError:
            tracer.counts["orthonormal.gram_schmidt.rank_deficient"] += 1
            raise
        finally:
            tracer.close(index)

    falsifier.gram_schmidt = traced_gram_schmidt

    # to_json recurses through its module global, so only the outermost
    # call of each line is a span; it also counts the bytes written.
    to_json = cli.to_json
    depth = [0]

    def traced_to_json(value):
        if depth[0]:
            return to_json(value)
        depth[0] += 1
        index = tracer.open("cli.to_json", None, None)
        try:
            line = to_json(value)
        finally:
            tracer.close(index)
            depth[0] -= 1
        tracer.counts["cli.bytes_out"] += len(line.encode("utf-8")) + 1
        return line

    cli.to_json = traced_to_json

    for name in ("inner", "norm", "as_vector"):
        original = getattr(spaces, name)
        _rebind(original, _counted(tracer, "spaces." + name, original, timed=name == "as_vector"))
    return tracer
