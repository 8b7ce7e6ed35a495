"""Randomized counterexample search and tightness probing for the catalog.

Search design
-------------

Every trial is a pure function of (seed, inequality name, trial index): the
per-trial generator is Philox keyed on (seed, fnv1a(name)) with the trial
index in the counter, so runs partition arbitrarily across workers without
changing a single sampled byte.  A Philox stream depends only on its key and
counter, so one generator per (seed, name) serves every trial and every
random gram of that name: its counter and output buffers are reset for each
trial and each gram draw, which reproduces a freshly built generator draw
for draw.  Trials sweep the configured dimension range cyclically and
alternate fields blockwise for field-agnostic statements.

Vectors are sampled with independent standard normal coordinates (real and
imaginary parts independently over C).  Under a non-identity gram matrix the
base law is made isotropic for the weighted pairing by drawing in whitened
coordinates and mapping through inv(L^T), L the Cholesky factor.

Conditional statements are sampled inside their premise regions exactly
rather than by rejection: for a standard normal vector the squared cosine
against a fixed direction is Beta(1/2, (d-1)/2) over R and Beta(1, d-1) over
C, so a premise window on the cosine is an interval condition on a Beta
variable, invertible through the regularized incomplete beta function.  The
construction is distributionally identical to rejection sampling but runs in
constant time per sample at any eps.  The one remaining rejection loop (the
probe direction of the quotient-transfer statement) is capped; trials that
exhaust the cap are reported as premise-starved, never silently dropped.

A run is split into shards of SHARD_SIZE consecutive trials, evaluated in
order or by a process pool, and merged in shard order.  A shard samples its
trials in two phases, space by space: phase A resets each trial's stream
and makes its draw calls into the trial's row of the space's tape, phase B
builds the space's trials from the tape in stacked operations, with one
Gram-Schmidt call per family argument.  One draw source serves phase B, the
dry run of it that logs phase A's draw calls, and a lone trial drawing as
it goes, with one arithmetic that gives each row of a stack the bits its
trial gets alone.  A trial whose draws leave phase A's path (a retry, a
rejected probe, a cosine of exactly 1) is sampled again alone, which is how
`sample_instance` samples one trial.  The shard evaluates its trials in
groups of one space (catalog statements are stacked kernels that give each
member of a group the bits it gets alone), then counts them in trial order.
If a group raises, the shard evaluates each of its trials as a group of
one, in trial order, so the error is the first faulty trial's own.  A shard
can also return the instance line of each trial whose premises hold (its
digest and binding margins, as finished JSON text), so a caller that writes
every instance gets them from the same sampling and evaluation as the
report, one shard at a time, and only writes them; the digests of a shard
take one batched FNV-1a pass, and its lines one format string.  It returns
the inputs of its lowest trials with their counts, so no trial is sampled
twice; the lowest of all the shards' is the worst trial.

Violation candidates are re-evaluated at extended precision before being
counted: a double-precision "violation" of a true bound is overwhelmingly
roundoff, and the report only counts confirmed ones.  The worst margin is
selected by scale-normalized margin (ties to the lower trial index) and
reported in raw units.  Local ascent refines the most promising candidates
by projected central-difference descent on the normalized margin.  The 2n
probes of each gradient are rebuilt in one call, which re-orthonormalizes
each family argument for all of them as one stacked Gram-Schmidt pass, and
are evaluated as one group together with the point they probe: the start
instance, or a step's first, full-length candidate when a step remains
after it and the step before accepted its own first candidate, so an
accepted first candidate brings the next gradient along.  The line
search tries every other candidate in blocks of LINE_BLOCK step lengths,
each rebuilt in one call and evaluated as one group.  A probe that cannot
be rebuilt or raises (alone, after its group raised) is left out of the
gradient.  The complex-premise Moore experiment
samples and evaluates its samples in groups of one dimension, chunk by
chunk, as a shard does, and refines the inputs of its lowest ratios with
the same descent routine and the same coordinate codec, so both searches
share one implementation of the step, the projection and the premise
guard.  The descent returns the row it evaluated for its final instance,
and both searches fold that row, so a refined instance is not evaluated
again.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import special as sps

from .catalog import (
    MooreParams,
    TOL_ABS,
    TOL_REL,
    catalog_entry,
    digest_inputs,
    fnv1a_64,
    instance_digest,
    instance_digests,
    verify_moore,
)
from .orthonormal import OrthonormalFamily, gram_schmidt
from .spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    norm,
    pairing_norm,
    zero_norm_threshold,
)

SHARD_SIZE = 4096
TOP_K = 8
REJECTION_CAP = 10_000
MAX_HALVINGS = 20
LINE_BLOCK = 8  # step lengths a line search rebuilds and evaluates as one group
HISTOGRAM_BUCKETS = 32
_TINY = 1e-300


class FieldChoice(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"
    BOTH = "both"


class GramKind(enum.Enum):
    IDENTITY = "identity"
    RANDOM = "random"


class Verdict(enum.Enum):
    NO_COUNTEREXAMPLE_FOUND = "NoCounterexampleFound"
    COUNTEREXAMPLE_FOUND = "CounterexampleFound"


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    trials: int = 10000
    dims: tuple = (2, 6)
    ascent_steps: int = 0
    step_size: float = 1e-2
    fd_eps: float = 1e-6
    field: FieldChoice = FieldChoice.BOTH
    gram: GramKind = GramKind.IDENTITY

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.trials < 0:
            raise DomainError("trials must be nonnegative")
        lo, hi = self.dims
        if not (1 <= lo <= hi):
            raise DomainError("dims must be an inclusive range with lower bound >= 1")
        if self.ascent_steps < 0:
            raise DomainError("ascent_steps must be nonnegative")
        if not 0 < self.step_size < 1:
            raise DomainError("step_size must lie in (0, 1)")
        if not 0 < self.fd_eps < 1:
            raise DomainError("fd_eps must lie in (0, 1)")


@dataclass(frozen=True)
class SearchReport:
    ineq: str
    trials_run: int
    worst_margin: Optional[float]
    worst_instance_digest: Optional[str]
    near_equality_count: int
    violation_count: int
    margin_histogram: tuple
    premise_starved: int


@dataclass(frozen=True)
class SampledInstance:
    space: SpaceSpec
    inputs: dict
    starved: bool


@dataclass(frozen=True)
class AscentResult:
    refined_inputs: dict
    row: tuple
    trace: tuple

    @property
    def final_margin(self) -> float:
        return self.row[0]


@dataclass(frozen=True)
class MooreComplexReport:
    eps: float
    samples: int
    samples_satisfying_premises: int
    min_observed_ratio: Optional[float]
    first_bound: float
    second_bound: float
    verdict: Verdict
    witness_digest: Optional[str]


# deterministic streams --------------------------------------------------------


def _name_key(name: str) -> int:
    return fnv1a_64(name.encode("utf-8"))


@functools.lru_cache(maxsize=256)
def _stream(seed: int, name: str):
    """The one Philox generator of (seed, name), with its initial state,
    whose counter `_trial_rng` and `_gram_rng` set."""
    bits = np.random.Philox(key=[seed, _name_key(name)])
    return bits, np.random.Generator(bits), bits.state


def _stream_at(seed: int, name: str, word2: int, word3: int) -> np.random.Generator:
    """The generator of (seed, name) at counter [0, 0, word2, word3], drawing
    exactly as a freshly built one.

    The generator is shared by every stream of (seed, name): it is reset
    here, so it stays valid only until the next reset of the same seed and
    name.
    """
    bits, rng, state = _stream(seed, name)
    # setting a state copies it, buffer included, so the one dict serves every reset
    counter = state["state"]["counter"]
    counter[2] = word2
    counter[3] = word3
    bits.state = state
    return rng


def _trial_rng(seed: int, name: str, index: int) -> np.random.Generator:
    """The generator of one trial: Philox keyed on (seed, fnv1a(name)) at
    counter [0, 0, 0, index] (see `_stream_at`)."""
    return _stream_at(seed, name, 0, index)


def _gram_rng(seed: int, name: str, dim: int, field: Field) -> np.random.Generator:
    """Reserved substream (counter word 2 set) so gram draws never collide
    with trial draws (see `_stream_at`)."""
    return _stream_at(seed, name, 1, dim * 2 + (1 if field is Field.COMPLEX else 0))


def _random_gram(seed: int, name: str, dim: int, field: Field) -> np.ndarray:
    rng = _gram_rng(seed, name, dim, field)
    a = rng.standard_normal((dim, dim))
    if field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal((dim, dim))
    g = a.conj().T @ a + 0.5 * np.eye(dim)
    return (g + g.conj().T) / 2.0


def _field_plan(name: str, fields: tuple, choice: FieldChoice):
    """Fields a run visits for `choice`, given the `fields` that `name` is
    defined over."""
    if choice is FieldChoice.REAL:
        return (Field.REAL,)
    if choice is FieldChoice.COMPLEX:
        if Field.COMPLEX not in fields:
            raise DomainError(f"{name} is not defined over complex spaces")
        return (Field.COMPLEX,)
    return fields


def _trial_cell(config: SearchConfig, plan: tuple, index: int):
    """(dim, field) of one trial: dimensions cycle fastest, fields blockwise."""
    lo, hi = config.dims
    dims = hi - lo + 1
    return lo + index % dims, plan[(index // dims) % len(plan)]


@functools.lru_cache(maxsize=None)
def _cached_space(seed: int, gram_kind: GramKind, name: str, dim: int, field: Field):
    """The gram draw is a pure function of its key, so every trial of a run
    shares one space object and one whitener (at most names x dims x fields
    entries live at once)."""
    if gram_kind is GramKind.IDENTITY:
        return SpaceSpec(dim, field), None
    space = SpaceSpec(dim, field, _random_gram(seed, name, dim, field))
    whitener = np.linalg.inv(space.chol.T)
    whitener.setflags(write=False)
    return space, whitener


# sampling: phase A draws, phase B builds (in whitened coordinates) --------------
#
# Each sampler is written once against `_Draws`, the one draw source of
# the dry run, phase B and a lone trial.  Its modes share one table of
# shape-generic arithmetic (numpy operations and the helpers below), which
# gives each row of a stack the bits that its trial gets alone.


def _hypot(a, b):
    """math.hypot of two numbers, or row by row of two arrays: np.hypot
    rounds differently."""
    if np.ndim(a) == 0:
        return math.hypot(a, b)
    return np.array([math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())])


def _beta_law(x, d: int, field: Field, inverse: bool = False):
    """The squared cosine's Beta cdf, or its inverse, at x, a number or an
    array; over C by Python's ** (numpy's array power rounds differently)."""
    if field is Field.REAL:
        return (sps.betaincinv if inverse else sps.betainc)(0.5, (d - 1) / 2.0, x)
    power = 1.0 / (d - 1) if inverse else d - 1
    if np.ndim(x) == 0:
        return 1.0 - (1.0 - float(x)) ** power
    return np.array([1.0 - (1.0 - v) ** power for v in x.tolist()])


@functools.lru_cache(maxsize=1024)
def _beta_cdf(t: float, d: int, field: Field) -> float:
    return float(_beta_law(t, d, field))


class _Draws:
    """The draws of phase B, in one of three modes.  With neither a tape
    nor a generator it is a dry run, whose `calls` log the reads: phase A's
    program.  With phase A's `tape` of a group it reads the draws back, a
    row per trial, and marks in `redo` each trial off phase A's path.  With
    one trial's `rng` it draws as it goes, in a lone trial's shapes
    (numbers, 1-d vectors, (size, width) family rows), and the trial takes
    every branch."""

    def __init__(self, tape=None, rng=None):
        self.tape, self.rng, self.calls = tape, rng, []
        self.redo = np.zeros(1 if tape is None else len(tape), dtype=bool)

    def _read(self, kind, count, width=0):
        start = self.calls[-1][2] if self.calls else 0
        if kind == "n" and self.calls and self.calls[-1][0] == "n":
            self.calls[-1] = ("n", self.calls[-1][1], start + count, 0)
        else:
            self.calls.append((kind, start, start + count, width))
        return np.zeros((1, count)) if self.tape is None else self.tape[:, start : start + count]

    def normals(self, count):
        return self._read("n", count) if self.rng is None else self.rng.standard_normal(count)

    def uniforms(self):
        return self._read("u", 1)[:, 0] if self.rng is None else self.rng.random()

    def sizes(self, dim):
        return self._read("s", 1)[:, 0].astype(np.intp) if self.rng is None else int(self.rng.integers(0, dim + 1))

    def rows(self, sizes, dim, width):
        if self.rng is None:
            return self._read("r", dim * width, width).reshape(len(self.redo), dim, width)
        return self.rng.standard_normal((sizes, width))

    def families(self, space, rows, sizes):
        if self.rng is not None:
            try:
                return gram_schmidt(space, rows), True
            except DomainError:
                return None, False
        families = [None] if self.tape is None else gram_schmidt(space, rows, sizes=sizes)
        return families, np.array([family is not None for family in families])

    def each(self, fn, *values):
        return fn(*values) if self.rng is not None else [fn(*row) for row in zip(*values)]

    def common(self, ok) -> bool:
        """Whether to take the branch that phase A draws for: a lone trial
        takes it where `ok`, a group always, marking the trials not `ok`."""
        if self.rng is not None:
            return bool(ok)
        self.redo |= ~ok
        return True

    def col(self, x):
        """x as a factor of each row: a value per row gets a trailing axis,
        and a lone trial's number scales its vector as it is."""
        return x if self.rng is not None else np.asarray(x)[..., np.newaxis]

    sqrt, copysign, hypot = staticmethod(np.sqrt), staticmethod(np.copysign), staticmethod(_hypot)
    dot = staticmethod(np.vecdot)  # <b, a> of the standard pairing, conj(a) . b: a 1-d dot's bits, row by row

    @staticmethod
    def clip(t, lo, hi):
        """min(max(t, lo), hi) elementwise, with the same picks."""
        return np.minimum(np.maximum(t, lo), hi)

    @staticmethod
    def norms(w):
        """np.linalg.norm of each row, by the same dot products and sqrt."""
        squares = np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag) if w.dtype.kind == "c" else np.vecdot(w, w)
        return np.sqrt(squares)

    @staticmethod
    def beta_cdf(t, d: int, field: Field):
        # a bound shared by the group as a Python float, as a lone trial
        # passes it: Python's ** over C, and one cache entry per value
        return _beta_cdf(float(t), d, field) if np.ndim(t) == 0 else _beta_law(t, d, field)

    @staticmethod
    def beta_ppf(u, d: int, field: Field):
        return _beta_law(u, d, field, inverse=True)


@functools.lru_cache(maxsize=None)
def _program(entry, params, dim: int, field: Field):
    """Phase A's draw calls for a trial of `entry` in (dim, field), as a
    dry run of phase B logs them, and the width of a trial's tape row."""
    dry = _Draws()
    with np.errstate(divide="ignore", invalid="ignore"):
        _SAMPLERS.get(entry.name, _sample_generic)(entry, SpaceSpec(dim, field), None, dry, params)
    return tuple(dry.calls), dry.calls[-1][2] if dry.calls else 0


def _draw(rng, program, dim: int, row) -> None:
    """Phase A for one trial: its draw calls, in order, into its tape row."""
    for kind, start, stop, width in program:
        if kind == "n":
            rng.standard_normal(out=row[start:stop])
        elif kind == "u":
            row[start] = rng.random()
        elif kind == "s":
            row[start] = size = int(rng.integers(0, dim + 1))
        else:  # the rows of the family sized just before
            rng.standard_normal(out=row[start : start + size * width])


def _complexify(parts, field: Field):
    """Over C, draws whose last axis holds real parts, then imaginary ones."""
    half = parts.shape[-1] // 2
    return parts if field is Field.REAL else parts[..., :half] + 1j * parts[..., half:]


def _vectors(draws, space: SpaceSpec):
    """A standard normal vector per trial, over C its real part first."""
    if space.field is Field.REAL:
        return draws.normals(space.dim)
    return _complexify(draws.normals(2 * space.dim), space.field)


def _unit(draws, w):
    return w / draws.col(draws.norms(w))


def _ambient(whitener, w):
    # a stack's one product keeps each row's `whitener @ r` bits
    return w if whitener is None else whitener @ w if w.ndim == 1 else (whitener @ w[..., np.newaxis])[..., 0]


def _nonzero(draws, space: SpaceSpec):
    threshold = zero_norm_threshold(space)
    for _ in range(64):
        w = _vectors(draws, space)
        if draws.common(draws.norms(w) > threshold):
            return w
    raise RuntimeError("could not sample a nonzero vector")


def _orth_unit(draws, space: SpaceSpec, xhat):
    """A uniform unit direction orthogonal to each unit row of xhat
    (standard pairing); requires dimension at least 2."""
    for _ in range(64):
        p = _vectors(draws, space)
        p = p - draws.col(draws.dot(xhat, p)) * xhat
        n = draws.norms(p)
        if draws.common(n > 1e-12):
            return p / draws.col(n)
    raise RuntimeError("could not sample an orthogonal direction")


def _conditioned(draws, space: SpaceSpec, xhat, t_lo, t_hi: float, signed: bool):
    """Standard normal vectors conditioned on their cosines against the
    unit rows of xhat: each squared cosine from the conditional Beta law on
    [t_lo, t_hi] (t_lo a number or one per row), its sign (phase over C)
    pinned to + when `signed`, else uniform.

    Draw order: the window variate (a raw uniform, above dimension 1), the
    sign or phase, the orthogonal direction, the magnitude.  The direction
    is drawn only where the clipped squared cosine is below 1 (its tail
    sqrt(1 - t) is positive); phase A always draws it, so a trial whose
    cosine is 1 leaves phase A's path.
    """
    d, field = space.dim, space.field
    t_lo, t_hi = draws.clip(t_lo, 0.0, 1.0), min(max(t_hi, 0.0), 1.0)
    if d == 1:
        t = 1.0
    else:
        lo, hi = draws.beta_cdf(t_lo, d, field), _beta_cdf(t_hi, d, field)
        t = draws.clip(draws.beta_ppf(lo + (hi - lo) * draws.uniforms(), d, field), t_lo, t_hi)
    c = draws.sqrt(t)
    if not signed:
        turn = draws.uniforms()
        # over R, c times -1.0 below 0.5 and 1.0 from 0.5 up: -c and c exactly
        c = c * (np.exp(2j * np.pi * turn) if field is Field.COMPLEX else draws.copysign(1.0, turn - 0.5))
    tail = draws.sqrt(draws.clip(1.0 - t, 0.0, 1.0))
    direction = draws.col(c) * xhat
    if d > 1 and draws.common(tail > 0.0):
        direction = direction + draws.col(tail) * _orth_unit(draws, space, xhat)
    return draws.col(draws.norms(_vectors(draws, space))) * direction


# per-name samplers: (entry, space, whitener, draws, params) -> (inputs, starved)


def _sample_generic(entry, space, whitener, draws, params):
    inputs, dim = {}, space.dim
    for key in entry.family_args:
        sizes = draws.sizes(dim)
        for _ in range(16):
            rows = draws.rows(sizes, dim, dim * (2 if space.field is Field.COMPLEX else 1))
            families, ok = draws.families(space, _ambient(whitener, _complexify(rows, space.field)), sizes)
            if draws.common(ok):
                inputs[key] = families
                break
        else:
            raise RuntimeError("could not sample an orthonormal family")
    for key in entry.vector_args:
        inputs[key] = _ambient(whitener, _nonzero(draws, space))
    for key in entry.complexified_args:
        for _ in range(64):
            re, im = draws.normals(dim), draws.normals(dim)
            if draws.common(draws.hypot(draws.norms(re), draws.norms(im)) > zero_norm_threshold(space)):
                break
        inputs[key] = draws.each(ComplexifiedVector, _ambient(whitener, re), _ambient(whitener, im))
    return inputs, False


def _sample_anchored(entry, space, whitener, draws, params):
    """An anchor and two vectors conditioned on their cosines against it, in
    the entry's vector arguments: moore-1.9 (x, y, z) and buzano-moore-1.16
    (x, a, b) anchor x, cosine moduli at least 1 - eps, signs or phases
    uniform; precupanu-moore-1.12 (a, b, x) cosines in [eps1, min(eps2, 1)]
    (starved where dimension 1 has none); t1.5-i (a, x, y) at least delta."""
    signed, starved = True, False
    if entry.name == "precupanu-moore-1.12":
        eps1, eps2 = params.eps1, params.eps2
        starved = eps1 > 1.0 + 1e-12 or (space.dim == 1 and not eps1 - 1e-12 <= 1.0 <= eps2 + 1e-12)
        hi = min(eps2, 1.0)
        at, windows = 2, [(eps1 * eps1, hi * hi)] * 2
    elif entry.name == "t1.5-i":
        at, windows = 0, [(params.delta1 ** 2, 1.0), (params.delta2 ** 2, 1.0)]
    else:
        need = max(1.0 - params.eps, 0.0)
        at, windows, signed = 0, [(need * need, 1.0)] * 2, False
    anchor = _nonzero(draws, space)
    ahat = _unit(draws, anchor)
    vectors = [_conditioned(draws, space, ahat, lo, hi, signed) for lo, hi in windows]
    vectors.insert(at, anchor)
    return {k: _ambient(whitener, v) for k, v in zip(entry.vector_args, vectors)}, starved


def _sample_quotient_transfer(entry, space, whitener, draws, params):
    """Sampling for the quotient-transfer premises.

    Floor lane (mu1 set): the floor on <x,a><x,b>/(||x||^2 ||a|| ||b||) is
    attainable only when cos(a, b) >= 2 mu1 - 1, so b is drawn with its
    cosine against a at least max(2 mu1 - 1, 0).  For unit anchors with
    cosine c and a unit probe with component p along their bisector, the
    quotient is at least p^2 - (1 - c)/2 whatever the orthogonal part does,
    so conditioning p^2 >= mu1 + (1 - c)/2 satisfies the premise without any
    rejection.  This covers a subregion of the premise set (probes near the
    bisector), which is the tradeoff for constant-time sampling; ascent
    refinement is free to leave it.

    Cap lane (mu2 only): the acceptance region depends on the anchor pair in
    a way with no comparable closed form, so the probe is rejection-sampled
    with a hard cap and exhaustion is reported as starvation.  Phase A draws
    one probe; a trial that rejects it is sampled again alone.
    """
    mu1, mu2 = params.mu1, params.mu2
    if mu1 is None and mu2 is None:
        raise DomainError("quotient-transfer sampling needs mu1 or mu2")
    a = _nonzero(draws, space)
    starved = True
    if mu1 is not None:
        ahat, gamma = _unit(draws, a), max(2.0 * mu1 - 1.0, 0.0)
        b = _conditioned(draws, space, ahat, gamma * gamma, 1.0, True)
        bhat = _unit(draws, b)
        c = draws.clip(draws.dot(ahat, bhat), -1.0, 1.0)
        t_min = draws.clip(mu1 + (1.0 - c) / 2.0, 0.0, 1.0)
        x, starved = _conditioned(draws, space, _unit(draws, ahat + bhat), t_min, 1.0, True), False
    else:
        b = _nonzero(draws, space)
        na, nb = draws.norms(a), draws.norms(b)
        for _ in range(REJECTION_CAP):
            x = _nonzero(draws, space)
            xhat = _unit(draws, x)
            if draws.common(draws.dot(xhat, a) * draws.dot(xhat, b) <= mu2 * na * nb):
                starved = False
                break
    return {"a": _ambient(whitener, a), "b": _ambient(whitener, b), "x": _ambient(whitener, x)}, starved


_SAMPLERS = {
    "moore-1.9": _sample_anchored,
    "buzano-moore-1.16": _sample_anchored,
    "precupanu-moore-1.12": _sample_anchored,
    "t1.5-i": _sample_anchored,
    "t1.5-ii": _sample_quotient_transfer,
}


def _sample_alone(config: SearchConfig, key: str, entry, params, fields: tuple, index: int):
    """One trial sampled in live mode, drawing as it goes: (space, inputs, starved)."""
    space, whitener = _cached_space(config.seed, config.gram, key, *_trial_cell(config, fields, index))
    draws = _Draws(rng=_trial_rng(config.seed, key, index))
    return (space, *_SAMPLERS.get(entry.name, _sample_generic)(entry, space, whitener, draws, params))


def _sample_trials(config: SearchConfig, key: str, entry, params, fields: tuple, indices: list) -> list:
    """The SampledInstance of each trial of `indices`, in that order, from
    the streams of (config.seed, key) by `entry`'s sampler at `params`, in
    two phases per space (see the module docstring).  Phase A raises
    nothing, and the trials off its path are sampled again alone in trial
    order, so an error raised is the first such trial's own."""
    cells = {}  # (dim, field) -> its trials, in order
    for index in indices:
        cells.setdefault(_trial_cell(config, fields, index), []).append(index)
    sampler = _SAMPLERS.get(entry.name, _sample_generic)
    sampled, redo = {}, []
    for (dim, field), members in cells.items():
        program, width = _program(entry, params, dim, field)
        tape = np.zeros((len(members), width))
        for index, row in zip(members, tape):
            _draw(_trial_rng(config.seed, key, index), program, dim, row)
        space, whitener = _cached_space(config.seed, config.gram, key, dim, field)
        draws = _Draws(tape)
        with np.errstate(divide="ignore", invalid="ignore"):
            inputs, starved = sampler(entry, space, whitener, draws, params)
        for row, index in enumerate(members):
            sampled[index] = SampledInstance(space, {k: stack[row] for k, stack in inputs.items()}, starved)
        redo += [members[row] for row in np.flatnonzero(draws.redo).tolist()]
    for index in sorted(redo):
        sampled[index] = SampledInstance(*_sample_alone(config, key, entry, params, fields, index))
    return [sampled[index] for index in indices]


def sample_instance(config: SearchConfig, ineq_name: str, trial_index: int | list) -> SampledInstance | list:
    """Deterministic instance for one trial; see the module docstring.  A
    list of trial indices gives the list of their instances, sampled as a
    shard samples its trials (`_sample_trials`), with the same bits."""
    entry = catalog_entry(ineq_name)
    fields = _field_plan(ineq_name, entry.fields, config.field)
    if isinstance(trial_index, list):
        return _sample_trials(config, ineq_name, entry, entry.default_params, fields, trial_index)
    return SampledInstance(*_sample_alone(config, ineq_name, entry, entry.default_params, fields, trial_index))


# margins, buckets, arbitration --------------------------------------------------


def _bucket(normalized_margin: float) -> int:
    """Bucket 0 collects margins not shown to hold: nonpositive ones and NaN.
    1..30 span decades from 1e-17 up (positive underflow folds into 1), 31 is
    overflow."""
    if not normalized_margin > 0.0:
        return 0
    return min(max(int(math.floor(math.log10(normalized_margin))) + 18, 1), 31)


def _group_rows(samples: list, evaluate) -> list:
    """One row per SampledInstance, in order, from `evaluate(space, group)`,
    which takes the inputs of the samples in one space as one group and
    returns a row for each.

    If a group raises, each sample is evaluated as a group of one, in
    order, so that the error raised is the one the first faulty sample
    raises by itself (and the group's own error if none does).
    """
    groups = {}
    for i, sampled in enumerate(samples):
        groups.setdefault(sampled.space, []).append(i)
    rows = [None] * len(samples)
    try:
        for space, members in groups.items():
            for i, row in zip(members, evaluate(space, [samples[i].inputs for i in members])):
                rows[i] = row
    except (ValueError, ArithmeticError):
        for sampled in samples:
            evaluate(sampled.space, [sampled.inputs])
        raise
    return rows


def _confirmed_violation(entry, space, inputs) -> bool:
    ((_, premises_ok, _, holds, _, _),) = _binding_rows(entry, space, [inputs], extended=True)
    return premises_ok and not holds


# local ascent --------------------------------------------------------------------


class _CoordCodec:
    """Flatten instance inputs to one real vector and back.

    Families always rebuild through gram_schmidt (the orthonormality
    manifold is the only place they make sense), vectors and complexified
    pairs renormalize to their starting norms when `project` is set.
    `rebuild` takes a stack of points: each family argument is
    orthonormalized for all of them in one stacked gram_schmidt call, each
    distinct slice once, so the 2n probes of a gradient re-orthonormalize a
    family only where they perturb it.
    """

    def __init__(self, entry, space, inputs):
        self.entry = entry
        self.space = space
        self.complex_field = space.field is Field.COMPLEX
        self.family_sizes = {k: inputs[k].size for k in entry.family_args}
        self.vector_norms = {k: norm(space, inputs[k]) for k in entry.vector_args}
        self.pair_norms = {
            k: math.hypot(norm(space, inputs[k].re), norm(space, inputs[k].im))
            for k in entry.complexified_args
        }

    def flatten(self, inputs) -> np.ndarray:
        parts = []
        for k in self.entry.family_args:
            m = inputs[k].members
            parts.append(np.asarray(m.real, dtype=np.float64).ravel())
            if self.complex_field:
                parts.append(np.asarray(m.imag, dtype=np.float64).ravel())
        for k in self.entry.vector_args:
            v = np.asarray(inputs[k], dtype=self.space.field.dtype)
            parts.append(np.asarray(v.real, dtype=np.float64))
            if self.complex_field:
                parts.append(np.asarray(v.imag, dtype=np.float64))
        for k in self.entry.complexified_args:
            parts.append(np.asarray(inputs[k].re, dtype=np.float64))
            parts.append(np.asarray(inputs[k].im, dtype=np.float64))
        return np.concatenate(parts)

    def _families(self, chunk: np.ndarray, size: int) -> list:
        """Orthonormalize one family's slice of each point of an (m, w)
        stack, None where that fails.  Each distinct slice (the slices of
        gradient probes that leave the family alone are all the same) is
        orthonormalized once, and the distinct ones as one stack."""
        keys = [row.tobytes() for row in chunk]
        first = {}  # slice bytes -> the first row holding them
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        dim = self.space.dim
        distinct = chunk[list(first.values())]
        shape = (len(distinct), size, dim)
        raw = distinct[:, : size * dim].reshape(shape)
        if self.complex_field:
            raw = raw + 1j * distinct[:, size * dim :].reshape(shape)
        family_of = dict(zip(first, gram_schmidt(self.space, raw)))
        return [family_of[key] for key in keys]

    def rebuild(self, points: np.ndarray, project: bool):
        """The inputs of each flat point of an (m, n) stack, None for a
        point that cannot be rebuilt; one (n,) point gives its inputs (or
        None) alone.  Each argument is rebuilt for the whole stack at once."""
        if points.ndim == 1:
            return self.rebuild(points[np.newaxis], project)[0]
        dim = self.space.dim
        rows = [{} for _ in points]
        live = np.ones(len(points), dtype=bool)
        pos = 0
        for k in self.entry.family_args:
            size = self.family_sizes[k]
            end = pos + size * dim * (2 if self.complex_field else 1)
            for i, family in enumerate(self._families(points[:, pos:end], size)):
                if family is None:
                    live[i] = False
                rows[i][k] = family
            pos = end
        for k in self.entry.vector_args:
            v = points[:, pos : pos + dim].copy()
            pos += dim
            if self.complex_field:
                v = v + 1j * points[:, pos : pos + dim]
                pos += dim
            if project:
                n = pairing_norm(self.space, v)
                kept = n > zero_norm_threshold(self.space)
                live &= kept
                v = v * (self.vector_norms[k] / np.where(kept, n, 1.0))[:, np.newaxis]
            for row, vector in zip(rows, v):
                row[k] = vector
        for k in self.entry.complexified_args:
            re = points[:, pos : pos + dim].copy()
            pos += dim
            im = points[:, pos : pos + dim].copy()
            pos += dim
            if project:
                n = _hypot(pairing_norm(self.space, re), pairing_norm(self.space, im))
                kept = n > zero_norm_threshold(self.space)
                live &= kept
                ratio = (self.pair_norms[k] / np.where(kept, n, 1.0))[:, np.newaxis]
                re = re * ratio
                im = im * ratio
            for row, a, b in zip(rows, re, im):
                row[k] = ComplexifiedVector._checked(a, b)
        return [row if ok else None for row, ok in zip(rows, live.tolist())]


def _probe_points(flat: np.ndarray, h: float) -> np.ndarray:
    """The (2n, n) stack of central-difference probes around flat: flat + h,
    then flat - h, along each coordinate in turn."""
    n = flat.size
    probes = np.repeat(flat[np.newaxis], 2 * n, axis=0)
    coords = np.arange(n)
    probes[2 * coords, coords] += h
    probes[2 * coords + 1, coords] -= h
    return probes


def _central_gradient(values, h: float) -> np.ndarray:
    """Central differences with step h from the values at the probes of
    `_probe_points`, in its order; a coordinate with a non-finite value on
    either side gets 0."""
    values = np.array(values, dtype=np.float64)
    up, down = values[0::2], values[1::2]
    grad = np.zeros_like(up)
    finite = np.isfinite(up) & np.isfinite(down)
    grad[finite] = (up[finite] - down[finite]) / (2.0 * h)
    return grad


def _evaluate(objective, candidates: list) -> list:
    """The objective row (value, premises_ok, ...) of each candidate, with
    (inf, False), a row every fold skips, for None (a point the codec cannot
    rebuild).  The others are evaluated as one group; if that raises, each
    is evaluated alone, and one that raises alone gets (inf, False)."""
    live = [c for c in candidates if c is not None]
    try:
        rows = iter(objective(live) if live else ())
    except (DomainError, ArithmeticError):
        rows = iter([_evaluate_alone(objective, c) for c in live])
    return [(math.inf, False) if c is None else next(rows) for c in candidates]


def _evaluate_alone(objective, candidate) -> tuple:
    try:
        return objective([candidate])[0]
    except (DomainError, ArithmeticError):
        return math.inf, False


def _probed(objective, codec: _CoordCodec, head: list, flat: Optional[np.ndarray], h: float) -> tuple:
    """The rows of the instances in `head` and the central-difference
    gradient of `objective` at flat (None when flat is None), from one
    group: the head, then the 2n probes around flat, rebuilt unprojected in
    one call.  Each member gets the row it gets alone."""
    probes = [] if flat is None else codec.rebuild(_probe_points(flat, h), project=False)
    rows = _evaluate(objective, head + probes)
    grad = None if flat is None else _central_gradient([row[0] for row in rows[len(head):]], h)
    return rows[: len(head)], grad


def _descend(objective, codec: _CoordCodec, inputs: dict, config: SearchConfig) -> AscentResult:
    """Projected central-difference descent on `objective`, which maps a
    list of instances to their rows, each (value, premises_ok, ...), and
    raises on a faulty one (see `_evaluate`).

    Each step takes the gradient from the 2n unprojected probes around the
    current point, then tries the projected candidates at the step lengths
    s, s/2, ..., s/2^MAX_HALVINGS along the normalized descent direction,
    and accepts the first that lowers the value with its premises intact.
    The start instance is evaluated in one group with the first gradient's
    probes.  A step's first candidate is evaluated with the probes around
    its own flat when a step remains after it and the step before accepted
    its first candidate (the first step counts as such), so an accepted
    first candidate brings the next gradient along; in a long descent most
    steps halve, and probes built around a rejected candidate are wasted.
    The other lengths are rebuilt in one call and evaluated as one group,
    LINE_BLOCK at a time in order, the last block short.  A point whose
    gradient did not come with it gets its probes as a group of their own.
    Every member of a group gets the row it gets alone, so the blocks move
    no bit.  The recorded trace is nonincreasing by construction.  The
    result holds the row of the final instance.
    """

    h = config.fd_eps
    flat = codec.flatten(inputs)
    current_inputs = inputs
    (row,), grad = _probed(objective, codec, [inputs], flat if config.ascent_steps else None, h)
    trace = [row[0]]
    step = config.step_size
    first_accepted = True  # the step before accepted its first candidate
    for left in reversed(range(config.ascent_steps)):  # the steps after this one
        if grad is None:
            _, grad = _probed(objective, codec, [], flat, h)
        gnorm = float(np.linalg.norm(grad))
        if not math.isfinite(gnorm) or gnorm < 1e-14:
            break
        direction = grad / gnorm
        reach = max(float(np.linalg.norm(flat)), 1e-12)
        lengths = [step]
        for _ in range(MAX_HALVINGS):
            lengths.append(lengths[-1] / 2.0)
        start = 0
        while start < len(lengths):
            with_probes = first_accepted and left and not start  # the first candidate, with the probes around it
            stop = start + (1 if with_probes else LINE_BLOCK)
            block = np.array(lengths[start:stop]) * reach
            candidates = codec.rebuild(flat - block[:, np.newaxis] * direction, project=True)
            merged_flat = codec.flatten(candidates[0]) if with_probes and candidates[0] is not None else None
            rows, grad = _probed(objective, codec, candidates, merged_flat, h)
            i = next((i for i, (value, premises_ok, *_) in enumerate(rows) if premises_ok and value < row[0]), None)
            if i is not None:
                break
            start = stop
        else:
            break
        current_inputs, row = candidates[i], rows[i]
        flat = codec.flatten(current_inputs) if merged_flat is None else merged_flat
        trace.append(row[0])
        step = min(lengths[start + i] * 1.5, 1.0)
        first_accepted = start + i == 0
    return AscentResult(current_inputs, row, tuple(trace))


def local_ascent(ineq_name: str, space: SpaceSpec, inputs: dict, config: SearchConfig, params=None) -> AscentResult:
    """Drive the instance toward equality or violation.

    Descent on the scale-normalized binding margin: accepted steps
    renormalize nonzero-required vectors to their starting norms and
    re-orthonormalize families, and steps that leave the premise region are
    rejected.  The objective is `_binding_rows`, so the result's row is the
    final instance's binding row.
    """
    entry = catalog_entry(ineq_name)
    objective = functools.partial(_binding_rows, entry, space, params=params)
    return _descend(objective, _CoordCodec(entry, space, inputs), inputs, config)


def _keep_top(top: list, key: tuple) -> None:
    """Keep the TOP_K smallest keys seen so far, ascending."""
    if len(top) < TOP_K:
        top.append(key)
        top.sort()
    elif key < top[-1]:
        top[-1] = key
        top.sort()


# search driver -------------------------------------------------------------------


def _binding_rows(entry, space: SpaceSpec, group: list, params=None, extended: bool = False) -> list:
    """The one reading of a catalog result in this module: for each
    instance (a dict of inputs) of a group in `space`, the row (normalized
    margin, premises hold, min margin, all links hold, near equality,
    binding link fields), the fields as an instance line writes them."""
    result = entry.run(space, group, params, extended=extended)
    binding = result.binding
    n = len(group)
    premises = [True] * n if result.premises_hold is None else result.premises_hold.tolist()
    fields = zip(*([None] * n if value is None else value.astype(np.float64, copy=False).tolist()
                   for value in (binding.lhs, binding.center, binding.rhs, binding.margin_lower, binding.margin_upper)))
    margin = binding.min_margin
    return list(zip(binding.normalized(margin).tolist(), premises, margin.tolist(), result.holds.tolist(),
                    binding.near_equality.tolist(), fields))


def _shard_worker(task):
    """Sample, evaluate and count the trials [start, stop) of one name.
    With the counts come its TOP_K lowest trials as ascending keys
    (normalized, index, raw margin, near equality, violated), each followed
    by its SampledInstance copied out of the shard's stacks; the first is
    the shard's worst trial."""
    name, config, start, stop, with_records = task
    entry = catalog_entry(name)
    samples = sample_instance(config, name, list(range(start, stop)))
    rows = _group_rows(samples, functools.partial(_binding_rows, entry))
    hist = [0] * HISTOGRAM_BUCKETS
    near = 0
    violations = 0
    starved_count = 0
    top = []  # ascending (normalized, index, raw, near_equality, violated)
    for index, sampled, row in zip(range(start, stop), samples, rows):
        normalized, premises_ok, min_margin, holds, near_equality, _ = row
        if not premises_ok:
            starved_count += 1
            continue
        hist[_bucket(normalized)] += 1
        near += 1 if near_equality else 0
        violated = not holds and _confirmed_violation(entry, sampled.space, sampled.inputs)
        violations += 1 if violated else 0
        # a NaN margin is not shown to hold (bucket 0), so it sorts first;
        # (normalized, index) is unique, so the rest never decides the order
        order = -math.inf if math.isnan(normalized) else normalized
        _keep_top(top, (order, index, min_margin, near_equality, violated))
    records = _instance_records(name, config.seed, samples, rows) if with_records else None
    return hist, near, violations, starved_count, [(*key, _detached(samples[key[1] - start])) for key in top], records


def _detached(sampled: SampledInstance) -> SampledInstance:
    """A trial's instance with its inputs copied out of its group's stacks,
    so that keeping it keeps no other trial's draws alive."""

    def copied(value):
        if isinstance(value, OrthonormalFamily):
            return replace(value)  # its __post_init__ copies the members
        if isinstance(value, ComplexifiedVector):
            return ComplexifiedVector(value.re.copy(), value.im.copy())
        return value.copy()

    return replace(sampled, inputs={k: copied(v) for k, v in sampled.inputs.items()})


def format_float(x: float) -> str:
    """17 significant digits, the shortest spelling that always round-trips
    a double.  JSON has no spelling for non-finite values, so those map to
    null."""
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def _json_number(x) -> str:
    return "null" if x is None else format_float(x)


def _instance_records(name: str, seed: int, samples: list, rows: list) -> list:
    """The instance line of each trial whose premises hold, in trial order:
    one JSON object and its newline, with its keys in the order below,
    floats spelled by format_float and a missing field as null, as
    `cli.to_json` spells the same record.  The digests take one pass over
    the whole shard."""
    counted = [(sampled, row) for sampled, row in zip(samples, rows) if row[1]]
    digests = instance_digests(name, [(sampled.space, sampled.inputs) for sampled, _ in counted])
    line = ('{"ineq":' + json.dumps(name, ensure_ascii=False).replace("%", "%%") + ',"dim":%d,"field":"%s","seed":'
            + str(seed) + ',"digest":"%s","lhs":%s,"center":%s,"rhs":%s,"margin_lower":%s,"margin_upper":%s,'
            '"holds":%s,"near_equality":%s}\n')
    return [line % (sampled.space.dim, sampled.space.field.value, digest, *map(_json_number, fields),
                    "true" if holds else "false", "true" if near else "false")
            for (sampled, (_, _, _, holds, near, fields)), digest in zip(counted, digests)]


def falsify(ineq_name: str, config: SearchConfig, threads: int = 1, *, on_records=None) -> SearchReport:
    """Run the randomized search for one inequality and aggregate a report.

    With `on_records`, every trial whose premises hold also yields its
    instance record as its JSON line, newline included
    (`_instance_records`), from the same sampling and evaluation that the
    report counts.  `on_records` receives each shard's lines, in trial
    order, as that shard arrives and in shard order, so the caller holds
    one shard's lines at a time.
    """
    entry = catalog_entry(ineq_name)
    _field_plan(ineq_name, entry.fields, config.field)
    tasks = [
        (ineq_name, config, start, min(start + SHARD_SIZE, config.trials), on_records is not None)
        for start in range(0, config.trials, SHARD_SIZE)
    ]

    hist = [0] * HISTOGRAM_BUCKETS
    near = 0
    violations = 0
    starved = 0
    top = []
    workers = min(threads, len(tasks))
    use_pool = workers > 1
    with ProcessPoolExecutor(max_workers=workers) if use_pool else contextlib.nullcontext() as pool:
        # both maps yield the shards in order; the pool's as each finishes
        partials = pool.map(_shard_worker, tasks) if use_pool else map(_shard_worker, tasks)
        for p_hist, p_near, p_viol, p_starved, p_top, p_records in partials:
            hist = [a + b for a, b in zip(hist, p_hist)]
            near += p_near
            violations += p_viol
            starved += p_starved
            top.extend(p_top)
            if on_records is not None:
                on_records(p_records)
    top.sort()
    top = top[:TOP_K]

    # the first of the top K is the worst trial; the shards return their
    # top trials' inputs, so no trial is sampled again
    worst = top[0] if top else None
    worst_instance = None if worst is None else (worst[5].space, worst[5].inputs)
    if config.ascent_steps > 0:
        for _, index, _, sampled_near, sampled_violated, sampled in top:
            # folded as the descent evaluated it: premises hold at the start and at every accepted step
            refined = local_ascent(ineq_name, sampled.space, sampled.inputs, config)
            refined_normalized, _, min_margin, holds, near_equality, _ = refined.row
            # the refined instance replaces its trial's contribution, so
            # each trial still counts at most once as near-equality and at
            # most once as a violation
            if near_equality and not sampled_near:
                near += 1
            if refined_normalized < worst[0]:
                worst = (refined_normalized, index, min_margin)
                worst_instance = (sampled.space, refined.refined_inputs)
            if not sampled_violated and not holds:
                if _confirmed_violation(entry, sampled.space, refined.refined_inputs):
                    violations += 1

    digest = None
    if worst_instance is not None:
        digest = instance_digest(ineq_name, worst_instance[0], worst_instance[1])
    return SearchReport(
        ineq=ineq_name,
        trials_run=config.trials,
        worst_margin=None if worst is None else worst[2],
        worst_instance_digest=digest,
        near_equality_count=near,
        violation_count=violations,
        margin_histogram=tuple(hist),
        premise_starved=starved,
    )


# the complex-premise experiment ---------------------------------------------------


_MOORE_COMPLEX_KEY = "moore-complex"


def _moore_ratios(space, group: list, params: MooreParams, extended: bool = False) -> list:
    """(|<y,z>| / (||y|| ||z||), premises hold, ||y|| ||z||) of each instance
    of a group of moore-1.9 inputs in one space, evaluated together: the
    one reading of a verify_moore result, and a descent objective as is."""
    result = verify_moore(space, *([inputs[k] for inputs in group] for k in ("x", "y", "z")), params,
                          extended=extended)
    (conclusion,) = result.links
    center, scale = conclusion.center.astype(np.float64, copy=False), conclusion.scale.astype(np.float64, copy=False)
    ratio = center / np.maximum(scale, _TINY)
    return list(zip(ratio.tolist(), result.premises_hold.tolist(), scale.tolist()))


def _refine_moore_candidate(space, inputs, params: MooreParams, config: SearchConfig) -> AscentResult:
    """Descent on the premise-conditioned ratio for the complex experiment,
    with moore-1.9's codec applied to the complex space."""
    objective = functools.partial(_moore_ratios, space, params=params)
    return _descend(objective, _CoordCodec(catalog_entry("moore-1.9"), space, inputs), inputs, config)


def moore_complex_experiment(eps: float, config: SearchConfig) -> MooreComplexReport:
    """Consistency check of buzano-moore-1.16 over complex spaces, through
    the near-parallelism transfer.

    Reports the minimum premise-conditioned ratio |<y,z>| / (||y|| ||z||)
    against first_bound = 1 - eps - sqrt(2 eps) and second_bound =
    1 - 4 eps + 2 eps^2.  Under these premises (|<x,y>| and |<x,z>| at
    least 1 - eps times the norms) buzano-moore-1.16, proved over both
    fields, bounds the ratio below by second_bound, and second_bound is
    never below first_bound: with u = sqrt(2 eps) their difference is
    (u/2)(u - 1)^2(u + 2).  So a confirmed sample below the first bound
    would mean that 1.16 itself fails over C.  The verdict concerns the
    first bound only: such a sample yields CounterexampleFound, anything
    else NoCounterexampleFound.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if config.field is not FieldChoice.COMPLEX:
        raise DomainError("the experiment runs over complex spaces; set field accordingly")
    first_bound = 1.0 - eps - math.sqrt(2.0 * eps)
    second_bound = 1.0 - 4.0 * eps + 2.0 * eps * eps
    params = MooreParams(eps=eps)
    satisfying = 0
    min_ratio = None
    top = []  # ascending (ratio, index, sampled)
    witness = None

    def below_first_bound(ratio, scale):
        return ratio - first_bound < -(TOL_ABS / max(scale, _TINY) + TOL_REL)

    def observe(space, inputs, ratio, ok, scale):
        """Fold one `_moore_ratios` row into the minimum and the witness;
        returns its ratio, or None when its premises fail."""
        nonlocal min_ratio, witness
        if not ok:
            return None
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if witness is None and below_first_bound(ratio, scale):
            ((ratio_e, ok_e, scale_e),) = _moore_ratios(space, [inputs], params, extended=True)
            if ok_e and below_first_bound(ratio_e, scale_e):
                witness = digest_inputs(space, inputs["x"], inputs["y"], inputs["z"])
        return ratio

    # the samples of a chunk are sampled and evaluated in groups of one dimension each
    entry = catalog_entry("moore-1.9")
    for first in range(0, config.trials, SHARD_SIZE):
        indices = list(range(first, min(first + SHARD_SIZE, config.trials)))
        samples = _sample_trials(config, _MOORE_COMPLEX_KEY, entry, params, (Field.COMPLEX,), indices)
        rows = _group_rows(samples, functools.partial(_moore_ratios, params=params))
        for index, sampled, row in zip(indices, samples, rows):
            ratio = observe(sampled.space, sampled.inputs, *row)
            if ratio is not None:
                satisfying += 1
                # (ratio, index) is unique, so the instance never decides the order
                _keep_top(top, (ratio, index, sampled))
        # the chunk's stacks die with it: its trials in the top K keep copies
        top = [(ratio, index, _detached(sampled) if index >= first else sampled) for ratio, index, sampled in top]
    if config.ascent_steps > 0:
        for _, index, sampled in top:
            # the descent evaluated its final instance, so its row is folded as is
            refined = _refine_moore_candidate(sampled.space, sampled.inputs, params, config)
            observe(sampled.space, refined.refined_inputs, *refined.row)
    verdict = Verdict.COUNTEREXAMPLE_FOUND if witness is not None else Verdict.NO_COUNTEREXAMPLE_FOUND
    return MooreComplexReport(
        eps=eps,
        samples=config.trials,
        samples_satisfying_premises=satisfying,
        min_observed_ratio=min_ratio,
        first_bound=first_bound,
        second_bound=second_bound,
        verdict=verdict,
        witness_digest=witness,
    )
