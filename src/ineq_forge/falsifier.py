"""Randomized counterexample search and tightness probing for the catalog.

Search design
-------------

Every trial is a pure function of (seed, inequality name, trial index): the
per-trial generator is Philox keyed on the uint64 words [seed, k] (k from
fnv1a(name), `_key_words`) with the trial index in the counter, so runs
partition arbitrarily across workers without changing a single sampled
byte.  A Philox stream depends only on its key and counter, so one
generator per (seed, name) serves every trial and every random gram of that
name: its counter and output buffers are reset for each trial and each gram
draw, which reproduces a freshly built generator draw for draw.  Trials
sweep the configured dimension range cyclically and alternate fields
blockwise for field-agnostic statements.

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
builds the space's trials from the tape in stacked operations, as one group
record (`Group`: each argument one stack), and orthonormalizes the families
of all its family arguments last, in one Gram-Schmidt call per space.  One
draw source serves phase B, the dry run of it that logs phase A's draw
calls, and a lone trial drawing as it goes, with one arithmetic that gives
each row of a stack the bits its trial gets alone.  A trial whose draws
leave phase A's path (a retry, a rejected probe, a cosine of exactly 1, a
refused family) is sampled again alone, a group of one, which is how
`sample_instance` samples one trial.  The shard evaluates each group
(catalog statements are stacked kernels that give each member of a group
the bits it gets alone) and counts the rows' columns in trial order: the
buckets by the decade thresholds of `_bucket`, the lowest trials by
argmin passes.  If a group raises, the shard evaluates each trial as a
group of one cut from its group, in trial order, so the error is the first
faulty trial's own.  A shard can also return the instance line of each
trial whose premises hold (its digest and binding margins, as finished
JSON text), so a caller that writes every instance gets them from the same
sampling and evaluation as the report, one shard at a time, and only
writes them; the digests take one batched FNV-1a pass over every row of
every group, and the lines one format string over the rows' columns.  Only the lowest trials
and the trials sampled alone read single trials.  The shard returns copies
of the inputs of its lowest trials with their counts, so no trial is
sampled twice; the lowest of all the shards' is the worst trial.

Violation candidates are re-evaluated at extended precision before being
counted: a double-precision "violation" of a true bound is overwhelmingly
roundoff, and the report only counts confirmed ones.  The worst margin is
selected by scale-normalized margin (ties to the lower trial index) and
reported in raw units.  Local ascent refines the most promising candidates
by projected central-difference descent on the normalized margin.  The 2n
probes of each gradient are rebuilt in one call, as one group record that
re-orthonormalizes each family argument for all of them as one stacked
Gram-Schmidt pass, and are evaluated as one group together with the point
they probe (only their values are read): the start
instance, or a step's first, full-length candidate when a step remains
after it and the step before accepted its own first candidate, so an
accepted first candidate brings the next gradient along.  The line
search tries every other candidate in blocks of LINE_BLOCK step lengths,
each rebuilt in one call and evaluated as one group.  A probe that cannot
be rebuilt or raises (alone, after its group raised) is left out of the
gradient.  The complex-premise Moore experiment
samples, evaluates and folds its samples chunk by chunk as a shard does,
reading the columns of a chunk's rows and confirming only the rows below
the first bound, in trial order, and refines the inputs of its lowest
ratios with the same descent routine and coordinate codec, so both
searches share one step, projection and premise guard.  The descent
returns the row of its final instance, which both searches fold as is.
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
    Group,
    MooreParams,
    TOL_ABS,
    TOL_REL,
    catalog_entry,
    fnv1a_64,
    instance_digest,
    instance_digests,
    verify_moore,
)
from .orthonormal import FamilyStack, gram_schmidt
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
            raise DomainError(f"dims must satisfy 1 <= A <= B, got {lo}..{hi}")
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


def _key_words(seed: int, name: str) -> np.ndarray:
    """The Philox key of (seed, name): the two uint64 words [seed, k].  k is
    fnv1a(name) as it stands below 2^63, and above that the double nearest
    it, int(float(fnv1a(name))), as the streams were first keyed; k is
    frozen, part of the stream contract."""
    key = _name_key(name)
    return np.array([seed, key if key < 2**63 else int(float(key))], dtype=np.uint64)


@functools.lru_cache(maxsize=256)
def _stream(seed: int, name: str):
    """The one Philox generator of (seed, name), with its initial state,
    whose counter `_trial_rng` and `_gram_rng` set."""
    bits = np.random.Philox(key=_key_words(seed, name))
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
    row per trial, defers the families to `resolved`, and marks in `redo`
    each trial off phase A's path.  With one trial's `rng` it draws as it
    goes, in a lone trial's shapes (numbers, 1-d vectors, (size, width)
    family rows), orthonormalizing each family as it is drawn, and the
    trial takes every branch, retries included."""

    def __init__(self, tape=None, rng=None):
        self.tape, self.rng, self.calls, self.deferred = tape, rng, [], []
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
        """A lone trial's family, or None (and ok) for a group's, which
        `resolved` orthonormalizes with the group's other families."""
        if self.rng is not None:
            try:
                return gram_schmidt(space, rows), True
            except DomainError:
                return None, False
        self.deferred.append((rows, sizes))
        return None, np.ones(len(self.redo), dtype=bool)

    def resolved(self, space, entry, inputs) -> dict:
        """A group's `inputs` with its family arguments, in `entry`'s order,
        orthonormalized in one stacked gram_schmidt call, marking in `redo`
        each trial with a refused family."""
        if not self.deferred:
            return inputs
        n = len(self.redo)
        rows, sizes = (np.concatenate(parts) for parts in zip(*self.deferred))
        stack = gram_schmidt(space, rows, sizes=sizes)
        members, sizes, ok = (a.reshape(len(self.deferred), n, *a.shape[1:])
                              for a in (stack.members, stack.sizes, stack.ok))
        self.redo |= ~np.logical_and.reduce(ok)
        return {**inputs, **{k: FamilyStack(space, members[j], sizes[j], ok[j])
                             for j, k in enumerate(entry.family_args)}}

    def pair(self, re, im):
        """A lone trial's complexified vector, or a group's as one pair of
        (n, d) stacks."""
        if self.rng is not None:
            return ComplexifiedVector(re, im)
        return ComplexifiedVector._checked(np.ascontiguousarray(re), np.ascontiguousarray(im))

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
        inputs[key] = draws.pair(_ambient(whitener, re), _ambient(whitener, im))
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


def _sample_trials(config: SearchConfig, key: str, entry, params, fields: tuple, indices: list) -> "_Sampled":
    """The trials of `indices` from the streams of (config.seed, key) by
    `entry`'s sampler at `params`, sampled as groups in two phases per space
    (see the module docstring).  Phase A raises nothing, and the trials off
    its path are sampled again alone in trial order, each a group of one,
    so an error raised is the first such trial's own."""
    cells = {}  # (dim, field) -> its trials, in order
    for index in indices:
        cells.setdefault(_trial_cell(config, fields, index), []).append(index)
    sampler = _SAMPLERS.get(entry.name, _sample_generic)
    groups, redo = [], []
    for (dim, field), members in cells.items():
        program, width = _program(entry, params, dim, field)
        tape = np.zeros((len(members), width))
        for index, row in zip(members, tape):
            _draw(_trial_rng(config.seed, key, index), program, dim, row)
        space, whitener = _cached_space(config.seed, config.gram, key, dim, field)
        draws = _Draws(tape)
        with np.errstate(divide="ignore", invalid="ignore"):
            inputs, starved = sampler(entry, space, whitener, draws, params)
            inputs = draws.resolved(space, entry, inputs)
        # vectors may be views of the tape: the group keeps its own rows
        args = {k: np.ascontiguousarray(v) if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
        group = Group(space, np.array(members), args)
        if draws.redo.any():
            redo += group.trials[draws.redo].tolist()
            group = group.take(~draws.redo)
        if len(group):
            groups.append((group, starved))
    for index in sorted(redo):
        space, inputs, starved = _sample_alone(config, key, entry, params, fields, index)
        groups.append((replace(Group.of(space, entry, inputs), trials=np.array([index])), starved))
    return _Sampled(groups, indices)


class _Sampled:
    """The trials of a list of indices, sampled as groups: `groups` holds
    (Group, starved) for each space and each trial sampled alone, `rows`
    (group, starved, row in the group) for each row of all the groups, in
    group order, as the groups' joined rows and digests number them, and
    `at` each listed trial's row among them.  Item i is the SampledInstance
    of the list's i-th trial, built on demand, so it is also the list of its
    instances."""

    def __init__(self, groups: list, indices: list):
        self.groups = groups
        self.rows = [(group, starved, r) for group, starved in groups for r in range(len(group))]
        row = {t: k for k, t in enumerate(t for group, _ in groups for t in group.trials.tolist())}
        self.at = np.array([row[index] for index in indices], dtype=np.intp)

    def __len__(self):
        return len(self.at)

    def __getitem__(self, i):
        group, starved, r = self.rows[self.at[i]]
        return SampledInstance(group.space, group[r], starved)

    def copied(self, i) -> tuple:
        """The (space, inputs) of the list's i-th trial, copied out of its
        group's stacks."""
        group, _, r = self.rows[self.at[i]]
        return group.space, group.take([r])[0]


def sample_instance(config: SearchConfig, ineq_name: str, trial_index: int | list) -> SampledInstance | list:
    """Deterministic instance for one trial; see the module docstring.  A
    list of trial indices gives the sequence of their instances, sampled as
    a shard samples its trials (`_sample_trials`), with the same bits."""
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
    if normalized_margin == math.inf:
        return 31
    return min(max(int(math.floor(math.log10(normalized_margin))) + 18, 1), 31)


def _threshold(bucket: int) -> float:
    """The least double that `_bucket` puts in `bucket` or above (2..31)."""
    t = 10.0 ** (bucket - 18)
    while _bucket(t) >= bucket:
        t = math.nextafter(t, 0.0)
    while _bucket(t) < bucket:
        t = math.nextafter(t, math.inf)
    return t


_DECADES = np.array([_threshold(bucket) for bucket in range(2, HISTOGRAM_BUCKETS)])


def _buckets(normalized: np.ndarray) -> np.ndarray:
    """`_bucket` of every entry, by the decade thresholds that `_bucket`
    itself places (np.log10 may round differently from math.log10)."""
    return np.where(normalized > 0.0, 1 + np.searchsorted(_DECADES, normalized, side="right"), 0)


def _lowest(values: np.ndarray) -> list:
    """The positions of the TOP_K smallest values, ascending, a NaN first and
    ties to the lower position, by TOP_K passes of np.argmin (numpy's sorts
    would page in code that nothing else here runs)."""
    keys = np.where(np.isnan(values), -np.inf, values)
    rest, lowest = np.arange(keys.size), []
    for _ in range(min(TOP_K, keys.size)):
        k = int(np.argmin(keys[rest]))
        lowest.append(int(rest[k]))
        rest = np.delete(rest, k)
    return lowest


class _Rows:
    """The rows of a group as columns, (n,) arrays: first the value a
    descent lowers and whether the premises hold, then the objective's own
    (a column is None where the binding link lacks its field).  The folds
    read the columns; item i, read only where one instance is, is row i as
    the flat tuple of its columns' Python values, or (inf, False) for a
    member that has no row (`present` unset)."""

    def __init__(self, columns: list, present: Optional[np.ndarray] = None):
        self.columns, self.present = columns, present

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        if self.present is not None and not self.present[i]:
            return math.inf, False
        return tuple(None if column is None else column[i].item() for column in self.columns)

    def take(self, rows) -> "_Rows":
        """The rows at `rows`, an index array."""
        return _Rows([None if column is None else column[rows] for column in self.columns],
                     None if self.present is None else self.present[rows])

    @staticmethod
    def joined(parts: list) -> "_Rows":
        """The rows of each of `parts` in turn, rows of one objective."""
        if len(parts) == 1:
            return parts[0]
        return _Rows([None if column is None else np.concatenate([rows.columns[k] for rows in parts])
                      for k, column in enumerate(parts[0].columns)])

    @staticmethod
    def gathered(n: int, parts: list) -> "_Rows":
        """The rows of n members from `parts`, (positions, _Rows) pairs; a
        member that no part covers has none: value inf, premises False."""
        if len(parts) == 1 and len(parts[0][0]) == n:
            return parts[0][1]
        if not parts:
            return _Rows([np.full(n, math.inf), np.zeros(n, dtype=bool)], present=np.zeros(n, dtype=bool))
        place = np.full(n, -1, dtype=np.intp)
        place[np.concatenate([at for at, _ in parts])] = np.arange(sum(len(at) for at, _ in parts))
        rows = _Rows.joined([rows for _, rows in parts]).take(np.maximum(place, 0))
        rows.present = place >= 0
        rows.columns[0][~rows.present] = math.inf
        rows.columns[1][~rows.present] = False
        return rows


def _group_rows(samples: _Sampled, evaluate) -> _Rows:
    """The rows of the trials of `samples`, in its order: each group
    evaluated whole by `evaluate(space, group)`, which takes a Group and
    returns its rows, and the joined rows read at `samples.at`.

    If a group raises, each trial is evaluated as a group of one cut from
    its own group, in order, so that the error raised is the one the first
    faulty trial raises by itself (and the group's own error if none does).
    """
    try:
        parts = [evaluate(group.space, group) for group, _ in samples.groups]
    except (ValueError, ArithmeticError):
        for k in samples.at.tolist():
            group, _, r = samples.rows[k]
            evaluate(group.space, group.take([r]))
        raise
    return _Rows.joined(parts).take(samples.at)


def _confirmed_violation(entry, space, inputs) -> bool:
    _, premises_ok, _, holds, *_ = _binding_rows(entry, space, [inputs], extended=True)[0]
    return premises_ok and not holds


# local ascent --------------------------------------------------------------------


class _CoordCodec:
    """Flatten instance inputs to one real vector and back.

    Families always rebuild through gram_schmidt (the orthonormality
    manifold is the only place they make sense), vectors and complexified
    pairs renormalize to their starting norms when `project` is set.
    `rebuild` takes a stack of points and gives their Group: each family
    argument is orthonormalized for all of them in one stacked gram_schmidt
    call, which gives each point's family the bits it gets alone.
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

    def rebuild(self, points: np.ndarray, project: bool):
        """The Group of the flat points of an (m, n) stack, live where a
        point can be rebuilt.  Each argument is rebuilt for the whole stack
        at once."""
        dim = self.space.dim
        args = {}
        live = np.ones(len(points), dtype=bool)
        pos = 0
        for k in self.entry.family_args:
            size = self.family_sizes[k]
            shape = (len(points), size, dim)
            raw = points[:, pos : pos + size * dim].reshape(shape)
            pos += size * dim
            if self.complex_field:
                raw = raw + 1j * points[:, pos : pos + size * dim].reshape(shape)
                pos += size * dim
            args[k] = gram_schmidt(self.space, raw)
            live &= args[k].ok
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
            args[k] = v
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
            args[k] = ComplexifiedVector._checked(re, im)
        return Group(self.space, np.arange(len(points)), args, live)


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


def _evaluate(objective, group: Group) -> _Rows:
    """The objective rows of the members of `group`, of which the objective
    takes a Group and returns the rows: the live members are evaluated as
    one group, or if that raises each alone, and a member that is not live
    (a point the codec cannot rebuild) or that raises alone has no row."""
    live = np.flatnonzero(group.live) if group.live is not None else np.arange(len(group))
    try:
        parts = [(live, objective(group if live.size == len(group) else group.take(live)))] if live.size else []
    except (DomainError, ArithmeticError):
        parts = []
        for i in live.tolist():
            with contextlib.suppress(DomainError, ArithmeticError):
                parts.append(([i], objective(group.take([i]))))
    return _Rows.gathered(len(group), parts)


def _probed(objective, codec: _CoordCodec, head, flat: Optional[np.ndarray], h: float) -> tuple:
    """The rows of one group, the instances of `head` (a Group, or empty)
    and then the 2n probes around flat, rebuilt unprojected in one call,
    and the central-difference gradient of `objective` at flat from the
    probes' values (None when flat is None).  Each member gets the row it
    gets alone."""
    probes = None if flat is None else codec.rebuild(_probe_points(flat, h), project=False)
    group = probes if not len(head) else head if probes is None else head.joined(probes)
    rows = _evaluate(objective, group)
    grad = None if flat is None else _central_gradient(rows.columns[0][len(head):], h)
    return rows, grad


def _descend(objective, codec: _CoordCodec, inputs: dict, config: SearchConfig) -> AscentResult:
    """Projected central-difference descent on `objective`, which maps a
    Group to its rows, each (value, premises_ok, ...), and raises on a
    faulty member (see `_evaluate`).

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
    start = Group.of(codec.space, codec.entry, [inputs])
    rows, grad = _probed(objective, codec, start, flat if config.ascent_steps else None, h)
    row = rows[0]
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
            value, premises_ok = rows.columns[0][: len(candidates)], rows.columns[1][: len(candidates)]
            accepted = np.flatnonzero(premises_ok & (value < row[0]))
            if accepted.size:
                i = int(accepted[0])
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


# search driver -------------------------------------------------------------------


def _binding_rows(entry, space: SpaceSpec, group, params=None, extended: bool = False) -> _Rows:
    """The one reading of a catalog result in this module: the rows of a
    group of instances in `space` (a Group, or a list of dicts of inputs),
    each (normalized margin, premises hold, min margin, all links hold,
    near equality, then the binding link's lhs, center, rhs, margin_lower
    and margin_upper as an instance line writes them)."""
    result = entry.run(space, group, params, extended=extended)
    binding = result.binding
    premises = np.ones(len(binding.holds), dtype=bool) if result.premises_hold is None else result.premises_hold
    margin = binding.min_margin
    fields = [None if value is None else value.astype(np.float64, copy=False)
              for value in (binding.lhs, binding.center, binding.rhs, binding.margin_lower, binding.margin_upper)]
    return _Rows([binding.normalized(margin), premises, margin, result.holds, binding.near_equality, *fields])


def _shard_worker(task):
    """Sample, evaluate and count the trials [start, stop) of one name.
    With the counts come its TOP_K lowest trials as ascending keys
    (normalized, index, raw margin, near equality, violated), each followed
    by its space and its inputs copied out of the shard's stacks; the first
    is the shard's worst trial.  The counts read the rows' columns."""
    name, config, start, stop, with_records = task
    entry = catalog_entry(name)
    samples = sample_instance(config, name, list(range(start, stop)))
    rows = _group_rows(samples, functools.partial(_binding_rows, entry))
    normalized, premises, margin, holds, near = rows.columns[:5]
    counted = np.flatnonzero(premises)
    hist = np.bincount(_buckets(normalized[counted]), minlength=HISTOGRAM_BUCKETS).tolist()
    violated = np.zeros(len(rows), dtype=bool)
    for i in counted[~holds[counted]].tolist():
        violated[i] = _confirmed_violation(entry, *samples.copied(i))
    top = []  # ascending (normalized, index, raw, near_equality, violated, space, inputs)
    for i in counted[_lowest(normalized[counted])].tolist():
        # a NaN margin is not shown to hold (bucket 0), so it sorts first
        order = -math.inf if math.isnan(normalized[i]) else normalized[i].item()
        top.append((order, start + i, margin[i].item(), bool(near[i]), bool(violated[i]), *samples.copied(i)))
    records = _instance_records(name, config.seed, samples, rows) if with_records else None
    return (hist, int(np.count_nonzero(near[counted])), int(np.count_nonzero(violated)), len(rows) - counted.size,
            top, records)


def format_float(x: float) -> str:
    """17 significant digits, the shortest spelling that always round-trips
    a double.  JSON has no spelling for non-finite values, so those map to
    null."""
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def _json_number(x) -> str:
    return "null" if x is None else format_float(x)


def _instance_records(name: str, seed: int, samples: _Sampled, rows: _Rows) -> list:
    """The instance line of each trial of `samples` whose premises hold,
    in its order, from the columns of `rows`: one JSON object and its
    newline, keys in the order below, floats spelled by format_float and a
    missing field as null, as `cli.to_json` spells the same record.  The
    digests take one pass over every row of every group, and a trial reads
    its space and its digest at its row, `samples.at`."""
    counted = np.flatnonzero(rows.columns[1])
    digests = instance_digests(name, [group for group, _ in samples.groups])
    line = ('{"ineq":' + json.dumps(name, ensure_ascii=False).replace("%", "%%") + ',"dim":%d,"field":"%s","seed":'
            + str(seed) + ',"digest":"%s","lhs":%s,"center":%s,"rhs":%s,"margin_lower":%s,"margin_upper":%s,'
            '"holds":%s,"near_equality":%s}\n')
    columns = [[None] * len(counted) if column is None else column[counted].tolist() for column in rows.columns[3:]]
    lines = []
    for k, holds, near, *fields in zip(samples.at[counted].tolist(), *columns):
        space = samples.rows[k][0].space
        lines.append(line % (space.dim, space.field.value, digests[k], *map(_json_number, fields),
                             "true" if holds else "false", "true" if near else "false"))
    return lines


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
    worst_instance = None if worst is None else worst[5:]
    if config.ascent_steps > 0:
        for _, index, _, sampled_near, sampled_violated, space, inputs in top:
            # folded as the descent evaluated it: premises hold at the start and at every accepted step
            refined = local_ascent(ineq_name, space, inputs, config)
            refined_normalized, _, min_margin, holds, near_equality, *_ = refined.row
            # the refined instance replaces its trial's contribution, so
            # each trial still counts at most once as near-equality and at
            # most once as a violation
            if near_equality and not sampled_near:
                near += 1
            if refined_normalized < worst[0]:
                worst = (refined_normalized, index, min_margin)
                worst_instance = (space, refined.refined_inputs)
            if not sampled_violated and not holds:
                if _confirmed_violation(entry, space, refined.refined_inputs):
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


def _moore_ratios(space, group, params: MooreParams, extended: bool = False) -> _Rows:
    """The rows (|<y,z>| / (||y|| ||z||), premises hold, ||y|| ||z||) of a
    group of moore-1.9 inputs in one space (a Group, or a list of dicts),
    evaluated together: the one reading of a verify_moore result, and a
    descent objective as is."""
    if not isinstance(group, Group):
        group = Group.of(space, catalog_entry("moore-1.9"), group)
    result = verify_moore(space, *(group.args[k] for k in ("x", "y", "z")), params, extended=extended)
    (conclusion,) = result.links
    center, scale = conclusion.center.astype(np.float64, copy=False), conclusion.scale.astype(np.float64, copy=False)
    return _Rows([center / np.maximum(scale, _TINY), result.premises_hold, scale])


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
    top = []  # ascending (ratio, index, the row in its chunk's samples, then (space, inputs) copied out)
    witness = None

    def below_first_bound(ratio, scale):
        return ratio - first_bound < -(TOL_ABS / np.maximum(scale, _TINY) + TOL_REL)

    def confirmed(space, inputs):
        """The witness digest of an instance below the first bound at
        extended precision, or None."""
        ratio, ok, scale = _moore_ratios(space, [inputs], params, extended=True)[0]
        return instance_digest("moore-1.9", space, inputs) if ok and below_first_bound(ratio, scale) else None

    # a chunk is sampled and evaluated in groups of one dimension each, and folded by its columns
    entry = catalog_entry("moore-1.9")
    for first in range(0, config.trials, SHARD_SIZE):
        indices = list(range(first, min(first + SHARD_SIZE, config.trials)))
        samples = _sample_trials(config, _MOORE_COMPLEX_KEY, entry, params, (Field.COMPLEX,), indices)
        ratio, ok, scale = _group_rows(samples, functools.partial(_moore_ratios, params=params)).columns
        counted = np.flatnonzero(ok)
        satisfying += counted.size
        for i in counted[below_first_bound(ratio[counted], scale[counted])].tolist():
            witness = witness or confirmed(*samples.copied(i))
        # (ratio, index) is unique, so the row never decides the order; the
        # chunk's stacks die with it, so its samples in the top K keep copies
        lowest = [(ratio[i].item(), first + i, i) for i in counted[_lowest(ratio[counted])].tolist()]
        top = [(r, index, samples.copied(at) if index >= first else at)
               for r, index, at in sorted(top + lowest)[:TOP_K]]
    min_ratio = top[0][0] if top else None
    if config.ascent_steps > 0:
        for _, _, (space, inputs) in top:
            # the descent evaluated its final instance, so its row is folded as is
            refined = _refine_moore_candidate(space, inputs, params, config)
            ratio, ok, scale = refined.row
            if ok:
                min_ratio = min(min_ratio, ratio)
                if witness is None and below_first_bound(ratio, scale):
                    witness = confirmed(space, refined.refined_inputs)
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
