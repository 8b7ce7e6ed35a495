"""Randomized counterexample search and tightness probing for the catalog.

Search design
-------------

Every trial is a pure function of (seed, inequality name, trial index): the
per-trial generator is Philox keyed on (seed, fnv1a(name)) with the trial
index in the counter, so runs partition arbitrarily across workers without
changing a single sampled byte.  A Philox stream depends only on its key and
counter, so one generator per (seed, name) serves every trial: its counter
and output buffers are reset for each trial, which reproduces a freshly
built generator draw for draw.  Trials sweep the configured dimension range
cyclically and alternate fields blockwise for field-agnostic statements.

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
trials one by one, evaluates them in groups of one space (catalog
statements are stacked kernels that give each member of a group the bits
it gets alone), then counts them in trial order.  If a group raises, the
shard evaluates each of its trials as a group of one, in trial order, so
the error is the first faulty trial's own.  A shard can also return one
instance record per trial whose premises hold (its digest and binding
margins), so a caller that writes every instance gets them from the same
sampling and evaluation as the report, one shard at a time; the digests of
a shard take one batched FNV-1a pass.

Violation candidates are re-evaluated at extended precision before being
counted: a double-precision "violation" of a true bound is overwhelmingly
roundoff, and the report only counts confirmed ones.  The worst margin is
selected by scale-normalized margin (ties to the lower trial index) and
reported in raw units.  Local ascent refines the most promising candidates
by projected central-difference descent on the normalized margin.  The 2n
probes of each gradient are rebuilt in one call, which re-orthonormalizes
each family argument for all of them as one stacked Gram-Schmidt pass, and
are evaluated as one group; a probe that cannot be rebuilt or raises
(alone, after its group raised) is left out of the gradient.  The
complex-premise Moore experiment evaluates its samples in groups of one
dimension, chunk by chunk, and refines its lowest ratios with the same
descent routine and the same coordinate codec, so both searches share one
implementation of the step, the projection and the premise guard.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
from .orthonormal import gram_schmidt
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
    final_margin: float
    trace: tuple


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
    """The one Philox generator of (seed, name), with its initial state."""
    bits = np.random.Philox(key=[seed, _name_key(name)])
    return bits, np.random.Generator(bits), bits.state


def _trial_rng(seed: int, name: str, index: int) -> np.random.Generator:
    """The generator of one trial: Philox keyed on (seed, fnv1a(name)) at
    counter [0, 0, 0, index], drawing exactly as a freshly built one.

    The generator is shared by every trial of (seed, name): it is reset here,
    so it stays valid only until the next call with the same seed and name.
    """
    bits, rng, initial = _stream(seed, name)
    state = dict(initial)
    state["state"] = {"counter": np.array([0, 0, 0, index], dtype=np.uint64), "key": initial["state"]["key"]}
    bits.state = state
    return rng


def _gram_rng(seed: int, name: str, dim: int, field: Field) -> np.random.Generator:
    """Reserved substream (counter word 2 set) so gram draws never collide
    with trial draws."""
    word = dim * 2 + (1 if field is Field.COMPLEX else 0)
    bits = np.random.Philox(key=[seed, _name_key(name)], counter=[0, 0, 1, word])
    return np.random.Generator(bits)


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


# sampling primitives (all in whitened coordinates) -----------------------------


def _std_vector(rng, dim: int, field: Field):
    v = rng.standard_normal(dim)
    if field is Field.COMPLEX:
        v = v + 1j * rng.standard_normal(dim)
    return v


def _std_rows(rng, size: int, dim: int, field: Field):
    """`size` draws of _std_vector in one call, same stream order: each
    row's real part, then its imaginary part."""
    if field is Field.COMPLEX:
        parts = rng.standard_normal((size, 2, dim))
        return parts[:, 0] + 1j * parts[:, 1]
    return rng.standard_normal((size, dim))


def _norm(w) -> float:
    """np.linalg.norm of a 1-d draw, by the same dot products and sqrt
    without its dispatch."""
    if np.iscomplexobj(w):
        re, im = w.real, w.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(w.dot(w))


def _ambient(whitener, w):
    return w if whitener is None else whitener @ w


def _nonzero_std(rng, space: SpaceSpec):
    threshold = zero_norm_threshold(space)
    for _ in range(64):
        w = _std_vector(rng, space.dim, space.field)
        if _norm(w) > threshold:
            return w
    raise RuntimeError("could not sample a nonzero vector")


@functools.lru_cache(maxsize=1024)
def _beta_cdf(t: float, d: int, field: Field) -> float:
    if field is Field.COMPLEX:
        return 1.0 - (1.0 - t) ** (d - 1)
    return float(sps.betainc(0.5, (d - 1) / 2.0, t))


def _beta_ppf(u: float, d: int, field: Field) -> float:
    if field is Field.COMPLEX:
        return 1.0 - (1.0 - u) ** (1.0 / (d - 1))
    return float(sps.betaincinv(0.5, (d - 1) / 2.0, u))


def _orth_unit(rng, xhat):
    """A uniform unit direction orthogonal to the unit vector xhat
    (standard pairing); requires dimension at least 2."""
    d = xhat.shape[0]
    field = Field.COMPLEX if np.iscomplexobj(xhat) else Field.REAL
    for _ in range(64):
        p = _std_vector(rng, d, field)
        p = p - (p @ np.conj(xhat)) * xhat
        n = _norm(p)
        if n > 1e-12:
            return p / n
    raise RuntimeError("could not sample an orthogonal direction")


def _conditioned_vector(rng, space: SpaceSpec, xhat, t_lo: float, t_hi: float, signed: bool):
    """Standard normal vector conditioned on its cosine against xhat.

    The squared cosine is sampled from the conditional Beta law on
    [t_lo, t_hi]; `signed` pins the cosine sign to +, otherwise the sign
    (phase over C) is uniform.  Draw order is fixed: window variate, sign or
    phase, orthogonal direction, magnitude.
    """
    d = space.dim
    field = space.field
    t_lo = min(max(t_lo, 0.0), 1.0)
    t_hi = min(max(t_hi, 0.0), 1.0)
    if d == 1:
        t = 1.0
    else:
        u = rng.uniform(_beta_cdf(t_lo, d, field), _beta_cdf(t_hi, d, field))
        t = min(max(_beta_ppf(u, d, field), t_lo), t_hi)
    c = math.sqrt(t)
    if not signed:
        if field is Field.COMPLEX:
            c = c * np.exp(2j * np.pi * rng.uniform())
        elif rng.uniform() < 0.5:
            c = -c
    tail = math.sqrt(max(1.0 - t, 0.0))
    direction = c * xhat
    if d > 1 and tail > 0.0:
        direction = direction + tail * _orth_unit(rng, xhat)
    magnitude = _norm(_std_vector(rng, d, field))
    return magnitude * direction


# per-name samplers --------------------------------------------------------------


def _sample_generic(entry, space, whitener, rng, params):
    inputs = {}
    dim = space.dim
    for key in entry.family_args:
        size = int(rng.integers(0, dim + 1))
        for _ in range(16):
            rows = _std_rows(rng, size, dim, space.field)
            if whitener is not None:
                # one stacked product keeps each row's `whitener @ r` bits
                rows = (whitener @ rows[:, :, np.newaxis])[:, :, 0]
            try:
                inputs[key] = gram_schmidt(space, rows)
                break
            except DomainError:
                continue
        else:
            raise RuntimeError("could not sample an orthonormal family")
    for key in entry.vector_args:
        inputs[key] = _ambient(whitener, _nonzero_std(rng, space))
    for key in entry.complexified_args:
        for _ in range(64):
            re = _std_vector(rng, dim, Field.REAL)
            im = _std_vector(rng, dim, Field.REAL)
            if math.hypot(_norm(re), _norm(im)) > zero_norm_threshold(space):
                break
        inputs[key] = ComplexifiedVector(_ambient(whitener, re), _ambient(whitener, im))
    return inputs, False


def _sample_near_parallel(entry, space, whitener, rng, params):
    """Probe vector plus two vectors whose cosine modulus against it is at
    least 1 - eps (sign or phase uniform), keyed by the entry's vector
    arguments in order: x, y, z for moore-1.9 and x, a, b for
    buzano-moore-1.16."""
    need = max(1.0 - params.eps, 0.0)
    probe = _nonzero_std(rng, space)
    phat = probe / _norm(probe)
    first = _conditioned_vector(rng, space, phat, need * need, 1.0, False)
    second = _conditioned_vector(rng, space, phat, need * need, 1.0, False)
    vectors = (probe, first, second)
    return {k: _ambient(whitener, v) for k, v in zip(entry.vector_args, vectors)}, False


def _sample_precupanu_moore(entry, space, whitener, rng, params):
    eps1, eps2 = params.eps1, params.eps2
    starved = eps1 > 1.0 + 1e-12 or (space.dim == 1 and not eps1 - 1e-12 <= 1.0 <= eps2 + 1e-12)
    x = _nonzero_std(rng, space)
    xhat = x / _norm(x)
    hi = min(eps2, 1.0)
    a = _conditioned_vector(rng, space, xhat, eps1 * eps1, hi * hi, True)
    b = _conditioned_vector(rng, space, xhat, eps1 * eps1, hi * hi, True)
    inputs = {"a": _ambient(whitener, a), "b": _ambient(whitener, b), "x": _ambient(whitener, x)}
    return inputs, starved


def _sample_cosine_transfer(entry, space, whitener, rng, params):
    anchor = _nonzero_std(rng, space)
    ahat = anchor / _norm(anchor)
    x = _conditioned_vector(rng, space, ahat, params.delta1 ** 2, 1.0, True)
    y = _conditioned_vector(rng, space, ahat, params.delta2 ** 2, 1.0, True)
    inputs = {"a": _ambient(whitener, anchor), "x": _ambient(whitener, x), "y": _ambient(whitener, y)}
    return inputs, False


def _sample_quotient_transfer(entry, space, whitener, rng, params):
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
    with a hard cap and exhaustion is reported as starvation.
    """
    mu1, mu2 = params.mu1, params.mu2
    if mu1 is None and mu2 is None:
        raise DomainError("quotient-transfer sampling needs mu1 or mu2")
    if mu1 is not None:
        gamma = max(2.0 * mu1 - 1.0, 0.0)
        a = _nonzero_std(rng, space)
        ahat = a / _norm(a)
        b = _conditioned_vector(rng, space, ahat, gamma * gamma, 1.0, True)
        bhat = b / _norm(b)
        c = float(np.clip(ahat @ bhat, -1.0, 1.0))
        bisector = ahat + bhat
        bisector = bisector / _norm(bisector)
        t_min = min(max(mu1 + (1.0 - c) / 2.0, 0.0), 1.0)
        x = _conditioned_vector(rng, space, bisector, t_min, 1.0, True)
        inputs = {"a": _ambient(whitener, a), "b": _ambient(whitener, b), "x": _ambient(whitener, x)}
        return inputs, False
    a = _nonzero_std(rng, space)
    b = _nonzero_std(rng, space)
    na = _norm(a)
    nb = _norm(b)
    starved = True
    x = None
    for _ in range(REJECTION_CAP):
        x = _nonzero_std(rng, space)
        xhat = x / _norm(x)
        if float(xhat @ a) * float(xhat @ b) <= mu2 * na * nb:
            starved = False
            break
    inputs = {"a": _ambient(whitener, a), "b": _ambient(whitener, b), "x": _ambient(whitener, x)}
    return inputs, starved


_SAMPLERS = {
    "moore-1.9": _sample_near_parallel,
    "buzano-moore-1.16": _sample_near_parallel,
    "precupanu-moore-1.12": _sample_precupanu_moore,
    "t1.5-i": _sample_cosine_transfer,
    "t1.5-ii": _sample_quotient_transfer,
}


def sample_instance(config: SearchConfig, ineq_name: str, trial_index: int) -> SampledInstance:
    """Deterministic instance for one trial; see the module docstring."""
    entry = catalog_entry(ineq_name)
    dim, field = _trial_cell(config, _field_plan(ineq_name, entry.fields, config.field), trial_index)
    space, whitener = _cached_space(config.seed, config.gram, ineq_name, dim, field)
    rng = _trial_rng(config.seed, ineq_name, trial_index)
    sampler = _SAMPLERS.get(ineq_name, _sample_generic)
    inputs, starved = sampler(entry, space, whitener, rng, entry.default_params)
    return SampledInstance(space, inputs, starved)


# margins, buckets, arbitration --------------------------------------------------


def _bucket(normalized_margin: float) -> int:
    """Bucket 0 collects margins not shown to hold: nonpositive ones and NaN.
    1..30 span decades from 1e-17 up (positive underflow folds into 1), 31 is
    overflow."""
    if not normalized_margin > 0.0:
        return 0
    return min(max(int(math.floor(math.log10(normalized_margin))) + 18, 1), 31)


def _group_rows(items: list, key, evaluate) -> list:
    """One row per item, in item order, from `evaluate(group)`, which takes
    the items that share `key(item)` as one group and returns a row for each.

    If a group raises, `evaluate([item])` runs on every item in order, so
    that the error raised is the one the first faulty item raises by itself
    (and the group's own error if none does).
    """
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    rows = [None] * len(items)
    try:
        for members in groups.values():
            for i, row in zip(members, evaluate([items[i] for i in members])):
                rows[i] = row
    except (ValueError, ArithmeticError):
        for item in items:
            evaluate([item])
        raise
    return rows


def _confirmed_violation(entry, space, inputs) -> bool:
    result = entry.run(space, inputs, extended=True)
    if result.premises_hold is not None and not result.premises_hold[0]:
        return False
    return not result.holds[0]


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
        if not parts:
            return np.zeros(0)
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
                # math.hypot, row by row: np.hypot rounds differently
                n = np.array([math.hypot(a, b) for a, b in zip(pairing_norm(self.space, re).tolist(),
                                                                  pairing_norm(self.space, im).tolist())])
                kept = n > zero_norm_threshold(self.space)
                live &= kept
                ratio = (self.pair_norms[k] / np.where(kept, n, 1.0))[:, np.newaxis]
                re = re * ratio
                im = im * ratio
            for row, a, b in zip(rows, re, im):
                row[k] = ComplexifiedVector(a, b)
        return [row if ok else None for row, ok in zip(rows, live.tolist())]


def _central_gradient(fn, flat: np.ndarray, h: float) -> np.ndarray:
    """Central differences of fn at flat with step h.  fn maps the (2n, n)
    stack of all probe points (flat + h, then flat - h, along each
    coordinate in turn) to their values in one call; a coordinate with a
    non-finite value on either side gets 0."""
    n = flat.size
    probes = np.repeat(flat[np.newaxis], 2 * n, axis=0)
    coords = np.arange(n)
    probes[2 * coords, coords] += h
    probes[2 * coords + 1, coords] -= h
    values = np.array(fn(probes), dtype=np.float64)
    up, down = values[0::2], values[1::2]
    grad = np.zeros_like(flat)
    finite = np.isfinite(up) & np.isfinite(down)
    grad[finite] = (up[finite] - down[finite]) / (2.0 * h)
    return grad


def _evaluate(objective, candidates: list) -> list:
    """(value, premises_ok) of each candidate, with (inf, False) for None
    (a point the codec cannot rebuild).  The others are evaluated as one
    group; if that raises, each is evaluated alone, and one that raises
    alone gets (inf, False)."""
    live = [c for c in candidates if c is not None]
    try:
        scores = iter(objective(live) if live else ())
    except (DomainError, ArithmeticError):
        scores = iter([_evaluate_alone(objective, c) for c in live])
    return [(math.inf, False) if c is None else next(scores) for c in candidates]


def _evaluate_alone(objective, candidate) -> tuple:
    try:
        return objective([candidate])[0]
    except (DomainError, ArithmeticError):
        return math.inf, False


def _probe_gradient(objective, codec: _CoordCodec, flat: np.ndarray, h: float) -> np.ndarray:
    """The central-difference gradient of `objective` at flat: the 2n
    probes are rebuilt unprojected in one call and evaluated as one
    group."""

    def values(points):
        return [value for value, _ in _evaluate(objective, codec.rebuild(points, project=False))]

    return _central_gradient(values, flat, h)


def _descend(objective, codec: _CoordCodec, inputs: dict, config: SearchConfig) -> AscentResult:
    """Projected central-difference descent on `objective`, which maps a
    list of instances to their (value, premises_ok) and raises on a faulty
    one (see `_evaluate`).

    Each step evaluates the 2n unprojected probes of the gradient as one
    group, then projected candidates along the normalized descent direction,
    halving the step until one lowers the value with its premises intact.
    The recorded trace is nonincreasing by construction.
    """

    flat = codec.flatten(inputs)
    current_inputs = inputs
    ((current, _),) = _evaluate(objective, [inputs])
    trace = [current]
    step = config.step_size
    if flat.size == 0:
        return AscentResult(current_inputs, current, tuple(trace))
    for _ in range(config.ascent_steps):
        grad = _probe_gradient(objective, codec, flat, config.fd_eps)
        gnorm = float(np.linalg.norm(grad))
        if not math.isfinite(gnorm) or gnorm < 1e-14:
            break
        direction = grad / gnorm
        reach = max(float(np.linalg.norm(flat)), 1e-12)
        accepted = False
        trial_step = step
        for _ in range(MAX_HALVINGS + 1):
            candidate = codec.rebuild(flat - trial_step * reach * direction, project=True)
            ((value, ok),) = _evaluate(objective, [candidate])
            if ok and value < current:
                accepted = True
                break
            trial_step /= 2.0
        if not accepted:
            break
        current_inputs = candidate
        flat = codec.flatten(candidate)
        current = value
        trace.append(current)
        step = min(trial_step * 1.5, 1.0)
    return AscentResult(current_inputs, current, tuple(trace))


def local_ascent(ineq_name: str, space: SpaceSpec, inputs: dict, config: SearchConfig, params=None) -> AscentResult:
    """Drive the instance toward equality or violation.

    Descent on the scale-normalized binding margin: accepted steps
    renormalize nonzero-required vectors to their starting norms and
    re-orthonormalize families, and steps that leave the premise region are
    rejected.
    """
    entry = catalog_entry(ineq_name)
    return _descend(_catalog_objective(entry, space, params), _CoordCodec(entry, space, inputs), inputs, config)


def _catalog_objective(entry, space: SpaceSpec, params=None):
    """local_ascent's objective: the binding link's normalized margin and
    whether the premises hold, for each instance of a group in `space`."""

    def objective(candidates):
        result = entry.run(space, candidates, params)
        premises = [True] * len(candidates) if result.premises_hold is None else result.premises_hold.tolist()
        return list(zip(result.binding.normalized_margin.tolist(), premises))

    return objective


def _keep_top(top: list, key: tuple) -> None:
    """Keep the TOP_K smallest keys seen so far, ascending."""
    if len(top) < TOP_K:
        top.append(key)
        top.sort()
    elif key < top[-1]:
        top[-1] = key
        top.sort()


# search driver -------------------------------------------------------------------


def _binding_rows(entry, group: list) -> list:
    """For each sampled instance of a group: None when its premises fail,
    else (normalized margin, min margin, all links hold, near equality,
    binding link fields), the fields as an instance line writes them."""
    result = entry.run(group[0].space, [sampled.inputs for sampled in group])
    binding = result.binding
    n = len(group)
    premises = [True] * n if result.premises_hold is None else result.premises_hold.tolist()
    fields = zip(*([None] * n if value is None else value.astype(np.float64, copy=False).tolist()
                   for value in (binding.lhs, binding.center, binding.rhs, binding.margin_lower, binding.margin_upper)))
    return [(normalized, low, holds, near, link) if ok else None
            for ok, normalized, low, holds, near, link in zip(
                premises, binding.normalized_margin.tolist(), binding.min_margin.tolist(), result.holds.tolist(),
                binding.near_equality.tolist(), fields)]


def _shard_worker(task):
    name, config, start, stop, with_records = task
    entry = catalog_entry(name)
    samples = [sample_instance(config, name, index) for index in range(start, stop)]
    rows = _group_rows(samples, lambda sampled: sampled.space, functools.partial(_binding_rows, entry))
    hist = [0] * HISTOGRAM_BUCKETS
    near = 0
    violations = 0
    starved_count = 0
    worst = None  # (normalized, index, raw)
    top = []  # ascending (normalized, index, near_equality, violated)
    for index, sampled, row in zip(range(start, stop), samples, rows):
        if row is None:
            starved_count += 1
            continue
        normalized, min_margin, holds, near_equality, _ = row
        hist[_bucket(normalized)] += 1
        near += 1 if near_equality else 0
        violated = not holds and _confirmed_violation(entry, sampled.space, sampled.inputs)
        violations += 1 if violated else 0
        if worst is None or (normalized, index) < (worst[0], worst[1]):
            worst = (normalized, index, min_margin)
        # (normalized, index) is unique, so the flags never decide the order
        _keep_top(top, (normalized, index, near_equality, violated))
    records = _instance_records(name, config.seed, samples, rows) if with_records else None
    return hist, near, violations, starved_count, worst, top, records


def _instance_records(name: str, seed: int, samples: list, rows: list) -> list:
    """The instance line of each trial whose premises hold, in trial order,
    as a dict in the line's key order.  The digests take one pass over the
    whole shard."""
    counted = [(sampled, row) for sampled, row in zip(samples, rows) if row is not None]
    digests = instance_digests(name, [(sampled.space, sampled.inputs) for sampled, _ in counted])
    return [{"ineq": name, "dim": sampled.space.dim, "field": sampled.space.field.name.lower(), "seed": seed,
             "digest": digest, "lhs": lhs, "center": center, "rhs": rhs, "margin_lower": lower,
             "margin_upper": upper, "holds": holds, "near_equality": near}
            for (sampled, (_, _, holds, near, (lhs, center, rhs, lower, upper))), digest in zip(counted, digests)]


def falsify(ineq_name: str, config: SearchConfig, threads: int = 1, *, on_records=None) -> SearchReport:
    """Run the randomized search for one inequality and aggregate a report.

    With `on_records`, every trial whose premises hold also yields its
    instance line as a dict (`_instance_records`), from the same sampling
    and evaluation that the report counts.  `on_records` receives each
    shard's records, in trial order, as that shard arrives and in shard
    order, so the caller holds one shard's records at a time.
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
    worst = None
    top = []
    use_pool = threads > 1 and len(tasks) > 1
    with ProcessPoolExecutor(max_workers=threads) if use_pool else contextlib.nullcontext() as pool:
        # both maps yield the shards in order; the pool's as each finishes
        partials = pool.map(_shard_worker, tasks) if use_pool else map(_shard_worker, tasks)
        for p_hist, p_near, p_viol, p_starved, p_worst, p_top, p_records in partials:
            hist = [a + b for a, b in zip(hist, p_hist)]
            near += p_near
            violations += p_viol
            starved += p_starved
            if p_worst is not None and (worst is None or (p_worst[0], p_worst[1]) < (worst[0], worst[1])):
                worst = p_worst
            top.extend(p_top)
            if on_records is not None:
                on_records(p_records)
    top.sort()
    top = top[:TOP_K]

    worst_instance = None
    if worst is not None:
        sampled = sample_instance(config, ineq_name, worst[1])
        worst_instance = (sampled.space, sampled.inputs)

    if config.ascent_steps > 0:
        for normalized, index, sampled_near, sampled_violated in top:
            sampled = sample_instance(config, ineq_name, index)
            refined = local_ascent(ineq_name, sampled.space, sampled.inputs, config)
            try:
                result = entry.run(sampled.space, refined.refined_inputs)
            except (DomainError, ArithmeticError):
                continue
            if result.premises_hold is not None and not result.premises_hold[0]:
                continue
            binding = result.binding
            refined_normalized = binding.normalized_margin.tolist()[0]
            # the refined instance replaces its trial's contribution, so
            # each trial still counts at most once as near-equality and at
            # most once as a violation
            if binding.near_equality[0] and not sampled_near:
                near += 1
            if worst is None or refined_normalized < worst[0]:
                worst = (refined_normalized, index, binding.min_margin.tolist()[0])
                worst_instance = (sampled.space, refined.refined_inputs)
            if not sampled_violated and not result.holds[0]:
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


def _moore_complex_sample(config: SearchConfig, params: MooreParams, index: int):
    dim, field = _trial_cell(config, (Field.COMPLEX,), index)
    space, whitener = _cached_space(config.seed, config.gram, _MOORE_COMPLEX_KEY, dim, field)
    rng = _trial_rng(config.seed, _MOORE_COMPLEX_KEY, index)
    inputs, _ = _sample_near_parallel(catalog_entry("moore-1.9"), space, whitener, rng, params)
    return space, inputs


def _moore_ratios(space, group: list, params: MooreParams, extended: bool = False) -> list:
    """(premises hold, |<y,z>| / (||y|| ||z||), ||y|| ||z||) of each instance
    of a group of moore-1.9 inputs in one space, evaluated together."""
    result = verify_moore(space, *([inputs[k] for inputs in group] for k in ("x", "y", "z")), params,
                          extended=extended)
    (conclusion,) = result.links
    center, scale = conclusion.center.astype(np.float64, copy=False), conclusion.scale.astype(np.float64, copy=False)
    ratio = center / np.maximum(scale, _TINY)
    return list(zip(result.premises_hold.tolist(), ratio.tolist(), scale.tolist()))


def _refine_moore_candidate(space, inputs, params: MooreParams, config: SearchConfig) -> AscentResult:
    """Descent on the premise-conditioned ratio for the complex experiment,
    with moore-1.9's codec applied to the complex space."""

    def objective(candidates):
        return [(ratio, ok) for ok, ratio, _ in _moore_ratios(space, candidates, params)]

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
    top = []  # ascending (ratio, index)
    witness = None

    def below_first_bound(ratio, scale):
        return ratio - first_bound < -(TOL_ABS / max(scale, _TINY) + TOL_REL)

    def observe(space, inputs, ok, ratio, scale):
        """Fold one evaluated instance into the minimum and the witness;
        returns its ratio, or None when its premises fail."""
        nonlocal min_ratio, witness
        if not ok:
            return None
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if witness is None and below_first_bound(ratio, scale):
            ((ok_e, ratio_e, scale_e),) = _moore_ratios(space, [inputs], params, extended=True)
            if ok_e and below_first_bound(ratio_e, scale_e):
                witness = digest_inputs(space, inputs["x"], inputs["y"], inputs["z"])
        return ratio

    def evaluate(samples):
        return _moore_ratios(samples[0][0], [inputs for _, inputs in samples], params)

    # the samples of a chunk are evaluated in groups of one dimension each
    for first in range(0, config.trials, SHARD_SIZE):
        indices = range(first, min(first + SHARD_SIZE, config.trials))
        samples = [_moore_complex_sample(config, params, index) for index in indices]
        scores = _group_rows(samples, lambda sample: sample[0], evaluate)
        for index, (space, inputs), score in zip(indices, samples, scores):
            ratio = observe(space, inputs, *score)
            if ratio is not None:
                satisfying += 1
                _keep_top(top, (ratio, index))
    if config.ascent_steps > 0:
        for _, index in top:
            space, inputs = _moore_complex_sample(config, params, index)
            refined = _refine_moore_candidate(space, inputs, params, config).refined_inputs
            ((ok, ratio, scale),) = _moore_ratios(space, [refined], params)
            observe(space, refined, ok, ratio, scale)
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
