"""Evaluation records and closed forms for the inequality catalog.

Every statement is written once, against stacked operands in their dtype,
and evaluates a group of n instances: it takes each argument as one stack
(an (n, d) array, a FamilyStack, or a ComplexifiedVector of (n, d) parts),
or as the sequence of the n instances' values, which it stacks on entry (a
conditional statement takes one MooreParams after them), and returns a
StackedResult, a tuple of StackedEvaluation links
whose fields are (n,) arrays and, for conditional statements, an (n,)
premises array.  A lone instance is a group of one, and its values are
row 0 of each field.  Each link follows a uniform margin convention:

* two sided:      lhs <= center <= rhs   (both margins present)
* one sided upper: lhs <= rhs            (center is None, margin_upper only)
* one sided lower: lhs <= center         (rhs is None, margin_lower only)

`holds` allows a roundoff band of TOL_ABS + TOL_REL * scale below zero, where
`scale` is the product of norms entering the bound, so verdicts are invariant
under rescaling of the inputs.  `near_equality` flags records whose smallest
present margin is within NEAR_EQUALITY_REL * scale of zero; a violated record
is therefore also near equality, which keeps tightness counters monotone.

Chained statements return one link per cap; the binding link is the one
with the smallest scale-normalized margin (`normalized_margin`).  Conditional
statements (the Moore style results) set `premises_hold`, which is None for
the others; their conclusion is always evaluated so that vacuous instances
remain inspectable.

The group record, `Group`, holds n instances of one space with each
argument as one stack, and each row's trial index.  The registry `CATALOG`
maps each name to a CatalogEntry, which calls the statement function itself
with a Group's stacks in one argument order; its `run` takes a Group, or
through one adapter (`Group.of`) a sequence of dicts of inputs or one dict
as a group of one.

Each statement validates each argument's stack once on entry (`_vec`,
`_families`, `_complexified_parts`), casting it there to the field's
extended dtype when called with `extended=True`.  From then on it pairs
through the unvalidated `spaces.pairing` and `spaces.pairing_norm`, which
compute in the dtype of their operands.  Statements that evaluate the same
quantity share one kernel for it, which validates the arguments it reads.

A stacked kernel rounds every row as a group of one rounds it: each row
dot product is one np.vecdot and each other reduction a stacked matmul,
with their operands in the scalar order, and where numpy's elementwise
array loops round differently from Python's scalar arithmetic (complex
product and modulus, `x ** 2`) the kernels spell out the scalar operation
(`_cmul`, `_abs`, `_square`).  A group may mix
family sizes, and a product of k-row members rounds by k, so the family
statements take each family argument apart by size (`_by_size`): a term of
one family runs once per size of that family, and only the cross term
<e_i, f_j> once per pair of sizes (`_cross_sum`), each reading the per-size
results at its rows' positions.  So group sizes never change a result, and
evaluating a group equals evaluating each of its members alone, bit for bit.

Instances are fingerprinted with a 64-bit FNV-1a digest over a canonical byte
serialization: field tag, dimension, then every argument in the registry's
order as big-endian float64 coordinate payloads (families get a length
prefix, complexified vectors serialize re then im).  Scalar parameters and
the gram matrix are deliberately not digested; they are part of the run
configuration, not of the sampled instance.  `instance_digests`
serializes each Group from its stacks into one padded uint8 matrix, a row
per instance with its own length: the header is assigned to all rows at
once and each argument is cast to big-endian in one block, written at each
row's offset.  It then hashes every row of every group in one pass of
uint64 states (`fnv1a_64_rows`), which reads the bytes a bounded chunk of
columns at a time.  A lone digest takes the byte loop `fnv1a_64`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .orthonormal import FamilyStack, OrthonormalFamily
from .spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    pairing,
    pairing_norm,
    zero_norm_threshold,
)

CATALOG_VERSION = "1.0.0"

TOL_ABS = 1e-12
TOL_REL = 1e-9
NEAR_EQUALITY_REL = 1e-9
ROUTE_AGREEMENT_REL = 1e-10
PREMISE_SLACK = 1e-12

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_CHUNK_BYTES = 1 << 18
_BIG_COUNT, _BIG_REAL, _BIG_COMPLEX = np.dtype(">u8"), np.dtype(">f8"), np.dtype(">c16")


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def fnv1a_64_rows(blocks, lengths) -> list:
    """fnv1a_64 of every row of a list of uint8 matrices, in block and row
    order, in one pass, where row i of block b is its first lengths[b][i]
    bytes (`lengths` holds an array per block).

    FNV-1a runs over all rows at once as uint64 states, which wrap mod 2^64
    as _MASK64 does: with the states in the order of their rows' lengths,
    longest first, byte j applies one in-place xor and one in-place multiply
    to the states of the rows longer than j.  The bytes are gathered from
    the blocks column-major and widened to uint64 a chunk of columns at a
    time, so the steps read operands of the states' dtype; the chunk narrows
    as more rows are still active, so its one buffer stays within
    _FNV_CHUNK_BYTES (or one column of states) beside the blocks.  The
    orders are Python sorts, as numpy's sorts would page in code that
    nothing else here runs.  A pass costs per byte column, so one lone byte
    string is cheaper through fnv1a_64.
    """
    every = [n for counts in lengths for n in counts.tolist()]
    order = sorted(range(len(every)), key=every.__getitem__, reverse=True)  # longest first, stably
    place = np.empty(len(every), dtype=np.intp)
    place[order] = np.arange(len(every))
    longest = np.array(every, dtype=np.intp)[order]
    width = int(longest[0]) if longest.size else 0
    parts, first = [], 0  # each block's rows longest first, their states and lengths
    for block, counts in zip(blocks, lengths):
        states_of = place[first : first + len(block)]
        rows = np.array(sorted(range(len(block)), key=states_of.tolist().__getitem__), dtype=np.intp)
        parts.append((block, rows, states_of[rows], -counts[rows]))
        first += len(block)
    active = np.searchsorted(-longest, -np.arange(width), side="left").tolist()  # rows longer than j
    states = np.full(longest.size, _FNV_OFFSET, dtype=np.uint64)
    primes = np.full(longest.size, _FNV_PRIME, dtype=np.uint64)
    live, prime = states, primes
    buffer = np.empty(max(_FNV_CHUNK_BYTES // 8, longest.size), dtype=np.uint64)
    start = 0
    while start < width:
        stop = min(width, start + buffer.size // active[start])
        columns = buffer[: (stop - start) * active[start]].reshape(stop - start, active[start])
        for block, rows, at, shorter in parts:
            count = int(np.searchsorted(shorter, -start, side="left"))  # its rows longer than start
            if count:
                columns[: min(block.shape[1], stop) - start, at[:count]] = block[rows[:count], start:stop].T
        for j, column in enumerate(columns, start):
            if active[j] != live.size:
                live, prime = states[: active[j]], primes[: active[j]]
            live ^= column[: live.size]
            live *= prime
        start = stop
    return states[place].tolist()


def _serialized(space: SpaceSpec, n: int, stacks):
    """The bytes instance_digest hashes, for the n instances of `stacks` (each
    argument's stack, in order: (n, d) vectors, cast to the field's dtype,
    a FamilyStack, or a ComplexifiedVector of (n, d) parts), as the rows of
    one uint8 matrix and each row's length.  The header is assigned to all
    rows at once, and each argument is cast to big-endian into one padded
    block, written at each row's own offset (a family's length prefix and
    members, past which the next argument starts); the padding lies past
    a row's length or under the next argument."""
    lengths = np.full(n, 9, dtype=np.intp)
    blocks = []
    for value in stacks:
        if isinstance(value, FamilyStack):
            big = _BIG_COMPLEX if value.members.dtype.kind == "c" else _BIG_REAL
            coords = value.members.reshape(n, -1)
            block = np.empty((n, 8 + coords.shape[1] * big.itemsize), dtype=np.uint8)
            block[:, :8].view(_BIG_COUNT)[:, 0] = value.sizes
            size = 8 + value.sizes * (space.dim * big.itemsize)
        else:
            coords = np.concatenate([value.re, value.im], axis=1) if isinstance(value, ComplexifiedVector) \
                else np.asarray(value, dtype=space.field.dtype).reshape(n, -1)
            big = _BIG_COMPLEX if coords.dtype.kind == "c" else _BIG_REAL
            block = np.empty((n, coords.shape[1] * big.itemsize), dtype=np.uint8)
            size = block.shape[1]
        block[:, block.shape[1] - coords.shape[1] * big.itemsize :].view(big)[...] = coords
        blocks.append((lengths.copy(), block))
        lengths += size
    rows = np.zeros((n, 9 + sum(block.shape[1] for _, block in blocks)), dtype=np.uint8)
    rows[:, 0] = ord("R" if space.field is Field.REAL else "C")
    rows[:, 1:9].view(_BIG_COUNT)[...] = space.dim
    for at, block in blocks:
        if (at == at[0]).all():
            rows[:, at[0] : at[0] + block.shape[1]] = block
        else:
            rows[np.arange(n)[:, np.newaxis], at[:, np.newaxis] + np.arange(block.shape[1])] = block
    return rows, lengths


# records ---------------------------------------------------------------------


def _first_min(a, b):
    """min(a, b) as Python's min picks it: b only where b < a, so a NaN in a stays."""
    return np.where(b < a, b, a)


@dataclass(frozen=True)
class StackedEvaluation:
    """One link evaluated on n instances: its fields are (n,) arrays in the
    dtype of the evaluation, None where the link has no such field (see
    the module docstring for the shapes)."""

    lhs: np.ndarray
    center: Optional[np.ndarray]
    rhs: Optional[np.ndarray]
    margin_lower: Optional[np.ndarray]
    margin_upper: Optional[np.ndarray]
    holds: np.ndarray
    near_equality: np.ndarray
    scale: np.ndarray

    @property
    def min_margin(self) -> np.ndarray:
        """The smaller present margin of every row, in double precision;
        the upper one only where it is below the lower, as Python's min
        picks (a NaN lower margin stays)."""
        margins = [m.astype(np.float64, copy=False) for m in (self.margin_lower, self.margin_upper) if m is not None]
        return margins[0] if len(margins) == 1 else _first_min(*margins)

    @property
    def normalized_margin(self) -> np.ndarray:
        """min_margin in units of scale (see `normalized`)."""
        return self.normalized(self.min_margin)

    def normalized(self, margin: np.ndarray) -> np.ndarray:
        """A double margin of every row in units of scale, a zero scale
        counting as 1e-300 (np.maximum keeps a NaN scale and never ties with
        1e-300, so it picks as Python's max does)."""
        return margin / np.maximum(self.scale.astype(np.float64, copy=False), 1e-300)


def stacked_evaluation(scale, lhs, center=None, rhs=None) -> StackedEvaluation:
    """Assemble a link of n instances, computing margins in the dtype of the
    inputs; scalars broadcast against the (n,) arrays."""
    margin_lower = None if center is None else center - lhs
    if rhs is None:
        margin_upper = None
    else:
        margin_upper = rhs - lhs if center is None else rhs - center
    if margin_lower is None and margin_upper is None:
        raise DomainError("an evaluation needs at least one margin")
    margins = [m for m in (margin_lower, margin_upper) if m is not None]
    tol = TOL_ABS + TOL_REL * scale
    holds = margins[0] >= -tol
    if len(margins) == 2:
        holds = holds & (margins[1] >= -tol)
    lowest = margins[0] if len(margins) == 1 else _first_min(*margins)
    near = lowest <= NEAR_EQUALITY_REL * scale
    shape = holds.shape
    lhs, center, rhs, scale = (
        v if v is None or np.shape(v) == shape else np.broadcast_to(v, shape) for v in (lhs, center, rhs, scale))
    return StackedEvaluation(lhs, center, rhs, margin_lower, margin_upper, holds, near, scale)


def _select(pick: np.ndarray, a: StackedEvaluation, b: StackedEvaluation) -> StackedEvaluation:
    """Row by row, a where pick is set and b elsewhere (links of one shape)."""
    fields = {name: None if value is None else np.where(pick, value, getattr(b, name))
              for name, value in vars(a).items()}
    return StackedEvaluation(**fields)


@dataclass(frozen=True)
class StackedResult:
    """The links of one statement evaluated on n instances and, for
    conditional statements, the (n,) premises array (None otherwise)."""

    links: tuple
    premises_hold: Optional[np.ndarray] = None

    @property
    def holds(self) -> np.ndarray:
        """Whether every link holds, row by row."""
        return functools.reduce(np.logical_and, (link.holds for link in self.links))

    @property
    def binding(self) -> StackedEvaluation:
        """The link with the smallest normalized margin, row by row: the
        first on ties, and a later link only where its margin is below, as
        Python's min picks (a NaN margin in the first link binds, one in a
        later link is passed over)."""
        best, *rest = self.links
        if not rest:
            return best
        lowest = best.normalized_margin
        for link in rest:
            margin = link.normalized_margin
            pick = margin < lowest
            best = _select(pick, link, best)
            lowest = np.where(pick, margin, lowest)
        return best


@dataclass(frozen=True)
class MooreParams:
    """Premise parameters of the conditional statements, which take one as
    their last positional argument; each validates the fields it uses."""

    eps: Optional[float] = None
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    delta1: Optional[float] = None
    delta2: Optional[float] = None
    mu1: Optional[float] = None
    mu2: Optional[float] = None


# shared numeric helpers ------------------------------------------------------


def _require_field(space: SpaceSpec, allowed, what: str):
    if space.field not in allowed:
        raise DomainError(f"{what} is not defined over {space.field.name.lower()} spaces")


def _vec(space, v, name, *, nonzero, extended):
    """One vector argument's n values (an (n, d) stack or a sequence) as
    an (n, d) stack, checked at once."""
    arr = np.asarray(v)
    if space.field is Field.REAL and np.iscomplexobj(arr):
        raise DomainError("complex coordinates in a real space")
    arr = arr.astype(space.field.dtype, copy=False)
    if arr.shape != (len(v), space.dim):
        raise DomainError(f"expected vectors of length {space.dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("vector has non-finite coordinates")
    if nonzero and (pairing_norm(space, arr) < zero_norm_threshold(space)).any():
        raise DomainError(f"{name} must be nonzero")
    return arr.astype(space.field.extended_dtype) if extended else arr


def _families(space: SpaceSpec, family, name: str) -> FamilyStack:
    """One family argument's n families (a FamilyStack, or a sequence of
    OrthonormalFamily objects) as a FamilyStack, each family's space (a
    stack's once) checked against `space`."""
    stacked = isinstance(family, FamilyStack)
    for member in [family] if stacked else family:
        if not stacked and not isinstance(member, OrthonormalFamily):
            raise DomainError(f"{name} must be an OrthonormalFamily")
        fs = member.space
        if fs is space:
            continue
        if fs.dim != space.dim or fs.field is not space.field:
            raise DomainError(f"family {name} belongs to a different space")
        same_gram = (fs.gram is None and space.gram is None) or (
            fs.gram is not None and space.gram is not None and np.array_equal(fs.gram, space.gram)
        )
        if not same_gram:
            raise DomainError(f"family {name} carries a different gram weighting")
    return FamilyStack.of(space, family)


def _paired(z, name: str) -> ComplexifiedVector:
    """One complexified argument's n values (a ComplexifiedVector of (n, d)
    parts, or a sequence of ComplexifiedVector objects) as one pair of
    stacks."""
    if isinstance(z, ComplexifiedVector):
        return z
    if not all(isinstance(value, ComplexifiedVector) for value in z):
        raise DomainError(f"{name} must be a ComplexifiedVector")
    return ComplexifiedVector._checked(np.array([value.re for value in z]), np.array([value.im for value in z]))


class _Sized(NamedTuple):
    """One family argument's n families taken apart by size: `parts` holds
    (rows, members) for each size present, ascending, `rows` indexing the
    families of that size (a full slice when every family has it) and
    `members` their (m, size, d) stack.  A product of k-row members rounds
    by k, so no product mixes sizes."""

    n: int
    parts: list

    def merged(self, values):
        """The (n, ...) stack whose rows at each part's `rows` are that
        part's entry of `values`; with one part, its entry itself."""
        if len(self.parts) == 1:
            return values[0]
        out = np.empty((self.n, *values[0].shape[1:]), dtype=values[0].dtype)
        for (rows, _), value in zip(self.parts, values):
            out[rows] = value
        return out

    def positions(self):
        """Each row's part and its position among that part's rows."""
        which, where = np.empty(self.n, dtype=np.intp), np.empty(self.n, dtype=np.intp)
        for p, (rows, members) in enumerate(self.parts):
            which[rows] = p
            where[rows] = np.arange(len(members))
        return which, where


def _by_size(space: SpaceSpec, family, name: str, extended: bool) -> _Sized:
    """A family argument's n families as a _Sized, its members cast to the
    extended dtype when `extended`."""
    stack = _families(space, family, name)
    sizes = sorted(set(stack.sizes.tolist())) or [0]
    dtype = space.field.extended_dtype if extended else stack.members.dtype
    parts = []
    for size in sizes:
        rows = slice(None) if len(sizes) == 1 else (stack.sizes == size).nonzero()[0]
        parts.append((rows, stack.members[rows, :size].astype(dtype, copy=False)))
    return _Sized(len(stack), parts)


def _complexified_parts(space, z, name, extended):
    """One complexified argument's n values as (n, d) stacks of their real
    and imaginary parts."""
    z = _paired(z, name)
    re = _vec(space, z.re, f"{name}.re", nonzero=False, extended=extended)
    im = _vec(space, z.im, f"{name}.im", nonzero=False, extended=extended)
    return re, im


def _dot(a, b):
    """a_i . b_i for every row of two (n, k) stacks, unconjugated, by
    np.vecdot (which conjugates its first operand): a 1-d dot's bits."""
    return np.vecdot(np.conj(a) if a.dtype.kind == "c" else a, b)


def _row_times(a, m):
    """a_i @ m_i for every row of an (n, k) stack against (n, k, j) or (k, j)."""
    return (a[:, np.newaxis, :] @ m)[:, 0, :]


def _times_column(m, b):
    """m_i @ b_i for (n, j, k) or (j, k) against every row of an (n, k) stack."""
    return (m @ b[:, :, np.newaxis])[:, :, 0]


def _abs(z):
    """abs() of every entry as Python rounds it: a complex modulus through
    hypot, which numpy's complex abs does not always match."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _complex(re, im):
    """The complex array re + i im, its parts exactly re and im."""
    out = np.empty(re.shape, dtype=np.result_type(re, 1j))
    out.real = re
    out.imag = im
    return out


def _cmul(p, q):
    """p * q entry by entry as Python's complex product rounds it, with no
    fused multiply-add as numpy's complex multiply may use."""
    if not np.iscomplexobj(p):
        return p * q
    return _complex(p.real * q.real - p.imag * q.imag, p.real * q.imag + p.imag * q.real)


def _square(x):
    """x ** 2 entry by entry through the scalar power of Python floats (or
    of numpy's long double scalars), which numpy's array square and array
    power do not always match."""
    items = x.tolist() if x.dtype == np.float64 else list(x)
    return np.array([item ** 2 for item in items], dtype=x.dtype)


def _pairings(space, x, family: _Sized) -> list:
    """<x, e_i> for every member of each of a family's size parts, as
    (m, k) stacks."""
    gx = x if space.gram is None else _row_times(x, space.gram)
    return [_times_column(members.conj(), gx[rows]) for rows, members in family.parts]


def _pairings_right(space, family: _Sized, y) -> list:
    """<e_i, y> for every member of each of a family's size parts."""
    gy = np.conj(y) if space.gram is None else _times_column(space.gram, np.conj(y))
    return [_times_column(members, gy[rows]) for rows, members in family.parts]


def _cross_matrix(members_e, adjoint_f):
    """<e_i, f_j> as an (n, len(E), len(F)) stack, from F's adjoint G conj(F^T)."""
    return members_e @ adjoint_f


def _cross_sum(space, e: _Sized, f: _Sized, left: list, right: list):
    """sum_ij a_i <e_i, f_j> b_j of every row, as an (n,) stack, from the
    a values of each of E's size parts (`left`, (m, len(E)) stacks) and the
    b values of each of F's (`right`).  The only family term that needs
    both sizes, so it alone runs per (size of E, size of F) pair, reading
    each part's values at its rows' positions."""
    adjoints = [np.conj(mf.swapaxes(1, 2)) for _, mf in f.parts]  # once per size of F
    if space.gram is not None:
        adjoints = [space.gram @ adjoint for adjoint in adjoints]
    if len(e.parts) == len(f.parts) == 1:
        return _dot(_row_times(left[0], _cross_matrix(e.parts[0][1], adjoints[0])), right[0])
    (part_e, at_e), (part_f, at_f) = e.positions(), f.positions()
    pairs = part_e * len(f.parts) + part_f
    out = np.empty(e.n, dtype=np.result_type(left[0], right[0]))
    for pair in sorted(set(pairs.tolist())):
        rows = (pairs == pair).nonzero()[0]
        p, q = divmod(pair, len(f.parts))
        ie, jf = at_e[rows], at_f[rows]
        cross = _cross_matrix(e.parts[p][1][ie], adjoints[q][jf])
        out[rows] = _dot(_row_times(left[p][ie], cross), right[q][jf])
    return out


# elementary statements -------------------------------------------------------


def eval_schwarz(space: SpaceSpec, x, y, *, extended: bool = False):
    """|<x,y>| against ||x|| ||y||; zero vectors are allowed."""
    xx = _vec(space, x, "x", nonzero=False, extended=extended)
    yy = _vec(space, y, "y", nonzero=False, extended=extended)
    lhs = _abs(pairing(space, xx, yy))
    rhs = pairing_norm(space, xx) * pairing_norm(space, yy)
    return StackedResult((stacked_evaluation(rhs, lhs, rhs=rhs),))


def _mixed_projection_sum(space, aa, bb, x, y, extended):
    """The mixed projection sum of validated a and b onto x and y, which must
    be nonzero: the center of (1.1), and of (1.5) with b = a."""
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx)
    ny2 = pairing(space, yy, yy)
    xa = pairing(space, xx, aa)
    xb = pairing(space, xx, bb)
    ya = pairing(space, yy, aa)
    yb = pairing(space, yy, bb)
    xy = pairing(space, xx, yy)
    return xa * xb / nx2 + ya * yb / ny2 - 2 * xa * yb * xy / (nx2 * ny2)


def eval_precupanu(space: SpaceSpec, a, b, x, y, *, extended: bool = False):
    """Two-sided bound on the mixed projection sum of a and b onto x and y."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    bb = _vec(space, b, "b", nonzero=False, extended=extended)
    center = _mixed_projection_sum(space, aa, bb, x, y, extended)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    ab = pairing(space, aa, bb)
    lhs = (ab - na * nb) / 2
    rhs = (ab + na * nb) / 2
    return StackedResult((stacked_evaluation(na * nb, lhs, center=center, rhs=rhs),))


def eval_richard(space: SpaceSpec, a, b, x, *, extended: bool = False):
    """Two-sided bound on <x,a><x,b> along a single direction x."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    bb = _vec(space, b, "b", nonzero=False, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx)
    center = pairing(space, xx, aa) * pairing(space, xx, bb)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    ab = pairing(space, aa, bb)
    lhs = (ab - na * nb) / 2 * nx2
    rhs = (ab + na * nb) / 2 * nx2
    return StackedResult((stacked_evaluation(na * nb * nx2, lhs, center=center, rhs=rhs),))


def eval_precupanu_self(space: SpaceSpec, a, x, y, *, extended: bool = False):
    """Nonnegative quadratic form of a against the (x, y) pair, capped by ||a||^2."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    center = _mixed_projection_sum(space, aa, aa, x, y, extended)
    na2 = pairing(space, aa, aa)
    return StackedResult((stacked_evaluation(na2, 0.0, center=center, rhs=na2),))


def _anchor_cosines(space, a, x, y, extended):
    """cos(x, a), cos(y, a) and cos(x, y) of nonzero a, x and y, as (1.6) and T1.5(i) read them."""
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    na = pairing_norm(space, aa)
    nx = pairing_norm(space, xx)
    ny = pairing_norm(space, yy)
    cxa = pairing(space, xx, aa) / (nx * na)
    cya = pairing(space, yy, aa) / (ny * na)
    cxy = pairing(space, xx, yy) / (nx * ny)
    return cxa, cya, cxy


def eval_angle_bound(space: SpaceSpec, a, x, y, *, extended: bool = False):
    """Lower bound on cos(x, y) from the cosines of x and y against a."""
    _require_field(space, (Field.REAL,), "this statement")
    ca, cb, center = _anchor_cosines(space, a, x, y, extended)
    lhs = _square(ca + cb) / 2 - 1.5
    return StackedResult((stacked_evaluation(1.0, lhs, center=center),))


# conditional statements ------------------------------------------------------


def moore_coefficient(eps: float) -> float:
    """Transfer coefficient for near-parallelism at slack eps; nonincreasing."""
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    return max(1.0 - eps - math.sqrt(2.0 * eps), 1.0 - 4.0 * eps, 0.0)


def buzano_moore_useful(eps: float) -> bool:
    """Whether the Buzano-Moore coefficient 1 - 4 eps + 2 eps^2 is nonnegative,
    so that the conclusion says more than |<a,b>| >= 0."""
    return eps <= 1.0 - math.sqrt(2.0) / 2.0


def _near_parallel_transfer(space, names, x, u, v, eps, coeff, extended):
    """(1.9) and (1.16): if u and v are eps-parallel to x in modulus (all
    nonzero, and named `names`), then |<u,v>| >= coeff ||u|| ||v||."""
    xx = _vec(space, x, names[0], nonzero=True, extended=extended)
    uu = _vec(space, u, names[1], nonzero=True, extended=extended)
    vv = _vec(space, v, names[2], nonzero=True, extended=extended)
    nx = pairing_norm(space, xx)
    nu = pairing_norm(space, uu)
    nv = pairing_norm(space, vv)
    need = 1.0 - eps
    premises = (_abs(pairing(space, xx, uu)) >= need * nx * nu - PREMISE_SLACK * nx * nu) & (
        _abs(pairing(space, xx, vv)) >= need * nx * nv - PREMISE_SLACK * nx * nv
    )
    scale = nu * nv
    center = _abs(pairing(space, uu, vv))
    conclusion = stacked_evaluation(scale, coeff * scale, center=center)
    return StackedResult((conclusion,), premises)


def verify_moore(space: SpaceSpec, x, y, z, params: MooreParams, *, extended: bool = False):
    """If y and z are both eps-parallel to x, bound |<y,z>| from below."""
    eps = params.eps
    if eps is None or eps < 0:
        raise DomainError("eps must be nonnegative")
    return _near_parallel_transfer(space, ("x", "y", "z"), x, y, z, eps, moore_coefficient(eps), extended)


def precupanu_moore_bounds(eps1: float):
    """Two-sided coefficients 2 eps1^2 -+ 1 for the signed-window transfer."""
    if eps1 <= 0:
        raise DomainError("eps1 must be positive")
    return 2.0 * eps1 * eps1 - 1.0, 2.0 * eps1 * eps1 + 1.0


def verify_precupanu_moore(space: SpaceSpec, a, b, x, params: MooreParams, *, extended: bool = False):
    """Signed cosine window against x transfers to a two-sided bound on <a,b>."""
    _require_field(space, (Field.REAL,), "this statement")
    if params.eps1 is None or params.eps2 is None:
        raise DomainError("eps1 and eps2 are required")
    eps1, eps2 = float(params.eps1), float(params.eps2)
    if eps1 <= 0 or eps2 <= eps1:
        raise DomainError("need 0 < eps1 < eps2")
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    bb = _vec(space, b, "b", nonzero=True, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    nx = pairing_norm(space, xx)
    ca = pairing(space, xx, aa) / (nx * na)
    cb = pairing(space, xx, bb) / (nx * nb)
    low, high = eps1 - PREMISE_SLACK, eps2 + PREMISE_SLACK
    premises = (low <= ca) & (ca <= high) & (low <= cb) & (cb <= high)
    lo, hi = precupanu_moore_bounds(eps1)
    ab = pairing(space, aa, bb)
    scale = na * nb
    conclusion = stacked_evaluation(scale, lo * scale, center=ab, rhs=hi * scale)
    refinement = stacked_evaluation(scale, -scale, center=lo * scale, rhs=ab)
    return StackedResult((conclusion, refinement), premises)


def eval_buzano(space: SpaceSpec, a, b, x, *, extended: bool = False):
    """Modulus bound on <x,a><x,b> along x; valid in both fields."""
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    bb = _vec(space, b, "b", nonzero=False, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx).real
    lhs = _abs(_cmul(pairing(space, xx, aa), pairing(space, xx, bb)))
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    rhs = (na * nb + _abs(pairing(space, aa, bb))) / 2 * nx2
    return StackedResult((stacked_evaluation(na * nb * nx2, lhs, rhs=rhs),))


def verify_buzano_moore(space: SpaceSpec, x, a, b, params: MooreParams, *, extended: bool = False):
    """Modulus near-parallelism to x transfers to a lower bound on |<a,b>|."""
    eps = params.eps
    if eps is None or not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    coeff = 1.0 - 4.0 * eps + 2.0 * eps * eps
    return _near_parallel_transfer(space, ("x", "a", "b"), x, a, b, eps, coeff, extended)


def verify_cosine_transfer(space: SpaceSpec, a, x, y, params: MooreParams, *, extended: bool = False):
    """Cosine floors of x and y against a transfer to a cosine floor of (x, y)."""
    _require_field(space, (Field.REAL,), "this statement")
    delta1, delta2 = params.delta1, params.delta2
    if delta1 is None or delta2 is None or not (0 < delta1 <= 1 and 0 < delta2 <= 1):
        raise DomainError("delta1 and delta2 must lie in (0, 1]")
    if delta1 + delta2 < 1:
        raise DomainError("need delta1 + delta2 >= 1")
    cxa, cya, center = _anchor_cosines(space, a, x, y, extended)
    premises = (cxa >= delta1 - PREMISE_SLACK) & (cya >= delta2 - PREMISE_SLACK)
    bound = (delta1 + delta2) ** 2 / 2 - 1.5
    conclusion = stacked_evaluation(1.0, bound, center=center)
    return StackedResult((conclusion,), premises)


def verify_quotient_transfer(space: SpaceSpec, a, b, x, params: MooreParams, *, extended: bool = False):
    """A floor mu1 (or cap mu2) on <x,a><x,b>/||x||^2 transfers to a cosine
    floor (or cap) on (a, b): the floor when mu1 is given, else the cap."""
    _require_field(space, (Field.REAL,), "this statement")
    mu1, mu2 = params.mu1, params.mu2
    if mu1 is None and mu2 is None:
        raise DomainError("at least one of mu1, mu2 is required")
    if mu1 is not None and not 0 <= mu1 <= 1:
        raise DomainError("mu1 must lie in [0, 1]")
    if mu2 is not None and not -1 <= mu2 <= 0:
        raise DomainError("mu2 must lie in [-1, 0]")
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    bb = _vec(space, b, "b", nonzero=True, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    nx2 = pairing(space, xx, xx)
    quotient = pairing(space, xx, aa) * pairing(space, xx, bb) / nx2
    cos_ab = pairing(space, aa, bb) / (na * nb)
    slack = PREMISE_SLACK * na * nb
    if mu1 is not None:
        premises = quotient >= mu1 * na * nb - slack
        conclusion = stacked_evaluation(1.0, 2.0 * mu1 - 1.0, center=cos_ab)
    else:
        premises = quotient <= mu2 * na * nb + slack
        conclusion = stacked_evaluation(1.0, cos_ab, rhs=2.0 * mu2 + 1.0)
    return StackedResult((conclusion,), premises)


# orthonormal-family statements -----------------------------------------------


def _family_core(space, E, F, x, y, extended):
    """Nonzero x and y, validated, and the sums the two-family statements share.

    Returns (x, y, S, <x,y>, ||x||, ||y||, pieces) where S is the bilinear
    family sum of each row and pieces, for reflection reuse, holds E and F
    taken apart by size (`_Sized`), with <x, e_i> for each of E's size
    parts and <f_j, y> for each of F's.  The terms of E alone run once per
    size of E, those of F alone once per size of F, and only the cross
    term per pair of sizes (`_cross_sum`).
    """
    x = _vec(space, x, "x", nonzero=True, extended=extended)
    y = _vec(space, y, "y", nonzero=True, extended=extended)
    e, f = _by_size(space, E, "E", extended), _by_size(space, F, "F", extended)
    ce, cf = _pairings(space, x, e), _pairings(space, x, f)
    cey, cfy = _pairings_right(space, e, y), _pairings_right(space, f, y)
    s = e.merged(list(map(_dot, ce, cey))) + f.merged(list(map(_dot, cf, cfy))) - 2.0 * _cross_sum(space, e, f, ce, cfy)
    xy = pairing(space, x, y)
    nx = pairing_norm(space, x)
    ny = pairing_norm(space, y)
    return x, y, s, xy, nx, ny, (e, f, ce, cfy)


def eval_generalized(space: SpaceSpec, E, F, x, y, *, extended: bool = False):
    """Two-family projection sum bound, cross-checked through reflections.

    The direct summation |S - <x,y>/2| and the reflection route
    |<R_E x, R_F y>|/2 are evaluated on every call and must agree to
    ROUTE_AGREEMENT_REL relative to the instance scale; disagreement on any
    row means a coding fault, not a counterexample, and raises immediately.
    """
    xx, yy, s, xy, nx, ny, (e, f, ce, cfy) = _family_core(space, E, F, x, y, extended)
    direct = _abs(s - 0.5 * xy)
    u = e.merged([2.0 * _row_times(c, me) - xx[rows] for c, (rows, me) in zip(ce, e.parts)])
    v = f.merged([2.0 * _row_times(np.conj(c), mf) - yy[rows] for c, (rows, mf) in zip(cfy, f.parts)])
    # u and v are derived rather than validated arguments: check them here,
    # in their own dtype, and pair them at the precision of the direct route
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("reflected vectors have non-finite coordinates")
    other = 0.5 * _abs(pairing(space, u, v))
    direct_d, other_d = direct.astype(np.float64, copy=False), other.astype(np.float64, copy=False)
    # max(direct, other, scale) where it can decide: a NaN route never raises
    tol = ROUTE_AGREEMENT_REL * np.fmax(np.maximum(direct_d, other_d), (nx * ny).astype(np.float64, copy=False))
    disagree = np.flatnonzero(np.abs(direct_d - other_d) > tol)
    if disagree.size:
        i = disagree[0]
        raise ArithmeticError(f"projection-sum routes disagree: {float(direct_d[i])!r} vs {float(other_d[i])!r}")
    return StackedResult((stacked_evaluation(nx * ny, direct, rhs=0.5 * nx * ny),))


def eval_chain(space: SpaceSpec, E, F, x, y, *, extended: bool = False):
    """Two chained caps on |S| through the signed half-pairing midpoint."""
    _, _, s, xy, nx, ny, _ = _family_core(space, E, F, x, y, extended)
    middle = 0.5 * _abs(xy) + _abs(s - 0.5 * xy)
    scale = nx * ny
    first = stacked_evaluation(scale, _abs(s), rhs=middle)
    second = stacked_evaluation(scale, middle, rhs=0.5 * (_abs(xy) + scale))
    return StackedResult((first, second))


def eval_real_double(space: SpaceSpec, E, F, x, y, *, extended: bool = False):
    """Signed two-sided window for the real two-family sum."""
    _require_field(space, (Field.REAL,), "this statement")
    _, _, s, xy, nx, ny, _ = _family_core(space, E, F, x, y, extended)
    lhs = 0.5 * (xy - nx * ny)
    rhs = 0.5 * (xy + nx * ny)
    return StackedResult((stacked_evaluation(nx * ny, lhs, center=s, rhs=rhs),))


# complexified statements -----------------------------------------------------


def eval_kurepa(space: SpaceSpec, a, z, *, extended: bool = False):
    """Quadratic cap for the pairing of a real direction with a complexified z."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    zre, zim = _complexified_parts(space, z, "z", extended)
    pa = pairing(space, aa, zre)
    pb = pairing(space, aa, zim)
    lhs = pa * pa + pb * pb
    na2 = pairing(space, aa, aa)
    nre2 = pairing(space, zre, zre)
    nim2 = pairing(space, zim, zim)
    nz2 = nre2 + nim2
    mixed = pairing(space, zre, zim)
    self_pair = np.sqrt(_square(nre2 - nim2) + _square(2.0 * mixed))
    middle = 0.5 * na2 * (nz2 + self_pair)
    scale = na2 * nz2
    first = stacked_evaluation(scale, lhs, rhs=middle)
    second = stacked_evaluation(scale, middle, rhs=na2 * nz2)
    return StackedResult((first, second))


def eval_kurepa_refined(space: SpaceSpec, E, F, w, *, extended: bool = False):
    """Three chained caps for the squared family pairings of a complexified w."""
    _require_field(space, (Field.REAL,), "this statement")
    wre, wim = _complexified_parts(space, w, "w", extended)
    e, f = _by_size(space, E, "E", extended), _by_size(space, F, "F", extended)
    # E's terms once per size of E, F's once per size of F, and only the
    # cross term per pair of sizes
    cwe, cwf = ([re + 1j * im for re, im in zip(_pairings(space, wre, g), _pairings(space, wim, g))] for g in (e, f))
    t = e.merged([_dot(c, c) for c in cwe]) + f.merged([_dot(c, c) for c in cwf]) - 2.0 * _cross_sum(
        space, e, f, cwe, cwf)
    nre2 = pairing(space, wre, wre)
    nim2 = pairing(space, wim, wim)
    nw2 = nre2 + nim2
    mixed = pairing(space, wre, wim)
    self_pair = _complex(nre2 - nim2, 2.0 * mixed)
    half_self = 0.5 * _abs(self_pair)
    middle1 = half_self + _abs(t - 0.5 * self_pair)
    middle2 = 0.5 * (nw2 + _abs(self_pair))
    first = stacked_evaluation(nw2, _abs(t), rhs=middle1)
    second = stacked_evaluation(nw2, middle1, rhs=middle2)
    third = stacked_evaluation(nw2, middle2, rhs=nw2)
    return StackedResult((first, second, third))


# the group record --------------------------------------------------------------


def _row(value, i):
    if isinstance(value, ComplexifiedVector):
        return ComplexifiedVector._checked(value.re[i], value.im[i])
    return value[i]


def _rows(value, rows):
    if isinstance(value, FamilyStack):
        return value.take(rows)
    if isinstance(value, ComplexifiedVector):
        return ComplexifiedVector._checked(value.re[rows], value.im[rows])
    return value[rows]


def _joined(a, b):
    if isinstance(a, FamilyStack):  # of one size, as the descent's stacks are
        return FamilyStack(a.space, np.concatenate([a.members, b.members]), np.concatenate([a.sizes, b.sizes]),
                           np.concatenate([a.ok, b.ok]))
    if isinstance(a, ComplexifiedVector):
        return ComplexifiedVector._checked(np.concatenate([a.re, b.re]), np.concatenate([a.im, b.im]))
    return np.concatenate([a, b])


@dataclass(frozen=True, eq=False)
class Group:
    """n instances of one space with each argument as one stack, the
    record a statement reads: a vector argument an (n, d) array, a
    complexified one a ComplexifiedVector of (n, d) real and imaginary
    parts, a family argument a FamilyStack.  `trials` numbers the rows (a
    shard's trial indices), and `live`, when set, marks the rows that
    exist; only those are evaluated.  It is also the sequence of its
    instances: item i is row i's inputs as a dict of views into the stacks,
    or None where row i does not exist."""

    space: SpaceSpec
    trials: np.ndarray
    args: dict
    live: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.trials)

    def __getitem__(self, i):
        if self.live is not None and not self.live[i]:
            return None
        return {k: _row(value, i) for k, value in self.args.items()}

    def take(self, rows) -> "Group":
        """The rows at `rows` (indices or a mask), their stacks copied."""
        return Group(self.space, self.trials[rows], {k: _rows(value, rows) for k, value in self.args.items()},
                     None if self.live is None else self.live[rows])

    def joined(self, other: "Group") -> "Group":
        """This group's rows, then other's (both of one space and entry)."""
        live = None if self.live is None and other.live is None else np.concatenate(
            [np.ones(len(g), dtype=bool) if g.live is None else g.live for g in (self, other)])
        return Group(self.space, np.concatenate([self.trials, other.trials]),
                     {k: _joined(value, other.args[k]) for k, value in self.args.items()}, live)

    @classmethod
    def of(cls, space: SpaceSpec, entry: "CatalogEntry", inputs) -> "Group":
        """The group of a sequence of dicts of inputs, or of one dict as a
        group of one: the adapter from the library's per-instance form."""
        group = [inputs] if isinstance(inputs, dict) else inputs
        args = {k: _families(space, [one[k] for one in group], k) for k in entry.family_args}
        args.update((k, np.array([one[k] for one in group])) for k in entry.vector_args)
        args.update((k, _paired([one[k] for one in group], k)) for k in entry.complexified_args)
        return cls(space, np.arange(len(group)), args)


# registry --------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A statement and the names of its inputs after `space`, in the order
    `run` passes them (`args`): families, vectors, complexified vectors, and
    for a conditional entry its MooreParams (`params` or `default_params`)."""

    name: str
    statement: Callable
    fields: tuple
    vector_args: tuple = ()
    family_args: tuple = ()
    complexified_args: tuple = ()
    default_params: Optional[MooreParams] = None
    args: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "args", self.family_args + self.vector_args + self.complexified_args)

    @property
    def has_premises(self) -> bool:
        return self.default_params is not None

    def run(self, space, inputs, params=None, *, extended: bool = False):
        """Evaluate a group of instances of `space` (a Group, a sequence of
        dicts of inputs, or one dict as a group of one), giving their
        StackedResult in order."""
        if space.field not in self.fields:
            raise DomainError(f"{self.name} is not defined over {space.field.name.lower()} spaces")
        group = inputs if isinstance(inputs, Group) else Group.of(space, self, inputs)
        values = [group.args[arg] for arg in self.args]
        if self.has_premises:
            values.append(params or self.default_params)
        return self.statement(space, *values, extended=extended)


_BOTH = (Field.REAL, Field.COMPLEX)
_REAL = (Field.REAL,)

CATALOG = {
    entry.name: entry
    for entry in (
        CatalogEntry("schwarz", eval_schwarz, _BOTH, ("x", "y")),
        CatalogEntry("precupanu-1.1", eval_precupanu, _REAL, ("a", "b", "x", "y")),
        CatalogEntry("richard-1.3", eval_richard, _REAL, ("a", "b", "x")),
        CatalogEntry("precupanu-self-1.5", eval_precupanu_self, _REAL, ("a", "x", "y")),
        CatalogEntry("angle-1.6", eval_angle_bound, _REAL, ("a", "x", "y")),
        CatalogEntry("moore-1.9", verify_moore, _REAL, ("x", "y", "z"), default_params=MooreParams(eps=0.05)),
        CatalogEntry("precupanu-moore-1.12", verify_precupanu_moore, _REAL, ("a", "b", "x"),
                     default_params=MooreParams(eps1=0.8, eps2=1.0)),
        CatalogEntry("buzano-1.14", eval_buzano, _BOTH, ("a", "b", "x")),
        CatalogEntry("buzano-moore-1.16", verify_buzano_moore, _BOTH, ("x", "a", "b"),
                     default_params=MooreParams(eps=0.1)),
        CatalogEntry("t1.5-i", verify_cosine_transfer, _REAL, ("a", "x", "y"),
                     default_params=MooreParams(delta1=0.7, delta2=0.7)),
        CatalogEntry("t1.5-ii", verify_quotient_transfer, _REAL, ("a", "b", "x"), default_params=MooreParams(mu1=0.6)),
        CatalogEntry("generalized-2.1", eval_generalized, _BOTH, ("x", "y"), family_args=("E", "F")),
        CatalogEntry("chain-2.10", eval_chain, _BOTH, ("x", "y"), family_args=("E", "F")),
        CatalogEntry("real-double-2.14", eval_real_double, _REAL, ("x", "y"), family_args=("E", "F")),
        CatalogEntry("kurepa-3.2", eval_kurepa, _REAL, ("a",), complexified_args=("z",)),
        CatalogEntry("kurepa-refined-3.3", eval_kurepa_refined, _REAL, family_args=("E", "F"),
                     complexified_args=("w",)),
    )
}


def catalog_names():
    return list(CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    """The registry entry of `name`; DomainError for an unknown name."""
    try:
        return CATALOG[name]
    except KeyError:
        raise DomainError(f"unknown inequality {name!r}") from None


def run_catalog(name: str, space: SpaceSpec, inputs, params: Optional[MooreParams] = None, *, extended: bool = False):
    """Evaluate one named inequality on explicit inputs (a group of
    instances, or one as a group of one; see CatalogEntry.run)."""
    return catalog_entry(name).run(space, inputs, params, extended=extended)


def instance_digest(name: str, space: SpaceSpec, inputs: dict) -> str:
    """Digest an instance's vector data in the entry's argument order."""
    entry = catalog_entry(name)
    group = Group.of(space, entry, inputs)
    rows, lengths = _serialized(space, 1, [group.args[arg] for arg in entry.args])
    return format(fnv1a_64(rows[0, : lengths[0]].tobytes()), "016x")


def instance_digests(name: str, groups) -> list:
    """instance_digest of every row of each Group of `groups`, in group and
    row order: each group is serialized into one uint8 matrix, and every
    row of every matrix is hashed in one pass."""
    entry = catalog_entry(name)
    blocks = [_serialized(group.space, len(group), [group.args[arg] for arg in entry.args])
              for group in groups if len(group)]
    return [format(h, "016x") for h in fnv1a_64_rows([rows for rows, _ in blocks], [n for _, n in blocks])]
