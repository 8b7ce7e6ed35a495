"""Evaluation records and closed forms for the inequality catalog.

Every statement returns one CatalogResult: a tuple of IneqEvaluation links
and a premises flag.  Each link follows a uniform margin convention:

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
statements (the Moore style results) take a MooreParams after their vectors
and set `premises_hold`, which is None for the others; their conclusion is
always evaluated so that vacuous instances remain inspectable.

The registry `CATALOG` maps each name to a CatalogEntry, which calls the
statement function itself with the inputs in one argument order.

Each statement validates each argument once on entry (`_vec`,
`_family_members`, `_complexified_parts`), casting it there to the field's
extended dtype when called with `extended=True`.  From then on it pairs
through the unvalidated `spaces.pairing` and `spaces.pairing_norm`, which
compute in the dtype of their operands.

Instances are fingerprinted with a 64-bit FNV-1a digest over a canonical byte
serialization: field tag, dimension, then every argument in the registry's
order as big-endian float64 coordinate payloads (families get a length
prefix, complexified vectors serialize re then im).  Scalar parameters and
the gram matrix are deliberately not digested; they are part of the run
configuration, not of the sampled instance.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .orthonormal import OrthonormalFamily
from .spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    as_vector,
    pairing,
    pairing_norm,
    require_nonzero,
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


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _coord_bytes(arr: np.ndarray) -> bytes:
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return a.astype(">c16").tobytes()
    return a.astype(">f8").tobytes()


def digest_inputs(space: SpaceSpec, *parts) -> str:
    """Canonical 16-hex-digit fingerprint of an instance's vector data."""
    chunks = [b"R" if space.field is Field.REAL else b"C", struct.pack(">Q", space.dim)]
    for part in parts:
        if isinstance(part, OrthonormalFamily):
            chunks.append(struct.pack(">Q", part.size))
            chunks.append(_coord_bytes(part.members))
        elif isinstance(part, ComplexifiedVector):
            chunks.append(_coord_bytes(part.re))
            chunks.append(_coord_bytes(part.im))
        else:
            chunks.append(_coord_bytes(part))
    return format(fnv1a_64(b"".join(chunks)), "016x")


# records ---------------------------------------------------------------------


@dataclass(frozen=True)
class IneqEvaluation:
    """One evaluated inequality link; see the module docstring for shapes."""

    ineq: str
    lhs: float
    center: Optional[float]
    rhs: Optional[float]
    margin_lower: Optional[float]
    margin_upper: Optional[float]
    holds: bool
    near_equality: bool
    scale: float

    @property
    def min_margin(self) -> float:
        margins = [m for m in (self.margin_lower, self.margin_upper) if m is not None]
        return min(margins)

    @property
    def normalized_margin(self) -> float:
        """min_margin in units of scale (a zero scale counts as 1e-300)."""
        return self.min_margin / max(self.scale, 1e-300)


def make_evaluation(ineq: str, scale, lhs, center=None, rhs=None) -> IneqEvaluation:
    """Assemble a record, computing margins in the dtype of the inputs."""
    margin_lower = None if center is None else center - lhs
    if rhs is None:
        margin_upper = None
    else:
        margin_upper = rhs - lhs if center is None else rhs - center
    if margin_lower is None and margin_upper is None:
        raise DomainError("an evaluation needs at least one margin")
    margins = [m for m in (margin_lower, margin_upper) if m is not None]
    tol = TOL_ABS + TOL_REL * scale
    holds = bool(all(m >= -tol for m in margins))
    near = bool(min(margins) <= NEAR_EQUALITY_REL * scale)
    return IneqEvaluation(
        ineq=ineq,
        lhs=float(lhs),
        center=None if center is None else float(center),
        rhs=None if rhs is None else float(rhs),
        margin_lower=None if margin_lower is None else float(margin_lower),
        margin_upper=None if margin_upper is None else float(margin_upper),
        holds=holds,
        near_equality=near,
        scale=float(scale),
    )


@dataclass(frozen=True)
class CatalogResult:
    """The links of one evaluated statement and, for conditional statements,
    whether the premises hold (None otherwise)."""

    links: tuple
    premises_hold: Optional[bool] = None

    @property
    def binding(self) -> IneqEvaluation:
        """The link with the smallest scale-normalized margin; the first on ties."""
        return min(self.links, key=lambda ev: ev.normalized_margin)


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
    arr = require_nonzero(space, v, name) if nonzero else as_vector(space, v)
    if extended:
        arr = arr.astype(space.field.extended_dtype)
    return arr


def _family_members(space: SpaceSpec, family, name: str, extended: bool) -> np.ndarray:
    if not isinstance(family, OrthonormalFamily):
        raise DomainError(f"{name} must be an OrthonormalFamily")
    fs = family.space
    if fs.dim != space.dim or fs.field is not space.field:
        raise DomainError(f"family {name} belongs to a different space")
    same_gram = (fs.gram is None and space.gram is None) or (
        fs.gram is not None and space.gram is not None and np.array_equal(fs.gram, space.gram)
    )
    if not same_gram:
        raise DomainError(f"family {name} carries a different gram weighting")
    members = family.members
    if extended:
        members = members.astype(space.field.extended_dtype)
    return members


def _pairings(space, x, members):
    """<x, e_i> for every family member, as a 1-d array."""
    gx = x if space.gram is None else x @ space.gram
    return members.conj() @ gx


def _pairings_right(space, members, y):
    """<e_i, y> for every family member."""
    gy = np.conj(y) if space.gram is None else space.gram @ np.conj(y)
    return members @ gy


def _cross_matrix(space, members_e, members_f):
    """<e_i, f_j> as a (len(E), len(F)) matrix."""
    mf = np.conj(members_f.T) if space.gram is None else space.gram @ np.conj(members_f.T)
    return members_e @ mf


def _complexified_parts(space, z, name, extended):
    if not isinstance(z, ComplexifiedVector):
        raise DomainError(f"{name} must be a ComplexifiedVector")
    re = _vec(space, z.re, f"{name}.re", nonzero=False, extended=extended)
    im = _vec(space, z.im, f"{name}.im", nonzero=False, extended=extended)
    return re, im


# elementary statements -------------------------------------------------------


def eval_schwarz(space: SpaceSpec, x, y, *, extended: bool = False) -> CatalogResult:
    """|<x,y>| against ||x|| ||y||; zero vectors are allowed."""
    xx = _vec(space, x, "x", nonzero=False, extended=extended)
    yy = _vec(space, y, "y", nonzero=False, extended=extended)
    lhs = abs(pairing(space, xx, yy))
    rhs = pairing_norm(space, xx) * pairing_norm(space, yy)
    return CatalogResult((make_evaluation("schwarz", rhs, lhs, rhs=rhs),))


def eval_precupanu(space: SpaceSpec, a, b, x, y, *, extended: bool = False) -> CatalogResult:
    """Two-sided bound on the mixed projection sum of a and b onto x and y."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    bb = _vec(space, b, "b", nonzero=False, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx)
    ny2 = pairing(space, yy, yy)
    xa = pairing(space, xx, aa)
    xb = pairing(space, xx, bb)
    ya = pairing(space, yy, aa)
    yb = pairing(space, yy, bb)
    xy = pairing(space, xx, yy)
    center = xa * xb / nx2 + ya * yb / ny2 - 2 * xa * yb * xy / (nx2 * ny2)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    ab = pairing(space, aa, bb)
    lhs = (ab - na * nb) / 2
    rhs = (ab + na * nb) / 2
    return CatalogResult((make_evaluation("precupanu-1.1", na * nb, lhs, center=center, rhs=rhs),))


def eval_richard(space: SpaceSpec, a, b, x, *, extended: bool = False) -> CatalogResult:
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
    return CatalogResult((make_evaluation("richard-1.3", na * nb * nx2, lhs, center=center, rhs=rhs),))


def eval_precupanu_self(space: SpaceSpec, a, x, y, *, extended: bool = False) -> CatalogResult:
    """Nonnegative quadratic form of a against the (x, y) pair, capped by ||a||^2."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx)
    ny2 = pairing(space, yy, yy)
    xa = pairing(space, xx, aa)
    ya = pairing(space, yy, aa)
    xy = pairing(space, xx, yy)
    center = xa * xa / nx2 + ya * ya / ny2 - 2 * xa * ya * xy / (nx2 * ny2)
    na2 = pairing(space, aa, aa)
    zero = type(center)(0.0) if not isinstance(center, float) else 0.0
    return CatalogResult((make_evaluation("precupanu-self-1.5", na2, zero, center=center, rhs=na2),))


def eval_angle_bound(space: SpaceSpec, a, x, y, *, extended: bool = False) -> CatalogResult:
    """Lower bound on cos(x, y) from the cosines of x and y against a."""
    _require_field(space, (Field.REAL,), "this statement")
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    na = pairing_norm(space, aa)
    nx = pairing_norm(space, xx)
    ny = pairing_norm(space, yy)
    ca = pairing(space, xx, aa) / (nx * na)
    cb = pairing(space, yy, aa) / (ny * na)
    lhs = (ca + cb) ** 2 / 2 - 1.5
    center = pairing(space, xx, yy) / (nx * ny)
    return CatalogResult((make_evaluation("angle-1.6", 1.0, lhs, center=center),))


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


def verify_moore(space: SpaceSpec, x, y, z, params: MooreParams, *, extended: bool = False) -> CatalogResult:
    """If y and z are both eps-parallel to x, bound |<y,z>| from below."""
    eps = params.eps
    if eps is None or eps < 0:
        raise DomainError("eps must be nonnegative")
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    zz = _vec(space, z, "z", nonzero=True, extended=extended)
    nx = pairing_norm(space, xx)
    ny = pairing_norm(space, yy)
    nz = pairing_norm(space, zz)
    need = 1.0 - eps
    slack_y = PREMISE_SLACK * nx * ny
    slack_z = PREMISE_SLACK * nx * nz
    premises = bool(
        abs(pairing(space, xx, yy)) >= need * nx * ny - slack_y
        and abs(pairing(space, xx, zz)) >= need * nx * nz - slack_z
    )
    coeff = moore_coefficient(eps)
    scale = ny * nz
    center = abs(pairing(space, yy, zz))
    conclusion = make_evaluation("moore-1.9", scale, coeff * scale, center=center)
    return CatalogResult((conclusion,), premises)


def precupanu_moore_bounds(eps1: float):
    """Two-sided coefficients 2 eps1^2 -+ 1 for the signed-window transfer."""
    if eps1 <= 0:
        raise DomainError("eps1 must be positive")
    return 2.0 * eps1 * eps1 - 1.0, 2.0 * eps1 * eps1 + 1.0


def verify_precupanu_moore(
    space: SpaceSpec, a, b, x, params: MooreParams, *, extended: bool = False
) -> CatalogResult:
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
    premises = bool(
        eps1 - PREMISE_SLACK <= ca <= eps2 + PREMISE_SLACK and eps1 - PREMISE_SLACK <= cb <= eps2 + PREMISE_SLACK
    )
    lo, hi = precupanu_moore_bounds(eps1)
    ab = pairing(space, aa, bb)
    scale = na * nb
    conclusion = make_evaluation("precupanu-moore-1.12", scale, lo * scale, center=ab, rhs=hi * scale)
    refinement = make_evaluation("precupanu-moore-1.12", scale, -scale, center=lo * scale, rhs=ab)
    return CatalogResult((conclusion, refinement), premises)


def eval_buzano(space: SpaceSpec, a, b, x, *, extended: bool = False) -> CatalogResult:
    """Modulus bound on <x,a><x,b> along x; valid in both fields."""
    aa = _vec(space, a, "a", nonzero=False, extended=extended)
    bb = _vec(space, b, "b", nonzero=False, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    nx2 = pairing(space, xx, xx).real
    lhs = abs(pairing(space, xx, aa) * pairing(space, xx, bb))
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    rhs = (na * nb + abs(pairing(space, aa, bb))) / 2 * nx2
    return CatalogResult((make_evaluation("buzano-1.14", na * nb * nx2, lhs, rhs=rhs),))


def verify_buzano_moore(space: SpaceSpec, x, a, b, params: MooreParams, *, extended: bool = False) -> CatalogResult:
    """Modulus near-parallelism to x transfers to a lower bound on |<a,b>|."""
    eps = params.eps
    if eps is None or not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    bb = _vec(space, b, "b", nonzero=True, extended=extended)
    nx = pairing_norm(space, xx)
    na = pairing_norm(space, aa)
    nb = pairing_norm(space, bb)
    need = 1.0 - eps
    premises = bool(
        abs(pairing(space, xx, aa)) >= need * nx * na - PREMISE_SLACK * nx * na
        and abs(pairing(space, xx, bb)) >= need * nx * nb - PREMISE_SLACK * nx * nb
    )
    coeff = 1.0 - 4.0 * eps + 2.0 * eps * eps
    scale = na * nb
    conclusion = make_evaluation("buzano-moore-1.16", scale, coeff * scale, center=abs(pairing(space, aa, bb)))
    return CatalogResult((conclusion,), premises)


def verify_cosine_transfer(space: SpaceSpec, a, x, y, params: MooreParams, *, extended: bool = False) -> CatalogResult:
    """Cosine floors of x and y against a transfer to a cosine floor of (x, y)."""
    _require_field(space, (Field.REAL,), "this statement")
    delta1, delta2 = params.delta1, params.delta2
    if delta1 is None or delta2 is None or not (0 < delta1 <= 1 and 0 < delta2 <= 1):
        raise DomainError("delta1 and delta2 must lie in (0, 1]")
    if delta1 + delta2 < 1:
        raise DomainError("need delta1 + delta2 >= 1")
    aa = _vec(space, a, "a", nonzero=True, extended=extended)
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    na = pairing_norm(space, aa)
    nx = pairing_norm(space, xx)
    ny = pairing_norm(space, yy)
    cxa = pairing(space, xx, aa) / (nx * na)
    cya = pairing(space, yy, aa) / (ny * na)
    premises = bool(cxa >= delta1 - PREMISE_SLACK and cya >= delta2 - PREMISE_SLACK)
    bound = (delta1 + delta2) ** 2 / 2 - 1.5
    center = pairing(space, xx, yy) / (nx * ny)
    conclusion = make_evaluation("t1.5-i", 1.0, bound, center=center)
    return CatalogResult((conclusion,), premises)


def verify_quotient_transfer(
    space: SpaceSpec, a, b, x, params: MooreParams, *, extended: bool = False
) -> CatalogResult:
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
        premises = bool(quotient >= mu1 * na * nb - slack)
        conclusion = make_evaluation("t1.5-ii", 1.0, 2.0 * mu1 - 1.0, center=cos_ab)
    else:
        premises = bool(quotient <= mu2 * na * nb + slack)
        conclusion = make_evaluation("t1.5-ii", 1.0, cos_ab, rhs=2.0 * mu2 + 1.0)
    return CatalogResult((conclusion,), premises)


# orthonormal-family statements -----------------------------------------------


def _family_core(space, E, F, x, y, extended):
    """Shared sums for the two-family statements.

    Returns (S, <x,y>, ||x||, ||y||, pieces) where S is the bilinear family
    sum and pieces holds the member pairings for reflection reuse.
    """
    me = _family_members(space, E, "E", extended)
    mf = _family_members(space, F, "F", extended)
    ce = _pairings(space, x, me)
    cf = _pairings(space, x, mf)
    cey = _pairings_right(space, me, y)
    cfy = _pairings_right(space, mf, y)
    cross = _cross_matrix(space, me, mf)
    s = ce @ cey + cf @ cfy - 2.0 * (ce @ cross @ cfy)
    xy = pairing(space, x, y)
    nx = pairing_norm(space, x)
    ny = pairing_norm(space, y)
    return s, xy, nx, ny, (me, mf, ce, cfy)


def eval_generalized(space: SpaceSpec, E, F, x, y, *, extended: bool = False) -> CatalogResult:
    """Two-family projection sum bound, cross-checked through reflections.

    The direct summation |S - <x,y>/2| and the reflection route
    |<R_E x, R_F y>|/2 are evaluated on every call and must agree to
    ROUTE_AGREEMENT_REL relative to the instance scale; disagreement means a
    coding fault, not a counterexample, and raises immediately.
    """
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    s, xy, nx, ny, (me, mf, ce, cfy) = _family_core(space, E, F, xx, yy, extended)
    direct = abs(s - 0.5 * xy)
    u = 2.0 * (ce @ me) - xx
    v = 2.0 * (np.conj(cfy) @ mf) - yy
    # u and v are derived rather than validated arguments: check them here,
    # in their own dtype, and pair them at the precision of the direct route
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("reflected vectors have non-finite coordinates")
    other = 0.5 * abs(pairing(space, u, v))
    tol = ROUTE_AGREEMENT_REL * max(float(direct), float(other), float(nx * ny))
    if abs(float(direct) - float(other)) > tol:
        raise ArithmeticError(
            f"projection-sum routes disagree: {float(direct)!r} vs {float(other)!r}"
        )
    return CatalogResult((make_evaluation("generalized-2.1", nx * ny, direct, rhs=0.5 * nx * ny),))


def eval_chain(space: SpaceSpec, E, F, x, y, *, extended: bool = False) -> CatalogResult:
    """Two chained caps on |S| through the signed half-pairing midpoint."""
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    s, xy, nx, ny, _ = _family_core(space, E, F, xx, yy, extended)
    middle = 0.5 * abs(xy) + abs(s - 0.5 * xy)
    scale = nx * ny
    first = make_evaluation("chain-2.10", scale, abs(s), rhs=middle)
    second = make_evaluation("chain-2.10", scale, middle, rhs=0.5 * (abs(xy) + scale))
    return CatalogResult((first, second))


def eval_real_double(space: SpaceSpec, E, F, x, y, *, extended: bool = False) -> CatalogResult:
    """Signed two-sided window for the real two-family sum."""
    _require_field(space, (Field.REAL,), "this statement")
    xx = _vec(space, x, "x", nonzero=True, extended=extended)
    yy = _vec(space, y, "y", nonzero=True, extended=extended)
    s, xy, nx, ny, _ = _family_core(space, E, F, xx, yy, extended)
    lhs = 0.5 * (xy - nx * ny)
    rhs = 0.5 * (xy + nx * ny)
    return CatalogResult((make_evaluation("real-double-2.14", nx * ny, lhs, center=s, rhs=rhs),))


# complexified statements -----------------------------------------------------


def eval_kurepa(space: SpaceSpec, a, z, *, extended: bool = False) -> CatalogResult:
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
    self_pair = np.sqrt((nre2 - nim2) ** 2 + (2.0 * mixed) ** 2)
    middle = 0.5 * na2 * (nz2 + self_pair)
    scale = na2 * nz2
    first = make_evaluation("kurepa-3.2", scale, lhs, rhs=middle)
    second = make_evaluation("kurepa-3.2", scale, middle, rhs=na2 * nz2)
    return CatalogResult((first, second))


def eval_kurepa_refined(space: SpaceSpec, E, F, w, *, extended: bool = False) -> CatalogResult:
    """Three chained caps for the squared family pairings of a complexified w."""
    _require_field(space, (Field.REAL,), "this statement")
    wre, wim = _complexified_parts(space, w, "w", extended)
    me = _family_members(space, E, "E", extended)
    mf = _family_members(space, F, "F", extended)
    cwe = _pairings(space, wre, me) + 1j * _pairings(space, wim, me)
    cwf = _pairings(space, wre, mf) + 1j * _pairings(space, wim, mf)
    cross = _cross_matrix(space, me, mf)
    t = cwe @ cwe + cwf @ cwf - 2.0 * (cwe @ cross @ cwf)
    nre2 = pairing(space, wre, wre)
    nim2 = pairing(space, wim, wim)
    nw2 = nre2 + nim2
    mixed = pairing(space, wre, wim)
    self_pair = (nre2 - nim2) + 1j * (2.0 * mixed)
    half_self = 0.5 * abs(self_pair)
    middle1 = half_self + abs(t - 0.5 * self_pair)
    middle2 = 0.5 * (nw2 + abs(self_pair))
    first = make_evaluation("kurepa-refined-3.3", nw2, abs(t), rhs=middle1)
    second = make_evaluation("kurepa-refined-3.3", nw2, middle1, rhs=middle2)
    third = make_evaluation("kurepa-refined-3.3", nw2, middle2, rhs=nw2)
    return CatalogResult((first, second, third))


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

    def run(self, space, inputs, params=None, *, extended: bool = False) -> CatalogResult:
        if space.field not in self.fields:
            raise DomainError(f"{self.name} is not defined over {space.field.name.lower()} spaces")
        values = [inputs[arg] for arg in self.args]
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


def run_catalog(name: str, space: SpaceSpec, inputs: dict, params: Optional[MooreParams] = None, *, extended: bool = False) -> CatalogResult:
    """Evaluate one named inequality on explicit inputs."""
    return catalog_entry(name).run(space, inputs, params, extended=extended)


def instance_digest(name: str, space: SpaceSpec, inputs: dict) -> str:
    """Digest an instance's vector data in the entry's argument order."""
    entry = catalog_entry(name)
    parts = [np.asarray(inputs[arg], dtype=space.field.dtype) if arg in entry.vector_args else inputs[arg]
             for arg in entry.args]
    return digest_inputs(space, *parts)
