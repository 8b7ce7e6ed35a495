"""Equality-condition solvers and constructive equality-instance generators.

Each catalog statement that admits a clean attainment characterization reduces
to a linear-dependence question over the space:

* reflection-ratio: equality in the two-family projection bound holds exactly
  when the reflection of x through span(E) is a scalar multiple of the
  reflection of y through span(F).
* projection-pair: the two-sided mixed projection bound is tight when the
  displaced projections p and q of a and b along x and y are dependent.
* projection-line: the single-direction product bound is tight when the
  doubled projection residue r of a along x is dependent with b.

Solving over floats means the characterizations become thresholded tests.
The two projection kinds decide on the normalized Gram determinant of their
vector pair alone (DEPENDENCE_TOL), which is invariant under rescaling either
vector; a residual against the larger norm is not, and certifies independent
pairs once their norms differ by many orders of magnitude.  The
reflection-ratio kind compares the residual of u - lam v against the witness
scale (ATTAINMENT_REL).  Both separate constructed instances from generic
ones by several orders of magnitude.

The builder registry at the bottom produces concrete equality-attaining
instances per inequality, together with the certificate recovered from them
and the expected scalar, so round-trip checks can run from the command line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .catalog import (
    StackedEvaluation,
    catalog_entry,
    eval_buzano,
    eval_generalized,
    eval_kurepa,
    eval_richard,
    eval_schwarz,
)
from .orthonormal import OrthonormalFamily, gram_schmidt, reflection
from .spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    as_vector,
    complexified_space,
    inner,
    norm,
    require_nonzero,
)

DEPENDENCE_TOL = 1e-12
ATTAINMENT_REL = 1e-9
DEGENERATE_REL = 1e-13
RATIO_TOL = 1e-8


class EqualityKind(enum.Enum):
    PROJECTION_PAIR = "projection-pair"
    PROJECTION_LINE = "projection-line"
    REFLECTION_RATIO = "reflection-ratio"


@dataclass(frozen=True)
class EqualityCertificate:
    """Outcome of one dependence test.

    `coefficients` holds (lam,) for reflection-ratio certificates and
    (lam, mu) for the two projection kinds; `residual` is in vector-norm
    units.  For reflection-ratio certificates `attained` compares the
    residual against ATTAINMENT_REL times `scale`; for the projection kinds
    it holds when the normalized Gram determinant of the pair is at most
    DEPENDENCE_TOL (or one vector is negligible against its reference norm),
    whatever the two scales.
    """

    kind: EqualityKind
    coefficients: tuple
    residual: float
    attained: bool
    scale: float


def solve_reflection_ratio(space: SpaceSpec, E, F, x, y) -> EqualityCertificate:
    """Test reflection(E, x) = lam * reflection(F, y) and recover lam."""
    xx = require_nonzero(space, x, "x")
    yy = require_nonzero(space, y, "y")
    u = reflection(E, xx)
    # a reflection is an isometry, so v is as far from zero as y
    v = reflection(F, yy)
    nv2 = inner(space, v, v)
    nv2 = nv2.real if space.field is Field.COMPLEX else nv2
    lam = inner(space, u, v) / nv2
    residual = norm(space, u - lam * v)
    scale = max(norm(space, u), abs(lam) * norm(space, v))
    attained = residual <= ATTAINMENT_REL * scale
    if space.field is Field.REAL:
        lam = float(lam)
    return EqualityCertificate(
        EqualityKind.REFLECTION_RATIO, (lam,), float(residual), bool(attained), float(scale)
    )


def _dependence_certificate(space, kind, first, second, ref_first, ref_second, flip_second):
    """Shared 2-vector dependence test with degenerate handling.

    Finds unit (c1, c2) minimizing ||c1*first + c2*second||; reports
    coefficients (c1, c2) or (c1, -c2) when flip_second is set, so callers
    can state the condition in the form c1*first = mu*second.
    """
    n1 = norm(space, first)
    n2 = norm(space, second)
    scale = max(n1, n2)
    if n1 <= DEGENERATE_REL * max(ref_first, 1e-300):
        return EqualityCertificate(kind, (1.0, 0.0), float(n1), True, float(scale))
    if n2 <= DEGENERATE_REL * max(ref_second, 1e-300):
        return EqualityCertificate(kind, (0.0, 1.0), float(n2), True, float(scale))
    g00 = inner(space, first, first)
    g11 = inner(space, second, second)
    g01 = inner(space, first, second)
    gram = np.array([[g00, g01], [g01, g11]])
    eigvals, eigvecs = np.linalg.eigh(gram)
    smallest = max(float(eigvals[0]), 0.0)
    residual = float(np.sqrt(smallest))
    det_norm = (g00 * g11 - g01 * g01) / (g00 * g11)
    attained = det_norm <= DEPENDENCE_TOL
    c1, c2 = float(eigvecs[0, 0]), float(eigvecs[1, 0])
    coeffs = (c1, -c2) if flip_second else (c1, c2)
    return EqualityCertificate(kind, coeffs, residual, bool(attained), float(scale))


def solve_projection_pair(space: SpaceSpec, a, b, x, y) -> EqualityCertificate:
    """Attainment test for the two-sided mixed projection bound.

    Equality needs lam * p + mu * q = 0 for some (lam, mu) not both zero,
    with p = <x,a> x / ||x||^2 - a/2 and q = <y,b> y / ||y||^2 - b/2.
    """
    if space.field is not Field.REAL:
        raise DomainError("projection-pair certificates are defined over real spaces")
    aa = as_vector(space, a)
    bb = as_vector(space, b)
    xx = require_nonzero(space, x, "x")
    yy = require_nonzero(space, y, "y")
    p = inner(space, xx, aa) / inner(space, xx, xx) * xx - aa / 2.0
    q = inner(space, yy, bb) / inner(space, yy, yy) * yy - bb / 2.0
    return _dependence_certificate(
        space, EqualityKind.PROJECTION_PAIR, p, q, norm(space, aa), norm(space, bb), False
    )


def solve_projection_line(space: SpaceSpec, a, b, x) -> EqualityCertificate:
    """Attainment test for the single-direction product bound.

    Equality needs lam * r = mu * b with r = 2 <x,a> x / ||x||^2 - a; the
    reported coefficients are (lam, mu) in exactly that orientation.
    """
    if space.field is not Field.REAL:
        raise DomainError("projection-line certificates are defined over real spaces")
    aa = as_vector(space, a)
    bb = as_vector(space, b)
    xx = require_nonzero(space, x, "x")
    r = 2.0 * inner(space, xx, aa) / inner(space, xx, xx) * xx - aa
    return _dependence_certificate(
        space, EqualityKind.PROJECTION_LINE, r, bb, norm(space, aa), norm(space, bb), True
    )


def construct_equality_instance(space: SpaceSpec, E, F, lam, y) -> np.ndarray:
    """Build x so that (x, y) attains the two-family projection bound.

    x = reflection(E, lam * reflection(F, y)).  Reflections are isometric
    involutions, so the reflection of x through span(E) is exactly lam times
    the reflection of y through span(F).  lam = 0 produces the zero vector,
    which downstream evaluation rejects; callers treat it as degenerate.
    """
    yy = require_nonzero(space, y, "y")
    if space.field is Field.REAL and isinstance(lam, complex):
        raise DomainError("complex ratio in a real space")
    return reflection(E, lam * reflection(F, yy))


# builders ---------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltEquality:
    """One constructed equality instance plus its recovered certificate."""

    ineq: str
    certificate: EqualityCertificate
    expected_ratio: complex
    recovered_ratio: Optional[complex]
    evaluation: StackedEvaluation  # the binding link, a group of one

    @property
    def ratio_ok(self) -> bool:
        if self.recovered_ratio is None:
            return False
        return abs(self.recovered_ratio - self.expected_ratio) <= RATIO_TOL * (
            1.0 + abs(self.expected_ratio)
        )

    @property
    def ok(self) -> bool:
        return self.certificate.attained and bool(self.evaluation.near_equality[0]) and self.ratio_ok


def _unit(space, rng):
    for _ in range(64):
        v = rng.standard_normal(space.dim)
        if space.field is Field.COMPLEX:
            v = v + 1j * rng.standard_normal(space.dim)
        n = norm(space, v)
        if n > 1e-6:
            return v / n
    raise RuntimeError("failed to sample a unit vector")


def _nonzero(space, rng):
    return _unit(space, rng) * float(10.0 ** rng.uniform(-1.0, 1.0))


def _ratio(space, rng) -> complex:
    mag = float(rng.uniform(0.25, 2.0))
    if space.field is Field.COMPLEX:
        return mag * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return mag if rng.uniform() < 0.5 else -mag


def _random_family(space, rng, max_size):
    size = int(rng.integers(0, max_size + 1))
    if size == 0:
        return OrthonormalFamily(space, np.zeros((0, space.dim), dtype=space.field.dtype))
    for _ in range(16):
        rows = [rng.standard_normal(space.dim) for _ in range(size)]
        if space.field is Field.COMPLEX:
            rows = [r + 1j * rng.standard_normal(space.dim) for r in rows]
        try:
            return gram_schmidt(space, np.array(rows))
        except DomainError:
            continue
    raise RuntimeError("failed to sample an orthonormal family")


def _empty_family(space):
    return OrthonormalFamily(space, np.zeros((0, space.dim), dtype=space.field.dtype))


def build_generalized(space: SpaceSpec, rng) -> BuiltEquality:
    max_size = min(space.dim, 2)
    E = _random_family(space, rng, max_size)
    F = _random_family(space, rng, max_size)
    lam = _ratio(space, rng)
    y = _nonzero(space, rng)
    x = construct_equality_instance(space, E, F, lam, y)
    cert = solve_reflection_ratio(space, E, F, x, y)
    recovered = cert.coefficients[0]
    ev = eval_generalized(space, [E], [F], [x], [y]).binding
    return BuiltEquality("generalized-2.1", cert, lam, recovered, ev)


def build_schwarz(space: SpaceSpec, rng) -> BuiltEquality:
    lam = _ratio(space, rng)
    y = _nonzero(space, rng)
    x = lam * y
    cert = solve_reflection_ratio(space, _empty_family(space), _empty_family(space), x, y)
    recovered = cert.coefficients[0]
    ev = eval_schwarz(space, [x], [y]).binding
    return BuiltEquality("schwarz", cert, lam, recovered, ev)


def build_richard(space: SpaceSpec, rng) -> BuiltEquality:
    if space.field is not Field.REAL:
        raise DomainError("this construction needs a real space")
    a = _nonzero(space, rng)
    ah = a / norm(space, a)
    for _ in range(64):
        b = _nonzero(space, rng)
        bh = b / norm(space, b)
        if norm(space, ah + bh) > 1e-6:
            break
    else:
        raise RuntimeError("failed to sample a non-antipodal direction pair")
    x = float(10.0 ** rng.uniform(-1.0, 1.0)) * (ah + bh)
    cert = solve_projection_line(space, a, b, x)
    kappa = norm(space, a) / norm(space, b)
    lam_c, mu_c = cert.coefficients
    recovered = mu_c / lam_c if abs(lam_c) > 1e-13 else None
    ev = eval_richard(space, [a], [b], [x]).binding
    return BuiltEquality("richard-1.3", cert, kappa, recovered, ev)


def build_buzano(space: SpaceSpec, rng) -> BuiltEquality:
    a = _nonzero(space, rng)
    na = norm(space, a)
    for _ in range(64):
        b = _nonzero(space, rng)
        nb = norm(space, b)
        ab = inner(space, a, b)
        phase = 1.0 if abs(ab) < 1e-12 * na * nb else ab / abs(ab)
        direction = a / na + phase * b / nb
        if norm(space, direction) > 1e-6:
            break
    else:
        raise RuntimeError("failed to sample a usable direction")
    x = float(10.0 ** rng.uniform(-1.0, 1.0)) * direction
    xhat = OrthonormalFamily(space, (x / norm(space, x))[np.newaxis, :])
    cert = solve_reflection_ratio(space, xhat, _empty_family(space), a, b)
    expected = -phase * na / nb
    recovered = cert.coefficients[0]
    ev = eval_buzano(space, [a], [b], [x]).binding
    return BuiltEquality("buzano-1.14", cert, expected, recovered, ev)


def build_kurepa(space: SpaceSpec, rng) -> BuiltEquality:
    """Dimension-one instances, where both links of the cap are identities."""
    if space.field is not Field.REAL or space.dim != 1:
        raise DomainError("this construction needs a one-dimensional real space")
    a = np.array([float(rng.uniform(0.25, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)])
    for _ in range(64):
        re, im = rng.standard_normal(2)
        if re * re + im * im > 1e-12:
            break
    z = ComplexifiedVector(np.array([re]), np.array([im]))
    cspace = complexified_space(space)
    lift = (a / norm(space, a)).astype(np.complex128)
    family = OrthonormalFamily(cspace, lift[np.newaxis, :])
    w = np.array([complex(re, im)])
    wbar = np.conj(w)
    cert = solve_reflection_ratio(cspace, family, _empty_family(cspace), w, wbar)
    omega = complex(re, im)
    expected = -omega * omega / abs(omega) ** 2
    recovered = cert.coefficients[0]
    ev = eval_kurepa(space, [a], [z]).binding
    return BuiltEquality("kurepa-3.2", cert, expected, recovered, ev)


EQUALITY_BUILDERS: dict = {
    "generalized-2.1": build_generalized,
    "schwarz": build_schwarz,
    "richard-1.3": build_richard,
    "buzano-1.14": build_buzano,
    "kurepa-3.2": build_kurepa,
}


def builder_space(name: str, dim: int, field: Field) -> SpaceSpec:
    """The space a builder runs in, honoring its field and dimension needs."""
    if name not in EQUALITY_BUILDERS:
        raise DomainError(f"no equality builder for {name!r}")
    if name == "kurepa-3.2":
        return SpaceSpec(1, Field.REAL)
    return SpaceSpec(dim, field if field in catalog_entry(name).fields else Field.REAL)
