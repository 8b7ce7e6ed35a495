"""Gram-weighted inner-product spaces over the reals or complexes.

The pairing is linear in its first argument and conjugate-linear in the
second: inner(u, v) = u^T G conj(v) with G Hermitian positive definite
(identity when no gram is given).  A real space can be complexified: pairs
(re, im) carry the product

    <(x, y), (x', y')> = <x, x'> + <y, y'> + i(<x', y> - <x, y'>),

which coincides with the plain complex space on coordinates re + i*im and
the same gram.  Precision follows the operands' dtype: float64/complex128
coordinates pair in double precision, long double ones (x86 80-bit) in
extended precision, which serves as an independent numerical oracle.  The
gram stays double and numpy promotes it exactly.

Validation happens once, at the boundary.  The public `as_vector`, `inner`,
`norm` and `require_nonzero` check their arguments (complex data in a real
space, length, finiteness) on every call.  `pairing` and `pairing_norm` are
the same arithmetic without the checks, for arrays that already passed
`as_vector`; both also take (n, d) stacks, row by row, with the same
rounding as n separate calls.  The catalog's statement kernels validate
each argument once on entry and then pair through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Vectors shorter than ZERO_NORM_FACTOR * sqrt(dim) count as zero and are
# rejected wherever an operation needs a nonzero input.
ZERO_NORM_FACTOR = 1e-13
HERMITIAN_TOL = 1e-12


class DomainError(ValueError):
    """An input is outside an operation's domain."""


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        return np.float64 if self is Field.REAL else np.complex128

    @property
    def extended_dtype(self):
        return np.longdouble if self is Field.REAL else np.clongdouble


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """A finite-dimensional space with an optional gram weighting.

    gram=None means the identity weighting.  A given gram must be Hermitian
    within HERMITIAN_TOL (relative to its magnitude) and positive definite;
    definiteness is established by an actual Cholesky factorization, whose
    factor is kept for whitened sampling.
    """

    dim: int
    field: Field = Field.REAL
    gram: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim!r}")
        if self.gram is None:
            object.__setattr__(self, "chol", None)
            return
        g = np.asarray(self.gram)
        if g.shape != (self.dim, self.dim):
            raise DomainError(f"gram must be {self.dim}x{self.dim}, got {g.shape}")
        if self.field is Field.REAL and np.iscomplexobj(g):
            raise DomainError("complex gram on a real space")
        g = g.astype(self.field.dtype, copy=True)
        if not np.isfinite(g).all():
            raise DomainError("gram has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(g))))
        if np.max(np.abs(g - g.conj().T)) > HERMITIAN_TOL * scale:
            raise DomainError("gram is not Hermitian within tolerance")
        self._factored(g)

    def _factored(self, g: np.ndarray) -> "SpaceSpec":
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise DomainError("gram is not positive definite") from None
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "chol", chol)
        return self

    @classmethod
    def _hermitian(cls, dim: int, field: Field, gram: np.ndarray) -> "SpaceSpec":
        """The space of a gram made (dim, dim), finite, exactly Hermitian and of
        the field's dtype by its construction, without __post_init__'s checks
        of these; the Cholesky factorization still proves it definite."""
        return cls(dim, field)._factored(gram)


def as_vector(space: SpaceSpec, x) -> np.ndarray:
    """Coerce x to a validated coordinate vector of the space."""
    if space.field is Field.REAL and np.iscomplexobj(x):
        raise DomainError("complex coordinates in a real space")
    v = np.asarray(x, dtype=space.field.dtype)
    if v.shape != (space.dim,):
        raise DomainError(f"expected a vector of length {space.dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("vector has non-finite coordinates")
    return v


def pairing(space: SpaceSpec, u: np.ndarray, v: np.ndarray):
    """The pairing u^T gram conj(v) of arrays that already passed as_vector,
    or row by row of two (n, d) stacks of them.

    Validates nothing and computes in the operands' dtype.  Double vectors
    give a Python float or complex, extended ones a numpy scalar, stacks an
    (n,) array.  A stack takes np.vecdot, which conjugates its first
    operand and rounds each row exactly as `u @ w` rounds one vector.
    """
    conj = np.conj if space.field is Field.COMPLEX else np.asarray
    if u.ndim == 2:
        if space.gram is not None:
            v = conj((space.gram @ conj(v)[:, :, np.newaxis])[:, :, 0])
        return np.vecdot(v, u)
    w = conj(v) if space.gram is None else space.gram @ conj(v)
    out = u @ w
    t = type(out)
    if t is np.float64:
        return float(out)
    if t is np.complex128:
        return complex(out)
    return out


def pairing_norm(space: SpaceSpec, u: np.ndarray):
    """Norm induced by `pairing`, on a double vector that already passed
    as_vector or of every row of an (n, d) stack of them, in the stack's
    dtype; tiny negative squares clamp to zero."""
    q = pairing(space, u, u)
    if u.ndim == 2:
        # the same rule on arrays: fmax(|re|, 1) is max(1.0, |re|), a NaN
        # included, and the clamp keeps a -0.0 as max(q, 0.0) does; q is
        # pairing's fresh array, so it clamps in place
        if space.field is Field.COMPLEX:
            im = np.abs(q.imag)
            # the bound is at least 1e-12, so only a row above 1e-12 can fail
            if np.count_nonzero(im > 1e-12) and np.count_nonzero(im > 1e-12 * np.fmax(np.abs(q.real), 1.0)):
                raise DomainError("squared norm has a non-negligible imaginary part")
            q = q.real
        q[q < 0.0] = 0.0
        return np.sqrt(q, out=q)
    if space.field is Field.COMPLEX:
        re = q.real
        if abs(q.imag) > 1e-12 * max(1.0, abs(re)):
            raise DomainError("squared norm has a non-negligible imaginary part")
    else:
        re = q
    return math.sqrt(max(re, 0.0))


def inner(space: SpaceSpec, u, v):
    """The pairing u^T gram conj(v); linear in u, conjugate-linear in v."""
    return pairing(space, as_vector(space, u), as_vector(space, v))


def norm(space: SpaceSpec, u):
    """Norm induced by the pairing; tiny negative squares clamp to zero."""
    return pairing_norm(space, as_vector(space, u))


def zero_norm_threshold(space: SpaceSpec) -> float:
    # math.sqrt and np.sqrt are both correctly rounded; math.sqrt skips
    # numpy's scalar dispatch
    return ZERO_NORM_FACTOR * math.sqrt(space.dim)


def require_nonzero(space: SpaceSpec, v, what: str) -> np.ndarray:
    vv = as_vector(space, v)
    if pairing_norm(space, vv) < zero_norm_threshold(space):
        raise DomainError(f"{what} must be nonzero (norm below {zero_norm_threshold(space):.3e})")
    return vv


def gram_from_factor(a, delta: float) -> np.ndarray:
    """Gram matrix A^H A + delta*I; positive definite for any A when delta > 0."""
    if not delta > 0:
        raise DomainError("delta must be positive")
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("factor must be a square matrix")
    return m.conj().T @ m + delta * np.eye(m.shape[0])


# complexification -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComplexifiedVector:
    """A pair (re, im) over a real space, standing for re + i*im."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.float64)
        im = np.asarray(self.im, dtype=np.float64)
        if re.shape != im.shape or re.ndim != 1:
            raise DomainError("re and im must be real vectors of the same length")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise DomainError("complexified vector has non-finite coordinates")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def _checked(cls, re, im):
        """The pair of two 1-d float64 vectors, built without
        __post_init__'s checks, for pairs that go straight to a statement
        (each statement checks every complexified argument on entry)."""
        z = object.__new__(cls)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def as_complex(self) -> np.ndarray:
        return self.re + 1j * self.im


def complexify_inner(space: SpaceSpec, z: ComplexifiedVector, w: ComplexifiedVector):
    """Pairing of the complexification, built from four real pairings."""
    if space.field is not Field.REAL:
        raise DomainError("complexification is defined over a real space")
    rr = inner(space, z.re, w.re)
    ii = inner(space, z.im, w.im)
    cross1 = inner(space, w.re, z.im)
    cross2 = inner(space, z.re, w.im)
    return complex(rr + ii, cross1 - cross2)


def complexify_norm(space: SpaceSpec, z: ComplexifiedVector):
    q = complexify_inner(space, z, z)
    return float(np.sqrt(max(q.real, 0.0)))


def conjugate(z: ComplexifiedVector) -> ComplexifiedVector:
    """(re, im) -> (re, -im); an involution."""
    return ComplexifiedVector(z.re, -z.im)


def scale_complexified(lam: complex, z: ComplexifiedVector) -> ComplexifiedVector:
    """(sigma + i tau)(x, y) = (sigma x - tau y, tau x + sigma y)."""
    s, t = float(np.real(lam)), float(np.imag(lam))
    return ComplexifiedVector(s * z.re - t * z.im, t * z.re + s * z.im)


def complexified_space(space: SpaceSpec) -> SpaceSpec:
    """The complex space carrying the same gram; coordinates re + i*im."""
    if space.field is not Field.REAL:
        raise DomainError("complexification is defined over a real space")
    return SpaceSpec(space.dim, Field.COMPLEX, None if space.gram is None else space.gram.astype(np.complex128))
