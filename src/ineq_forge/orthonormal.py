"""Orthonormal families and the reflection operator built from them.

A family E = {e_1, ..., e_k} is orthonormal when <e_i, e_j> equals the
Kronecker delta under the space's pairing.  The reflection through the
span of E,

    R_E x = 2 * sum_i <x, e_i> e_i - x,

is an involutive isometry.  With an empty family it degenerates to x -> -x,
with a full basis to the identity.  Real families can be lifted member by
member into the complexification, where they stay orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    as_vector,
    pairing_norm,
)

DEFAULT_FAMILY_TOL = 1e-10
RANK_TOL = 1e-10


class RankDeficientError(DomainError):
    """Raised when orthonormalization hits a (numerically) dependent vector."""

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(
            f"vector {index} is linearly dependent on its predecessors "
            f"(residual norm {residual:.3e})"
        )


def _pair_matrix(space, rows_a, rows_b):
    """All pairings <a_i, b_j> at once; rows are vectors."""
    if space.gram is None:
        return rows_a @ np.conjugate(rows_b).T
    return rows_a @ space.gram @ np.conjugate(rows_b).T


@dataclass(frozen=True)
class OrthonormalFamily:
    """A validated stack of orthonormal vectors (one per row)."""

    space: SpaceSpec
    members: np.ndarray
    tol: float = field(default=DEFAULT_FAMILY_TOL)

    def __post_init__(self):
        m = np.asarray(self.members, dtype=self.space.field.dtype)
        if m.ndim != 2 or m.shape[1] != self.space.dim:
            raise DomainError(
                f"expected members of shape (k, {self.space.dim}), got {m.shape}"
            )
        if m.shape[0] > self.space.dim:
            raise DomainError(
                f"{m.shape[0]} members cannot be orthonormal in dimension {self.space.dim}"
            )
        if not np.all(np.isfinite(m.view(np.float64) if np.iscomplexobj(m) else m)):
            raise DomainError("family members must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "members", m)
        if self.size:
            deviation = _max_deviation(self.space, m)
            if deviation > self.tol:
                raise DomainError(
                    f"family is not orthonormal: max pairing deviation "
                    f"{deviation:.3e} exceeds tol {self.tol:.1e}"
                )

    @property
    def size(self):
        return self.members.shape[0]


def _max_deviation(space, members):
    pair = _pair_matrix(space, members, members)
    return float(np.max(np.abs(pair - np.eye(members.shape[0]))))


@dataclass(frozen=True)
class OrthonormalityCheck:
    max_deviation: float
    ok: bool


def verify_orthonormal(family, tol=DEFAULT_FAMILY_TOL):
    """Measure how far a family is from exact orthonormality."""
    if family.size == 0:
        return OrthonormalityCheck(0.0, True)
    deviation = _max_deviation(family.space, family.members)
    return OrthonormalityCheck(deviation, deviation <= tol)


def gram_schmidt(space, vectors, tol=DEFAULT_FAMILY_TOL):
    """Orthonormalize rows of `vectors` under the space's pairing.

    Uses classical Gram-Schmidt with a second reorthogonalization pass,
    which keeps the result orthonormal to working precision even for
    ill-conditioned inputs.  Raises RankDeficientError, naming the first
    offending row, when a vector is dependent on its predecessors.  Rows are
    checked for finiteness once, up front.
    """
    vs = np.asarray(vectors, dtype=space.field.dtype)
    if vs.ndim != 2 or vs.shape[1] != space.dim:
        raise DomainError(f"expected shape (k, {space.dim}), got {vs.shape}")
    if vs.shape[0] > space.dim:
        raise DomainError(
            f"cannot orthonormalize {vs.shape[0]} vectors in dimension {space.dim}"
        )
    if not np.isfinite(vs).all():
        raise DomainError("vector has non-finite coordinates")
    out = np.zeros_like(vs)
    for i, v in enumerate(vs):
        scale = pairing_norm(space, v)
        u = v
        for _ in range(2):
            if i:
                coeffs = _pair_matrix(space, u[np.newaxis, :], out[:i])[0]
                u = u - coeffs @ out[:i]
        r = pairing_norm(space, u)
        if r <= RANK_TOL * max(scale, 1e-300):
            raise RankDeficientError(i, r)
        out[i] = u / r
    return OrthonormalFamily(space, out, tol=tol)


def projection(family, x):
    """Orthogonal projection of x onto the span of the family."""
    x = as_vector(family.space, x)
    if family.size == 0:
        return np.zeros_like(x)
    coeffs = _pair_matrix(family.space, x[np.newaxis, :], family.members)[0]
    return coeffs @ family.members


def reflection(family, x):
    """Reflect x through the span of the family: 2 * proj(x) - x."""
    x = as_vector(family.space, x)
    return 2.0 * projection(family, x) - x


def lift_to_complexification(family):
    """Embed a real family into the complexification with zero imaginary part.

    The lifted members remain orthonormal under the complexified pairing.
    Only real-space families can be lifted; a complex space is already its
    own complexification.
    """
    if family.space.field is not Field.REAL:
        raise DomainError("only real-space families can be lifted")
    zero = np.zeros(family.space.dim)
    return [ComplexifiedVector(np.array(e), zero.copy()) for e in family.members]
