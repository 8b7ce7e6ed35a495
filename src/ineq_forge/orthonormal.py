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
    """All pairings <a_i, b_j> at once; rows are vectors, and two stacks of
    row matrices pair matrix by matrix."""
    if space.gram is not None:
        rows_a = rows_a @ space.gram
    return rows_a @ np.conjugate(rows_b).swapaxes(-1, -2)


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
            deviation = float(_max_deviation(self.space, m))
            if deviation > self.tol:
                raise DomainError(
                    f"family is not orthonormal: max pairing deviation "
                    f"{deviation:.3e} exceeds tol {self.tol:.1e}"
                )

    @property
    def size(self):
        return self.members.shape[0]

    @classmethod
    def _checked(cls, space, members, tol):
        """A family of read-only members in the field's dtype that have
        already passed this class's checks at `tol`; skips __post_init__."""
        family = object.__new__(cls)
        object.__setattr__(family, "space", space)
        object.__setattr__(family, "members", members)
        object.__setattr__(family, "tol", tol)
        return family


def _max_deviation(space, members):
    """max |<e_i, e_j> - delta_ij| of a family, or of each family of a
    stack."""
    pair = _pair_matrix(space, members, members)
    return np.maximum.reduce(np.abs(pair - np.eye(members.shape[-2])), axis=(-2, -1))


@dataclass(frozen=True)
class OrthonormalityCheck:
    max_deviation: float
    ok: bool


def verify_orthonormal(family, tol=DEFAULT_FAMILY_TOL):
    """Measure how far a family is from exact orthonormality."""
    if family.size == 0:
        return OrthonormalityCheck(0.0, True)
    deviation = float(_max_deviation(family.space, family.members))
    return OrthonormalityCheck(deviation, deviation <= tol)


def gram_schmidt(space, vectors, tol=DEFAULT_FAMILY_TOL):
    """Orthonormalize the rows of `vectors` under the space's pairing: one
    (k, d) family, or every family of an (m, k, d) stack at once.

    Uses classical Gram-Schmidt with a second reorthogonalization pass,
    which keeps the result orthonormal to working precision even for
    ill-conditioned inputs.  The loop runs once over the whole stack, in
    stacked matmuls that give each family the bits it gets alone, and the
    result is checked against `tol` once, with one stacked pairing matrix,
    so the families come back without OrthonormalFamily's second check.

    One family raises DomainError on a non-finite row or a result that is
    not orthonormal within `tol`, and RankDeficientError naming the first
    row that is dependent on its predecessors.  A stack returns a list with
    one entry per family: the family, or None where it would raise alone.
    """
    vs = np.asarray(vectors, dtype=space.field.dtype)
    if vs.ndim not in (2, 3) or vs.shape[-1] != space.dim:
        raise DomainError(f"expected shape (k, {space.dim}) or (m, k, {space.dim}), got {vs.shape}")
    if vs.shape[-2] > space.dim:
        raise DomainError(
            f"cannot orthonormalize {vs.shape[-2]} vectors in dimension {space.dim}"
        )
    if vs.ndim == 2:
        if not np.isfinite(vs).all():
            raise DomainError("vector has non-finite coordinates")
        out, errors = _orthonormalize(space, vs[np.newaxis], tol)
        if errors:
            raise errors[0]
        return OrthonormalFamily._checked(space, out[0], tol)
    if not len(vs):
        return []
    finite = np.isfinite(vs).all(axis=(1, 2))
    failed = None if finite.all() else ~finite
    try:
        # a non-finite family runs as zeros and is refused
        out, errors = _orthonormalize(space, vs if failed is None else np.where(failed[:, None, None], 0.0, vs),
                                      tol, failed)
    except DomainError:
        # a pairing that raises for the stack (a complex squared norm with
        # an imaginary part) raises for some family alone: run each alone
        return [_alone(space, family, tol) for family in vs]
    return [None if j in errors or (failed is not None and failed[j])
            else OrthonormalFamily._checked(space, members, tol)
            for j, members in enumerate(out)]


def _alone(space, vectors, tol):
    try:
        return gram_schmidt(space, vectors, tol)
    except DomainError:
        return None


def _orthonormalize(space, vs, tol, failed=None):
    """The Gram-Schmidt loop over an (m, k, d) stack of finite rows, of
    which `failed` (a mask, or None) marks families already refused: the
    (m, k, d) result, read-only, and {family index: the error it raises
    alone} for the families that fail here.  A family that fails runs on
    as zeros, so it stays finite and inert."""
    m, k, d = vs.shape
    out = np.zeros(vs.shape, vs.dtype)
    errors = {}
    if k:
        # the norm of every row at once: each row keeps its bits
        floors = RANK_TOL * np.maximum(pairing_norm(space, vs.reshape(m * k, d)).reshape(m, k), 1e-300)
    for i in range(k):
        u = vs[:, i : i + 1]  # (m, 1, d): each family's row i
        if i:
            # _pair_matrix's product, with the basis adjoint formed once
            basis = out[:, :i]
            adjoint = (np.conjugate(basis) if space.field is Field.COMPLEX else basis).swapaxes(-1, -2)
            for _ in range(2):
                coeffs = (u if space.gram is None else u @ space.gram) @ adjoint
                u = u - coeffs @ basis
        u = u[:, 0]
        r = pairing_norm(space, u)
        dependent = r <= floors[:, i]
        if failed is not None:
            dependent &= ~failed
        if np.count_nonzero(dependent):
            for j in np.flatnonzero(dependent).tolist():
                errors[j] = RankDeficientError(i, float(r[j]))
            failed = dependent if failed is None else failed | dependent
            if failed.all():
                break
            vs = np.where(failed[:, np.newaxis, np.newaxis], 0.0, vs)
        if failed is not None:
            u = np.where(failed[:, np.newaxis], 0.0, u)
            r = np.where(failed, 1.0, r)
        out[:, i] = u / r[:, np.newaxis]
    if k and (failed is None or not failed.all()):
        # `not <=` also refuses a NaN deviation, i.e. non-finite members
        deviation = _max_deviation(space, out)
        refused = ~(deviation <= tol)
        if failed is not None:
            refused &= ~failed
        if np.count_nonzero(refused):
            for j in np.flatnonzero(refused).tolist():
                errors[j] = DomainError(
                    f"family is not orthonormal: max pairing deviation "
                    f"{deviation[j]:.3e} exceeds tol {tol:.1e}"
                )
    out.setflags(write=False)
    return out, errors


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
