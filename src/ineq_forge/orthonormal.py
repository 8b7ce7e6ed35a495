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
        errors = {}
        _refuse_deviant(self.space, m[np.newaxis], self.tol, None, errors)
        if errors:
            raise errors[0]

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


@dataclass(frozen=True, eq=False)
class FamilyStack:
    """n families of one space as one stack, the sequence of its families:
    family j is the first sizes[j] rows of members[j] (zeros past them), or
    None where ok[j] is False.  The members are read-only, and a family is
    a view of its rows."""

    space: SpaceSpec
    members: np.ndarray  # (n, k, d)
    sizes: np.ndarray  # (n,) of intp
    ok: np.ndarray  # (n,) of bool

    def __len__(self):
        return len(self.sizes)

    def __getitem__(self, j):
        if not self.ok[j]:
            return None
        return OrthonormalFamily._checked(self.space, self.members[j, : self.sizes[j]], DEFAULT_FAMILY_TOL)

    def take(self, rows):
        """The families at `rows` (indices or a mask), their members copied."""
        members = self.members[rows]
        members.setflags(write=False)
        return FamilyStack(self.space, members, self.sizes[rows], self.ok[rows])

    @classmethod
    def of(cls, space, families):
        """The stack of a sequence of families of `space` (None for a
        refused one); a FamilyStack is its own."""
        if isinstance(families, cls):
            return families
        sizes = np.array([0 if f is None else f.size for f in families], dtype=np.intp)
        members = np.zeros((len(families), int(sizes.max(initial=0)), space.dim), dtype=space.field.dtype)
        for j, family in enumerate(families):
            if family is not None:
                members[j, : family.size] = family.members
        members.setflags(write=False)
        return cls(space, members, sizes, np.array([f is not None for f in families], dtype=bool))


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


def gram_schmidt(space, vectors, tol=DEFAULT_FAMILY_TOL, sizes=None):
    """Orthonormalize the rows of `vectors` under the space's pairing: one
    (k, d) family, or every family of an (m, k, d) stack at once.  With
    `sizes`, family j of the stack is its first sizes[j] rows, and the rows
    past them are ignored.

    Uses classical Gram-Schmidt with a second reorthogonalization pass,
    which keeps the result orthonormal to working precision even for
    ill-conditioned inputs.  The loop runs once over the whole stack, in
    stacked matmuls that give each family the bits it gets alone (row i of
    a step is orthonormalized for the families longer than i), and the
    result is checked against `tol` once per family size, with one stacked
    pairing matrix, so the families come back without OrthonormalFamily's
    second check.

    One family raises DomainError on a non-finite row or a result that is
    not orthonormal within `tol`, and RankDeficientError naming the first
    row that is dependent on its predecessors.  A stack returns a
    FamilyStack, a sequence with one entry per family: the family, or None
    where it would raise alone.
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
        return FamilyStack.of(space, [])
    m, k, _ = vs.shape
    order = None
    if sizes is not None:
        listed = np.asarray(sizes).tolist()
        if min(listed) == max(listed):
            vs, sizes = vs[:, : listed[0]], None
        else:
            # longest first (a stable sort), so the families that have a row
            # i are a prefix; in plain Python, because numpy's sorts and axis
            # reductions would page in code that nothing else here runs
            order = sorted(range(m), key=lambda j: -listed[j])
            sizes = np.array(listed, dtype=np.intp)[order]
            vs = vs[order]
            vs[np.arange(k) >= sizes[:, np.newaxis]] = 0.0
    finite = np.isfinite(vs).all(axis=(1, 2))
    failed = None if finite.all() else ~finite
    try:
        # a non-finite family runs as zeros and is refused
        out, errors = _orthonormalize(space, vs if failed is None else np.where(failed[:, None, None], 0.0, vs),
                                      tol, failed, sizes)
    except DomainError:
        # a pairing that raises for the stack (a complex squared norm with
        # an imaginary part) raises for some family alone: run each alone
        stack = FamilyStack.of(space, [_alone(space, family if sizes is None else family[:sizes[j]], tol)
                                       for j, family in enumerate(vs)])
    else:
        ok = np.ones(m, dtype=bool) if failed is None else ~failed
        ok[list(errors)] = False
        stack = FamilyStack(space, out, np.full(m, out.shape[1]) if sizes is None else sizes, ok)
    return stack if order is None else stack.take(sorted(range(m), key=order.__getitem__))  # back in its row


def _alone(space, vectors, tol):
    try:
        return gram_schmidt(space, vectors, tol)
    except DomainError:
        return None


def _orthonormalize(space, vs, tol, failed=None, sizes=None):
    """The Gram-Schmidt loop over an (m, k, d) stack of finite rows, of
    which `failed` (a mask, or None) marks families already refused and
    `sizes` (a descending array, or None for k each) gives the rows of each
    family: the read-only (m, k, d) result, zeros past each family's rows,
    and {family index: the error it raises alone} for the families that
    fail here.  A family that fails runs on as zeros, so it stays finite
    and inert."""
    m, k, d = vs.shape
    out = np.zeros(vs.shape, vs.dtype)
    errors = {}
    # running[i]: the families that have a row i, a prefix of the stack
    running = None if sizes is None else np.searchsorted(-sizes, -np.arange(k), side="left").tolist()
    if k:
        # the norm of every row at once: each row keeps its bits
        floors = RANK_TOL * np.maximum(pairing_norm(space, vs.reshape(m * k, d)).reshape(m, k), 1e-300)
    for i in range(k):
        c = m if running is None else running[i]
        if not c:
            break
        u = vs[:c, i : i + 1]  # (c, 1, d): each running family's row i
        if i:
            # _pair_matrix's product, with the basis adjoint formed once
            basis = out[:c, :i]
            adjoint = (np.conjugate(basis) if space.field is Field.COMPLEX else basis).swapaxes(-1, -2)
            for _ in range(2):
                coeffs = (u if space.gram is None else u @ space.gram) @ adjoint
                u = u - coeffs @ basis
        u = u[:, 0]
        r = pairing_norm(space, u)
        dependent = r <= floors[:c, i]
        if failed is not None:
            dependent &= ~failed[:c]
        if np.count_nonzero(dependent):
            for j in np.flatnonzero(dependent).tolist():
                errors[j] = RankDeficientError(i, float(r[j]))
            dependent = np.concatenate([dependent, np.zeros(m - c, dtype=bool)])
            failed = dependent if failed is None else failed | dependent
            if failed.all():
                break
            vs = np.where(failed[:, np.newaxis, np.newaxis], 0.0, vs)
        if failed is not None:
            u = np.where(failed[:c, np.newaxis], 0.0, u)
            r = np.where(failed[:c], 1.0, r)
        out[:c, i] = u / r[:, np.newaxis]
    if sizes is None:
        _refuse_deviant(space, out, tol, failed, errors)
    else:
        # each size checked on its own stack (a padded product rounds
        # differently), its families' rows and no padding
        bounds = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), m]
        for start, stop in zip(bounds, bounds[1:]):
            if sizes[start]:
                _refuse_deviant(space, out[start:stop, : sizes[start]].copy(), tol,
                                None if failed is None else failed[start:stop], errors, start)
    out.setflags(write=False)
    return out, errors


def _refuse_deviant(space, block, tol, failed, errors, start=0):
    """Add to `errors` (keyed from `start`) each family of a stack that is
    not orthonormal within `tol` and not already `failed`."""
    if block.shape[1] and (failed is None or not failed.all()):
        # `not <=` also refuses a NaN deviation, i.e. non-finite members
        deviation = _max_deviation(space, block)
        refused = ~(deviation <= tol)
        if failed is not None:
            refused &= ~failed
        if np.count_nonzero(refused):
            for j in np.flatnonzero(refused).tolist():
                errors[start + j] = DomainError(
                    f"family is not orthonormal: max pairing deviation "
                    f"{deviation[j]:.3e} exceeds tol {tol:.1e}"
                )


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
