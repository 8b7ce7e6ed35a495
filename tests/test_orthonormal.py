import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineq_forge import orthonormal
from ineq_forge.orthonormal import (
    RANK_TOL,
    FamilyStack,
    OrthonormalFamily,
    RankDeficientError,
    gram_schmidt,
    lift_to_complexification,
    projection,
    reflection,
    verify_orthonormal,
)
from ineq_forge.spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    complexified_space,
    complexify_inner,
    complexify_norm,
    conjugate,
    gram_from_factor,
    inner,
    norm,
    pairing_norm,
)


def weighted_space(rng, dim, field=Field.REAL):
    a = rng.standard_normal((dim, dim))
    if field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal((dim, dim))
    return SpaceSpec(dim, field, gram_from_factor(a, 1e-3))


class TestFamilyType:
    def test_accepts_standard_basis(self):
        s = SpaceSpec(3)
        fam = OrthonormalFamily(s, np.eye(3))
        assert fam.size == 3

    def test_rejects_too_many_members(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            OrthonormalFamily(s, np.array([[1.0, 0], [0, 1.0], [1.0, 0]]))

    def test_rejects_non_orthonormal_at_default_tol(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            OrthonormalFamily(s, np.array([[1.0, 0.0], [0.1, 1.0]]))

    def test_lenient_tol_lets_us_inspect_bad_families(self):
        s = SpaceSpec(2)
        theta = np.radians(89.0)
        fam = OrthonormalFamily(s, np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]]), tol=1.0)
        check = verify_orthonormal(fam, tol=1e-10)
        assert not check.ok
        assert check.max_deviation == pytest.approx(np.cos(theta), rel=1e-12)
        assert check.max_deviation == pytest.approx(0.0174524064372835, rel=1e-10)

    def test_empty_family(self):
        s = SpaceSpec(2)
        fam = OrthonormalFamily(s, np.zeros((0, 2)))
        assert fam.size == 0
        assert verify_orthonormal(fam, tol=1e-12).ok


class TestGramSchmidt:
    def test_already_orthonormal_is_fixed(self):
        s = SpaceSpec(2)
        fam = gram_schmidt(s, np.eye(2))
        assert np.allclose(fam.members, np.eye(2), atol=1e-15)

    def test_hand_example(self):
        s = SpaceSpec(2)
        fam = gram_schmidt(s, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(fam.members, np.array([[1.0, 0.0], [0.0, 1.0]]), atol=1e-14)

    def test_weighted_normalization(self):
        s = SpaceSpec(2, Field.REAL, np.diag([2.0, 1.0]))
        fam = gram_schmidt(s, np.array([[1.0, 0.0]]))
        assert fam.members[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)

    def test_collinear_input_names_offender(self):
        s = SpaceSpec(2)
        with pytest.raises(RankDeficientError) as exc:
            gram_schmidt(s, np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert exc.value.index == 1

    def test_zero_vector_is_rank_deficient(self):
        s = SpaceSpec(2)
        with pytest.raises(RankDeficientError) as exc:
            gram_schmidt(s, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert exc.value.index == 0

    def test_non_finite_row_is_rejected(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            gram_schmidt(s, np.array([[1.0, 0.0], [0.0, np.inf]]))

    def test_near_dependence_below_threshold(self):
        s = SpaceSpec(2)
        v2 = np.array([1.0, 1e-12])  # residual ~1e-12 < 1e-10 * ||v2||
        with pytest.raises(RankDeficientError):
            gram_schmidt(s, np.array([[1.0, 0.0], v2]))

    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_weighted_families_orthonormal(self, dim, field):
        rng = np.random.default_rng(dim * 7 + (field is Field.COMPLEX))
        s = weighted_space(rng, dim, field)
        vs = rng.standard_normal((dim, dim))
        if field is Field.COMPLEX:
            vs = vs + 1j * rng.standard_normal((dim, dim))
        fam = gram_schmidt(s, vs)
        assert verify_orthonormal(fam, tol=1e-12).ok


def _reference_gram_schmidt(space, vs):
    """The one-family loop that the stacked routine replaced, kept as the
    reference: the members, or the error it raises."""
    out = np.zeros_like(vs)
    for i, v in enumerate(vs):
        scale = pairing_norm(space, v)
        u = v
        for _ in range(2):
            if i:
                a = u[np.newaxis, :] if space.gram is None else u[np.newaxis, :] @ space.gram
                u = u - (a @ np.conjugate(out[:i]).T)[0] @ out[:i]
        r = pairing_norm(space, u)
        if r <= RANK_TOL * max(scale, 1e-300):
            return RankDeficientError(i, r)
        out[i] = u / r
    return out


def _draw(rng, shape, field):
    vs = rng.standard_normal(shape)
    return vs + 1j * rng.standard_normal(shape) if field is Field.COMPLEX else vs


class TestStackedGramSchmidt:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_stacked_members_equal_alone_and_reference(self, field, weighted):
        # dims 1..8, every family size, 6 families a stack; the last one
        # repeats its first row, so each stack of k >= 2 has a failure
        for dim in range(1, 9):
            rng = np.random.default_rng(dim * 4 + 2 * weighted + (field is Field.COMPLEX))
            s = weighted_space(rng, dim, field) if weighted else SpaceSpec(dim, field)
            for k in range(dim + 1):
                vs = _draw(rng, (6, k, dim), field)
                if k >= 2:
                    vs[5, 1] = 3.0 * vs[5, 0]
                stacked = gram_schmidt(s, vs)
                assert len(stacked) == 6
                for family, rows in zip(stacked, vs):
                    reference = _reference_gram_schmidt(s, rows)
                    if isinstance(reference, RankDeficientError):
                        assert family is None
                        with pytest.raises(RankDeficientError):
                            gram_schmidt(s, rows)
                        continue
                    alone = gram_schmidt(s, rows)
                    assert family.members.dtype == alone.members.dtype == field.dtype
                    assert family.members.tobytes() == alone.members.tobytes() == reference.tobytes()
                    assert not family.members.flags.writeable
                    assert verify_orthonormal(family, tol=1e-12).ok

    def test_each_failure_is_none_in_a_stack_and_raises_alone(self):
        s = SpaceSpec(3)
        basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        dependent = [[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]]
        non_finite = [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]
        # rounding leaves this family off orthonormality by about 1e-16,
        # which tol 0 refuses; the basis rows come back exact
        rounded = [[0.3, 0.7, -1.1], [0.2, -0.5, 0.9]]
        assert _reference_gram_schmidt(s, np.array(rounded)) is not None
        result = gram_schmidt(s, np.array([basis, dependent, non_finite, rounded, basis]), tol=0.0)
        assert [family is None for family in result] == [False, True, True, True, False]
        assert np.array_equal(result[0].members, basis) and np.array_equal(result[4].members, basis)
        with pytest.raises(RankDeficientError) as exc:
            gram_schmidt(s, np.array(dependent), tol=0.0)
        expected = _reference_gram_schmidt(s, np.array(dependent))
        assert (exc.value.index, exc.value.residual) == (expected.index, expected.residual) == (1, expected.residual)
        assert type(exc.value.residual) is float
        with pytest.raises(DomainError, match="non-finite"):
            gram_schmidt(s, np.array(non_finite), tol=0.0)
        with pytest.raises(DomainError, match="not orthonormal"):
            gram_schmidt(s, np.array(rounded), tol=0.0)
        # at the default tol the rounded family passes, alone and stacked
        assert gram_schmidt(s, np.array(rounded)).size == 2
        assert gram_schmidt(s, np.array([rounded]))[0] is not None

    def test_a_pairing_that_raises_for_the_stack_runs_each_family_alone(self, monkeypatch):
        s = SpaceSpec(2, Field.COMPLEX)

        def pairing_norm_refusing_seven(space, u):
            if np.any(u == 7.0):
                raise DomainError("squared norm has a non-negligible imaginary part")
            return pairing_norm(space, u)

        monkeypatch.setattr(orthonormal, "pairing_norm", pairing_norm_refusing_seven)
        good = np.array([[1.0, 2.0j], [0.5, -1.0]])
        bad = np.array([[7.0, 1.0], [0.0, 1.0]])
        result = gram_schmidt(s, np.array([good, bad, good]))
        assert result[1] is None
        assert result[0].members.tobytes() == result[2].members.tobytes() == gram_schmidt(s, good).members.tobytes()
        with pytest.raises(DomainError):
            gram_schmidt(s, bad)

    def test_empty_families_and_shape_errors(self):
        s = SpaceSpec(2)
        assert [f.size for f in gram_schmidt(s, np.zeros((3, 0, 2)))] == [0, 0, 0]
        empty = gram_schmidt(s, np.zeros((0, 2, 2)))
        assert isinstance(empty, FamilyStack) and len(empty) == 0 and list(empty) == []
        assert empty.members.shape[0] == empty.sizes.size == empty.ok.size == 0
        with pytest.raises(DomainError):
            gram_schmidt(s, np.zeros((2, 3, 2)))
        with pytest.raises(DomainError):
            gram_schmidt(s, np.zeros((2, 1, 3)))

    def test_public_construction_still_checks(self):
        s = SpaceSpec(3)
        members = gram_schmidt(s, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])).members
        with pytest.raises(DomainError, match="not orthonormal"):
            OrthonormalFamily(s, members * 1.01)
        with pytest.raises(DomainError, match="finite"):
            OrthonormalFamily(s, np.where(members == members[0, 0], np.inf, members))


class TestReflection:
    def test_empty_family_negates(self):
        s = SpaceSpec(2)
        fam = OrthonormalFamily(s, np.zeros((0, 2)))
        assert np.array_equal(reflection(fam, [1.0, 2.0]), [-1.0, -2.0])

    def test_single_axis(self):
        s = SpaceSpec(2)
        fam = OrthonormalFamily(s, np.array([[1.0, 0.0]]))
        assert np.allclose(reflection(fam, [1.0, 1.0]), [1.0, -1.0])

    def test_full_basis_is_identity(self):
        s = SpaceSpec(3)
        fam = OrthonormalFamily(s, np.eye(3))
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(reflection(fam, x), x, atol=1e-15)


class TestLift:
    def test_members_get_zero_imaginary_part(self):
        s = SpaceSpec(2)
        fam = OrthonormalFamily(s, np.eye(2))
        lifted = fam if False else lift_to_complexification(fam)
        assert all(isinstance(g, ComplexifiedVector) for g in lifted)
        assert np.array_equal(lifted[0].re, [1.0, 0.0])
        assert np.array_equal(lifted[0].im, [0.0, 0.0])

    def test_rejects_complex_space(self):
        s = SpaceSpec(2, Field.COMPLEX)
        fam = OrthonormalFamily(s, np.eye(2).astype(complex))
        with pytest.raises(DomainError):
            lift_to_complexification(fam)

    def test_lifted_family_is_orthonormal_in_complexification(self):
        rng = np.random.default_rng(3)
        s = weighted_space(rng, 4)
        fam = gram_schmidt(s, rng.standard_normal((3, 4)))
        lifted = lift_to_complexification(fam)
        for i, g in enumerate(lifted):
            for j, h in enumerate(lifted):
                expect = 1.0 if i == j else 0.0
                assert abs(complexify_inner(s, g, h) - expect) <= 1e-12


# property tests ------------------------------------------------------------

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def draw_setup(dim, seed, weighted, complex_field):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if complex_field else Field.REAL
    s = weighted_space(rng, dim, field) if weighted else SpaceSpec(dim, field)
    k = int(rng.integers(0, dim + 1))
    vs = rng.standard_normal((k, dim))
    if complex_field:
        vs = vs + 1j * rng.standard_normal((k, dim))
    fam = gram_schmidt(s, vs) if k else OrthonormalFamily(s, np.zeros((0, dim), dtype=field.dtype))
    x = rng.standard_normal(dim)
    if complex_field:
        x = x + 1j * rng.standard_normal(dim)
    return rng, s, fam, x


@settings(max_examples=80, deadline=None)
@given(dims, seeds, st.booleans(), st.booleans())
def test_reflection_is_an_involutive_isometry(dim, seed, weighted, complex_field):
    _, s, fam, x = draw_setup(dim, seed, weighted, complex_field)
    r = reflection(fam, x)
    nx = norm(s, x)
    assert abs(norm(s, r) - nx) <= 1e-12 * (1 + nx)
    back = reflection(fam, r)
    assert norm(s, back - x) <= 1e-11 * (1 + nx)


@settings(max_examples=80, deadline=None)
@given(dims, seeds, st.booleans(), st.booleans())
def test_projection_residual_identity(dim, seed, weighted, complex_field):
    # ||u - (<u,v>/||v||^2) v||^2 = (||u||^2 ||v||^2 - |<u,v>|^2) / ||v||^2
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if complex_field else Field.REAL
    s = weighted_space(rng, dim, field) if weighted else SpaceSpec(dim, field)

    def draw():
        x = rng.standard_normal(dim)
        return x + 1j * rng.standard_normal(dim) if complex_field else x

    u, v = draw(), draw()
    nv = norm(s, v)
    if nv < 1e-8:
        return
    lam = inner(s, u, v) / nv**2
    lhs = norm(s, u - lam * v) ** 2
    rhs = (norm(s, u) ** 2 * nv**2 - abs(inner(s, u, v)) ** 2) / nv**2
    assert abs(lhs - rhs) <= 1e-10 * (1 + norm(s, u) ** 2)


@settings(max_examples=60, deadline=None)
@given(dims, seeds, st.booleans())
def test_projection_plus_residual_reconstructs(dim, seed, weighted):
    _, s, fam, x = draw_setup(dim, seed, weighted, False)
    p = projection(fam, x)
    r = x - p
    # the residual is orthogonal to every member
    for e in fam.members:
        assert abs(inner(s, r, e)) <= 1e-11 * (1 + norm(s, x))
    # and the reflection is projection doubled minus the vector
    assert np.allclose(reflection(fam, x), 2 * p - x, atol=1e-13 * (1 + norm(s, x)))


@settings(max_examples=60, deadline=None)
@given(dims, seeds, st.booleans())
def test_lift_adjoint_identity(dim, seed, weighted):
    # <g_j, conj(w)> = <w, g_j> for lifted members g_j and any complexified w
    rng, s, fam, _ = draw_setup(dim, seed, weighted, False)
    w = ComplexifiedVector(rng.standard_normal(dim), rng.standard_normal(dim))
    scale = 1 + complexify_norm(s, w)
    for g in lift_to_complexification(fam):
        lhs = complexify_inner(s, g, conjugate(w))
        rhs = complexify_inner(s, w, g)
        assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(dims, seeds, st.booleans())
def test_lift_bridges_to_complex_space(dim, seed, weighted):
    rng, s, fam, _ = draw_setup(dim, seed, weighted, False)
    sc = complexified_space(s)
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    zc = ComplexifiedVector(w.real, w.imag)
    for g in lift_to_complexification(fam):
        assert abs(complexify_inner(s, zc, g) - inner(sc, w, g.as_complex())) <= 1e-12 * (1 + abs(w).max())
