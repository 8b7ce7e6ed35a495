import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineq_forge.catalog import _dot
from ineq_forge.spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    as_vector,
    complexified_space,
    complexify_inner,
    complexify_norm,
    conjugate,
    gram_from_factor,
    inner,
    norm,
    pairing,
    pairing_norm,
    require_nonzero,
    scale_complexified,
    zero_norm_threshold,
)

# Expected values below are hand computations, frozen before the library
# existed; none were produced by running the code under test.


def random_space(rng, dim, field=Field.REAL, weighted=False):
    if not weighted:
        return SpaceSpec(dim, field)
    a = rng.standard_normal((dim, dim))
    if field is Field.COMPLEX:
        a = a + 1j * rng.standard_normal((dim, dim))
    return SpaceSpec(dim, field, gram_from_factor(a, 1e-3))


class TestSpaceSpec:
    def test_identity_default(self):
        s = SpaceSpec(3)
        assert s.dim == 3 and s.field is Field.REAL and s.gram is None

    def test_rejects_bad_dim(self):
        with pytest.raises(DomainError):
            SpaceSpec(0)

    def test_rejects_indefinite_gram(self):
        # eigenvalues 3 and -1
        with pytest.raises(DomainError):
            SpaceSpec(2, Field.REAL, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_unchecked_constructor_still_proves_definiteness(self):
        with pytest.raises(DomainError, match="not positive definite"):
            SpaceSpec._hermitian(2, Field.REAL, np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("field, bad", [(Field.REAL, np.nan), (Field.REAL, -np.inf),
                                            (Field.COMPLEX, complex(1.0, np.inf)), (Field.COMPLEX, complex(np.nan, 0.0))])
    def test_rejects_non_finite_gram(self, field, bad):
        g = np.eye(2, dtype=field.dtype)
        g[0, 1] = g[1, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            SpaceSpec(2, field, g)

    @pytest.mark.parametrize("field", list(Field))
    def test_gram_takes_the_field_dtype(self, field):
        given = np.array([[2, 1], [1, 2]])
        space = SpaceSpec(2, field, given)
        assert space.gram.dtype == field.dtype and not space.gram.flags.writeable and given.flags.writeable

    def test_rejects_non_symmetric_gram(self):
        with pytest.raises(DomainError):
            SpaceSpec(2, Field.REAL, np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_complex_gram_on_real_space(self):
        g = np.array([[1.0, 0.1j], [-0.1j, 1.0]])
        with pytest.raises(DomainError):
            SpaceSpec(2, Field.REAL, g)

    def test_accepts_hermitian_complex_gram(self):
        g = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        s = SpaceSpec(2, Field.COMPLEX, g)
        assert s.gram is not None


class TestInner:
    def test_euclidean(self):
        s = SpaceSpec(3)
        assert inner(s, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0

    def test_orthogonal_pair(self):
        s = SpaceSpec(2)
        assert inner(s, [1.0, 1.0], [1.0, -1.0]) == 0.0

    def test_weighted(self):
        s = SpaceSpec(2, Field.REAL, np.diag([2.0, 1.0]))
        assert inner(s, [1.0, 1.0], [1.0, 1.0]) == 3.0

    def test_complex_linear_first_conjugate_second(self):
        s = SpaceSpec(1, Field.COMPLEX)
        assert inner(s, [1j], [1.0]) == 1j
        assert inner(s, [1.0], [1j]) == -1j

    def test_rejects_complex_coords_in_real_space(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            inner(s, [1.0 + 1j, 0.0], [1.0, 0.0])

    def test_rejects_nonfinite(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            as_vector(s, [np.inf, 0.0])

    def test_rejects_wrong_length(self):
        s = SpaceSpec(2)
        with pytest.raises(DomainError):
            inner(s, [1.0, 0.0, 0.0], [1.0, 0.0])


class TestNorm:
    def test_three_four_five(self):
        s = SpaceSpec(2)
        assert norm(s, [3.0, 4.0]) == 5.0

    def test_weighted(self):
        s = SpaceSpec(1, Field.REAL, np.array([[2.0]]))
        assert norm(s, [1.0]) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_zero(self):
        s = SpaceSpec(3)
        assert norm(s, [0.0, 0.0, 0.0]) == 0.0

    def test_zero_threshold_and_guard(self):
        s = SpaceSpec(4)
        assert zero_norm_threshold(s) == pytest.approx(1e-13 * 2.0)
        with pytest.raises(DomainError):
            require_nonzero(s, np.zeros(4), "x")
        require_nonzero(s, np.array([1.0, 0, 0, 0]), "x")


class TestComplexification:
    def test_real_part_only(self):
        s = SpaceSpec(2)
        z = ComplexifiedVector(np.array([3.0, 0.0]), np.array([0.0, 0.0]))
        assert complexify_inner(s, z, z) == 9.0 + 0j

    def test_hand_value(self):
        # base R^1: z=(3,4), w=(3,-4):
        #   <3,3> + <4,-4> + i[<3,4> - <3,-4>] = 9 - 16 + 24i
        s = SpaceSpec(1)
        z = ComplexifiedVector(np.array([3.0]), np.array([4.0]))
        w = ComplexifiedVector(np.array([3.0]), np.array([-4.0]))
        assert complexify_inner(s, z, w) == -7.0 + 24.0j

    def test_norm_splits(self):
        s = SpaceSpec(1)
        z = ComplexifiedVector(np.array([3.0]), np.array([4.0]))
        assert complexify_norm(s, z) == 5.0

    def test_conjugate_involution_and_value(self):
        s = SpaceSpec(1)
        z = ComplexifiedVector(np.array([3.0]), np.array([4.0]))
        zbar = conjugate(z)
        assert zbar.im[0] == -4.0 and zbar.re[0] == 3.0
        z2 = conjugate(zbar)
        assert np.array_equal(z2.re, z.re) and np.array_equal(z2.im, z.im)
        # <z, zbar> = ||re||^2 - ||im||^2 + 2i<re,im> = 9 - 16 + 24i
        assert complexify_inner(s, z, zbar) == -7.0 + 24.0j

    def test_scalar_multiplication(self):
        # (sigma + i tau)(x, y) = (sigma x - tau y, tau x + sigma y)
        z = ComplexifiedVector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        w = scale_complexified(1j, z)
        assert np.allclose(w.re, [0.0, -1.0]) and np.allclose(w.im, [1.0, 0.0])

    def test_mismatched_parts_rejected(self):
        with pytest.raises(DomainError):
            ComplexifiedVector(np.array([1.0]), np.array([1.0, 2.0]))


class TestGramFromFactor:
    def test_zero_factor_gives_identity(self):
        g = gram_from_factor(np.zeros((2, 2)), 1.0)
        assert np.array_equal(g, np.eye(2))

    def test_hand_value(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = gram_from_factor(a, 0.5)
        assert np.allclose(g, [[1.5, 1.0], [1.0, 2.5]])
        SpaceSpec(2, Field.REAL, g)  # accepted as PD

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(DomainError):
            gram_from_factor(np.eye(2), 0.0)


class TestExtendedPrecision:
    def test_longdouble_is_extended(self):
        # the oracle mirror needs >= 80-bit floats on this platform
        assert np.finfo(np.longdouble).eps < 1e-18

    def test_mirror_matches_double(self):
        rng = np.random.default_rng(7)
        s = random_space(rng, 5, weighted=True)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a = inner(s, u, v)
        b = pairing(s, u.astype(np.longdouble), v.astype(np.longdouble))
        assert isinstance(b, np.longdouble)
        assert abs(a - float(b)) <= 1e-13 * (1.0 + abs(float(b)))

    def test_mirror_sees_cancellation(self):
        # double precision loses the tiny residual completely; extended keeps it
        s = SpaceSpec(2)
        u = np.array([1.0, 1e-17])
        v = np.array([1.0, -1.0])
        exact = pairing(s, u.astype(np.longdouble), v.astype(np.longdouble))  # 1 - 1e-17 in 80-bit
        assert float(exact) == 1.0
        assert exact != np.longdouble(1.0)


def _signed_stack(rng, n, dim, dtype):
    """An (n, dim) stack over magnitudes 1e-3 to 1e3 with a +0.0 row, a
    -0.0 row and scattered signed zeros, in dtype."""
    scale = 10.0 ** rng.uniform(-3, 3, (n, 1))
    x = rng.standard_normal((n, dim)) * scale
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal((n, dim)) * scale
    x[rng.random((n, dim)) < 0.15] = 0.0
    x[rng.random((n, dim)) < 0.15] = -0.0
    x[0] = 0.0
    x[1] = -0.0
    return x.astype(dtype)


class TestRowDotKernel:
    """A stack's row dot products round each row exactly as a 1-d product
    does: the stacked `pairing` and `pairing_norm` against the 1-d ones,
    and `catalog._dot` against a loop of 1-d `@`, compared value by value
    with the signs of zeros."""

    @staticmethod
    def _same_bits(stacked, values) -> bool:
        """Equal values with the same signs, part by part: the bits of a
        finite number (a long double's padding bytes are not compared)."""
        expected = np.array(values, dtype=stacked.dtype)
        parts = (np.real, np.imag) if stacked.dtype.kind == "c" else (np.asarray,)
        return stacked.shape == expected.shape and all(
            np.array_equal(part(stacked), part(expected)) and np.array_equal(np.signbit(part(stacked)),
                                                                             np.signbit(part(expected)))
            for part in parts)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("extended", [False, True])
    def test_stacked_pairing_is_the_one_dimensional_pairing(self, field, weighted, extended):
        rng = np.random.default_rng(19)
        dtype = np.dtype(field.extended_dtype if extended else field.dtype)
        for dim in range(1, 9):
            s = random_space(rng, dim, field, weighted)
            for n in (2, 7, 29):
                u = _signed_stack(rng, n, dim, dtype)
                v = _signed_stack(rng, n, dim, dtype)
                v[-1] = -u[-1]
                stacked = pairing(s, u, v)
                assert stacked.dtype == dtype
                assert self._same_bits(stacked, [pairing(s, a, b) for a, b in zip(u, v)]), (dim, n)
                if not extended:
                    assert self._same_bits(pairing_norm(s, u), [pairing_norm(s, a) for a in u]), (dim, n)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.longdouble, np.clongdouble])
    def test_catalog_dot_is_a_loop_of_one_dimensional_products(self, dtype):
        rng = np.random.default_rng(20)
        for k in range(1, 9):
            for n in (2, 3, 29):
                a = _signed_stack(rng, n, k, dtype)
                b = _signed_stack(rng, n, k, dtype)
                out = _dot(a, b)
                assert out.dtype == np.dtype(dtype)
                assert self._same_bits(out, [x @ y for x, y in zip(a, b)]), (k, n)


# property tests ------------------------------------------------------------

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(dims, seeds, st.booleans(), st.booleans())
def test_sesquilinear_and_hermitian(dim, seed, weighted, complex_field):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if complex_field else Field.REAL
    s = random_space(rng, dim, field, weighted)

    def draw():
        x = rng.standard_normal(dim)
        if complex_field:
            x = x + 1j * rng.standard_normal(dim)
        return x

    u, v, w = draw(), draw(), draw()
    lam = complex(rng.standard_normal(), rng.standard_normal()) if complex_field else float(rng.standard_normal())
    scale = norm(s, u) * norm(s, v) + norm(s, w) * norm(s, v) + 1.0
    assert abs(inner(s, lam * u + w, v) - (lam * inner(s, u, v) + inner(s, w, v))) <= 1e-10 * (1 + abs(lam)) * scale
    assert abs(inner(s, u, lam * v) - np.conj(lam) * inner(s, u, v)) <= 1e-10 * (1 + abs(lam)) * scale
    assert abs(inner(s, u, v) - np.conj(inner(s, v, u))) <= 1e-12 * scale
    assert inner(s, u, u).real >= -1e-12 * norm(s, u) ** 2


@settings(max_examples=60, deadline=None)
@given(dims, seeds, st.booleans(), st.booleans())
def test_schwarz_always_holds(dim, seed, weighted, complex_field):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if complex_field else Field.REAL
    s = random_space(rng, dim, field, weighted)
    u = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_field else 0)
    v = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_field else 0)
    assert abs(inner(s, u, v)) <= norm(s, u) * norm(s, v) * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(dims, seeds, st.booleans())
def test_complexification_identities(dim, seed, weighted):
    rng = np.random.default_rng(seed)
    s = random_space(rng, dim, Field.REAL, weighted)
    z = ComplexifiedVector(rng.standard_normal(dim), rng.standard_normal(dim))
    w = ComplexifiedVector(rng.standard_normal(dim), rng.standard_normal(dim))

    nx, ny = norm(s, z.re), norm(s, z.im)
    scale = nx * nx + ny * ny + 1.0

    # norm splits over the two parts
    assert abs(complexify_norm(s, z) ** 2 - (nx * nx + ny * ny)) <= 1e-12 * scale

    # <z, conjugate(z)> = ||re||^2 - ||im||^2 + 2i<re, im>
    expected = nx * nx - ny * ny + 2j * inner(s, z.re, z.im)
    assert abs(complexify_inner(s, z, conjugate(z)) - expected) <= 1e-12 * scale

    # the pairing agrees with the plain complex space carrying the same gram
    sc = complexified_space(s)
    bridged = inner(sc, z.as_complex(), w.as_complex())
    assert abs(complexify_inner(s, z, w) - bridged) <= 1e-12 * (scale + complexify_norm(s, w) ** 2)

    # sesquilinearity in the first slot
    lam = complex(rng.standard_normal(), rng.standard_normal())
    lhs = complexify_inner(s, scale_complexified(lam, z), w)
    assert abs(lhs - lam * complexify_inner(s, z, w)) <= 1e-10 * (1 + abs(lam)) * (scale + complexify_norm(s, w) ** 2)
