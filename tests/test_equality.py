"""Oracle tests for the equality-condition solvers and instance builders.

Expected numbers are derived by hand in the comments next to each case; the
solvers are never used to produce their own expected values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineq_forge.catalog import eval_generalized, eval_richard
from ineq_forge.equality import (
    EQUALITY_BUILDERS,
    EqualityKind,
    builder_space,
    build_kurepa,
    build_richard,
    construct_equality_instance,
    solve_projection_line,
    solve_projection_pair,
    solve_reflection_ratio,
)
from ineq_forge.orthonormal import OrthonormalFamily
from ineq_forge.spaces import DomainError, Field, SpaceSpec

R2 = SpaceSpec(2, Field.REAL)
R3 = SpaceSpec(3, Field.REAL)
C2 = SpaceSpec(2, Field.COMPLEX)


def fam(space, *rows):
    return OrthonormalFamily(space, np.array(rows, dtype=space.field.dtype))


def empty_fam(space):
    return OrthonormalFamily(space, np.zeros((0, space.dim), dtype=space.field.dtype))


class TestKinds:
    def test_wire_names(self):
        assert EqualityKind.PROJECTION_PAIR.value == "projection-pair"
        assert EqualityKind.PROJECTION_LINE.value == "projection-line"
        assert EqualityKind.REFLECTION_RATIO.value == "reflection-ratio"


class TestReflectionRatio:
    def test_identity_instance(self):
        E = fam(R2, [1.0, 0.0])
        cert = solve_reflection_ratio(R2, E, E, [1.0, 2.0], [1.0, 2.0])
        assert cert.kind is EqualityKind.REFLECTION_RATIO
        assert cert.attained
        assert cert.coefficients[0] == pytest.approx(1.0)
        assert cert.residual == pytest.approx(0.0, abs=1e-12)

    def test_hand_construction(self):
        # reflection(F, y) = (-1, 1); doubled: (-2, 2); reflection(E, .) with
        # E = {e1} maps (u1, u2) to (u1, -u2), so x = (-2, -2).
        E = fam(R2, [1.0, 0.0])
        F = fam(R2, [0.0, 1.0])
        x = construct_equality_instance(R2, E, F, 2.0, [1.0, 1.0])
        assert np.allclose(x, [-2.0, -2.0])
        cert = solve_reflection_ratio(R2, E, F, x, [1.0, 1.0])
        assert cert.attained
        assert cert.coefficients[0] == pytest.approx(2.0)
        ev = eval_generalized(R2, E, F, x, [1.0, 1.0]).binding
        assert ev.near_equality
        assert ev.lhs == pytest.approx(2.0)
        assert ev.rhs == pytest.approx(2.0)

    def test_complex_ratio(self):
        E = fam(C2, [1.0 + 0j, 0.0])
        F = empty_fam(C2)
        y = np.array([1.0 + 0j, 0.0])
        x = construct_equality_instance(C2, E, F, 1j, y)
        cert = solve_reflection_ratio(C2, E, F, x, y)
        assert cert.attained
        assert cert.coefficients[0] == pytest.approx(1j)

    def test_generic_not_attained(self):
        # u = (1, -2, -3), v = (-3, -1, -2), lam = 5/14; the residual is
        # sqrt(2394)/14 which is about 0.93 of the scale sqrt(14).
        E = fam(R3, [1.0, 0.0, 0.0])
        F = fam(R3, [0.0, 1.0, 0.0])
        cert = solve_reflection_ratio(R3, E, F, [1.0, 2.0, 3.0], [3.0, -1.0, 2.0])
        assert not cert.attained
        assert cert.coefficients[0] == pytest.approx(5.0 / 14.0)
        assert cert.residual == pytest.approx(np.sqrt(2394.0) / 14.0)
        assert cert.residual > 1e-3 * cert.scale

    def test_zero_inputs_rejected(self):
        E = fam(R2, [1.0, 0.0])
        with pytest.raises(DomainError):
            solve_reflection_ratio(R2, E, E, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            solve_reflection_ratio(R2, E, E, [1.0, 0.0], [0.0, 0.0])


class TestProjectionPair:
    def test_all_equal_unit(self):
        # p = q = x/2, so any (c, -c) kills the combination.
        cert = solve_projection_pair(R2, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert cert.kind is EqualityKind.PROJECTION_PAIR
        assert cert.attained
        c1, c2 = cert.coefficients
        assert max(abs(c1), abs(c2)) > 0.5
        assert c1 + c2 == pytest.approx(0.0, abs=1e-9)

    def test_product_bound_tight_instance(self):
        # x = (1,0), a = (1,1), b = (1,-1), y = (1,1) with y orthogonal to b:
        # p = (0.5, -0.5) and q = -b/2 = (-0.5, 0.5) = -p, so the null
        # direction is (1, 1) and the recovered pair has lam = mu.
        cert = solve_projection_pair(R2, [1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [1.0, 1.0])
        assert cert.attained
        c1, c2 = cert.coefficients
        assert c1 == pytest.approx(c2, abs=1e-9)

    def test_generic_not_attained(self):
        # p = (0, -1, 0.5), q = (0, 0.1, -0.7); their 2x2 cross term is 0.65,
        # far from dependence.
        cert = solve_projection_pair(R3, [1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 3.0, -1.0])
        assert not cert.attained
        assert cert.residual > 1e-3 * cert.scale

    def test_zero_a_degenerate(self):
        cert = solve_projection_pair(R2, [0.0, 0.0], [1.0, 2.0], [1.0, 0.0], [0.0, 1.0])
        assert cert.attained
        assert cert.coefficients == (1.0, 0.0)

    def test_complex_space_rejected(self):
        with pytest.raises(DomainError):
            solve_projection_pair(C2, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])

    def test_zero_x_rejected(self):
        with pytest.raises(DomainError):
            solve_projection_pair(R2, [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0])


class TestProjectionLine:
    def test_hand_instance(self):
        # r = 2<x,a> x / ||x||^2 - a = (1, -1) = b exactly, so lam = mu.
        cert = solve_projection_line(R2, [1.0, 1.0], [1.0, -1.0], [1.0, 0.0])
        assert cert.kind is EqualityKind.PROJECTION_LINE
        assert cert.attained
        lam, mu = cert.coefficients
        assert mu / lam == pytest.approx(1.0, abs=1e-9)

    def test_b_zero_degenerate(self):
        cert = solve_projection_line(R2, [1.0, 2.0], [0.0, 0.0], [1.0, 0.0])
        assert cert.attained
        assert cert.coefficients == (0.0, 1.0)

    def test_generic_not_attained(self):
        # r = (0, -2, 1) against b = (0, 1, 1): independent.
        cert = solve_projection_line(R3, [1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0])
        assert not cert.attained

    def test_complex_space_rejected(self):
        with pytest.raises(DomainError):
            solve_projection_line(C2, [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])


class TestConstruct:
    def test_lambda_one_same_families(self):
        E = fam(R2, [1.0, 0.0])
        x = construct_equality_instance(R2, E, E, 1.0, [1.0, 2.0])
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_lambda_zero_degenerates(self):
        E = fam(R2, [1.0, 0.0])
        F = fam(R2, [0.0, 1.0])
        x = construct_equality_instance(R2, E, F, 0.0, [1.0, 1.0])
        assert np.allclose(x, 0.0)
        with pytest.raises(DomainError):
            eval_generalized(R2, E, F, x, [1.0, 1.0])

    def test_complex_ratio_rejected_in_real_space(self):
        E = fam(R2, [1.0, 0.0])
        with pytest.raises(DomainError):
            construct_equality_instance(R2, E, E, 1j, [1.0, 1.0])

    def test_zero_y_rejected(self):
        E = fam(R2, [1.0, 0.0])
        with pytest.raises(DomainError):
            construct_equality_instance(R2, E, E, 1.0, [0.0, 0.0])


class TestRoundTrip:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_random_round_trips(self, field):
        rng = np.random.default_rng(7 if field is Field.REAL else 11)
        space = SpaceSpec(3, field)
        basis = np.eye(3, dtype=space.field.dtype)
        for trial in range(200):
            ke = int(rng.integers(0, 3))
            kf = int(rng.integers(0, 3))
            E = OrthonormalFamily(space, basis[:ke])
            F = OrthonormalFamily(space, basis[3 - kf : 3])
            mag = float(rng.uniform(0.25, 2.0))
            if field is Field.COMPLEX:
                lam = mag * complex(np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
            else:
                lam = mag if trial % 2 else -mag
            y = rng.standard_normal(3)
            if field is Field.COMPLEX:
                y = y + 1j * rng.standard_normal(3)
            x = construct_equality_instance(space, E, F, lam, y)
            cert = solve_reflection_ratio(space, E, F, x, y)
            assert cert.attained
            assert abs(cert.coefficients[0] - lam) <= 1e-8 * (1 + abs(lam))
            assert eval_generalized(space, E, F, x, y).binding.near_equality


class TestScaleInvariance:
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    # norms about 1e9 apart: this independent pair must stay uncertified
    @example(5.0, -4.0, 0.0)
    @settings(max_examples=40, deadline=None)
    def test_line_attained_flag(self, ea, eb, ex):
        sa, sb, sx = 10.0**ea, 10.0**eb, 10.0**ex
        good = solve_projection_line(R2, np.array([1.0, 1.0]) * sa, np.array([1.0, -1.0]) * sb, np.array([1.0, 0.0]) * sx)
        assert good.attained
        bad = solve_projection_line(
            R3, np.array([1.0, 2.0, 0.0]) * sa, np.array([0.0, 1.0, 1.0]) * sb, np.array([1.0, 0.0, 1.0]) * sx
        )
        assert not bad.attained

    @given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_pair_attained_flag(self, ea, ex):
        sa, sx = 10.0**ea, 10.0**ex
        cert = solve_projection_pair(
            R2,
            np.array([1.0, 1.0]) * sa,
            np.array([1.0, -1.0]) * sa,
            np.array([1.0, 0.0]) * sx,
            np.array([1.0, 1.0]) * sx,
        )
        assert cert.attained


class TestBuilders:
    def test_registry_names(self):
        assert set(EQUALITY_BUILDERS) == {
            "generalized-2.1",
            "schwarz",
            "richard-1.3",
            "buzano-1.14",
            "kurepa-3.2",
        }

    @pytest.mark.parametrize("name", sorted(EQUALITY_BUILDERS))
    def test_real_instances_pass(self, name):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        space = builder_space(name, 4, Field.REAL)
        for _ in range(25):
            built = EQUALITY_BUILDERS[name](space, rng)
            assert built.ineq == name
            assert built.certificate.attained
            assert built.evaluation.near_equality
            assert built.ok

    @pytest.mark.parametrize("name", ["schwarz", "buzano-1.14", "generalized-2.1"])
    def test_complex_instances_pass(self, name):
        rng = np.random.default_rng(5)
        space = builder_space(name, 3, Field.COMPLEX)
        for _ in range(25):
            built = EQUALITY_BUILDERS[name](space, rng)
            assert built.ok

    def test_kurepa_builder_geometry(self):
        rng = np.random.default_rng(3)
        space = builder_space("kurepa-3.2", 6, Field.COMPLEX)
        assert space.dim == 1 and space.field is Field.REAL
        for _ in range(25):
            built = build_kurepa(space, rng)
            # The recovered ratio is -omega^2/|omega|^2, a unit modulus scalar.
            assert abs(abs(built.expected_ratio) - 1.0) < 1e-12
            assert built.certificate.residual <= 1e-12 * max(built.certificate.scale, 1e-300)
            assert built.ok

    def test_richard_builder_recovers_norm_ratio(self):
        rng = np.random.default_rng(19)
        built = build_richard(R3, rng)
        assert built.expected_ratio > 0
        assert built.ok
        assert eval_richard is not None

    def test_richard_builder_rejects_complex(self):
        with pytest.raises(DomainError):
            build_richard(SpaceSpec(3, Field.COMPLEX), np.random.default_rng(0))

    def test_builder_space_unknown_name(self):
        with pytest.raises(DomainError):
            builder_space("angle-1.6", 3, Field.REAL)
