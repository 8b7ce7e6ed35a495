"""Oracle tests for the inequality catalog.

Expected values in this file are hand computed from the closed forms on small
instances (mostly axis-aligned vectors in R^2 or C^1) so that every lhs,
center, rhs and margin is checkable by mental arithmetic.  Randomized blocks
only assert properties that hold for every valid input (soundness, scale
covariance, route agreement), never sampled magic numbers.
"""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineq_forge.catalog import (
    _FNV_CHUNK_BYTES,
    CATALOG,
    NEAR_EQUALITY_REL,
    TOL_ABS,
    TOL_REL,
    MooreParams,
    StackedResult,
    buzano_moore_useful,
    eval_angle_bound,
    eval_buzano,
    eval_chain,
    eval_generalized,
    eval_kurepa,
    eval_kurepa_refined,
    eval_precupanu,
    eval_precupanu_self,
    eval_real_double,
    eval_richard,
    eval_schwarz,
    fnv1a_64,
    fnv1a_64_rows,
    instance_digest,
    moore_coefficient,
    precupanu_moore_bounds,
    run_catalog,
    stacked_evaluation,
    verify_buzano_moore,
    verify_cosine_transfer,
    verify_moore,
    verify_precupanu_moore,
    verify_quotient_transfer,
)
from ineq_forge.falsifier import FieldChoice, GramKind, SearchConfig, sample_instance
from ineq_forge.orthonormal import OrthonormalFamily, gram_schmidt
from ineq_forge.spaces import (
    ComplexifiedVector,
    DomainError,
    Field,
    SpaceSpec,
    gram_from_factor,
    inner,
    norm,
)

R1 = SpaceSpec(1, Field.REAL)
R2 = SpaceSpec(2, Field.REAL)
R3 = SpaceSpec(3, Field.REAL)
C1 = SpaceSpec(1, Field.COMPLEX)
C2 = SpaceSpec(2, Field.COMPLEX)

NAMES = [
    "schwarz",
    "precupanu-1.1",
    "richard-1.3",
    "precupanu-self-1.5",
    "angle-1.6",
    "moore-1.9",
    "precupanu-moore-1.12",
    "buzano-1.14",
    "buzano-moore-1.16",
    "t1.5-i",
    "t1.5-ii",
    "generalized-2.1",
    "chain-2.10",
    "real-double-2.14",
    "kurepa-3.2",
    "kurepa-refined-3.3",
]


def fam(space, *rows):
    return OrthonormalFamily(space, np.array(rows, dtype=space.field.dtype).reshape(len(rows), space.dim))


def empty_fam(space):
    return OrthonormalFamily(space, np.zeros((0, space.dim), dtype=space.field.dtype))


def random_vec(rng, space):
    v = rng.standard_normal(space.dim)
    if space.field is Field.COMPLEX:
        v = v + 1j * rng.standard_normal(space.dim)
    return v


def record_pairings(monkeypatch):
    """Record the operand dtypes of every `pairing` call outside the
    double-precision nonzero checks (`_nonzero_norms`, which `_vec` and
    `_normed` call), which run on validated arrays before the cast to
    extended precision."""
    from ineq_forge import catalog, spaces

    seen = []
    checking = [0]
    pairing, check = spaces.pairing, catalog._nonzero_norms

    def recording(sp, u, v):
        if not checking[0]:
            seen.append((u.dtype, v.dtype))
        return pairing(sp, u, v)

    def counted_check(*args, **kwargs):
        checking[0] += 1
        try:
            return check(*args, **kwargs)
        finally:
            checking[0] -= 1

    monkeypatch.setattr(catalog, "pairing", recording)
    monkeypatch.setattr(spaces, "pairing", recording)
    monkeypatch.setattr(catalog, "_nonzero_norms", counted_check)
    return seen


def random_family(rng, space, size):
    if size == 0:
        return empty_fam(space)
    raw = np.stack([random_vec(rng, space) for _ in range(size)])
    return gram_schmidt(space, raw)


class TestEvaluationRecord:
    def test_two_sided_margins(self):
        ev = eval_richard(R2, a=[[1.0, 1.0]], b=[[1.0, -1.0]], x=[[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(-1.0)
        assert ev.center == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.margin_lower == pytest.approx(2.0)
        assert ev.margin_upper == pytest.approx(0.0, abs=1e-15)
        assert ev.scale == pytest.approx(2.0)
        assert ev.holds and ev.near_equality

    def test_one_sided_upper_has_no_center(self):
        ev = eval_schwarz(R2, [[1.0, 1.0]], [[1.0, 0.0]]).binding
        assert ev.center is None and ev.margin_lower is None
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(math.sqrt(2.0))
        assert ev.margin_upper == pytest.approx(math.sqrt(2.0) - 1.0)
        assert ev.holds and not ev.near_equality

    def test_one_sided_lower_has_no_rhs(self):
        ev = eval_angle_bound(R2, a=[[1.0, 1.0]], x=[[1.0, 1.0]], y=[[1.0, 1.0]]).binding
        assert ev.rhs is None and ev.margin_upper is None
        assert ev.lhs == pytest.approx(0.5)
        assert ev.center == pytest.approx(1.0)
        assert ev.margin_lower == pytest.approx(0.5)

    def test_near_equality_is_scale_relative(self):
        ev = eval_schwarz(R2, [[1.0, 0.0]], [[1.0, 1e-10]]).binding
        # cos deficit ~ 5e-21 relative: far inside the near-equality band.
        assert ev.near_equality
        ev2 = eval_schwarz(R2, [[1.0, 0.0]], [[1.0, 1e-4]]).binding
        assert not ev2.near_equality


class TestDigest:
    """instance_digest's canonical bytes: field tag, dimension, then each
    argument in the entry's order, and nothing of the gram."""

    XY = {"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])}

    def test_format_and_determinism(self):
        d1 = instance_digest("schwarz", R2, self.XY)
        d2 = instance_digest("schwarz", R2, {k: v.copy() for k, v in self.XY.items()})
        assert d1 == d2
        assert len(d1) == 16 and set(d1) <= set("0123456789abcdef")

    def test_sensitive_to_coordinates_field_and_dim(self):
        base = instance_digest("schwarz", R2, self.XY)
        assert instance_digest("schwarz", R2, {**self.XY, "x": np.array([1.0, 2.0 + 1e-15])}) != base
        assert instance_digest("schwarz", C2, {k: v.astype(complex) for k, v in self.XY.items()}) != base
        assert instance_digest("schwarz", R3, {k: np.append(v, 0.0) for k, v in self.XY.items()}) != base

    def test_family_membership_is_positional(self):
        e = np.array([1.0, 0.0])
        a = instance_digest("generalized-2.1", R2, {"E": fam(R2, e), "F": empty_fam(R2), **self.XY})
        b = instance_digest("generalized-2.1", R2, {"E": empty_fam(R2), "F": fam(R2, e), **self.XY})
        assert a != b

    def test_complexified_orders_re_then_im(self):
        a = np.array([1.0, 1.0])
        z = ComplexifiedVector(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        w = ComplexifiedVector(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        digest = instance_digest("kurepa-3.2", R2, {"a": a, "z": z})
        assert digest != instance_digest("kurepa-3.2", R2, {"a": a, "z": w})
        # z's bytes are re's, then im's: those of two more real vectors
        assert digest == instance_digest("moore-1.9", R2, {"x": a, "y": z.re, "z": z.im})

    def test_gram_not_digested(self):
        g = gram_from_factor(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.5)
        weighted = SpaceSpec(2, Field.REAL, g)
        assert instance_digest("schwarz", R2, self.XY) == instance_digest("schwarz", weighted, self.XY)

    def test_fnv1a_reference_value(self):
        # FNV-1a 64 of empty input is the offset basis.
        assert fnv1a_64(b"") == 0xCBF29CE484222325


class TestSchwarz:
    def test_hand_value(self):
        ev = eval_schwarz(R2, [[1.0, 1.0]], [[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(math.sqrt(2.0))

    def test_collinear_equality(self):
        ev = eval_schwarz(R2, [[2.0, 0.0]], [[2.0, 0.0]]).binding
        assert ev.margin_upper == pytest.approx(0.0, abs=1e-15)
        assert ev.near_equality

    def test_complex(self):
        # <x,y> = 1*conj(i) = -i, ||x|| = sqrt(2), ||y|| = 1.
        ev = eval_schwarz(C2, [[1.0, 1j]], [[1j, 0.0]]).binding
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(math.sqrt(2.0))

    def test_zero_vector_allowed(self):
        ev = eval_schwarz(R2, [[0.0, 0.0]], [[1.0, 0.0]]).binding
        assert ev.lhs == 0.0 and ev.rhs == 0.0
        assert ev.holds and ev.near_equality

    def test_weighted_gram(self):
        g = np.diag([4.0, 1.0])
        s = SpaceSpec(2, Field.REAL, g)
        ev = eval_schwarz(s, [[1.0, 0.0]], [[0.0, 1.0]]).binding
        assert ev.lhs == pytest.approx(0.0, abs=1e-15)
        assert ev.rhs == pytest.approx(2.0)


class TestPrecupanu:
    def test_hand_value_right_equality(self):
        ev = eval_precupanu(R2, a=[[1.0, 0.0]], b=[[1.0, 0.0]], x=[[1.0, 0.0]], y=[[0.0, 1.0]]).binding
        assert ev.lhs == pytest.approx(0.0, abs=1e-15)
        assert ev.center == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.near_equality and ev.holds
        assert ev.scale == pytest.approx(1.0)

    def test_reduces_to_richard_when_y_perp_b(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            y = y - (inner(R3, y, b) / inner(R3, b, b)) * b
            if norm(R3, y) < 1e-6:
                continue
            full = eval_precupanu(R3, [a], [b], [x], [y]).binding
            line = eval_richard(R3, [a], [b], [x]).binding
            nx2 = norm(R3, x) ** 2
            assert full.center * nx2 == pytest.approx(line.center, rel=1e-12, abs=1e-12)
            assert full.lhs * nx2 == pytest.approx(line.lhs, rel=1e-12, abs=1e-12)
            assert full.rhs * nx2 == pytest.approx(line.rhs, rel=1e-12, abs=1e-12)

    def test_requires_real_space(self):
        with pytest.raises(DomainError):
            eval_precupanu(C2, [[1, 0]], [[1, 0]], [[1, 0]], [[0, 1]])

    def test_requires_nonzero_x_y(self):
        with pytest.raises(DomainError):
            eval_precupanu(R2, [[1, 0]], [[1, 0]], [[0, 0]], [[0, 1]])
        with pytest.raises(DomainError):
            eval_precupanu(R2, [[1, 0]], [[1, 0]], [[1, 0]], [[0, 0]])

    def test_random_soundness(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ev = eval_precupanu(
                R3,
                [rng.standard_normal(3)],
                [rng.standard_normal(3)],
                [rng.standard_normal(3)],
                [rng.standard_normal(3)],
            ).binding
            assert ev.holds


class TestRichard:
    def test_hand_value_right_equality(self):
        ev = eval_richard(R2, a=[[1.0, 1.0]], b=[[1.0, -1.0]], x=[[1.0, 0.0]]).binding
        assert ev.center == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.lhs == pytest.approx(-1.0)

    def test_orthogonal_a_b_to_x(self):
        ev = eval_richard(R2, a=[[0.0, 2.0]], b=[[0.0, -3.0]], x=[[1.0, 0.0]]).binding
        assert ev.center == pytest.approx(0.0, abs=1e-15)
        assert ev.lhs == pytest.approx(-6.0)
        assert ev.rhs == pytest.approx(0.0, abs=1e-15)
        assert ev.holds and ev.near_equality

    def test_a_b_x_identical_unit(self):
        ev = eval_richard(R2, a=[[1.0, 0.0]], b=[[1.0, 0.0]], x=[[1.0, 0.0]]).binding
        assert ev.center == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.lhs == pytest.approx(0.0, abs=1e-15)

    def test_scale_covariance_exact_powers_of_two(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        x = rng.standard_normal(3)
        base = eval_richard(R3, [a], [b], [x]).binding
        for t in (2.0**-20, 2.0**20):
            ev = eval_richard(R3, [t * a], [b], [x]).binding
            assert ev.margin_lower / ev.scale == pytest.approx(base.margin_lower / base.scale, rel=1e-12)
            assert ev.margin_upper / ev.scale == pytest.approx(base.margin_upper / base.scale, rel=1e-12)
            assert ev.holds == base.holds and ev.near_equality == base.near_equality

    def test_requires_nonzero_x(self):
        with pytest.raises(DomainError):
            eval_richard(R2, [[1, 0]], [[0, 1]], [[0, 0]])


class TestPrecupanuSelf:
    def test_x_equals_y_collapses_to_zero(self):
        ev = eval_precupanu_self(R2, a=[[3.0, 4.0]], x=[[1.0, 2.0]], y=[[1.0, 2.0]]).binding
        assert ev.center == pytest.approx(0.0, abs=1e-12)
        assert ev.lhs == 0.0
        assert ev.rhs == pytest.approx(25.0)
        assert ev.near_equality

    def test_orthogonal_frame_right_equality(self):
        ev = eval_precupanu_self(R2, a=[[1.0, 0.0]], x=[[1.0, 0.0]], y=[[0.0, 1.0]]).binding
        assert ev.center == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)

    def test_a_orthogonal_to_both(self):
        ev = eval_precupanu_self(R3, a=[[0.0, 0.0, 1.0]], x=[[1.0, 0.0, 0.0]], y=[[0.0, 1.0, 0.0]]).binding
        assert ev.center == pytest.approx(0.0, abs=1e-15)
        assert ev.near_equality


class TestAngleBound:
    def test_common_vector_hand_value(self):
        ev = eval_angle_bound(R2, a=[[1.0, 1.0]], x=[[1.0, 1.0]], y=[[1.0, 1.0]]).binding
        assert ev.lhs == pytest.approx(0.5)
        assert ev.center == pytest.approx(1.0)

    def test_orthogonal_pair_bound_is_slack(self):
        ev = eval_angle_bound(R2, a=[[1.0, 0.0]], x=[[1.0, 0.0]], y=[[0.0, 1.0]]).binding
        assert ev.lhs == pytest.approx(-1.0)
        assert ev.center == pytest.approx(0.0, abs=1e-15)
        assert ev.scale == 1.0

    def test_requires_nonzero(self):
        with pytest.raises(DomainError):
            eval_angle_bound(R2, [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]])

    def test_random_soundness(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ev = eval_angle_bound(R3, [rng.standard_normal(3)], [rng.standard_normal(3)], [rng.standard_normal(3)]).binding
            assert ev.holds


class TestMooreCoefficient:
    def test_exact_values(self):
        assert moore_coefficient(0.0) == 1.0
        assert moore_coefficient(0.1) == 0.6
        assert moore_coefficient(0.5) == 0.0
        assert moore_coefficient(2.0) == 0.0

    def test_branch_selection(self):
        # The linear branch 1 - 4 eps wins below eps = 2/9, the square-root
        # branch 1 - eps - sqrt(2 eps) wins above it (both clamp at zero).
        assert moore_coefficient(0.01) == pytest.approx(1 - 4 * 0.01)
        assert moore_coefficient(0.01) > 1 - 0.01 - math.sqrt(0.02) + 1e-12
        assert moore_coefficient(0.25) == pytest.approx(1 - 0.25 - math.sqrt(0.5))
        assert moore_coefficient(0.25) > 1 - 4 * 0.25 + 1e-12

    def test_nonincreasing_on_grid(self):
        eps = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        vals = np.array([moore_coefficient(float(e)) for e in eps])
        assert np.all(np.diff(vals) <= 1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            moore_coefficient(-1e-9)


class TestVerifyMoore:
    def test_identical_vectors(self):
        v = verify_moore(R2, x=[[1.0, 2.0]], y=[[1.0, 2.0]], z=[[1.0, 2.0]], params=MooreParams(eps=0.1))
        assert v.premises_hold
        assert v.links[0].center == pytest.approx(5.0)
        assert v.links[0].lhs == pytest.approx(0.6 * 5.0)
        assert v.links[0].rhs is None
        assert v.links[0].holds

    def test_vacuous_premises_conclusion_still_evaluated(self):
        v = verify_moore(R2, x=[[1.0, 0.0]], y=[[0.0, 1.0]], z=[[1.0, 0.0]], params=MooreParams(eps=0.05))
        assert not v.premises_hold
        assert v.links[0].center == pytest.approx(0.0, abs=1e-15)
        assert v.links[0].lhs == pytest.approx(0.8)
        assert not v.links[0].holds

    def test_eps_one_trivial_conclusion(self):
        v = verify_moore(R2, x=[[1.0, 0.0]], y=[[0.0, 1.0]], z=[[1.0, 0.0]], params=MooreParams(eps=1.0))
        assert v.premises_hold
        assert v.links[0].lhs == 0.0
        assert v.links[0].holds

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            verify_moore(R2, [[0.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]], params=MooreParams(eps=0.1))

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            verify_moore(R2, [[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]], params=MooreParams(eps=-0.1))


class TestPrecupanuMoore:
    def test_bounds_hand_values(self):
        lo, hi = precupanu_moore_bounds(1.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(3.0)
        lo, hi = precupanu_moore_bounds(1.0 / math.sqrt(2.0))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)
        lo, hi = precupanu_moore_bounds(1e-8)
        assert lo == pytest.approx(-1.0) and hi == pytest.approx(1.0)

    def test_bounds_reject_nonpositive(self):
        with pytest.raises(DomainError):
            precupanu_moore_bounds(0.0)

    def test_aligned_instance(self):
        v = verify_precupanu_moore(R2, a=[[1.0, 0.0]], b=[[1.0, 0.0]], x=[[1.0, 0.0]], params=MooreParams(eps1=0.9, eps2=1.0))
        assert v.premises_hold
        c = v.links[0]
        assert c.center == pytest.approx(1.0)
        assert c.lhs == pytest.approx(2 * 0.81 - 1)
        assert c.rhs == pytest.approx(2 * 0.81 + 1)
        assert c.holds
        r = v.links[1]
        assert r.lhs == pytest.approx(-1.0)
        assert r.center == pytest.approx(2 * 0.81 - 1)
        assert r.rhs == pytest.approx(1.0)
        assert r.holds

    def test_vacuous_when_a_perp_x(self):
        v = verify_precupanu_moore(R2, a=[[0.0, 1.0]], b=[[1.0, 0.0]], x=[[1.0, 0.0]], params=MooreParams(eps1=0.5, eps2=0.9))
        assert not v.premises_hold
        assert len(v.links) == 2

    def test_signed_premises(self):
        # Anti-aligned a fails the signed window even though |cos| = 1.
        v = verify_precupanu_moore(R2, a=[[-1.0, 0.0]], b=[[1.0, 0.0]], x=[[1.0, 0.0]], params=MooreParams(eps1=0.5, eps2=1.0))
        assert not v.premises_hold

    def test_param_validation(self):
        with pytest.raises(DomainError):
            verify_precupanu_moore(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(eps1=0.9, eps2=0.5))
        with pytest.raises(DomainError):
            verify_precupanu_moore(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(eps1=-0.1, eps2=0.5))
        with pytest.raises(DomainError):
            verify_precupanu_moore(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(eps2=0.5))


class TestBuzano:
    def test_real_hand_equality(self):
        ev = eval_buzano(R2, a=[[1.0, 1.0]], b=[[1.0, -1.0]], x=[[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.near_equality

    def test_complex_hand_equality(self):
        ev = eval_buzano(C1, a=[[1j]], b=[[1.0]], x=[[1.0]]).binding
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(1.0)
        assert ev.near_equality

    def test_x_aligned_with_a_orthogonal_b(self):
        ev = eval_buzano(R2, a=[[1.0, 0.0]], b=[[0.0, 1.0]], x=[[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(0.0, abs=1e-15)
        assert ev.rhs == pytest.approx(0.5)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = SpaceSpec(3, Field.COMPLEX)
        base = eval_buzano(s, [a], [b], [x]).binding
        scaled = eval_buzano(s, [a], [b], [2.0**12 * x]).binding
        assert scaled.margin_upper / scaled.scale == pytest.approx(base.margin_upper / base.scale, rel=1e-12)


class TestBuzanoMoore:
    def test_aligned_hand_value(self):
        v = verify_buzano_moore(C2, x=[[1.0, 0.0]], a=[[1.0, 0.0]], b=[[1.0, 0.0]], params=MooreParams(eps=0.1))
        assert v.premises_hold
        assert buzano_moore_useful(0.1)
        assert v.links[0].lhs == pytest.approx(0.62)
        assert v.links[0].center == pytest.approx(1.0)
        assert v.links[0].holds

    def test_window_flag(self):
        crit = 1 - math.sqrt(2.0) / 2
        assert buzano_moore_useful(crit)
        assert not buzano_moore_useful(0.5)

    def test_coefficient_vanishes_at_window_edge(self):
        crit = 1 - math.sqrt(2.0) / 2
        v = verify_buzano_moore(R2, [[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]], params=MooreParams(eps=crit))
        assert abs(v.links[0].lhs) <= 1e-12

    def test_eps_range(self):
        for bad in (0.0, -0.2, 1.0 + 1e-9):
            with pytest.raises(DomainError):
                verify_buzano_moore(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(eps=bad))


class TestCosineTransfer:
    def test_common_direction(self):
        v = verify_cosine_transfer(R2, a=[[1.0, 1.0]], x=[[1.0, 1.0]], y=[[1.0, 1.0]], params=MooreParams(delta1=1.0, delta2=1.0))
        assert v.premises_hold
        assert v.links[0].lhs == pytest.approx(0.5)
        assert v.links[0].center == pytest.approx(1.0)
        assert v.links[0].rhs is None
        assert v.links[0].scale == 1.0

    def test_vacuous(self):
        v = verify_cosine_transfer(R2, a=[[1.0, 0.0]], x=[[0.0, 1.0]], y=[[1.0, 0.0]], params=MooreParams(delta1=0.9, delta2=0.9))
        assert not v.premises_hold

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_cosine_transfer(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(delta1=0.4, delta2=0.4))
        with pytest.raises(DomainError):
            verify_cosine_transfer(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(delta1=0.0, delta2=1.0))
        with pytest.raises(DomainError):
            verify_cosine_transfer(R2, [[1, 0]], [[1, 0]], [[1, 0]], params=MooreParams(delta1=1.2, delta2=0.5))


class TestQuotientTransfer:
    def _pair_with_cosine(self, c):
        a = np.array([1.0, 0.0])
        b = np.array([c, math.sqrt(1 - c * c)])
        return a, b

    def test_lower_branch(self):
        a, b = self._pair_with_cosine(0.8)
        x = a / np.linalg.norm(a) + b / np.linalg.norm(b)
        lower = verify_quotient_transfer(R2, [a], [b], [x], params=MooreParams(mu1=0.6))
        assert lower.premises_hold
        assert lower.links[0].lhs == pytest.approx(0.2)
        assert lower.links[0].center == pytest.approx(0.8)
        assert lower.links[0].holds

    def test_upper_branch(self):
        a, b = self._pair_with_cosine(-0.8)
        x = a / np.linalg.norm(a) - b / np.linalg.norm(b)
        upper = verify_quotient_transfer(R2, [a], [b], [x], params=MooreParams(mu2=-0.6))
        assert upper.premises_hold
        assert upper.links[0].lhs == pytest.approx(-0.8)
        assert upper.links[0].rhs == pytest.approx(-0.2)
        assert upper.links[0].holds

    def test_both_branches(self):
        a, b = self._pair_with_cosine(0.0)
        lower = verify_quotient_transfer(R2, [a], [b], [[1.0, 1.0]], params=MooreParams(mu1=0.0, mu2=0.0))
        upper = verify_quotient_transfer(R2, [a], [b], [[1.0, 1.0]], params=MooreParams(mu2=0.0))
        # mu1=0 makes the lower premise hold whenever the quotient is >= 0.
        assert lower.links[0].lhs == pytest.approx(-1.0)
        assert upper.links[0].rhs == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_quotient_transfer(R2, [[1, 0]], [[0, 1]], [[1, 1]], params=MooreParams())
        with pytest.raises(DomainError):
            verify_quotient_transfer(R2, [[1, 0]], [[0, 1]], [[1, 1]], params=MooreParams(mu1=1.2))
        with pytest.raises(DomainError):
            verify_quotient_transfer(R2, [[1, 0]], [[0, 1]], [[1, 1]], params=MooreParams(mu2=0.3))

    def test_catalog_entry_lane(self):
        # t1.5-ii runs the mu1 lane when mu1 is set, else the mu2 lane
        a, b = self._pair_with_cosine(0.8)
        x = a + b
        inputs = {"a": a, "b": b, "x": x}
        lower = verify_quotient_transfer(R2, [a], [b], [x], params=MooreParams(mu1=0.6, mu2=-0.6))
        upper = verify_quotient_transfer(R2, [a], [b], [x], params=MooreParams(mu2=-0.6))
        assert lower.links[0].rhs is None and upper.links[0].center is None
        assert run_catalog("t1.5-ii", R2, inputs, MooreParams(mu1=0.6, mu2=-0.6)) == lower
        assert run_catalog("t1.5-ii", R2, inputs, MooreParams(mu2=-0.6)) == upper
        with pytest.raises(DomainError):
            run_catalog("t1.5-ii", R2, inputs, MooreParams())


class TestGeneralized:
    def test_hand_value_single_member(self):
        ev = eval_generalized(R2, [fam(R2, [1.0, 0.0])], [empty_fam(R2)], x=[[1.0, 1.0]], y=[[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(0.5)
        assert ev.rhs == pytest.approx(math.sqrt(2.0) / 2)
        assert ev.holds and not ev.near_equality

    def test_route_agreement_with_reflections(self):
        from ineq_forge.orthonormal import reflection

        rng = np.random.default_rng(17)
        for field, space in ((Field.REAL, R3), (Field.COMPLEX, SpaceSpec(3, Field.COMPLEX))):
            for _ in range(50):
                E = random_family(rng, space, int(rng.integers(0, 4)))
                F = random_family(rng, space, int(rng.integers(0, 4)))
                x = random_vec(rng, space)
                y = random_vec(rng, space)
                ev = eval_generalized(space, [E], [F], [x], [y]).binding
                u = reflection(E, np.asarray(x, dtype=space.field.dtype))
                v = reflection(F, np.asarray(y, dtype=space.field.dtype))
                other = 0.5 * abs(inner(space, u, v))
                assert ev.lhs == pytest.approx(other, rel=1e-10, abs=1e-10 * ev.scale[0])

    def test_identical_families_halve_schwarz(self):
        E = fam(R2, [1.0, 0.0], [0.0, 1.0])
        ev = eval_generalized(R2, [E], [E], x=[[1.0, 2.0]], y=[[3.0, -1.0]]).binding
        assert ev.lhs == pytest.approx(0.5 * abs(1 * 3 + 2 * -1))
        assert ev.rhs == pytest.approx(0.5 * math.sqrt(5) * math.sqrt(10))

    def test_empty_families(self):
        ev = eval_generalized(R2, [empty_fam(R2)], [empty_fam(R2)], x=[[1.0, 1.0]], y=[[1.0, 0.0]]).binding
        assert ev.lhs == pytest.approx(0.5 * 1.0)
        assert ev.rhs == pytest.approx(0.5 * math.sqrt(2.0))

    def test_disjoint_union_matches_single_family(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            big = random_family(rng, R3, 3)
            E = OrthonormalFamily(R3, big.members[:2])
            F = OrthonormalFamily(R3, big.members[2:])
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            split = eval_generalized(R3, [E], [F], [x], [y]).binding
            joined = eval_generalized(R3, [OrthonormalFamily(R3, big.members)], [empty_fam(R3)], [x], [y]).binding
            assert split.lhs == pytest.approx(joined.lhs, rel=1e-11, abs=1e-11 * split.scale[0])

    def test_requires_nonzero_x_y(self):
        with pytest.raises(DomainError):
            eval_generalized(R2, [empty_fam(R2)], [empty_fam(R2)], [[0.0, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize("space", [R3, SpaceSpec(3, Field.COMPLEX)])
    def test_extended_reflection_route_pairs_extended_vectors(self, space, monkeypatch):
        rng = np.random.default_rng(3)
        E, F = random_family(rng, space, 2), random_family(rng, space, 1)
        x, y = random_vec(rng, space), random_vec(rng, space)
        seen = record_pairings(monkeypatch)
        eval_generalized(space, [E], [F], [x], [y], extended=True)
        # the last pairing is the reflection route's; none may get vectors
        # rounded to double first
        ext = space.field.extended_dtype
        assert seen and seen[-1] == (ext, ext)
        assert all(pair == (ext, ext) for pair in seen)

    def test_non_finite_reflection_raises(self):
        # finite inputs whose doubled projection overflows
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            eval_generalized(R2, [fam(R2, [1.0, 0.0])], [empty_fam(R2)], [[1e308, 1.0]], [[1.0, 1.0]])

    def test_family_space_mismatch(self):
        with pytest.raises(DomainError):
            eval_generalized(R3, [fam(R2, [1.0, 0.0])], [empty_fam(R3)], [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("space", [R3, SpaceSpec(3, Field.COMPLEX)])
    def test_route_disagreement_raises(self, space, monkeypatch):
        # a fault in the direct route: doubling <e_i, f_j> moves S when both
        # families are nonempty, and leaves the reflection route alone
        from ineq_forge import catalog

        rng = np.random.default_rng(41)
        E, F = random_family(rng, space, 1), random_family(rng, space, 2)
        x, y = random_vec(rng, space), random_vec(rng, space)
        reflected = eval_generalized(space, [E], [F], [x], [y]).binding.lhs[0]
        cross = catalog._cross_matrix
        monkeypatch.setattr(catalog, "_cross_matrix", lambda *args: 2.0 * cross(*args))
        with pytest.raises(ArithmeticError, match=r"^projection-sum routes disagree: \S+ vs \S+$") as raised:
            eval_generalized(space, [E], [F], [x], [y])
        direct, other = (float(v) for v in str(raised.value).split(": ")[1].split(" vs "))
        assert other == pytest.approx(reflected, rel=1e-10)
        assert abs(direct - other) > 1e-6 * other


class TestChain:
    def test_signed_middle_equality_instance(self):
        # x = e, y = -e: S = -1, <x,y> = -1; the middle term must use the
        # signed inner product.  Both links are tight here.
        E = fam(R1, [1.0])
        ch = eval_chain(R1, [E], [empty_fam(R1)], x=[[1.0]], y=[[-1.0]])
        assert ch.links[0].lhs == pytest.approx(1.0)
        assert ch.links[0].rhs == pytest.approx(1.0)
        assert ch.links[1].lhs == pytest.approx(1.0)
        assert ch.links[1].rhs == pytest.approx(1.0)
        assert ch.links[0].holds and ch.links[1].holds
        assert ch.binding.near_equality

    def test_links_compose(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            E = random_family(rng, R3, int(rng.integers(0, 4)))
            F = random_family(rng, R3, int(rng.integers(0, 4)))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            ch = eval_chain(R3, [E], [F], [x], [y])
            assert ch.links[0].rhs == pytest.approx(ch.links[1].lhs, rel=1e-12)
            assert ch.links[0].holds and ch.links[1].holds
            gen = eval_generalized(R3, [E], [F], [x], [y]).binding
            half = 0.5 * abs(inner(R3, x, y))
            assert ch.links[1].lhs == pytest.approx(half + gen.lhs, rel=1e-11, abs=1e-11 * gen.scale[0])

    def test_complex_allowed(self):
        s = SpaceSpec(2, Field.COMPLEX)
        ch = eval_chain(s, [fam(s, [1.0, 0.0])], [empty_fam(s)], x=[[1j, 1.0]], y=[[1.0, 1j]])
        assert ch.links[0].holds and ch.links[1].holds


class TestRealDouble:
    def test_hand_value_right_equality(self):
        ev = eval_real_double(R2, [fam(R2, [1.0, 0.0])], [fam(R2, [0.0, 1.0])], x=[[1.0, 1.0]], y=[[1.0, 1.0]]).binding
        assert ev.center == pytest.approx(2.0)
        assert ev.lhs == pytest.approx(0.0, abs=1e-15)
        assert ev.rhs == pytest.approx(2.0)
        assert ev.near_equality

    def test_identical_families_zero_center(self):
        E = fam(R2, [1.0, 0.0])
        ev = eval_real_double(R2, [E], [E], x=[[1.0, 2.0]], y=[[3.0, -1.0]]).binding
        assert ev.center == pytest.approx(0.0, abs=1e-12)

    def test_signed_lower_bound_tight_on_antiparallel(self):
        # x = e, y = -e: center = -1 and the signed lower bound equals -1.
        # A lower bound written with |<x,y>| would be 0 and would be violated.
        E = fam(R1, [1.0])
        ev = eval_real_double(R1, [E], [empty_fam(R1)], x=[[1.0]], y=[[-1.0]]).binding
        assert ev.center == pytest.approx(-1.0)
        assert ev.lhs == pytest.approx(-1.0)
        assert ev.rhs == pytest.approx(0.0, abs=1e-15)
        assert ev.holds and ev.near_equality

    def test_x_equals_y_nonnegative_window(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            E = random_family(rng, R3, int(rng.integers(0, 4)))
            F = random_family(rng, R3, int(rng.integers(0, 4)))
            x = rng.standard_normal(3)
            ev = eval_real_double(R3, [E], [F], [x], [x]).binding
            assert ev.lhs == pytest.approx(0.0, abs=1e-12 * ev.scale[0])
            assert ev.rhs == pytest.approx(norm(R3, x) ** 2, rel=1e-12)
            assert ev.holds

    def test_requires_real(self):
        s = SpaceSpec(2, Field.COMPLEX)
        with pytest.raises(DomainError):
            eval_real_double(s, [fam(s, [1.0, 0.0])], [empty_fam(s)], [[1.0, 0.0]], [[0.0, 1.0]])


class TestKurepa:
    def test_dim1_double_equality(self):
        z = ComplexifiedVector(np.array([3.0]), np.array([4.0]))
        ch = eval_kurepa(R1, a=[[1.0]], z=[z])
        assert ch.links[0].lhs == pytest.approx(25.0)
        assert ch.links[0].rhs == pytest.approx(25.0)
        assert ch.links[1].lhs == pytest.approx(25.0)
        assert ch.links[1].rhs == pytest.approx(25.0)
        assert ch.binding.near_equality

    def test_real_part_only_reduces_to_schwarz(self):
        z = ComplexifiedVector(np.array([1.0, 2.0]), np.zeros(2))
        ch = eval_kurepa(R2, a=[[3.0, 1.0]], z=[z])
        # <z, conj z> = ||z||^2, so the second link is tight.
        assert ch.links[1].margin_upper == pytest.approx(0.0, abs=1e-12)
        assert ch.links[0].lhs == pytest.approx((3.0 * 1 + 1.0 * 2) ** 2)

    def test_orthogonal_equal_norm_parts_halve_the_cap(self):
        z = ComplexifiedVector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        ch = eval_kurepa(R2, a=[[5.0, 0.0]], z=[z])
        # <z, conj z> = 0 so the middle is half of ||a||^2 ||z||^2.
        assert ch.links[0].rhs == pytest.approx(0.5 * 25.0 * 2.0)
        assert ch.links[1].rhs == pytest.approx(25.0 * 2.0)
        assert ch.links[1].margin_upper == pytest.approx(25.0)

    def test_zero_a_rejected(self):
        z = ComplexifiedVector(np.array([1.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            eval_kurepa(R1, a=[[0.0]], z=[z])

    def test_random_soundness(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            z = ComplexifiedVector(rng.standard_normal(3), rng.standard_normal(3))
            ch = eval_kurepa(R3, [rng.standard_normal(3)], [z])
            assert ch.links[0].holds and ch.links[1].holds


class TestKurepaRefined:
    def test_real_w_identical_families(self):
        E = fam(R2, [1.0, 0.0], [0.0, 1.0])
        w = ComplexifiedVector(np.array([1.0, 2.0]), np.zeros(2))
        ch = eval_kurepa_refined(R2, [E], [E], [w])
        # The two family sums cancel (T = 0) while <w, conj w> = ||w||^2 = 5,
        # so the first link is slack by 5 and the last two are tight.
        assert ch.links[0].lhs == pytest.approx(0.0, abs=1e-12)
        assert ch.links[0].margin_upper == pytest.approx(5.0)
        assert ch.links[1].margin_upper == pytest.approx(0.0, abs=1e-12)
        assert ch.links[2].margin_upper == pytest.approx(0.0, abs=1e-12)
        assert ch.binding.near_equality

    def test_real_w_single_complete_family_all_tight(self):
        # With a complete family on one side only and a real w the sum T
        # equals ||w||^2, which makes all three links equalities at once.
        E = fam(R2, [1.0, 0.0], [0.0, 1.0])
        w = ComplexifiedVector(np.array([1.0, 2.0]), np.zeros(2))
        ch = eval_kurepa_refined(R2, [E], [empty_fam(R2)], [w])
        for ev in ch.links:
            assert ev.margin_upper == pytest.approx(0.0, abs=1e-12)
        assert ch.binding.near_equality

    def test_standard_basis_hand_values(self):
        E = fam(R2, [1.0, 0.0], [0.0, 1.0])
        w = ComplexifiedVector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        ch = eval_kurepa_refined(R2, [E], [empty_fam(R2)], [w])
        assert ch.links[0].lhs == pytest.approx(0.0, abs=1e-15)
        assert ch.links[0].rhs == pytest.approx(0.0, abs=1e-15)
        assert ch.links[1].lhs == pytest.approx(0.0, abs=1e-15)
        assert ch.links[1].rhs == pytest.approx(1.0)
        assert ch.links[2].lhs == pytest.approx(1.0)
        assert ch.links[2].rhs == pytest.approx(2.0)
        assert ch.binding.near_equality

    def test_singleton_family_scales_to_kurepa(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = rng.standard_normal(3)
            na = np.linalg.norm(a)
            if na < 1e-3:
                continue
            E = fam(R3, *(a / na,))
            z = ComplexifiedVector(rng.standard_normal(3), rng.standard_normal(3))
            refined = eval_kurepa_refined(R3, [E], [empty_fam(R3)], [z])
            base = eval_kurepa(R3, [a], [z])
            assert refined.links[0].lhs * na**2 == pytest.approx(base.links[0].lhs, rel=1e-11, abs=1e-11)
            assert refined.links[2].rhs * na**2 == pytest.approx(base.links[1].rhs, rel=1e-11)

    def test_random_soundness(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            E = random_family(rng, R3, int(rng.integers(0, 4)))
            F = random_family(rng, R3, int(rng.integers(0, 4)))
            w = ComplexifiedVector(rng.standard_normal(3), rng.standard_normal(3))
            ch = eval_kurepa_refined(R3, [E], [F], [w])
            assert all(ev.holds for ev in ch.links)
            assert ch.links[0].rhs == pytest.approx(ch.links[1].lhs, rel=1e-12)
            assert ch.links[1].rhs == pytest.approx(ch.links[2].lhs, rel=1e-12)


class TestOneMemberFamilyReductions:
    """The classical statements are the one-member-family cases of the
    generalized ones.  With x^ = x/||x|| and y^ = y/||y|| as families,
    (1.1) is (2.14) with E = {x^}, F = {y^} and the vectors a, b, and (1.5)
    its center with b = a; (1.3) and (1.14) are ||x||^2 times (2.14) and
    (2.10) with E = {x^} and F empty.  The family statements are coded
    apart from the classical ones, so each side checks the other."""

    REL = 1e-12

    @staticmethod
    def _groups(field, n=40):
        """(space, a, b, x, y) groups of n instances over dims 1..8, identity
        and random grams, each vector's norm spread over six decades."""
        rng = np.random.default_rng(2005)
        for dim in range(1, 9):
            for weighted in (False, True):
                gram = None
                if weighted:
                    factor = rng.standard_normal((dim, dim))
                    if field is Field.COMPLEX:
                        factor = factor + 1j * rng.standard_normal((dim, dim))
                    gram = gram_from_factor(factor, 0.5)
                space = SpaceSpec(dim, field, gram)
                yield space, *([random_vec(rng, space) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]
                               for _ in range(4))

    @staticmethod
    def _unit(space, vectors):
        return [OrthonormalFamily(space, (v / norm(space, v))[np.newaxis]) for v in vectors]

    def _close(self, got, want, scale):
        assert np.all(np.abs(got - want) <= self.REL * scale)

    def test_precupanu_is_real_double_of_two_unit_families(self):
        for space, a, b, x, y in self._groups(Field.REAL):
            E, F = self._unit(space, x), self._unit(space, y)
            (classical,) = eval_precupanu(space, a, b, x, y).links
            (family,) = eval_real_double(space, E, F, a, b).links
            for part in ("lhs", "center", "rhs"):
                self._close(getattr(classical, part), getattr(family, part), classical.scale)
            (self_form,) = eval_precupanu_self(space, a, x, y).links
            (family,) = eval_real_double(space, E, F, a, a).links
            self._close(self_form.center, family.center, self_form.scale)

    def test_richard_is_real_double_of_one_unit_family(self):
        for space, a, b, x, _ in self._groups(Field.REAL):
            nx2 = np.array([norm(space, v) ** 2 for v in x])
            empty = [empty_fam(space)] * len(x)
            (classical,) = eval_richard(space, a, b, x).links
            (family,) = eval_real_double(space, self._unit(space, x), empty, a, b).links
            for part in ("lhs", "center", "rhs"):
                self._close(getattr(classical, part), nx2 * getattr(family, part), classical.scale)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_buzano_is_chain_of_one_unit_family(self, field):
        for space, a, b, x, _ in self._groups(field):
            nx2 = np.array([norm(space, v) ** 2 for v in x])
            empty = [empty_fam(space)] * len(x)
            (classical,) = eval_buzano(space, a, b, x).links
            first, second = eval_chain(space, self._unit(space, x), empty, a, b).links
            self._close(classical.lhs, nx2 * first.lhs, classical.scale)
            self._close(classical.rhs, nx2 * second.rhs, classical.scale)


class TestExtendedPrecision:
    def test_double_and_extended_mirror(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            x = rng.standard_normal(3)
            d = eval_richard(R3, [a], [b], [x]).binding
            e = eval_richard(R3, [a], [b], [x], extended=True).binding
            assert e.center == pytest.approx(d.center, rel=1e-8, abs=1e-8 * d.scale[0])
            assert e.lhs == pytest.approx(d.lhs, rel=1e-8, abs=1e-8 * d.scale[0])
            assert e.rhs == pytest.approx(d.rhs, rel=1e-8, abs=1e-8 * d.scale[0])

    def test_extended_resolves_cancellation(self):
        # x and y nearly parallel: the schwarz margin is dominated by
        # cancellation; extended mode must keep it nonnegative.
        x = np.array([1.0, 1e-9])
        y = np.array([1.0, 0.0])
        ev = eval_schwarz(R2, [x], [y], extended=True).binding
        assert ev.margin_upper >= 0.0

    @pytest.mark.parametrize(
        "name, field",
        [pytest.param(n, f, id=f"{n}-{f.value}") for n, e in CATALOG.items() for f in e.fields],
    )
    def test_every_pairing_gets_extended_operands(self, name, field, monkeypatch):
        choice = FieldChoice.REAL if field is Field.REAL else FieldChoice.COMPLEX
        config = SearchConfig(seed=3, trials=1, dims=(3, 3), field=choice, gram=GramKind.RANDOM)
        sampled = sample_instance(config, name, 0)
        assert sampled.space.field is field
        seen = record_pairings(monkeypatch)
        run_catalog(name, sampled.space, sampled.inputs, extended=True)
        # every pairing, generalized-2.1's reflection route (its last) included
        ext = field.extended_dtype
        assert seen and all(pair == (ext, ext) for pair in seen)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="needs 80-bit long double")
    def test_double_and_extended_links_are_pinned(self):
        digest = hashlib.sha256()
        for gram in (GramKind.IDENTITY, GramKind.RANDOM):
            config = SearchConfig(seed=7, trials=100, dims=(1, 8), field=FieldChoice.BOTH, gram=gram)
            for name, entry in CATALOG.items():
                for index in range(100):
                    sampled = sample_instance(config, name, index)
                    for extended in (False, True):
                        result = entry.run(sampled.space, sampled.inputs, extended=extended)
                        # each field of the group of one as its row 0
                        for ev in result.links:
                            fields = (*(None if v is None else float(v[0])
                                        for v in (ev.lhs, ev.center, ev.rhs, ev.margin_lower, ev.margin_upper)),
                                      bool(ev.holds[0]), bool(ev.near_equality[0]), float(ev.scale[0]))
                            digest.update(repr(fields).encode())
                        premises = None if result.premises_hold is None else bool(result.premises_hold[0])
                        digest.update(repr(premises).encode())
        assert digest.hexdigest() == "d3dfef1564e82aef14cfeb5ca81a43239aa1dffa01f38136772d1db5c1aba81c"


class TestCatalogRegistry:
    def test_names_and_order(self):
        assert list(CATALOG) == NAMES

    def test_field_capabilities(self):
        complex_ok = {name for name, entry in CATALOG.items() if Field.COMPLEX in entry.fields}
        assert complex_ok == {"schwarz", "buzano-1.14", "buzano-moore-1.16", "generalized-2.1", "chain-2.10"}
        assert all(Field.REAL in entry.fields for entry in CATALOG.values())

    def test_run_catalog_smoke_all_names(self):
        e1 = [1.0, 0.0]
        e2 = [0.0, 1.0]
        z = ComplexifiedVector(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        inputs = {
            "schwarz": {"x": [1.0, 1.0], "y": e1},
            "precupanu-1.1": {"a": e1, "b": e1, "x": e1, "y": e2},
            "richard-1.3": {"a": [1.0, 1.0], "b": [1.0, -1.0], "x": e1},
            "precupanu-self-1.5": {"a": e1, "x": e1, "y": e2},
            "angle-1.6": {"a": [1.0, 1.0], "x": [1.0, 1.0], "y": [1.0, 1.0]},
            "moore-1.9": {"x": e1, "y": e1, "z": e1},
            "precupanu-moore-1.12": {"a": e1, "b": e1, "x": e1},
            "buzano-1.14": {"a": [1.0, 1.0], "b": [1.0, -1.0], "x": e1},
            "buzano-moore-1.16": {"x": e1, "a": e1, "b": e1},
            "t1.5-i": {"a": e1, "x": e1, "y": e1},
            "t1.5-ii": {"a": e1, "b": e1, "x": e1},
            "generalized-2.1": {"E": fam(R2, e1), "F": empty_fam(R2), "x": [1.0, 1.0], "y": e1},
            "chain-2.10": {"E": fam(R2, e1), "F": empty_fam(R2), "x": [1.0, 1.0], "y": e1},
            "real-double-2.14": {"E": fam(R2, e1), "F": fam(R2, e2), "x": [1.0, 1.0], "y": [1.0, 1.0]},
            "kurepa-3.2": {"a": e1, "z": z},
            "kurepa-refined-3.3": {"E": fam(R2, e1), "F": empty_fam(R2), "w": z},
        }
        for name in NAMES:
            result = run_catalog(name, R2, inputs[name])
            assert result.links, name
            assert result.binding in result.links
            assert all(ev.holds for ev in result.links), name
            entry = CATALOG[name]
            if entry.has_premises:
                assert result.premises_hold.tolist() == [True]
            else:
                assert result.premises_hold is None

    def test_run_catalog_rejects_wrong_field(self):
        with pytest.raises(DomainError):
            run_catalog("richard-1.3", C2, {"a": [1, 0], "b": [0, 1], "x": [1, 0]})

    @pytest.mark.parametrize("name", NAMES)
    def test_statement_takes_the_entry_arguments_in_order(self, name):
        # run passes the inputs positionally in `args` order, then params
        entry = CATALOG[name]
        parameters = list(inspect.signature(entry.statement).parameters.values())
        assert parameters[0].name == "space"
        positional = [p.name for p in parameters[1:] if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert positional == [*entry.args, *(["params"] if entry.has_premises else [])]

    def test_every_entry_has_a_vector_or_complexified_argument(self):
        # so the descent's flat coordinates of an instance are never empty
        assert all(entry.vector_args or entry.complexified_args for entry in CATALOG.values())

    def test_argument_layout_metadata(self):
        entry = CATALOG["generalized-2.1"]
        assert entry.family_args == ("E", "F")
        assert entry.vector_args == ("x", "y")
        assert CATALOG["kurepa-3.2"].complexified_args == ("z",)
        assert CATALOG["moore-1.9"].has_premises
        assert not CATALOG["schwarz"].has_premises

    def test_weighted_space_soundness_sweep(self):
        rng = np.random.default_rng(59)
        g = gram_from_factor(rng.standard_normal((3, 3)), 0.5)
        s = SpaceSpec(3, Field.REAL, g)
        E = random_family(rng, s, 2)
        F = random_family(rng, s, 1)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            for result in (
                run_catalog("generalized-2.1", s, {"E": E, "F": F, "x": x, "y": y}),
                run_catalog("chain-2.10", s, {"E": E, "F": F, "x": x, "y": y}),
                run_catalog("real-double-2.14", s, {"E": E, "F": F, "x": x, "y": y}),
            ):
                assert all(ev.holds for ev in result.links)


def _spoiled(space, value):
    """Copies of a vector argument with a NaN coordinate, with one
    coordinate too many and, in a real space, with complex coordinates; of
    a complexified argument, one too long, a plain vector and, built
    unchecked as the ascent codec builds its pairs, one with a NaN
    coordinate in either part (public construction refuses NaN itself)."""
    if isinstance(value, ComplexifiedVector):
        nan = np.array(value.re, copy=True)
        nan[0] = np.nan
        return [ComplexifiedVector(np.append(value.re, 1.0), np.append(value.im, 1.0)), value.re,
                ComplexifiedVector._checked(nan, value.im), ComplexifiedVector._checked(value.re, nan)]
    with_nan = np.array(value, copy=True)
    with_nan[0] = np.nan
    complex_coordinates = [value + 1j] if space.field is Field.REAL else []
    return [with_nan, np.append(value, value[0]), *complex_coordinates]


class TestBoundaryValidation:
    """Statements validate each argument once on entry and then pair without
    checks, so a bad argument must still be rejected at both precisions."""

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize(
        "name, arg",
        [(n, a) for n, e in CATALOG.items() for a in (*e.vector_args, *e.complexified_args)],
    )
    def test_bad_vector_argument_raises(self, name, arg, extended):
        entry = CATALOG[name]
        config = SearchConfig(seed=0, trials=len(entry.fields), dims=(3, 3))
        for index in range(len(entry.fields)):  # one trial per field
            sampled = sample_instance(config, name, index)
            for bad in _spoiled(sampled.space, sampled.inputs[arg]):
                with pytest.raises(DomainError):
                    entry.run(sampled.space, {**sampled.inputs, arg: bad}, extended=extended)

    # the arguments each statement requires nonzero; the statements that
    # share a kernel pass it their own argument names
    NONZERO = {
        "precupanu-1.1": "xy", "richard-1.3": "x", "precupanu-self-1.5": "xy", "angle-1.6": "axy",
        "moore-1.9": "xyz", "precupanu-moore-1.12": "abx", "buzano-1.14": "x", "buzano-moore-1.16": "xab",
        "t1.5-i": "axy", "t1.5-ii": "abx", "generalized-2.1": "xy", "chain-2.10": "xy", "real-double-2.14": "xy",
        "kurepa-3.2": "a",
    }

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("name, arg", [(n, a) for n, e in CATALOG.items() for a in e.vector_args])
    def test_zero_vector_argument(self, name, arg, extended):
        entry = CATALOG[name]
        config = SearchConfig(seed=0, trials=len(entry.fields), dims=(3, 3))
        for index in range(len(entry.fields)):  # one trial per field
            sampled = sample_instance(config, name, index)
            zeroed = {**sampled.inputs, arg: np.zeros_like(sampled.inputs[arg])}
            if arg in self.NONZERO.get(name, ""):
                with pytest.raises(DomainError, match=f"^{arg} must be nonzero$"):
                    entry.run(sampled.space, zeroed, extended=extended)
            else:
                assert entry.run(sampled.space, zeroed, extended=extended).holds.all()

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("name, arg", [(n, a) for n, e in CATALOG.items() for a in e.family_args])
    def test_bad_family_argument_raises(self, name, arg, extended):
        entry = CATALOG[name]
        config = SearchConfig(seed=0, trials=len(entry.fields), dims=(3, 3), gram=GramKind.RANDOM)
        for index in range(len(entry.fields)):  # one trial per field
            sampled = sample_instance(config, name, index)
            space, family = sampled.space, sampled.inputs[arg]
            with pytest.raises(DomainError, match=f"^{arg} must be an OrthonormalFamily$"):
                entry.run(space, {**sampled.inputs, arg: family.members}, extended=extended)
            plain = SpaceSpec(space.dim, space.field)
            other = gram_schmidt(plain, family.members) if family.size else empty_fam(plain)
            with pytest.raises(DomainError, match=f"^family {arg} carries a different gram weighting$"):
                entry.run(space, {**sampled.inputs, arg: other}, extended=extended)
            # an equal gram held by another SpaceSpec object is the same weighting
            twin = OrthonormalFamily(SpaceSpec(space.dim, space.field, space.gram.copy()), family.members)
            same = entry.run(space, {**sampled.inputs, arg: twin}, extended=extended)
            expected = entry.run(space, sampled.inputs, extended=extended)
            for got, want in zip(same.links, expected.links):
                assert all(_same_bits(getattr(got, f), getattr(want, f)) for f in _LINK_FIELDS)


_LINK_FIELDS = ("lhs", "center", "rhs", "margin_lower", "margin_upper", "holds", "near_equality", "scale")


def _same_bits(a, b) -> bool:
    """Equal arrays in value, NaN for NaN and sign of zero (long double
    included, whose padding bytes a byte compare would read)."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype != bool) and (
        a.dtype == bool or np.array_equal(np.signbit(a), np.signbit(b)))


class TestStackedKernels:
    """A group evaluates each of its members exactly as a group of one does."""

    @pytest.mark.parametrize(
        "name, field, gram",
        [pytest.param(n, f, g, id=f"{n}-{f.value}-{g.value}")
         for n, e in CATALOG.items() for f in e.fields for g in GramKind],
    )
    def test_group_equals_its_batches_of_one(self, name, field, gram):
        entry = CATALOG[name]
        choice = FieldChoice.REAL if field is Field.REAL else FieldChoice.COMPLEX
        # 32 trials in each dimension 1..8
        config = SearchConfig(seed=11, trials=8 * 32, dims=(1, 8), field=choice, gram=gram)
        # one group per space, as a shard groups them (family sizes mixed)
        groups = {}
        for index in range(config.trials):
            sampled = sample_instance(config, name, index)
            groups.setdefault(sampled.space, []).append(sampled.inputs)
        for space, members in groups.items():
            for extended in (False, True):
                group = entry.run(space, members, extended=extended)
                for i, inputs in enumerate(members):
                    one = entry.run(space, [inputs], extended=extended)
                    for stacked, single in zip(group.links, one.links):
                        for name_ in _LINK_FIELDS:
                            row = getattr(stacked, name_)
                            assert _same_bits(None if row is None else row[i : i + 1], getattr(single, name_)), name_
                    if one.premises_hold is not None:
                        assert group.premises_hold[i] == one.premises_hold[0]


def _moved(space: SpaceSpec, inputs: dict, basis: np.ndarray) -> dict:
    """An instance's inputs mapped by v -> basis^T v, family members (rows)
    by m -> m basis, into the identity-gram space of its field; with basis
    = L Q^T, G = L L^H and Q unitary, every pairing is kept."""
    plain = SpaceSpec(space.dim, space.field)
    moved = {}
    for k, value in inputs.items():
        if isinstance(value, OrthonormalFamily):
            moved[k] = OrthonormalFamily(plain, value.members @ basis)
        elif isinstance(value, ComplexifiedVector):
            moved[k] = ComplexifiedVector(basis.T @ value.re, basis.T @ value.im)
        else:
            moved[k] = basis.T @ value
    return moved


class TestRepresentationInvariance:
    """Every statement is about an abstract inner-product space, so its
    verdicts may not depend on the basis: an instance of a random-gram space
    moved to the identity-gram space (and over C turned by a random unitary)
    keeps its premise verdicts and, to roundoff, its binding normalized
    margin.  A fault that sits in both a group's path and a lone instance's
    (a gram on the wrong side, a dropped conjugate) shows here."""

    @pytest.mark.parametrize(
        "name, field", [pytest.param(n, f, id=f"{n}-{f.value}") for n, e in CATALOG.items() for f in e.fields])
    def test_verdicts_and_margins_keep_under_a_change_of_basis(self, name, field):
        entry = CATALOG[name]
        choice = FieldChoice.REAL if field is Field.REAL else FieldChoice.COMPLEX
        config = SearchConfig(seed=5, trials=400, dims=(1, 8), field=choice, gram=GramKind.RANDOM)
        rng = np.random.default_rng(17)
        groups = {}
        for sampled in sample_instance(config, name, list(range(config.trials))):
            groups.setdefault(sampled.space, []).append(sampled.inputs)
        for space, members in groups.items():
            basis = space.chol
            if field is Field.COMPLEX:
                square = (space.dim, space.dim)
                turn, _ = np.linalg.qr(rng.standard_normal(square) + 1j * rng.standard_normal(square))
                basis = basis @ turn.T
            here = entry.run(space, members)
            there = entry.run(SpaceSpec(space.dim, field), [_moved(space, one, basis) for one in members])
            if here.premises_hold is not None:
                assert np.array_equal(here.premises_hold, there.premises_hold), space.dim
            np.testing.assert_allclose(there.binding.normalized_margin, here.binding.normalized_margin,
                                       rtol=0, atol=1e-12, err_msg=f"dim {space.dim}")


_MARGIN_VALUES = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(-2.0, 2.0))
_SCALES = st.sampled_from([1.0, 2.0, 0.0, 1e-310, math.nan])


@st.composite
def _link_stacks(draw):
    """A StackedResult of 1-3 links of one kind (two sided, one sided upper
    or one sided lower) on 1-4 rows, from values that make NaN, signed zero
    and tied margins common."""
    n = draw(st.integers(1, 4))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)

    kind = draw(st.sampled_from(["two", "upper", "lower"]))
    scale = column(_SCALES)
    links = []
    for _ in range(draw(st.integers(1, 3))):
        center = None if kind == "upper" else column(_MARGIN_VALUES)
        rhs = None if kind == "lower" else column(_MARGIN_VALUES)
        links.append(stacked_evaluation(scale, column(_MARGIN_VALUES), center=center, rhs=rhs))
    return StackedResult(tuple(links))


def _same_scalar(a, b) -> bool:
    """Equal as Python values, NaN for NaN and sign of zero."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestBindingRule:
    """StackedResult picks each row's binding link as Python's min and max
    pick on that row's floats."""

    @staticmethod
    def _min_margin(link, i) -> float:
        return min(float(m[i]) for m in (link.margin_lower, link.margin_upper) if m is not None)

    def _normalized(self, link, i) -> float:
        return self._min_margin(link, i) / max(float(link.scale[i]), 1e-300)

    @settings(max_examples=300, deadline=None)
    @given(_link_stacks())
    def test_binding_and_margins_pick_as_min_and_max(self, result):
        binding = result.binding
        for i in range(len(result.links[0].lhs)):
            for link in result.links:
                assert _same_scalar(link.min_margin[i].item(), self._min_margin(link, i))
                assert _same_scalar(link.normalized_margin[i].item(), self._normalized(link, i))
            # the first link with the smallest key; a NaN key binds only first
            chosen = min(result.links, key=lambda link: self._normalized(link, i))
            for name in _LINK_FIELDS:
                mine, theirs = getattr(binding, name), getattr(chosen, name)
                assert _same_scalar(None if mine is None else mine[i].item(),
                                    None if theirs is None else theirs[i].item()), name
            assert _same_scalar(binding.min_margin[i].item(), self._min_margin(chosen, i))
            assert _same_scalar(binding.normalized_margin[i].item(), self._normalized(chosen, i))
            assert result.holds[i].item() is all(bool(link.holds[i]) for link in result.links)


def _fnv_reference(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def _full_widths(blocks):
    """Each block's rows at their full width."""
    return [np.full(len(block), block.shape[1], dtype=np.intp) for block in blocks]


class TestBatchedDigest:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=48), max_size=16))
    def test_rows_hash_as_the_byte_loop(self, strings):
        # one block per length, rows in order of appearance, plus one block per string
        by_length = {}
        for data in strings:
            by_length.setdefault(len(data), []).append(data)
        blocks = [np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), length)
                  for length, rows in by_length.items()]
        expected = [_fnv_reference(data) for rows in by_length.values() for data in rows]
        assert fnv1a_64_rows(blocks, _full_widths(blocks)) == expected
        singles = [np.frombuffer(data, dtype=np.uint8).reshape(1, len(data)) for data in strings]
        assert fnv1a_64_rows(singles, _full_widths(singles)) == [_fnv_reference(data) for data in strings] == [
            fnv1a_64(d) for d in strings]

    @pytest.mark.parametrize("per_length, chunks_of", [(1, None), (3, None), (1, 256), (2, 100)],
                             ids=["one-row-groups", "three-row-groups", "chunk-of-256", "narrow-chunk"])
    def test_lengths_straddling_a_chunk_boundary(self, per_length, chunks_of):
        # a chunk spans _FNV_CHUNK_BYTES of uint64 columns over the active
        # rows; a block of 2304-byte filler rows brings the active rows up to
        # as many as make the first chunk `chunks_of` columns wide
        lengths = (0, 1, 255, 256, 257, 2304)
        rng = np.random.default_rng(11)
        blocks = [rng.integers(0, 256, size=(per_length, n), dtype=np.uint8) for n in lengths]
        if chunks_of:
            active = _FNV_CHUNK_BYTES // (8 * chunks_of)
            assert _FNV_CHUNK_BYTES // (8 * active) == chunks_of
            blocks.insert(2, rng.integers(0, 256, size=(active - per_length * (len(lengths) - 1), 2304), dtype=np.uint8))
        expected = [_fnv_reference(row.tobytes()) for block in blocks for row in block]
        assert fnv1a_64_rows(blocks, _full_widths(blocks)) == expected
