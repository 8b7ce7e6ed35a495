"""Tests for the randomized search harness.

The digest constants in TestGoldenStreams were captured from the first build
of the sampler and are frozen: they pin the exact byte layout of the
deterministic sampling streams (Philox keying, draw order, whitening), so any
accidental reordering of draws shows up as a digest mismatch here.
"""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineq_forge import cli, falsifier
from ineq_forge.catalog import (
    CATALOG,
    CatalogEntry,
    MooreParams,
    StackedResult,
    TOL_ABS,
    TOL_REL,
    catalog_names,
    digest_inputs,
    eval_generalized,
    eval_schwarz,
    fnv1a_64,
    instance_digest,
    stacked_evaluation,
)
from ineq_forge.falsifier import (
    FieldChoice,
    GramKind,
    SearchConfig,
    TOP_K,
    Verdict,
    _CoordCodec,
    _binding_rows,
    _bucket,
    _central_gradient,
    _complexify,
    _conditioned,
    _Draws,
    _gram_rng,
    _instance_records,
    _moore_ratios,
    _SAMPLERS,
    _name_key,
    _random_gram,
    _refine_moore_candidate,
    _sample_alone,
    _sample_anchored,
    _sample_generic,
    _sample_trials,
    _sample_quotient_transfer,
    _shard_worker,
    _probe_points,
    _probed,
    _trial_rng,
    _vectors,
    falsify,
    local_ascent,
    moore_complex_experiment,
    sample_instance,
)
from ineq_forge.orthonormal import OrthonormalFamily, gram_schmidt
from ineq_forge.spaces import ComplexifiedVector, DomainError, Field, SpaceSpec, inner, norm, zero_norm_threshold


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.trials == 10000
        assert cfg.dims == (2, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 2**64},
            {"trials": -1},
            {"dims": (0, 4)},
            {"dims": (5, 2)},
            {"ascent_steps": -2},
            {"step_size": 0.0},
            {"step_size": 1.5},
            {"fd_eps": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SearchConfig(**kwargs)


class TestGoldenStreams:
    """Frozen digests pin the sampling byte streams."""

    def test_generalized_identity_trial_zero(self):
        cfg = SearchConfig(seed=42, trials=1, dims=(2, 2))
        s = sample_instance(cfg, "generalized-2.1", 0)
        assert instance_digest("generalized-2.1", s.space, s.inputs) == "18f816d9bbd29671"

    def test_schwarz_random_gram_complex(self):
        cfg = SearchConfig(seed=42, trials=1, dims=(3, 3), gram=GramKind.RANDOM, field=FieldChoice.COMPLEX)
        s = sample_instance(cfg, "schwarz", 0)
        assert s.space.field is Field.COMPLEX
        assert instance_digest("schwarz", s.space, s.inputs) == "deee968abbe540c8"

    def test_report_digest_matches_worst_trial(self):
        cfg = SearchConfig(seed=42, trials=1, dims=(2, 2))
        report = falsify("generalized-2.1", cfg)
        assert report.worst_instance_digest == "18f816d9bbd29671"

    def test_sampled_digests_of_every_name_field_and_gram(self):
        # 29600 instances: every name, each field choice it allows, both
        # grams, trials 0-399 over dims 1..8; the samplers read the entries'
        # argument names, so this also pins the registry layout they see
        digest = hashlib.sha256()
        for name, entry in CATALOG.items():
            choices = [c for c in FieldChoice if c is not FieldChoice.COMPLEX or Field.COMPLEX in entry.fields]
            for choice in choices:
                for gram in GramKind:
                    cfg = SearchConfig(seed=7, trials=400, dims=(1, 8), field=choice, gram=gram)
                    for i in range(cfg.trials):
                        s = sample_instance(cfg, name, i)
                        d = instance_digest(name, s.space, s.inputs)
                        digest.update(f"{name} {choice.value} {gram.value} {i} {d} {int(s.starved)}\n".encode())
        assert digest.hexdigest() == "2da97bf23e8602e43c641b9d0debf932078917d31a31002b14e8fe850c5eb333"


class TestDimFieldCycling:
    def test_dims_cycle_then_fields_alternate_blockwise(self):
        cfg = SearchConfig(seed=1, trials=8, dims=(2, 3))
        entry = CATALOG["schwarz"]
        seen = [sample_instance(cfg, "schwarz", i).space for i in range(4)]
        assert [s.dim for s in seen] == [2, 3, 2, 3]
        assert seen[0].field is entry.fields[0]
        assert seen[2].field is entry.fields[1]

    def test_real_only_name_rejects_complex(self):
        cfg = SearchConfig(field=FieldChoice.COMPLEX)
        with pytest.raises(DomainError):
            falsify("richard-1.3", cfg)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            sample_instance(SearchConfig(), "no-such-ineq", 0)
        with pytest.raises(DomainError):
            falsify("no-such-ineq", SearchConfig())


class TestDeterminism:
    def test_same_config_same_report(self):
        cfg = SearchConfig(seed=11, trials=300, dims=(1, 5), gram=GramKind.RANDOM)
        assert falsify("buzano-1.14", cfg) == falsify("buzano-1.14", cfg)

    def test_thread_count_does_not_change_results(self):
        cfg = SearchConfig(seed=5, trials=8200, dims=(2, 3))
        assert falsify("schwarz", cfg, threads=1) == falsify("schwarz", cfg, threads=2)

    def test_pool_has_at_most_one_worker_per_shard(self, monkeypatch):
        # an in-process stand-in for the pool: it records its size and maps
        # the shards in order, so no process starts however large the count
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        cfg = SearchConfig(seed=5, trials=2 * falsifier.SHARD_SIZE + 1, dims=(2, 3))
        monkeypatch.setattr(falsifier, "ProcessPoolExecutor", InProcessPool)
        assert falsify("schwarz", cfg, threads=10**6) == falsify("schwarz", cfg, threads=1)
        assert sizes == [3]  # one pool, opened by the first run only

    def test_trial_rng_streams_are_disjoint_across_names(self):
        a = _trial_rng(0, "schwarz", 0).standard_normal(4)
        b = _trial_rng(0, "buzano-1.14", 0).standard_normal(4)
        assert not np.allclose(a, b)


def _moore_complex_sample(config, params, index):
    """One sample of the complex-premise experiment, alone."""
    space, inputs, _ = _sample_alone(config, "moore-complex", CATALOG["moore-1.9"], params, (Field.COMPLEX,), index)
    return space, inputs


def _fresh_rng(seed, name, index):
    return np.random.Generator(np.random.Philox(key=[seed, _name_key(name)], counter=[0, 0, 0, index]))


def _input_bytes(inputs):
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, OrthonormalFamily):
            parts.append(value.members.tobytes())
        elif isinstance(value, ComplexifiedVector):
            parts += [value.re.tobytes(), value.im.tobytes()]
        else:
            parts.append(np.asarray(value).tobytes())
    return b"|".join(parts)


class TestStreamReuse:
    """One generator per (seed, name) is reset for every trial; its draws
    must be those of a freshly built Philox at the trial's counter."""

    @pytest.mark.parametrize(
        "name, field",
        [
            ("generalized-2.1", FieldChoice.BOTH),  # draws integers (family sizes)
            ("t1.5-ii", FieldChoice.BOTH),
            ("buzano-moore-1.16", FieldChoice.COMPLEX),
        ],
    )
    def test_out_of_order_trials_match_fresh_generators(self, name, field):
        cfg = SearchConfig(seed=17, trials=8, dims=(2, 4), field=field)
        entry = CATALOG[name]
        for index in (5, 2, 5):
            sampled = sample_instance(cfg, name, index)
            sampler = _SAMPLERS.get(name, _sample_generic)
            rng = _fresh_rng(cfg.seed, name, index)
            expected, starved = sampler(entry, sampled.space, None, _Draws(rng=rng), entry.default_params)
            assert _input_bytes(sampled.inputs) == _input_bytes(expected)
            assert sampled.starved == starved

    def test_partial_integers_draw_is_reset(self):
        # one bounded integer uses half of a 64-bit word and part of the
        # four-word buffer; a new request must not see the leftovers
        _trial_rng(23, "schwarz", 4).integers(0, 7)
        again = _trial_rng(23, "schwarz", 4)
        fresh = _fresh_rng(23, "schwarz", 4)
        for draw in (lambda r: r.integers(0, 7, size=5), lambda r: r.standard_normal(6), lambda r: r.uniform(size=3)):
            assert np.array_equal(draw(again), draw(fresh))

    @pytest.mark.parametrize("seed", [0, 987654321])
    def test_gram_draws_match_fresh_generators(self, seed):
        # the gram substream shares the trials' generator, at counter word 2 = 1
        name = "generalized-2.1"
        for dim in range(1, 9):
            for field in Field:
                word = dim * 2 + (1 if field is Field.COMPLEX else 0)
                fresh = np.random.Generator(np.random.Philox(key=[seed, fnv1a_64(name.encode())], counter=[0, 0, 1, word]))
                assert np.array_equal(_gram_rng(seed, name, dim, field).standard_normal(2 * dim * dim),
                                      fresh.standard_normal(2 * dim * dim))

    def test_trial_after_a_gram_draw_is_unchanged(self):
        before = _trial_rng(5, "schwarz", 3).standard_normal(8)
        _gram_rng(5, "schwarz", 4, Field.COMPLEX).standard_normal(32)
        after = _trial_rng(5, "schwarz", 3).standard_normal(8)
        assert np.array_equal(before, after)
        assert np.array_equal(after, _fresh_rng(5, "schwarz", 3).standard_normal(8))


_LINE_FLOATS = st.one_of(
    st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@functools.lru_cache(maxsize=None)
def _line_samples(name):
    config = SearchConfig(seed=3, trials=6, dims=(1, 3), field=FieldChoice.BOTH, gram=GramKind.RANDOM)
    return sample_instance(config, name, list(range(config.trials)))


def _reference_lines(name, seed, samples, rows):
    """The instance lines as cli.to_json spells each record's dict, the
    record keyed and ordered as the lines are, each digest taken alone."""
    return [cli.to_json({"ineq": name, "dim": sampled.space.dim, "field": sampled.space.field.name.lower(),
                         "seed": seed, "digest": instance_digest(name, sampled.space, sampled.inputs),
                         "lhs": lhs, "center": center, "rhs": rhs, "margin_lower": lower, "margin_upper": upper,
                         "holds": holds, "near_equality": near}) + "\n"
            for sampled, (_, premises, _, holds, near, (lhs, center, rhs, lower, upper)) in zip(samples, rows)
            if premises]


class TestInstanceLineSpelling:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(catalog_names()),
        seed=st.integers(0, 2**64 - 1),
        flags=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=6, max_size=6),
        fields=st.lists(st.tuples(*[_LINE_FLOATS] * 5), min_size=6, max_size=6),
    )
    def test_lines_are_to_json_of_the_record(self, name, seed, flags, fields):
        samples = _line_samples(name)
        rows = [(0.0, premises, 0.0, holds, near, values) for (premises, holds, near), values in zip(flags, fields)]
        assert _instance_records(name, seed, samples, rows) == _reference_lines(name, seed, samples, rows)


class TestWhitening:
    def test_random_gram_is_hermitian_positive(self):
        g = _random_gram(0, "schwarz", 4, Field.COMPLEX)
        assert np.allclose(g, g.conj().T)
        assert np.all(np.linalg.eigvalsh(g) > 0.4)

    def test_whitener_inverts_the_pairing(self):
        space = SpaceSpec(4, Field.COMPLEX, _random_gram(3, "schwarz", 4, Field.COMPLEX))
        m = np.linalg.inv(space.chol.T)
        assert np.allclose(m.T @ space.gram @ m.conj(), np.eye(4), atol=1e-12)

    def test_premises_survive_the_gram_map(self):
        cfg = SearchConfig(seed=2, trials=40, dims=(2, 5), gram=GramKind.RANDOM, field=FieldChoice.REAL)
        report = falsify("moore-1.9", cfg)
        assert report.premise_starved == 0
        assert sum(report.margin_histogram) == 40


class TestConditionedSampling:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_cosine_window_respected(self, field):
        space = SpaceSpec(5, field)
        rng = _trial_rng(9, "window", 0)
        xhat = np.zeros(5, dtype=field.dtype)
        xhat[0] = 1.0
        for _ in range(300):
            v = _conditioned(_Draws(rng=rng), space, xhat, 0.81, 1.0, False)
            cos = abs(v[0]) / np.linalg.norm(v)
            assert cos >= 0.9 - 1e-12

    def test_signed_window_pins_positive_cosine(self):
        space = SpaceSpec(4, Field.REAL)
        rng = _trial_rng(9, "window", 1)
        xhat = np.zeros(4)
        xhat[1] = 1.0
        for _ in range(200):
            v = _conditioned(_Draws(rng=rng), space, xhat, 0.25, 0.64, True)
            cos = v[1] / np.linalg.norm(v)
            assert 0.5 - 1e-12 <= cos <= 0.8 + 1e-12

    def test_dimension_one_is_fully_aligned(self):
        space = SpaceSpec(1, Field.REAL)
        rng = _trial_rng(9, "window", 2)
        v = _conditioned(_Draws(rng=rng), space, np.array([1.0]), 0.5, 1.0, True)
        assert v[0] > 0


class TestPerNameSamplers:
    def test_conditional_names_never_starve_at_defaults(self):
        cfg = SearchConfig(seed=4, trials=48, dims=(1, 6))
        for name in ("moore-1.9", "buzano-moore-1.16", "precupanu-moore-1.12", "t1.5-i", "t1.5-ii"):
            report = falsify(name, cfg)
            assert report.premise_starved == 0, name
            assert sum(report.margin_histogram) == 48, name

    def test_precupanu_moore_starves_when_window_misses_dim_one(self):
        space = SpaceSpec(1, Field.REAL)
        rng = _trial_rng(0, "precupanu-moore-1.12", 0)
        params = MooreParams(eps1=0.3, eps2=0.5)
        entry = CATALOG["precupanu-moore-1.12"]
        _, starved = _sample_anchored(entry, space, None, _Draws(rng=rng), params)
        assert starved

    def test_quotient_floor_lane_hits_premise_exactly(self):
        entry = CATALOG["t1.5-ii"]
        space = SpaceSpec(6, Field.REAL)
        params = entry.default_params
        for trial in range(50):
            rng = _trial_rng(8, "t1.5-ii", trial)
            inputs, starved = _sample_quotient_transfer(entry, space, None, _Draws(rng=rng), params)
            assert not starved
            x, a, b = inputs["x"], inputs["a"], inputs["b"]
            q = float(x @ a) * float(x @ b) / float(x @ x)
            assert q >= params.mu1 * np.linalg.norm(a) * np.linalg.norm(b) - 1e-9

    def test_quotient_cap_lane_mu2(self):
        entry = CATALOG["t1.5-ii"]
        space = SpaceSpec(3, Field.REAL)
        rng = _trial_rng(1, "t1.5-ii", 0)
        inputs, starved = _sample_quotient_transfer(entry, space, None, _Draws(rng=rng), MooreParams(mu2=0.0))
        assert not starved
        x, a, b = inputs["x"], inputs["a"], inputs["b"]
        assert float(x @ a) * float(x @ b) <= 1e-12

    def test_quotient_cap_lane_starves_in_dim_one_with_matched_signs(self):
        # in dimension one the probe's sign cancels from the product, so a
        # same-sign anchor pair can never meet a negative cap
        entry = CATALOG["t1.5-ii"]
        space = SpaceSpec(1, Field.REAL)
        for trial in range(20):
            rng = _trial_rng(2, "t1.5-ii", trial)
            inputs, starved = _sample_quotient_transfer(entry, space, None, _Draws(rng=rng), MooreParams(mu2=-0.5))
            a, b = float(inputs["a"][0]), float(inputs["b"][0])
            assert starved == (a * b > -0.5 * abs(a) * abs(b))


class TestSamplingPrimitives:
    @pytest.mark.parametrize("field", list(Field))
    def test_family_rows_draw_as_one_vector_per_row(self, field):
        space = SpaceSpec(4, field)
        for size in (0, 1, 3):
            width = 4 * (2 if field is Field.COMPLEX else 1)
            rows = _complexify(_Draws(rng=np.random.default_rng(5)).rows(size, 4, width), field)
            draws = _Draws(rng=np.random.default_rng(5))
            one_by_one = [_vectors(draws, space) for _ in range(size)]
            assert rows.shape == (size, 4)
            assert rows.tobytes() == np.array(one_by_one, dtype=field.dtype).reshape(size, 4).tobytes()

    @pytest.mark.parametrize("field", list(Field))
    def test_draw_norm_is_numpys_to_the_bit(self, field):
        rng = np.random.default_rng(8)
        for dim in range(1, 9):
            for _ in range(50):
                w = _vectors(_Draws(rng=rng), SpaceSpec(dim, field)) * 10.0 ** rng.integers(-150, 150)
                assert _Draws.norms(w) == np.linalg.norm(w)


def _stacked_and_alone(config, key, entry, params, fields):
    """(stacked, alone): each trial's (digest, starved) from one stacked
    pass over the config's trials and from phase B on a group of one."""
    samples = _sample_trials(config, key, entry, params, fields, list(range(config.trials)))
    stacked = {}
    for index, sampled in enumerate(samples):
        stacked[index] = (instance_digest(entry.name, sampled.space, sampled.inputs), bool(sampled.starved))
    alone = {}
    for index in range(config.trials):
        space, inputs, starved = _sample_alone(config, key, entry, params, fields, index)
        alone[index] = (instance_digest(entry.name, space, inputs), bool(starved))
    return stacked, alone


@pytest.fixture
def lone_count(monkeypatch):
    """Counts the trials that a stacked pass samples again alone."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return _sample_alone(*args)

    monkeypatch.setattr(falsifier, "_sample_alone", counted)
    return count


class TestStackedSampler:
    """A shard samples its trials in two phases (draws into a tape, then
    stacked operations per space); each trial must come out as it does
    alone, in digest and starved flag, on the common path and on every
    branch that phase A does not draw for."""

    def test_every_name_field_and_gram_matches_the_lone_sampler(self):
        for name, entry in CATALOG.items():
            choices = [c for c in FieldChoice if c is not FieldChoice.COMPLEX or Field.COMPLEX in entry.fields]
            for choice in choices:
                for gram in GramKind:
                    cfg = SearchConfig(seed=7, trials=400, dims=(1, 8), field=choice, gram=gram)
                    fields = falsifier._field_plan(name, entry.fields, choice)
                    stacked, alone = _stacked_and_alone(cfg, name, entry, entry.default_params, fields)
                    assert stacked == alone, (name, choice, gram)

    def test_moore_complex_stream_matches_the_lone_sampler(self):
        cfg = SearchConfig(seed=7, trials=400, dims=(1, 8), field=FieldChoice.COMPLEX, gram=GramKind.RANDOM)
        stacked, alone = _stacked_and_alone(cfg, "moore-complex", CATALOG["moore-1.9"], MooreParams(eps=0.05),
                                            (Field.COMPLEX,))
        assert stacked == alone

    def test_family_retry(self, monkeypatch, lone_count):
        # gram_schmidt refuses the first rows drawn for E in trial 9, so
        # that trial draws E again
        cfg = SearchConfig(seed=3, trials=40, dims=(2, 5), gram=GramKind.RANDOM)
        entry = CATALOG["generalized-2.1"]
        fields = (Field.REAL, Field.COMPLEX)
        seen = []
        original = falsifier.gram_schmidt

        def recording(space, vectors, *args, **kwargs):
            seen.append(np.array(vectors))
            return original(space, vectors, *args, **kwargs)

        monkeypatch.setattr(falsifier, "gram_schmidt", recording)
        before = _sample_alone(cfg, "generalized-2.1", entry, entry.default_params, fields, 9)
        assert before[1]["E"].size > 0
        refused = seen[0][0].tobytes()  # row 0 of trial 9's first E

        def refusing(space, vectors, tol=1e-10, sizes=None):
            vectors = np.asarray(vectors)
            if vectors.ndim == 2:
                if len(vectors) and vectors[0].tobytes() == refused:
                    raise DomainError("refused")
                return original(space, vectors, tol)
            families = original(space, vectors, tol, sizes=sizes)
            return [None if len(rows) and rows[0].tobytes() == refused else family
                    for rows, family in zip(vectors, families)]

        monkeypatch.setattr(falsifier, "gram_schmidt", refusing)
        stacked, alone = _stacked_and_alone(cfg, "generalized-2.1", entry, entry.default_params, fields)
        assert stacked == alone
        assert lone_count[0] == 1  # trial 9 went alone
        after = _sample_alone(cfg, "generalized-2.1", entry, entry.default_params, fields, 9)
        assert instance_digest("generalized-2.1", *after[:2]) != instance_digest("generalized-2.1", *before[:2])

    @pytest.mark.parametrize("name", ["schwarz", "kurepa-3.2", "moore-1.9", "kurepa-refined-3.3"])
    def test_nonzero_and_complexified_retries(self, monkeypatch, lone_count, name):
        # a threshold near the typical norm sends many draws back
        monkeypatch.setattr(falsifier, "zero_norm_threshold", lambda space: 0.9 * math.sqrt(space.dim))
        entry = CATALOG[name]
        cfg = SearchConfig(seed=5, trials=64, dims=(1, 4), field=FieldChoice.REAL)
        stacked, alone = _stacked_and_alone(cfg, name, entry, entry.default_params, (Field.REAL,))
        assert stacked == alone
        assert lone_count[0] > 0  # trials that the stacked pass sampled again alone

    @pytest.mark.parametrize("name, params", [
        ("precupanu-moore-1.12", MooreParams(eps1=1.0, eps2=1.0)),
        ("t1.5-i", MooreParams(delta1=1.0, delta2=0.5)),
    ])
    def test_window_pinned_at_one_skips_the_direction(self, lone_count, name, params):
        entry = CATALOG[name]
        cfg = SearchConfig(seed=2, trials=48, dims=(1, 6), field=FieldChoice.REAL, gram=GramKind.RANDOM)
        stacked, alone = _stacked_and_alone(cfg, name, entry, params, (Field.REAL,))
        assert stacked == alone
        # every trial above dimension 1 has a cosine of 1 and goes alone
        assert lone_count[0] == 40

    def test_quotient_cap_lane(self, lone_count):
        entry = CATALOG["t1.5-ii"]
        cfg = SearchConfig(seed=4, trials=120, dims=(1, 6), field=FieldChoice.REAL, gram=GramKind.RANDOM)
        for mu2 in (0.0, -0.5, 0.3):
            stacked, alone = _stacked_and_alone(cfg, "t1.5-ii", entry, MooreParams(mu2=mu2), (Field.REAL,))
            assert stacked == alone, mu2
        assert lone_count[0] > 0  # trials that rejected their first probe went alone

    def test_a_rare_branch_error_is_the_first_trials_own(self, monkeypatch):
        # every nonzero draw fails: the stacked pass raises what trial 0 raises alone
        monkeypatch.setattr(falsifier, "zero_norm_threshold", lambda space: math.inf)
        cfg = SearchConfig(seed=0, trials=12, dims=(2, 4))
        with pytest.raises(RuntimeError, match="could not sample a nonzero vector"):
            _shard_worker(("schwarz", cfg, 0, 12, False))


class TestSamplingCost:
    def test_one_gram_schmidt_call_per_space_and_family_argument(self, monkeypatch, lone_count):
        calls = []
        original = falsifier.gram_schmidt

        def counting(space, vectors, *args, **kwargs):
            calls.append(np.ndim(vectors))
            return original(space, vectors, *args, **kwargs)

        monkeypatch.setattr(falsifier, "gram_schmidt", counting)
        cfg = SearchConfig(seed=0, trials=400, dims=(1, 8), gram=GramKind.RANDOM)
        _shard_worker(("generalized-2.1", cfg, 0, 400, False))
        spaces = 8 * 2
        # the stacked pass: one call per space and family argument; a trial
        # sampled again alone calls once per family argument and retry
        assert calls.count(3) == 2 * spaces
        assert len(calls) <= 2 * spaces + 2 * 16 * lone_count[0]
        assert len(calls) < 100  # one call per trial and argument would be 800

    def test_no_trial_is_sampled_twice(self, monkeypatch):
        # falsify refines the inputs its shards return, and moore-complex
        # those of its chunks, without sampling any trial again
        def refuse(*args):
            raise AssertionError("sampled twice")

        def shards_only(config, name, trial_index):
            assert isinstance(trial_index, list), "a lone trial sampled"
            return sample_instance(config, name, trial_index)

        monkeypatch.setattr(falsifier, "sample_instance", shards_only)
        monkeypatch.setattr(falsifier, "_sample_alone", refuse)
        report = falsify("generalized-2.1", SearchConfig(seed=1, trials=16, dims=(2, 4), ascent_steps=2))
        assert report.worst_instance_digest is not None
        moore = moore_complex_experiment(0.2, SearchConfig(seed=1, trials=16, dims=(2, 4), field=FieldChoice.COMPLEX,
                                                           ascent_steps=1))
        assert moore.min_observed_ratio is not None


class TestHistogram:
    def test_bucket_edges(self):
        assert _bucket(-1.0) == 0
        assert _bucket(0.0) == 0
        assert _bucket(1e-20) == 1
        assert _bucket(1e-17) == 1
        assert _bucket(0.5) == 17
        assert _bucket(1.0) == 18
        assert _bucket(9.99) == 18
        assert _bucket(1e13) == 31
        assert _bucket(1e15) == 31
        assert _bucket(math.nan) == 0

    def test_histogram_totals_match_unstarved_trials(self):
        cfg = SearchConfig(seed=6, trials=64, dims=(2, 4))
        report = falsify("precupanu-1.1", cfg)
        assert sum(report.margin_histogram) == 64 - report.premise_starved


def _always_violating(space, x, y, *, extended=False):
    # Schwarz turned around with a factor 2: |<x,y>| >= 2 ||x|| ||y|| fails
    # on every instance, at any precision, and its margin still varies
    ev = eval_schwarz(space, x, y, extended=extended).binding
    return StackedResult((stacked_evaluation(ev.scale, 2.0 * ev.rhs, rhs=ev.lhs),))


def _nan_margin(space, x, y, *, extended=False):
    nan = np.full(len(x), math.nan)
    return StackedResult((stacked_evaluation(1.0, nan, rhs=nan),))


def _tightened_schwarz(space, x, y, *, extended=False):
    # Schwarz with its cap tightened to (1 - 1e-3) ||x|| ||y||: only nearly
    # parallel pairs violate it, which sampling rarely draws and ascent finds
    ev = eval_schwarz(space, x, y, extended=extended).binding
    return StackedResult((stacked_evaluation(ev.scale, ev.lhs, rhs=(1.0 - 1e-3) * ev.rhs),))


class TestCountInvariants:
    def test_refined_violation_counts_each_trial_once(self, monkeypatch):
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=_always_violating))
        report = falsify("schwarz", SearchConfig(seed=0, trials=20, dims=(2, 4), ascent_steps=3))
        # every trial violates, and each is counted once
        assert report.violation_count == report.trials_run
        assert sum(report.margin_histogram) + report.premise_starved == report.trials_run

    def test_a_refined_violation_is_confirmed_and_counted_once(self, monkeypatch):
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=_tightened_schwarz))
        config = SearchConfig(seed=0, trials=12, dims=(2, 4), ascent_steps=0)
        sampled = falsify("schwarz", config)
        refined = falsify("schwarz", dataclasses.replace(config, ascent_steps=10))
        assert sampled.violation_count == 0
        # only the top K are refined, and a refined trial counts at most once
        assert 1 <= refined.violation_count <= TOP_K
        assert refined.worst_margin < 0.0
        assert sum(refined.margin_histogram) + refined.premise_starved == refined.trials_run

    def test_nan_margin_is_counted_in_bucket_zero(self, monkeypatch):
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=_nan_margin))
        report = falsify("schwarz", SearchConfig(seed=0, trials=12, dims=(2, 4)))
        assert report.margin_histogram[0] == report.trials_run
        assert sum(report.margin_histogram) + report.premise_starved == report.trials_run


def _faulty_on(statement, position, keys, key):
    """`statement`, raising DomainError on every instance whose argument at
    `position` (after space) has its key in `keys`; a group raises if any of
    its rows does, naming the first such row."""

    def faulty(space, *args, **kwargs):
        for value in args[position]:
            if key(value) in keys:
                raise DomainError(f"faulty instance {key(value)!r}")
        return statement(space, *args, **kwargs)

    return faulty


class TestGroupFaults:
    def test_error_is_the_first_faulty_trials_own(self, monkeypatch):
        config = SearchConfig(seed=0, trials=40, dims=(2, 5))
        # trial 9 (dimension 3, real) is in a group evaluated before that of
        # trial 6 (dimension 4, complex), but 6 comes first in trial order
        first, later = sample_instance(config, "schwarz", 6), sample_instance(config, "schwarz", 9)
        assert (first.space.dim, first.space.field, later.space.dim, later.space.field) == (4, Field.COMPLEX, 3, Field.REAL)

        def key(x):
            return complex(x[0])

        faulty = _faulty_on(eval_schwarz, 0, {key(first.inputs["x"]), key(later.inputs["x"])}, key)
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=faulty))
        with pytest.raises(DomainError) as alone:
            CATALOG["schwarz"].run(first.space, first.inputs)
        with pytest.raises(DomainError) as grouped:
            falsify("schwarz", config)
        assert type(grouped.value) is type(alone.value)
        assert str(grouped.value) == str(alone.value) == f"faulty instance {key(first.inputs['x'])!r}"

    def test_nan_margin_trial_alone_lands_in_bucket_zero(self, monkeypatch):
        config = SearchConfig(seed=0, trials=48, dims=(2, 4))
        bad = sample_instance(config, "schwarz", 7)
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=_nan_for_x_of(bad)))
        report = falsify("schwarz", config)
        # the trial-by-trial reference: each instance alone, in trial order
        entry = CATALOG["schwarz"]
        hist = [0] * len(report.margin_histogram)
        for index in range(config.trials):
            sampled = sample_instance(config, "schwarz", index)
            hist[_bucket(entry.run(sampled.space, sampled.inputs).binding.normalized_margin[0])] += 1
        assert hist[0] == 1
        assert list(report.margin_histogram) == hist

    @pytest.mark.parametrize("index", [0, 7, 30])
    def test_a_nan_margin_trial_is_the_worst(self, monkeypatch, index):
        # a NaN margin is not shown to hold: bucket 0 counts it, it is a
        # confirmed violation, and it sorts first, so the report names it
        config = SearchConfig(seed=0, trials=48, dims=(2, 4))
        bad = sample_instance(config, "schwarz", index)
        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=_nan_for_x_of(bad)))
        report = falsify("schwarz", config)
        assert report.violation_count == 1
        assert math.isnan(report.worst_margin)
        assert report.worst_instance_digest == instance_digest("schwarz", bad.space, bad.inputs)


def _nan_for_x_of(bad):
    """Schwarz with a NaN lhs on each instance whose x is `bad`'s."""

    def statement(space, x, y, *, extended=False):
        (link,) = eval_schwarz(space, x, y, extended=extended).links
        hit = np.array([np.array_equal(row, bad.inputs["x"]) for row in x])
        return StackedResult((stacked_evaluation(link.scale, np.where(hit, math.nan, link.lhs), rhs=link.rhs),))

    return statement


def _reference_gradient(entry, space, codec, flat, h):
    """The per-probe loop: each probe rebuilt and evaluated alone, in order;
    a probe the codec cannot rebuild, or whose evaluation raises, is inf."""

    def value(point):
        candidate = codec.rebuild(point, project=False)
        if candidate is None:
            return math.inf
        try:
            return entry.run(space, candidate).binding.normalized_margin[0]
        except (DomainError, ArithmeticError):
            return math.inf

    grad = np.zeros_like(flat)
    work = flat.copy()
    for i in range(flat.size):
        saved = work[i]
        work[i] = saved + h
        up = value(work)
        work[i] = saved - h
        down = value(work)
        work[i] = saved
        if math.isfinite(up) and math.isfinite(down):
            grad[i] = (up - down) / (2.0 * h)
    return grad


class TestBatchedGradient:
    def test_equals_the_per_probe_loop(self, monkeypatch):
        space = SpaceSpec(2, Field.REAL)
        h = 1e-3
        inputs = {"E": OrthonormalFamily(space, np.eye(2)), "F": OrthonormalFamily(space, np.zeros((0, 2))),
                  "x": np.array([0.6, -1.3]), "y": np.array([1.1, 0.4])}
        codec = _CoordCodec(CATALOG["generalized-2.1"], space, inputs)
        # E's slice holds rows (1, 0) and (1, h + 5e-11): the probe that lowers
        # the last coordinate by h leaves a dependent pair, which fails
        # Gram-Schmidt; every other probe rebuilds
        flat = np.concatenate([[1.0, 0.0, 1.0, h + 5e-11], inputs["x"], inputs["y"]])
        assert codec.rebuild(flat, project=False) is not None
        # the probes that raise x[0] by h raise inside the statement
        faulty = _faulty_on(eval_generalized, 2, {float(flat[4] + h)}, lambda x: float(x[0]))
        monkeypatch.setitem(CATALOG, "generalized-2.1", dataclasses.replace(CATALOG["generalized-2.1"], statement=faulty))
        entry = CATALOG["generalized-2.1"]
        reference = _reference_gradient(entry, space, codec, flat, h)
        _, batched = _probed(lambda group: _binding_rows(entry, space, group), codec, [], flat, h)
        assert np.array_equal(batched, reference)
        # one coordinate each lost to Gram-Schmidt and to the raise; with E a
        # basis of the plane the sum does not move with E, but with x and y
        assert reference[3] == 0.0 and reference[4] == 0.0
        assert np.all(reference[5:] != 0.0)


def _reference_rebuild(codec, flat, project):
    """The one-point rebuild that the stacked one replaced, kept as the
    reference: each family through gram_schmidt alone, each vector and
    complexified pair projected with the checking `norm`."""
    space, dim = codec.space, codec.space.dim
    parts = 2 if codec.complex_field else 1
    pos = 0
    inputs = {}
    for k in codec.entry.family_args:
        size = codec.family_sizes[k]
        raw = flat[pos : pos + size * dim].reshape(size, dim)
        if codec.complex_field:
            raw = raw + 1j * flat[pos + size * dim : pos + 2 * size * dim].reshape(size, dim)
        pos += parts * size * dim
        try:
            inputs[k] = gram_schmidt(space, raw)
        except DomainError:
            return None
    for k in codec.entry.vector_args:
        v = flat[pos : pos + dim].copy()
        if codec.complex_field:
            v = v + 1j * flat[pos + dim : pos + 2 * dim]
        pos += parts * dim
        if project:
            n = norm(space, v)
            if n <= zero_norm_threshold(space):
                return None
            v = v * (codec.vector_norms[k] / n)
        inputs[k] = v
    for k in codec.entry.complexified_args:
        re, im = flat[pos : pos + dim].copy(), flat[pos + dim : pos + 2 * dim].copy()
        pos += 2 * dim
        if project:
            n = math.hypot(norm(space, re), norm(space, im))
            if n <= zero_norm_threshold(space):
                return None
            re, im = re * (codec.pair_norms[k] / n), im * (codec.pair_norms[k] / n)
        inputs[k] = ComplexifiedVector(re, im)
    return inputs


def _codec_cases():
    """(codec, flat) for every entry kind the codec handles: families with
    vectors, families with a complexified pair, a vector with one, and
    moore-1.9's vectors in a complex space."""
    config = SearchConfig(seed=4, trials=8, dims=(2, 4), gram=GramKind.RANDOM)
    cases = []
    for name in ("generalized-2.1", "kurepa-refined-3.3", "kurepa-3.2"):
        for index in range(6):
            sampled = sample_instance(config, name, index)
            cases.append((_CoordCodec(CATALOG[name], sampled.space, sampled.inputs), sampled.inputs))
    moore = dataclasses.replace(config, field=FieldChoice.COMPLEX)
    for index in range(3):
        space, inputs = _moore_complex_sample(moore, MooreParams(eps=0.2), index)
        cases.append((_CoordCodec(CATALOG["moore-1.9"], space, inputs), inputs))
    return cases


class TestStackedRebuild:
    @pytest.mark.parametrize("project", [False, True])
    def test_stacked_rebuild_equals_each_point_alone(self, project):
        rng = np.random.default_rng(11)
        kinds = set()
        for codec, inputs in _codec_cases():
            flat = codec.flatten(inputs)
            n = flat.size
            # the 2n gradient probes, then nearby points, then one point that
            # cannot be rebuilt: a family with a repeated row, or (projected)
            # a zero first vector or pair
            probes = np.repeat(flat[np.newaxis], 2 * n, axis=0)
            probes[2 * np.arange(n), np.arange(n)] += 1e-3
            probes[2 * np.arange(n) + 1, np.arange(n)] -= 1e-3
            broken = flat.copy()
            sizes = [codec.family_sizes[k] for k in codec.entry.family_args]
            dim = codec.space.dim
            if sizes and sizes[0] >= 2:
                broken[dim : 2 * dim] = broken[:dim]
                broken[sizes[0] * dim + dim : sizes[0] * dim + 2 * dim] = broken[sizes[0] * dim : sizes[0] * dim + dim]
            elif project:
                start = sum(sizes) * dim * (2 if codec.complex_field else 1)
                broken[start:] = 0.0
            points = np.vstack([flat, probes, flat + 0.1 * rng.standard_normal((3, n)), broken])
            stacked = codec.rebuild(points, project)
            assert len(stacked) == len(points)
            for point, rebuilt in zip(points, stacked):
                alone = codec.rebuild(point, project)
                reference = _reference_rebuild(codec, point, project)
                assert (rebuilt is None) == (alone is None) == (reference is None)
                if rebuilt is not None:
                    assert _input_bytes(rebuilt) == _input_bytes(alone) == _input_bytes(reference)
                    # the pairs skip ComplexifiedVector's checks, so hold what they would ensure
                    for k in codec.entry.complexified_args:
                        z = rebuilt[k]
                        assert z.re.dtype == z.im.dtype == np.float64 and z.re.shape == z.im.shape == (dim,)
            assert stacked[0] is not None
            if sizes and sizes[0] >= 2 or project:
                assert stacked[-1] is None
            kinds.add((bool(sizes), bool(codec.entry.vector_args), bool(codec.entry.complexified_args),
                       codec.complex_field))
        assert kinds == {(True, True, False, False), (True, True, False, True), (True, False, True, False),
                         (False, True, True, False), (False, True, False, True)}


class TestFullSweep:
    def test_no_confirmed_violations_anywhere(self):
        cfg = SearchConfig(seed=0, trials=36, dims=(1, 6))
        for name in catalog_names():
            report = falsify(name, cfg)
            assert report.violation_count == 0, name
            assert report.trials_run == 36
            assert report.worst_instance_digest is not None

    def test_zero_trials_gives_empty_report(self):
        report = falsify("schwarz", SearchConfig(trials=0))
        assert report.worst_margin is None
        assert report.worst_instance_digest is None
        assert report.near_equality_count == 0
        assert report.violation_count == 0
        assert sum(report.margin_histogram) == 0

    def test_kurepa_dimension_one_is_always_tight(self):
        report = falsify("kurepa-3.2", SearchConfig(seed=0, trials=100, dims=(1, 1)))
        assert report.near_equality_count == 100


class TestCentralGradient:
    def test_matches_analytic_quadratic(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        v = rng.standard_normal(6)

        def f(w):
            return float(w @ a @ w)

        grad = _central_gradient([f(w) for w in _probe_points(v, 1e-6)], 1e-6)
        exact = 2.0 * a @ v
        assert np.allclose(grad, exact, rtol=1e-5)

    def test_nonfinite_entries_zeroed(self):
        def f(w):
            return math.nan if w[0] > 0.5 else float(w[1])

        grad = _central_gradient([f(w) for w in _probe_points(np.array([0.5, 1.0]), 1e-2)], 1e-2)
        assert grad[0] == 0.0


class TestLocalAscent:
    def test_schwarz_driven_to_equality(self):
        cfg = SearchConfig(seed=3, trials=1, dims=(3, 3), ascent_steps=120, step_size=1e-2)
        s = sample_instance(cfg, "schwarz", 0)
        res = local_ascent("schwarz", s.space, s.inputs, cfg)
        assert res.final_margin < 1e-8
        x = res.refined_inputs["x"]
        y = res.refined_inputs["y"]
        cos = abs(inner(s.space, x, y)) / (norm(s.space, x) * norm(s.space, y))
        assert cos > 0.999

    def test_trace_is_nonincreasing(self):
        cfg = SearchConfig(seed=13, trials=1, dims=(4, 4), ascent_steps=40)
        s = sample_instance(cfg, "buzano-1.14", 0)
        res = local_ascent("buzano-1.14", s.space, s.inputs, cfg)
        assert all(b <= a + 1e-15 for a, b in zip(res.trace, res.trace[1:]))

    def test_projection_preserves_vector_norms(self):
        cfg = SearchConfig(seed=3, trials=1, dims=(3, 3), ascent_steps=30)
        s = sample_instance(cfg, "schwarz", 0)
        before = {k: norm(s.space, v) for k, v in s.inputs.items()}
        res = local_ascent("schwarz", s.space, s.inputs, cfg)
        for k, v in res.refined_inputs.items():
            assert norm(s.space, v) == pytest.approx(before[k], rel=1e-9)

    def test_premise_guard_keeps_moore_inside_region(self):
        cfg = SearchConfig(seed=21, trials=1, dims=(3, 3), ascent_steps=25, field=FieldChoice.REAL)
        s = sample_instance(cfg, "moore-1.9", 0)
        entry = CATALOG["moore-1.9"]
        res = local_ascent("moore-1.9", s.space, s.inputs, cfg)
        result = entry.run(s.space, res.refined_inputs, entry.default_params)
        assert result.premises_hold.tolist() == [True]

    def test_ascent_in_falsify_never_raises_worst_margin(self):
        plain = falsify("schwarz", SearchConfig(seed=9, trials=60, dims=(2, 4)))
        refined = falsify("schwarz", SearchConfig(seed=9, trials=60, dims=(2, 4), ascent_steps=10))
        assert refined.worst_margin <= plain.worst_margin + 1e-15
        assert refined.violation_count == 0


def _reference_rows(objective, group):
    """The rows of a group evaluated by itself: (inf, False) for None, and
    each member alone, (inf, False) if it raises, when the group raises."""

    def alone(instance):
        try:
            return objective([instance])[0]
        except (DomainError, ArithmeticError):
            return math.inf, False

    live = [instance for instance in group if instance is not None]
    try:
        rows = iter(objective(live) if live else ())
    except (DomainError, ArithmeticError):
        rows = iter([alone(instance) for instance in live])
    return [(math.inf, False) if instance is None else next(rows) for instance in group]


REJECTED = falsifier.MAX_HALVINGS + 2  # what `tried` records for a step that rejects every candidate


def _reference_descent(objective, codec, inputs, config, tried=None):
    """The descent with every evaluation in a group of its own: the start
    point, each gradient's 2n probes and each line-search candidate.
    `tried` collects the number of candidates each step tried until it
    accepted one, or REJECTED for a step that ends the descent rejecting
    all of them."""
    h = config.fd_eps
    flat = codec.flatten(inputs)
    (row,) = _reference_rows(objective, [inputs])
    current, trace, step = inputs, [row[0]], config.step_size
    for _ in range(config.ascent_steps):
        probes = np.repeat(flat[np.newaxis], 2 * flat.size, axis=0)
        for i in range(flat.size):
            probes[2 * i, i] += h
            probes[2 * i + 1, i] -= h
        values = [value for value, *_ in _reference_rows(objective, codec.rebuild(probes, project=False))]
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            up, down = values[2 * i], values[2 * i + 1]
            if math.isfinite(up) and math.isfinite(down):
                grad[i] = (up - down) / (2.0 * h)
        gnorm = float(np.linalg.norm(grad))
        if not math.isfinite(gnorm) or gnorm < 1e-14:
            break
        reach = max(float(np.linalg.norm(flat)), 1e-12)
        trial_step = step
        for count in range(1, falsifier.MAX_HALVINGS + 2):
            candidate = codec.rebuild(flat - trial_step * reach * (grad / gnorm), project=True)
            (candidate_row,) = _reference_rows(objective, [candidate])
            if candidate_row[1] and candidate_row[0] < row[0]:
                break
            trial_step /= 2.0
        else:
            if tried is not None:
                tried.append(REJECTED)
            break
        if tried is not None:
            tried.append(count)
        current, row, flat = candidate, candidate_row, codec.flatten(candidate)
        trace.append(row[0])
        step = min(trial_step * 1.5, 1.0)
    return falsifier.AscentResult(current, row, tuple(trace))


def _descent_group_sizes(tried, n, steps) -> list:
    """The group sizes `local_ascent` evaluates in a descent of `steps`
    steps over n coordinates whose step i tried tried[i] candidates (see
    `_reference_descent`): the start with its probes; a first candidate
    with the probes around it when a step follows and the step before
    accepted its first; the other step lengths LINE_BLOCK at a time, the
    last block short, up to the block holding the accepted one; a gradient
    that did not come with its point as 2n probes."""
    lengths, block = falsifier.MAX_HALVINGS + 1, falsifier.LINE_BLOCK
    sizes = [2 * n + 1] if steps else [1]
    with_gradient = first_accepted = True
    for i, count in enumerate(tried):
        if not with_gradient:
            sizes.append(2 * n)
        merged = first_accepted and i < steps - 1
        start = 1 if merged else 0
        sizes += [2 * n + 1] * start
        while start < min(count, lengths):
            sizes.append(min(start + block, lengths) - start)
            start += block
        with_gradient = merged and count == 1
        first_accepted = count == 1
    return sizes


def _counted_descent(monkeypatch, name, config) -> tuple:
    """The `tried` counts of the reference descent of trial 0 of name, the
    group size of every `CatalogEntry.run` call of its `local_ascent`, which
    must end as the reference does, and its number of flat coordinates."""
    sampled = sample_instance(config, name, 0)
    tried = []
    entry = CATALOG[name]
    codec = _CoordCodec(entry, sampled.space, sampled.inputs)
    objective = functools.partial(_binding_rows, entry, sampled.space)
    reference = _reference_descent(objective, codec, sampled.inputs, config, tried)
    sizes = []
    run = CatalogEntry.run

    def counted(self, space, group, *args, **kwargs):
        sizes.append(len(group))
        return run(self, space, group, *args, **kwargs)

    monkeypatch.setattr(CatalogEntry, "run", counted)
    assert _same_ascent(local_ascent(name, sampled.space, sampled.inputs, config), reference)
    return tried, sizes, codec.flatten(sampled.inputs).size


def _same_ascent(a, b) -> bool:
    return _input_bytes(a.refined_inputs) == _input_bytes(b.refined_inputs) and repr((a.row, a.trace)) == repr(
        (b.row, b.trace))


class TestMergedDescent:
    """Each point the descent moves to shares one group with its gradient's
    probes; every result equals that of the descent that evaluates each
    point, probe group and candidate as a group of its own."""

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_local_ascent_equals_the_reference_descent(self, steps):
        descents = []  # the candidates each step of each descent tried
        for step_size in (1e-2, 0.5):  # 0.5 overshoots, so some first candidates are rejected
            config = SearchConfig(seed=2, trials=6, dims=(2, 4), gram=GramKind.RANDOM, ascent_steps=steps,
                                  step_size=step_size)
            for name, entry in CATALOG.items():
                for sampled in sample_instance(config, name, list(range(3 * len(entry.fields)))):
                    objective = functools.partial(_binding_rows, entry, sampled.space, params=None)
                    codec = _CoordCodec(entry, sampled.space, sampled.inputs)
                    descents.append([])
                    reference = _reference_descent(objective, codec, sampled.inputs, config, descents[-1])
                    merged = local_ascent(name, sampled.space, sampled.inputs, config)
                    assert _same_ascent(merged, reference), (name, sampled.space)
        if steps:
            # some steps accepted their first candidate, some a halved one
            assert any(1 in tried for tried in descents) and any(max(tried, default=1) > 1 for tried in descents)
        if steps > 1:
            # a step followed an accepted first candidate (its gradient came
            # with the candidate), and one followed a halved candidate
            assert any(1 in tried[:-1] for tried in descents)
            assert any(max(tried[:-1], default=1) > 1 for tried in descents)

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_moore_refinement_equals_the_reference_descent(self, steps):
        params = MooreParams(eps=0.2)
        config = SearchConfig(seed=14, trials=8, dims=(2, 4), field=FieldChoice.COMPLEX, gram=GramKind.RANDOM,
                              ascent_steps=steps)
        moved = 0
        for index in range(config.trials):
            space, inputs = _moore_complex_sample(config, params, index)
            objective = functools.partial(_moore_ratios, space, params=params)
            reference = _reference_descent(objective, _CoordCodec(CATALOG["moore-1.9"], space, inputs), inputs,
                                           config)
            merged = _refine_moore_candidate(space, inputs, params, config)
            assert _same_ascent(merged, reference), index
            moved += len(merged.trace) > 1
        assert moved > 0 or steps == 0

    def test_a_probe_that_raises_inside_a_merged_group(self, monkeypatch):
        config = SearchConfig(seed=3, trials=1, dims=(3, 3), ascent_steps=3)
        sampled = sample_instance(config, "schwarz", 0)
        space, inputs = sampled.space, sampled.inputs
        entry = CATALOG["schwarz"]
        codec = _CoordCodec(entry, space, inputs)
        h = config.fd_eps
        # x[0] is flat coordinate 0: one probe of the start point raises, and
        # then one of the first accepted candidate, each in a merged group
        keys = {float(inputs["x"][0] + h)}
        faulty = _faulty_on(eval_schwarz, 0, keys, lambda x: float(x[0]))
        raised = []

        def recording(space, x, *args, **kwargs):
            try:
                return faulty(space, x, *args, **kwargs)
            except DomainError:
                raised.append(len(x))
                raise

        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(entry, statement=recording))
        objective = functools.partial(_binding_rows, CATALOG["schwarz"], space)
        first = _reference_descent(objective, codec, inputs, dataclasses.replace(config, ascent_steps=1))
        keys.add(float(first.refined_inputs["x"][0] - h))
        tried = []
        reference = _reference_descent(objective, codec, inputs, config, tried)
        assert tried[:2] == [1, 1]
        raised.clear()
        merged = local_ascent("schwarz", space, inputs, config)
        assert _same_ascent(merged, reference)
        n = codec.flatten(inputs).size
        # each merged group raised, then its faulty probe raised alone
        assert raised == [2 * n + 1, 1, 2 * n + 1, 1]
        assert len(merged.trace) == 4

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_k_first_candidate_steps_make_k_plus_one_calls(self, monkeypatch, steps):
        config = SearchConfig(seed=3, trials=1, dims=(3, 3), ascent_steps=steps)
        tried, sizes, n = _counted_descent(monkeypatch, "schwarz", config)
        assert tried == [1] * steps
        # the start and each first candidate but the last with their probes,
        # then the last step's first block; one gradient group and one
        # block a step, after the lone start, made 2K + 1
        assert sizes == [2 * n + 1] * steps + [falsifier.LINE_BLOCK]
        assert sizes == _descent_group_sizes(tried, n, steps)

    # every step halves; step 0 halves, step 1 accepts its first candidate
    # (without its probes, leading a block) and step 2's merged one is
    # rejected; step 2 halves, step 3 accepts its first candidate and step
    # 4 merges again
    @pytest.mark.parametrize("name, step_size, seed, steps", [("schwarz", 0.5, 3, 2), ("buzano-1.14", 0.5, 4, 4),
                                                              ("buzano-1.14", 0.2, 3, 6)])
    def test_after_a_halving_step_the_first_candidate_goes_alone(self, monkeypatch, name, step_size, seed, steps):
        config = SearchConfig(seed=seed, trials=1, dims=(3, 3), ascent_steps=steps, step_size=step_size)
        tried, sizes, n = _counted_descent(monkeypatch, name, config)
        assert len(tried) == steps and max(tried[:-1]) > 1
        assert sizes == _descent_group_sizes(tried, n, steps)
        if 1 < tried[0] <= 1 + falsifier.LINE_BLOCK:
            # the first step's merged candidate was rejected, its probes
            # built for nothing; the next block held the accepted one, then
            # came its probes and the second step's block without probes
            assert sizes[:5] == [2 * n + 1, 2 * n + 1, falsifier.LINE_BLOCK, 2 * n, falsifier.LINE_BLOCK]

    # step 2 accepts the twelfth length; with a step after it, its merged
    # candidate and the block after that are rejected first, and as the
    # last step it has no merged candidate: either way the second block
    # holds the accepted one
    @pytest.mark.parametrize("steps, merged", [(4, 1), (3, 0)])
    def test_the_accepted_candidate_in_the_second_block(self, monkeypatch, steps, merged):
        config = SearchConfig(seed=4, trials=1, dims=(3, 3), ascent_steps=steps, step_size=0.2)
        tried, sizes, n = _counted_descent(monkeypatch, "schwarz", config)
        assert tried[:3] == [1, 1, 12] and len(tried) == steps
        block = falsifier.LINE_BLOCK
        assert merged + block < 12 <= merged + 2 * block
        assert sizes == _descent_group_sizes(tried, n, steps)
        # the start and steps 0 and 1 with their probes, then step 2's groups
        assert sizes[3 : 5 + merged] == [2 * n + 1] * merged + [block, block]

    def test_a_step_that_rejects_every_candidate_ends_the_descent(self, monkeypatch):
        config = SearchConfig(seed=6, trials=1, dims=(3, 3), ascent_steps=50, step_size=0.2)
        tried, sizes, n = _counted_descent(monkeypatch, "schwarz", config)
        assert tried[-1] == REJECTED and 1 < len(tried) < config.ascent_steps and tried[-2] > 1
        assert sizes == _descent_group_sizes(tried, n, config.ascent_steps)
        # the last step's gradient, then its 21 lengths in blocks, the last short
        lengths, block = falsifier.MAX_HALVINGS + 1, falsifier.LINE_BLOCK
        blocks = [min(block, lengths - start) for start in range(0, lengths, block)]
        assert len(blocks) == math.ceil(lengths / block) and blocks[-1] < block
        assert sizes[-len(blocks) - 1:] == [2 * n] + blocks


class TestRefinementFold:
    """A refined instance is folded from the row its descent computed and
    is not evaluated again."""

    @staticmethod
    def _lone_receivers(monkeypatch, refine_name, run_owner, run_name, received):
        """Wraps the refinement `refine_name` and the evaluator `run_name` of
        `run_owner`; returns the list of refined instances that a later lone,
        non-extended evaluation received (by identity, through `received`)."""
        refined, hits = [], []
        refine = getattr(falsifier, refine_name)
        evaluate = getattr(run_owner, run_name)

        def recording_refine(*args, **kwargs):
            result = refine(*args, **kwargs)
            refined.append(result.refined_inputs)
            return result

        def recording_evaluate(*args, extended=False, **kwargs):
            if not extended:
                hits.extend(inputs for inputs in refined if received(args, inputs))
            return evaluate(*args, extended=extended, **kwargs)

        monkeypatch.setattr(falsifier, refine_name, recording_refine)
        monkeypatch.setattr(run_owner, run_name, recording_evaluate)
        return refined, hits

    def test_falsify_does_not_evaluate_a_refined_instance_again(self, monkeypatch):
        def received(args, inputs):
            group = args[2]  # (self, space, inputs, ...)
            return group is inputs or (isinstance(group, list) and len(group) == 1 and group[0] is inputs)

        refined, hits = self._lone_receivers(monkeypatch, "local_ascent", CatalogEntry, "run", received)
        config = SearchConfig(seed=4, trials=8, dims=(2, 6), ascent_steps=2)
        for name in CATALOG:
            falsify(name, config)
        assert len(refined) == 8 * len(CATALOG)
        assert hits == []

    def test_moore_complex_does_not_evaluate_a_refined_instance_again(self, monkeypatch):
        def received(args, inputs):
            x = args[1]  # (space, x, y, z, params), each argument a list over the group
            return len(x) == 1 and x[0] is inputs["x"]

        refined, hits = self._lone_receivers(monkeypatch, "_refine_moore_candidate", falsifier, "verify_moore", received)
        moore_complex_experiment(0.05, SearchConfig(seed=1, trials=400, ascent_steps=2, field=FieldChoice.COMPLEX))
        assert len(refined) == 8
        assert hits == []

    def test_ascent_row_is_the_refined_instances_binding_row(self):
        # trials 0..2 are dimensions 2..4 over the first field, 3..5 over C
        config = SearchConfig(seed=2, trials=6, dims=(2, 4), ascent_steps=2)
        moved = 0
        for name, entry in CATALOG.items():
            for sampled in sample_instance(config, name, list(range(3 * len(entry.fields)))):
                res = local_ascent(name, sampled.space, sampled.inputs, config)
                assert res.row == _binding_rows(entry, sampled.space, [res.refined_inputs])[0], name
                assert res.final_margin == res.row[0] == res.trace[-1]
                moved += len(res.trace) > 1
        assert moved > 0


class TestMooreComplexExperiment:
    def test_domain_checks(self):
        good = SearchConfig(field=FieldChoice.COMPLEX, trials=10)
        with pytest.raises(DomainError):
            moore_complex_experiment(0.0, good)
        with pytest.raises(DomainError):
            moore_complex_experiment(1.0, good)
        with pytest.raises(DomainError):
            moore_complex_experiment(0.05, SearchConfig(field=FieldChoice.BOTH, trials=10))

    def test_small_run_stays_above_proved_bound(self):
        cfg = SearchConfig(seed=0, trials=2000, dims=(2, 6), field=FieldChoice.COMPLEX)
        rep = moore_complex_experiment(0.05, cfg)
        assert rep.samples == 2000
        assert rep.samples_satisfying_premises == 2000
        assert rep.second_bound == pytest.approx(0.805)
        assert rep.first_bound == pytest.approx(1.0 - 0.05 - math.sqrt(0.1))
        assert rep.min_observed_ratio >= rep.second_bound - 1e-9
        assert rep.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        assert rep.witness_digest is None

    def test_a_sample_below_the_first_bound_is_the_witness(self, halved_moore):
        eps = 0.05
        config = SearchConfig(seed=1, trials=40, dims=(2, 4), field=FieldChoice.COMPLEX)
        report = moore_complex_experiment(eps, config)
        assert report.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert report.samples_satisfying_premises == config.trials
        # the reference: the lowest-index sample whose halved ratio is below the first bound
        for index in range(config.trials):
            space, inputs = _moore_complex_sample(config, MooreParams(eps=eps), index)
            scale = norm(space, inputs["y"]) * norm(space, inputs["z"])
            ratio = abs(inner(space, inputs["y"], inputs["z"])) / scale / 2
            if ratio - report.first_bound < -(TOL_ABS / scale + TOL_REL):
                break
        else:
            pytest.fail("no sample is below the first bound")
        assert report.witness_digest == digest_inputs(space, inputs["x"], inputs["y"], inputs["z"])

    def test_second_bound_is_never_below_the_first(self):
        # buzano-moore-1.16's floor implies the first floor: with u = sqrt(2 eps)
        # their difference is (u/2)(u - 1)^2(u + 2), zero at eps = 1/2
        cfg = SearchConfig(trials=0, field=FieldChoice.COMPLEX)
        for eps in (k / 1000 for k in range(1, 1000)):
            report = moore_complex_experiment(eps, cfg)
            assert report.second_bound >= report.first_bound, eps

    def test_deterministic(self):
        cfg = SearchConfig(seed=14, trials=400, dims=(2, 4), field=FieldChoice.COMPLEX, gram=GramKind.RANDOM)
        assert moore_complex_experiment(0.2, cfg) == moore_complex_experiment(0.2, cfg)

    def test_refinement_keeps_norms_and_premises(self):
        params = MooreParams(eps=0.2)
        cfg = SearchConfig(seed=14, trials=8, dims=(2, 4), field=FieldChoice.COMPLEX, gram=GramKind.RANDOM,
                           ascent_steps=6)
        moved = 0
        for index in range(cfg.trials):
            space, inputs = _moore_complex_sample(cfg, params, index)
            res = _refine_moore_candidate(space, inputs, params, cfg)
            for k in ("x", "y", "z"):
                assert norm(space, res.refined_inputs[k]) == pytest.approx(norm(space, inputs[k]), rel=1e-9)
            ((ratio, ok, _),) = _moore_ratios(space, [res.refined_inputs], params)
            assert ok
            assert ratio == res.final_margin == res.trace[-1]
            assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
            moved += len(res.trace) > 1
        assert moved > 0

    def test_refinement_can_only_lower_the_minimum(self):
        base = SearchConfig(seed=1, trials=150, dims=(2, 3), field=FieldChoice.COMPLEX)
        refined = SearchConfig(seed=1, trials=150, dims=(2, 3), field=FieldChoice.COMPLEX, ascent_steps=8)
        a = moore_complex_experiment(0.3, base)
        b = moore_complex_experiment(0.3, refined)
        assert b.min_observed_ratio <= a.min_observed_ratio + 1e-15
