"""The group record path against per-trial references.

A shard samples each space's trials as one Group (each argument one
stack), evaluates it, folds the rows' columns, picks its top K by argmin
passes (`_lowest`) and digests every row of its groups from the stacks,
a trial reading its digest at its row.  Every case here checks that
path against each trial taken alone: sampled by itself,
evaluated through `run_catalog(name, space, dict)` and digested by
`instance_digest`.  The stream keys' tests pin the Philox key words.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest

from ineq_forge import cli, falsifier, orthonormal
from ineq_forge.catalog import (
    CATALOG,
    TOL_ABS,
    TOL_REL,
    Group,
    MooreParams,
    StackedResult,
    eval_schwarz,
    instance_digest,
    run_catalog,
    stacked_evaluation,
)
from ineq_forge.falsifier import (
    HISTOGRAM_BUCKETS,
    SHARD_SIZE,
    TOP_K,
    FieldChoice,
    GramKind,
    SearchConfig,
    _binding_rows,
    _bucket,
    _buckets,
    _confirmed_violation,
    _CoordCodec,
    _evaluate,
    _group_rows,
    _key_words,
    _lowest,
    _moore_ratios,
    _name_key,
    _probe_points,
    _refine_moore_candidate,
    _sample_alone,
    _shard_worker,
    moore_complex_experiment,
    sample_instance,
)
from ineq_forge.orthonormal import FamilyStack, gram_schmidt
from ineq_forge.spaces import ComplexifiedVector, DomainError, Field, SpaceSpec, pairing_norm


def _cases():
    for name, entry in CATALOG.items():
        for field in entry.fields:
            for gram in GramKind:
                yield pytest.param(name, field, gram, id=f"{name}-{field.value}-{gram.value}")


def _keep_top(top, key):
    """Keep the TOP_K smallest keys seen so far, ascending: the per-row
    reference of `_lowest`."""
    if len(top) < TOP_K:
        top.append(key)
        top.sort()
    elif key < top[-1]:
        top[-1] = key
        top.sort()


def _reference_shard(name, config):
    """The shard's outputs from each trial alone, in trial order: its
    flat rows, histogram, near-equality, violation and starved counts, top-K
    keys and instance lines."""
    entry = CATALOG[name]
    rows, hist, top, lines = [], [0] * HISTOGRAM_BUCKETS, [], []
    near = violations = starved = 0
    for index in range(config.trials):
        sampled = sample_instance(config, name, index)
        result = run_catalog(name, sampled.space, sampled.inputs)
        binding = result.binding
        premises = True if result.premises_hold is None else bool(result.premises_hold[0])
        normalized = binding.normalized_margin[0].item()
        fields = tuple(None if value is None else float(value[0])
                       for value in (binding.lhs, binding.center, binding.rhs, binding.margin_lower,
                                     binding.margin_upper))
        holds, near_equality = bool(result.holds[0]), bool(binding.near_equality[0])
        rows.append((normalized, premises, binding.min_margin[0].item(), holds, near_equality, *fields))
        if not premises:
            starved += 1
            continue
        hist[_bucket(normalized)] += 1
        near += near_equality
        violated = not holds and _confirmed_violation(entry, sampled.space, sampled.inputs)
        violations += violated
        order = -math.inf if math.isnan(normalized) else normalized
        _keep_top(top, (order, index, rows[-1][2], near_equality, violated))
        lines.append(cli.to_json({
            "ineq": name, "dim": sampled.space.dim, "field": sampled.space.field.value, "seed": config.seed,
            "digest": instance_digest(name, sampled.space, sampled.inputs), "lhs": fields[0], "center": fields[1],
            "rhs": fields[2], "margin_lower": fields[3], "margin_upper": fields[4], "holds": holds,
            "near_equality": near_equality}) + "\n")
    return rows, hist, near, violations, starved, top, lines


def _assert_shard_is_its_trials_alone(name, config):
    hist, near, violations, starved, top, lines = _shard_worker((name, config, 0, config.trials, True))
    rows, *reference = _reference_shard(name, config)
    samples = sample_instance(config, name, list(range(config.trials)))
    evaluated = _group_rows(samples, lambda space, group: _binding_rows(CATALOG[name], space, group))
    # repr: a NaN margin equals itself only by spelling
    assert repr(list(evaluated)) == repr(rows)
    assert repr([hist, near, violations, starved, [key[:5] for key in top], lines]) == repr(reference)
    for key in top:  # the top K's inputs are their trials' own, copied out of the stacks
        sampled = sample_instance(config, name, key[1])
        assert instance_digest(name, key[5], key[6]) == instance_digest(name, sampled.space, sampled.inputs)
    return samples


class TestShardAgainstLoneTrials:
    @pytest.mark.parametrize("name, field, gram", list(_cases()))
    def test_every_name_field_and_gram(self, name, field, gram):
        choice = FieldChoice.REAL if field is Field.REAL else FieldChoice.COMPLEX
        config = SearchConfig(seed=31, trials=40, dims=(1, 6), field=choice, gram=gram)
        samples = _assert_shard_is_its_trials_alone(name, config)
        if CATALOG[name].family_args:  # families of mixed sizes share a space's stacks
            sizes = {(group.space.dim, len(np.unique(group.args["E"].sizes))) for group, _ in samples.groups}
            assert any(count > 1 for _, count in sizes)

    @pytest.mark.parametrize("name", ["schwarz", "kurepa-3.2", "kurepa-refined-3.3", "generalized-2.1"])
    def test_trials_off_phase_a_path(self, monkeypatch, name):
        # a threshold near the typical norm sends many draws back, so those
        # trials are sampled again alone, each a group of one
        monkeypatch.setattr(falsifier, "zero_norm_threshold", lambda space: 0.9 * math.sqrt(space.dim))
        config = SearchConfig(seed=5, trials=40, dims=(1, 4), field=FieldChoice.REAL, gram=GramKind.RANDOM)
        samples = _assert_shard_is_its_trials_alone(name, config)
        assert sum(len(group) == 1 for group, _ in samples.groups) > 4

    def test_groups_of_counted_and_uncounted_rows(self, monkeypatch):
        # premises fail on every other row of one space's group, on every
        # row of another and on one trial sampled alone, keyed by x's bytes
        monkeypatch.setattr(falsifier, "zero_norm_threshold", lambda space: 0.9 * math.sqrt(space.dim))
        name = "precupanu-moore-1.12"
        config = SearchConfig(seed=5, trials=40, dims=(1, 4), field=FieldChoice.REAL, gram=GramKind.RANDOM)
        samples = sample_instance(config, name, list(range(config.trials)))
        alone, *_, every, some = sorted((group for group, _ in samples.groups), key=len)
        assert len(alone) == 1 and len(every) > 1 and len(some) > 2
        planted = {x.tobytes() for x in [*alone.args["x"], *every.args["x"], *some.args["x"][::2]]}
        original = CATALOG[name].statement

        def statement(space, a, b, x, params, *, extended=False):
            result = original(space, a, b, x, params, extended=extended)
            failed = np.array([row.tobytes() in planted for row in x])
            return StackedResult(result.links, result.premises_hold & ~failed)

        monkeypatch.setitem(CATALOG, name, dataclasses.replace(CATALOG[name], statement=statement))
        _assert_shard_is_its_trials_alone(name, config)
        starved = _shard_worker((name, config, 0, config.trials, False))[3]
        assert starved == len(planted) == 1 + len(every) + (len(some) + 1) // 2

    def test_a_nan_row(self, monkeypatch):
        config = SearchConfig(seed=0, trials=40, dims=(2, 4))
        bad = sample_instance(config, "schwarz", 13)

        def statement(space, x, y, *, extended=False):
            (link,) = eval_schwarz(space, x, y, extended=extended).links
            hit = np.array([np.array_equal(row, bad.inputs["x"]) for row in x])
            return StackedResult((stacked_evaluation(link.scale, np.where(hit, math.nan, link.lhs), rhs=link.rhs),))

        monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=statement))
        _assert_shard_is_its_trials_alone("schwarz", config)
        assert _shard_worker(("schwarz", config, 0, 40, False))[4][0][1] == 13  # NaN sorts first


def test_a_group_error_no_trial_raises_alone_is_raised(monkeypatch):
    # the group raises, each trial alone does not: the shard raises the group's own error
    def statement(space, x, y, *, extended=False):
        if len(x) > 1:
            raise DomainError("the group's own")
        return eval_schwarz(space, x, y, extended=extended)

    monkeypatch.setitem(CATALOG, "schwarz", dataclasses.replace(CATALOG["schwarz"], statement=statement))
    with pytest.raises(DomainError, match="the group's own"):
        _shard_worker(("schwarz", SearchConfig(seed=0, trials=12, dims=(2, 4)), 0, 12, False))


class TestVectorizedFold:
    def test_buckets_equal_bucket_at_every_decade_edge(self):
        values = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -1.0, 1e-300, 1.7976931348623157e308]
        for k in range(-17, 14):
            edge = 10.0 ** k
            values += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        assert _buckets(np.array(values)).tolist() == [_bucket(v) for v in values]

    def test_lowest_equals_keep_top_on_ties_and_nan(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, TOP_K - 1, TOP_K, 40, 300):
            values = rng.choice([math.nan, -math.inf, -1.0, 0.0, 0.25, 0.25, 1.0, math.inf], size=n)
            top = []
            for index, value in enumerate(values.tolist()):
                _keep_top(top, (-math.inf if math.isnan(value) else value, index))
            assert _lowest(values) == [index for _, index in top]


def _moore_sample(config, params, index):
    """One sample of the complex-premise experiment, alone."""
    return _sample_alone(config, "moore-complex", CATALOG["moore-1.9"], params, (Field.COMPLEX,), index)[:2]


def _planted_moore(monkeypatch, faults):
    """moore-1.9 as the complex-premise experiment reads it, with a fault at
    each row whose x has the bytes of a key of `faults`: "halved" halves the
    center |<y,z>| at both precisions, "double" at double precision only (a
    candidate that the extended check rejects), and "premise" fails the
    premises."""
    original = falsifier.verify_moore

    def planted(space, x, y, z, params, *, extended=False):
        result = original(space, x, y, z, params, extended=extended)
        (link,) = result.links
        kinds = [faults.get(row.tobytes()) for row in x]
        halved = np.array([kind == "halved" or (kind == "double" and not extended) for kind in kinds])
        premises = result.premises_hold & np.array([kind != "premise" for kind in kinds])
        return StackedResult((dataclasses.replace(link, center=np.where(halved, link.center / 2, link.center)),),
                             premises)

    monkeypatch.setattr(falsifier, "verify_moore", planted)


def _reference_moore(eps, config):
    """The experiment's premise count, minimum ratio and witness from each
    sample alone, folded row by row in trial order, then each of the TOP_K
    lowest samples' refined rows folded in rank order; and the digests of
    those samples, in rank order."""
    params = MooreParams(eps=eps)
    first_bound = 1.0 - eps - math.sqrt(2.0 * eps)
    satisfying, low, top, witness = 0, None, [], None

    def fold(space, inputs, row):
        nonlocal low, witness
        ratio, ok, scale = row
        if not ok:
            return False
        low = ratio if low is None else min(low, ratio)
        below = ratio - first_bound < -(TOL_ABS / max(scale, 1e-300) + TOL_REL)
        if witness is None and below:
            ratio, ok, scale = _moore_ratios(space, [inputs], params, extended=True)[0]
            if ok and ratio - first_bound < -(TOL_ABS / max(scale, 1e-300) + TOL_REL):
                witness = instance_digest("moore-1.9", space, inputs)
        return True

    for index in range(config.trials):
        space, inputs = _moore_sample(config, params, index)
        row = _moore_ratios(space, [inputs], params)[0]
        if fold(space, inputs, row):
            satisfying += 1
            _keep_top(top, (row[0], index, space, inputs))  # (ratio, index) is unique
    for _, _, space, inputs in (top if config.ascent_steps else []):
        refined = _refine_moore_candidate(space, inputs, params, config)
        fold(space, refined.refined_inputs, refined.row)
    return satisfying, low, witness, [instance_digest("moore-1.9", space, inputs) for _, _, space, inputs in top]


class TestMooreComplexChunks:
    """moore-complex folds each SHARD_SIZE chunk by its columns; across a
    chunk boundary it equals the per-row fold of every sample alone."""

    EPS = 0.05

    def _faults(self, config, plan):
        params = MooreParams(eps=self.EPS)
        return {_moore_sample(config, params, index)[1]["x"].tobytes(): kind for index, kind in plan.items()}

    @pytest.mark.parametrize("steps", [0, 2])
    def test_a_fault_past_the_first_chunk(self, monkeypatch, steps):
        config = SearchConfig(seed=6, trials=SHARD_SIZE + 40, dims=(2, 4), field=FieldChoice.COMPLEX,
                              ascent_steps=steps)
        witness, later = SHARD_SIZE + 17, SHARD_SIZE + 30
        # trial 9 is flagged and rejected in the first chunk; the witness is
        # the second chunk's lowest confirmed trial
        plan = {9: "double", SHARD_SIZE + 3: "premise", witness: "halved", later: "halved"}
        _planted_moore(monkeypatch, self._faults(config, plan))
        report = moore_complex_experiment(self.EPS, config)
        satisfying, low, digest, _ = _reference_moore(self.EPS, config)
        assert (report.samples_satisfying_premises, report.min_observed_ratio, report.witness_digest) == (
            satisfying, low, digest)
        assert satisfying == config.trials - 1
        assert digest == instance_digest("moore-1.9", *_moore_sample(config, MooreParams(eps=self.EPS), witness))

    def test_refined_rows_fold_in_rank_order(self, monkeypatch):
        config = SearchConfig(seed=6, trials=SHARD_SIZE + 40, dims=(2, 4), field=FieldChoice.COMPLEX,
                              ascent_steps=3)
        # trials 9 and SHARD_SIZE + 5, one in each chunk, are the lowest and
        # are rejected as witnesses; a ratio does not depend on x, so their
        # descents keep x's bytes and the fault, and their refined rows are
        # flagged, rejected again and lower the minimum
        _planted_moore(monkeypatch, self._faults(config, {9: "double", SHARD_SIZE + 5: "double"}))
        started = []  # the digest of each refined sample, in the order refined
        refine = falsifier._refine_moore_candidate
        monkeypatch.setattr(falsifier, "_refine_moore_candidate", lambda space, inputs, *args: started.append(
            instance_digest("moore-1.9", space, inputs)) or refine(space, inputs, *args))
        report = moore_complex_experiment(self.EPS, config)
        satisfying, low, digest, ranked = _reference_moore(self.EPS, config)
        assert (report.samples_satisfying_premises, report.min_observed_ratio, report.witness_digest) == (
            satisfying, low, digest)
        assert started == ranked and len(ranked) == TOP_K
        assert digest is None
        unrefined = moore_complex_experiment(self.EPS, dataclasses.replace(config, ascent_steps=0))
        assert report.min_observed_ratio < unrefined.min_observed_ratio


class TestRebuiltRecord:
    def test_a_rebuilt_block_is_each_point_alone(self):
        config = SearchConfig(seed=4, trials=6, dims=(2, 4), gram=GramKind.RANDOM)
        rng = np.random.default_rng(8)
        for name in ("generalized-2.1", "kurepa-refined-3.3", "kurepa-3.2", "buzano-1.14"):
            for index in range(config.trials):
                sampled = sample_instance(config, name, index)
                codec = _CoordCodec(CATALOG[name], sampled.space, sampled.inputs)
                flat = codec.flatten(sampled.inputs)
                points = np.vstack([_probe_points(flat, 1e-3), flat + 0.1 * rng.standard_normal((3, flat.size))])
                for project in (False, True):
                    block = codec.rebuild(points, project)
                    assert isinstance(block, Group) and len(block) == len(points)
                    for i in range(len(points)):
                        alone = codec.rebuild(points[i : i + 1], project)
                        assert _record_bytes(block.take([i])) == _record_bytes(alone)


    def test_a_block_of_dead_points_has_no_rows(self):
        sampled = sample_instance(SearchConfig(seed=1, trials=1, dims=(3, 3)), "schwarz", 0)
        codec = _CoordCodec(CATALOG["schwarz"], sampled.space, sampled.inputs)
        block = codec.rebuild(np.zeros((3, codec.flatten(sampled.inputs).size)), project=True)
        assert list(block) == [None] * 3
        rows = _evaluate(functools.partial(_binding_rows, CATALOG["schwarz"], sampled.space), block)
        assert list(rows) == [(math.inf, False)] * 3 and rows[1] == (math.inf, False)


def _record_bytes(group):
    """The bytes of every stack of a group, and its live mask."""
    parts = [group.live.tobytes()]
    for key in sorted(group.args):
        value = group.args[key]
        if isinstance(value, FamilyStack):
            parts += [value.members.tobytes(), value.sizes.tobytes(), value.ok.tobytes()]
        elif isinstance(value, ComplexifiedVector):
            parts += [value.re.tobytes(), value.im.tobytes()]
        else:
            parts.append(value.tobytes())
    return b"|".join(parts)


def _first_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[0])["digest"]


class TestExactStreamKeys:
    def test_key_words_are_pinned(self):
        # schwarz's FNV key is above 2^63: its word is the double nearest it;
        # generalized-2.1's is below, and its word is the key itself
        assert _key_words(5, "schwarz").tolist() == [5, 9380511674771175424]
        assert _key_words(5, "generalized-2.1").tolist() == [5, 0x60BB46BD7D226653]
        assert _key_words(2**64 - 1, "schwarz").tolist() == [2**64 - 1, 9380511674771175424]
        assert falsifier._stream(5, "schwarz")[0].state["state"]["key"].tolist() == [5, 9380511674771175424]

    def test_seeds_below_2_53_keep_their_keys(self):
        for name in [*CATALOG, "moore-complex"]:
            for seed in (0, 7, 2**53 - 1):
                old = np.random.Philox(key=[seed, _name_key(name)]).state["state"]["key"]
                assert old.tolist() == _key_words(seed, name).tolist(), (name, seed)

    def test_neighbouring_seeds_above_2_53_get_their_own_streams(self):
        argv = ["verify", "--ineq", "schwarz", "--samples", "50", "--emit-instances", "--seed"]
        assert _first_digest(argv + [str(2**53)]) != _first_digest(argv + [str(2**53 + 1)])

    def test_the_largest_seeds_key_exactly(self):
        argv = ["verify", "--ineq", "generalized-2.1", "--samples", "20", "--emit-instances", "--seed"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warned "invalid value encountered in cast"
            digests = {_first_digest(argv + [str(seed)]) for seed in (2**53, 2**53 + 1, 2**63 + 5, 2**64 - 1024,
                                                                        2**64 - 1)}
        assert len(digests) == 5



def test_a_mixed_size_stack_that_raises_runs_each_family_alone_in_its_row(monkeypatch):
    # as the stacked pairing raises, each family is orthonormalized alone,
    # longest first, and the FamilyStack puts each back in its own row
    space = SpaceSpec(2, Field.COMPLEX)

    def pairing_norm_refusing_seven(space, u):
        if np.any(u == 7.0):
            raise DomainError("squared norm has a non-negligible imaginary part")
        return pairing_norm(space, u)

    monkeypatch.setattr(orthonormal, "pairing_norm", pairing_norm_refusing_seven)
    good = np.array([[1.0, 2.0j], [0.5, -1.0]])
    bad = np.array([[7.0, 1.0], [0.0, 1.0]])
    stack = gram_schmidt(space, np.array([good, bad, good]), sizes=[1, 2, 2])
    assert isinstance(stack, FamilyStack) and stack.ok.tolist() == [True, False, True]
    assert stack[1] is None and stack.sizes[stack.ok].tolist() == [1, 2]
    assert stack[0].members.tobytes() == gram_schmidt(space, good[:1]).members.tobytes()
    assert stack[2].members.tobytes() == gram_schmidt(space, good).members.tobytes()
