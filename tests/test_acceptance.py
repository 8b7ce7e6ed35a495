"""Binding acceptance suite: nine criteria, one test and one printed
PASS/FAIL line each (visible with -s; the -v row carries the verdict
otherwise).

Relative-agreement checks on quantities that can legitimately sit at zero
(route cross-checks, double-vs-extended mirrors) use a denominator floored
at 1e-3 of the instance scale, so roundoff-sized values compare absolutely
while everything above the floor faces the stated relative tolerance.  The
floor matters for cancellation-heavy sums whose true value is near zero:
two correct evaluation orders then differ by an amount set by the operand
magnitudes, not by the (tiny) result."""

import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from ineq_forge.catalog import (
    CATALOG,
    catalog_names,
    eval_chain,
    eval_generalized,
    eval_kurepa_refined,
    eval_real_double,
    moore_coefficient,
    precupanu_moore_bounds,
)
from ineq_forge.equality import EQUALITY_BUILDERS, builder_space
from ineq_forge.falsifier import (
    FieldChoice,
    SearchConfig,
    _trial_rng,
    moore_complex_experiment,
    sample_instance,
)
from ineq_forge.orthonormal import (
    OrthonormalFamily,
    gram_schmidt,
    lift_to_complexification,
    reflection,
)
from ineq_forge.spaces import (
    ComplexifiedVector,
    Field,
    SpaceSpec,
    complexify_inner,
    complexify_norm,
    conjugate,
    inner,
    norm,
)

PROOF_IDENTITY_REL = 1e-10
REDUCTION_REL = 1e-11
IDENTITY_REL = 1e-12
MIRROR_REL = 1e-8
RATIO_REL = 1e-8
NEAR_REL = 1e-9
SCALE_FLOOR = 1e-3


def _line(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    assert ok, f"criterion {number} {label}{suffix}"


def _agree(a: float, b: float, rel: float, scale: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), SCALE_FLOOR * scale)


def _strip_times(text: str) -> str:
    return re.sub(r'"(started_at|finished_at)":"[^"]*"', r'"\1":"X"', text)


def _cli(*argv, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ineq_forge", *argv],
        capture_output=True, text=True, env=merged,
    )


def test_criterion_1_soundness_sweep():
    t0 = time.monotonic()
    proc = _cli(
        "verify", "--ineq", "all", "--samples", "100000", "--dims", "1..8",
        "--field", "both", "--gram", "random", "--seed", "0",
    )
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    violations = sum(r["violation_count"] for r in reports)
    ok = proc.returncode == 0 and violations == 0 and len(reports) == len(catalog_names())
    _line(1, "soundness sweep", ok,
          f"exit {proc.returncode}, {violations} violations, measured runtime {elapsed:.1f}s")


def test_criterion_2_equality_round_trip():
    t0 = time.monotonic()
    dims = tuple(range(2, 7))
    plan = (Field.REAL, Field.COMPLEX)
    failures = []
    for name, build in EQUALITY_BUILDERS.items():
        for index in range(1000):
            space = builder_space(name, dims[index % len(dims)], plan[(index // len(dims)) % 2])
            built = build(space, _trial_rng(0, "acceptance:" + name, index))
            ev = built.evaluation
            near_ok = ev.near_equality and ev.min_margin <= NEAR_REL * ev.scale
            if not (built.certificate.attained and near_ok and built.ratio_ok):
                failures.append((name, index))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    _line(2, "equality round-trip", ok, f"{len(failures)} failures, {elapsed:.2f}s")


def test_criterion_3_proof_identity_cross_check():
    t0 = time.monotonic()
    config = SearchConfig(seed=0, trials=10**4, dims=(1, 5), field=FieldChoice.BOTH)
    worst = 0.0
    for index in range(10**4):
        sampled = sample_instance(config, "generalized-2.1", index)
        space, inputs = sampled.space, sampled.inputs
        E, F, x, y = inputs["E"], inputs["F"], inputs["x"], inputs["y"]
        ce = np.array([inner(space, x, e) for e in E.members])
        cf = np.array([inner(space, y, f).conjugate() for f in F.members])
        cross = np.array([[inner(space, e, f) for f in F.members] for e in E.members])
        s = 0.0
        if E.size:
            s = s + ce @ np.array([inner(space, e, y) for e in E.members])
        if F.size:
            s = s + np.array([inner(space, x, f) for f in F.members]) @ cf
        if E.size and F.size:
            s = s - 2.0 * (ce @ cross @ cf)
        direct = abs(s - 0.5 * inner(space, x, y))
        other = 0.5 * abs(inner(space, reflection(E, x), reflection(F, y)))
        scale = norm(space, x) * norm(space, y)
        dev = abs(direct - other) / max(direct, other, SCALE_FLOOR * scale)
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= PROOF_IDENTITY_REL and elapsed < 5.0
    _line(3, "proof-identity cross-check", ok, f"max rel dev {worst:.2e}, {elapsed:.2f}s")


def _random_space(rng, field: Field, min_dim: int = 1) -> SpaceSpec:
    return SpaceSpec(int(rng.integers(min_dim, 7)), field)


def _random_family(space: SpaceSpec, rng, max_size=None) -> OrthonormalFamily:
    cap = space.dim if max_size is None else min(max_size, space.dim)
    size = int(rng.integers(0, cap + 1))
    if size == 0:
        return OrthonormalFamily(space, np.zeros((0, space.dim), dtype=space.field.dtype))
    for _ in range(16):
        raw = rng.standard_normal((size, space.dim))
        if space.field is Field.COMPLEX:
            raw = raw + 1j * rng.standard_normal((size, space.dim))
        try:
            return gram_schmidt(space, raw)
        except Exception:
            continue
    raise RuntimeError("family sampling failed")


def _random_vector(space: SpaceSpec, rng):
    v = rng.standard_normal(space.dim)
    if space.field is Field.COMPLEX:
        v = v + 1j * rng.standard_normal(space.dim)
    while float(np.linalg.norm(v)) < 1e-8:
        v = rng.standard_normal(space.dim)
    return v


def test_criterion_4_reduction_suite():
    rng = np.random.default_rng(2024)
    worst = {}

    def record(tag, a, b, scale):
        dev = abs(a - b) / max(abs(a), abs(b), SCALE_FLOOR * scale)
        worst[tag] = max(worst.get(tag, 0.0), dev)

    for trial in range(1000):
        field = Field.REAL if trial % 2 else Field.COMPLEX

        # families-with-self reduction and its chain variant
        space = _random_space(rng, field)
        E = _random_family(space, rng)
        F = _random_family(space, rng)
        x = _random_vector(space, rng)
        nx2 = inner(space, x, x).real
        ce = [inner(space, x, e) for e in E.members]
        cf = [inner(space, x, f) for f in F.members]
        s_xx = sum(abs(c) ** 2 for c in ce) + sum(abs(c) ** 2 for c in cf)
        for i, e in enumerate(E.members):
            for j, f in enumerate(F.members):
                s_xx -= 2.0 * ce[i] * np.conj(cf[j]) * inner(space, e, f)
        general = eval_generalized(space, E, F, x, x).binding
        record("2.6 value", abs(s_xx - 0.5 * nx2), general.lhs, nx2)
        record("2.6 bound", 0.5 * nx2, general.rhs, nx2)
        chain = eval_chain(space, E, F, x, x)
        record("2.11 value", abs(s_xx), chain.links[0].lhs, nx2)
        record("2.11 middle", abs(s_xx - 0.5 * nx2) + 0.5 * nx2, chain.links[0].rhs, nx2)
        record("2.11 bound", nx2, chain.links[1].rhs, nx2)

        # disjoint split of one orthonormal family
        G = _random_family(space, rng)
        cut = int(rng.integers(0, G.size + 1))
        Ea = OrthonormalFamily(space, G.members[:cut])
        Fa = OrthonormalFamily(space, G.members[cut:])
        y = _random_vector(space, rng)
        single = sum(inner(space, x, g) * inner(space, g, y) for g in G.members)
        direct_27 = abs(single - 0.5 * inner(space, x, y))
        general_27 = eval_generalized(space, Ea, Fa, x, y).binding
        scale_xy = norm(space, x) * norm(space, y)
        record("2.7 value", direct_27, general_27.lhs, scale_xy)
        record("2.7 bound", 0.5 * scale_xy, general_27.rhs, scale_xy)

        # singleton families from raw nonzero anchors
        e = _random_vector(space, rng)
        f = _random_vector(space, rng)
        ne2 = inner(space, e, e).real
        nf2 = inner(space, f, f).real
        Es = OrthonormalFamily(space, (e / math.sqrt(ne2))[np.newaxis, :])
        Fs = OrthonormalFamily(space, (f / math.sqrt(nf2))[np.newaxis, :])
        raw = (
            inner(space, x, e) * inner(space, e, y) / ne2
            + inner(space, x, f) * inner(space, f, y) / nf2
            - 2.0 * inner(space, x, e) * inner(space, f, y) * inner(space, e, f) / (ne2 * nf2)
        )
        general_28 = eval_generalized(space, Es, Fs, x, y).binding
        record("2.8 value", abs(raw - 0.5 * inner(space, x, y)), general_28.lhs, scale_xy)
        chain_s = eval_chain(space, Es, Fs, x, y)
        record("2.12 value", abs(raw), chain_s.links[0].lhs, scale_xy)
        record("2.12 bound", 0.5 * (scale_xy + abs(inner(space, x, y))), chain_s.links[1].rhs, scale_xy)

        # the same singletons against x alone; the cross term pairs its
        # second factor against x itself
        raw_xx = (
            abs(inner(space, x, e)) ** 2 / ne2
            + abs(inner(space, x, f)) ** 2 / nf2
            - 2.0 * inner(space, x, e) * inner(space, f, x) * inner(space, e, f) / (ne2 * nf2)
        )
        general_29 = eval_generalized(space, Es, Fs, x, x).binding
        record("2.9 value", abs(raw_xx - 0.5 * nx2), general_29.lhs, nx2)
        chain_xx = eval_chain(space, Es, Fs, x, x)
        record("2.13 value", abs(raw_xx), chain_xx.links[0].lhs, nx2)
        record("2.13 bound", nx2, chain_xx.links[1].rhs, nx2)

        # real two-family window at x = y
        rspace = _random_space(rng, Field.REAL)
        Er = _random_family(rspace, rng)
        Fr = _random_family(rspace, rng)
        xr = _random_vector(rspace, rng)
        nxr2 = inner(rspace, xr, xr)
        ce_r = [inner(rspace, xr, e) for e in Er.members]
        cf_r = [inner(rspace, xr, f) for f in Fr.members]
        s_r = sum(c * c for c in ce_r) + sum(c * c for c in cf_r)
        for i, e in enumerate(Er.members):
            for j, f in enumerate(Fr.members):
                s_r -= 2.0 * ce_r[i] * cf_r[j] * inner(rspace, e, f)
        window = eval_real_double(rspace, Er, Fr, xr, xr).binding
        record("2.15 value", s_r, window.center, nxr2)
        record("2.15 lower", 0.0, window.lhs, nxr2)
        record("2.15 bound", nxr2, window.rhs, nxr2)

        # complexified single-family chain
        Ew = _random_family(rspace, rng)
        Fw = OrthonormalFamily(rspace, np.zeros((0, rspace.dim)))
        w = ComplexifiedVector(rng.standard_normal(rspace.dim), rng.standard_normal(rspace.dim))
        cw = [inner(rspace, w.re, e) + 1j * inner(rspace, w.im, e) for e in Ew.members]
        t = sum(c * c for c in cw)
        ww = complexify_inner(rspace, w, conjugate(w))
        nw2 = complexify_norm(rspace, w) ** 2
        refined = eval_kurepa_refined(rspace, Ew, Fw, w)
        record("3.5 value", abs(t), refined.links[0].lhs, nw2)
        record("3.5 middle1", 0.5 * abs(ww) + abs(t - 0.5 * ww), refined.links[0].rhs, nw2)
        record("3.5 middle2", 0.5 * (nw2 + abs(ww)), refined.links[1].rhs, nw2)
        record("3.5 bound", nw2, refined.links[2].rhs, nw2)

    bad = {tag: dev for tag, dev in worst.items() if dev > REDUCTION_REL}
    ok = not bad
    _line(4, "reduction suite", ok,
          f"max rel dev {max(worst.values()):.2e} over {len(worst)} comparisons" if not bad else str(bad))


def test_criterion_5_reflection_and_complexification_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10**4):
        field = Field.REAL if trial % 2 else Field.COMPLEX
        space = _random_space(rng, field)
        E = _random_family(space, rng)
        x = _random_vector(space, rng)
        nx = norm(space, x)
        worst = max(worst, abs(norm(space, reflection(E, x)) - nx) / nx)

        rspace = _random_space(rng, Field.REAL)
        u = rng.standard_normal(rspace.dim)
        v = rng.standard_normal(rspace.dim)
        z = ComplexifiedVector(u, v)
        nu2 = inner(rspace, u, u)
        nv2 = inner(rspace, v, v)
        scale = nu2 + nv2
        worst = max(worst, abs(complexify_norm(rspace, z) ** 2 - scale) / scale)
        pairing = complexify_inner(rspace, z, conjugate(z))
        expected = nu2 - nv2 + 2j * inner(rspace, u, v)
        worst = max(worst, abs(pairing - expected) / scale)

        family = _random_family(rspace, rng)
        for g in lift_to_complexification(family):
            left = complexify_inner(rspace, g, conjugate(z))
            right = complexify_inner(rspace, z, g)
            worst = max(worst, abs(left - right) / math.sqrt(scale))
    ok = worst <= IDENTITY_REL
    _line(5, "reflection and complexification identities", ok, f"max rel dev {worst:.2e}")


def test_criterion_6_extended_precision_mirror():
    config = SearchConfig(seed=1, trials=1000, dims=(1, 6), field=FieldChoice.BOTH)
    worst = 0.0
    for name in catalog_names():
        entry = CATALOG[name]
        for index in range(1000):
            sampled = sample_instance(config, name, index)
            base = entry.run(sampled.space, sampled.inputs, entry.default_params)
            mirror = entry.run(sampled.space, sampled.inputs, entry.default_params, extended=True)
            for link_d, link_e in zip(base.links, mirror.links):
                scale = max(link_d.scale, 1e-300)
                for a, b in ((link_d.lhs, link_e.lhs), (link_d.center, link_e.center), (link_d.rhs, link_e.rhs)):
                    if a is None:
                        continue
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b), SCALE_FLOOR * scale))
    ok = worst <= MIRROR_REL
    _line(6, "double vs extended mirror", ok, f"max rel dev {worst:.2e}")


def test_criterion_7_parallelism_coefficients():
    checks = []
    checks.append(moore_coefficient(0.0) == 1.0)
    checks.append(moore_coefficient(0.1) == 0.6)
    grid = [k * 1e-3 for k in range(1001)]
    values = [moore_coefficient(t) for t in grid]
    checks.append(all(b <= a + 1e-15 for a, b in zip(values, values[1:])))
    lo, hi = precupanu_moore_bounds(1.0 / math.sqrt(2.0))
    checks.append(abs(lo - 0.0) <= 1e-12 and abs(hi - 2.0) <= 1e-12)
    eps_star = 1.0 - math.sqrt(2.0) / 2.0
    checks.append(abs(1.0 - 4.0 * eps_star + 2.0 * eps_star**2) <= 1e-12)
    ok = all(checks)
    _line(7, "parallelism coefficient checks", ok, f"{sum(checks)}/5 subchecks")


def test_criterion_8_moore_complex_floor():
    t0 = time.monotonic()
    config = SearchConfig(seed=0, trials=10**5, dims=(2, 6), field=FieldChoice.COMPLEX)
    report = moore_complex_experiment(0.05, config)
    elapsed = time.monotonic() - t0
    ok = (
        report.samples_satisfying_premises == 10**5
        and report.min_observed_ratio >= 0.805
        and elapsed < 60.0
    )
    _line(8, "complex-premise floor", ok,
          f"min ratio {report.min_observed_ratio:.6f}, first bound {report.first_bound:.6f}, {elapsed:.1f}s")


def test_criterion_9_byte_determinism():
    argv = ("verify", "--ineq", "all", "--samples", "300", "--dims", "1..5",
            "--gram", "random", "--seed", "0", "--emit-instances")
    first = _cli(*argv, env={"INEQ_FORGE_THREADS": "1"})
    second = _cli(*argv, env={"INEQ_FORGE_THREADS": "1"})
    eight = _cli(*argv, env={"INEQ_FORGE_THREADS": "8"})
    checks = [
        _strip_times(first.stdout) == _strip_times(second.stdout),
        _strip_times(first.stdout) == _strip_times(eight.stdout),
    ]

    sharded = ("verify", "--ineq", "schwarz", "--samples", "9000", "--dims", "1..4", "--seed", "5")
    lane_one = _cli(*sharded, env={"INEQ_FORGE_THREADS": "1"})
    lane_eight = _cli(*sharded, env={"INEQ_FORGE_THREADS": "8"})
    checks.append(_strip_times(lane_one.stdout) == _strip_times(lane_eight.stdout))

    for argv2 in (
        ("falsify", "--ineq", "kurepa-3.2,buzano-1.14", "--trials", "200", "--ascent-steps", "5", "--seed", "3"),
        ("equality", "--samples", "60", "--seed", "5"),
        ("moore-complex", "--eps", "0.05", "--samples", "400", "--seed", "7"),
    ):
        a = _cli(*argv2)
        b = _cli(*argv2)
        checks.append(_strip_times(a.stdout) == _strip_times(b.stdout) and a.stdout != "")
    ok = all(checks)
    _line(9, "byte determinism", ok, f"{sum(checks)}/{len(checks)} comparisons identical")
