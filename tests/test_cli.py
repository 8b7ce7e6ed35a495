"""End-to-end tests for the command-line surface: flag grammar, exit codes,
record layout, and byte determinism."""

import dataclasses
import enum
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ineq_forge import cli
from ineq_forge.catalog import CATALOG, catalog_names
from ineq_forge.falsifier import FieldChoice, GramKind, MooreComplexReport, SearchConfig, SearchReport, Verdict

TIMESTAMP = re.compile(r'"(started_at|finished_at)":"[^"]*"')


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_times(text: str) -> str:
    return TIMESTAMP.sub(r'"\1":"X"', text)


class TestSerialization:
    def test_float_formatting_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 2.0, -0.0, 123456789.123456789):
            assert float(cli.format_float(x)) == x

    def test_nonfinite_becomes_null(self):
        assert cli.format_float(float("nan")) == "null"
        assert cli.format_float(float("inf")) == "null"

    def test_nested_structures(self):
        blob = cli.to_json({"a": [1, 0.5, None, True], "b": {"c": "x\"y"}})
        assert json.loads(blob) == {"a": [1, 0.5, None, True], "b": {"c": 'x"y'}}


def _reference_to_json(value) -> str:
    """The general isinstance chain that to_json's fast paths must match."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return cli.format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_reference_to_json(str(k))}:{_reference_to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_reference_to_json(v) for v in value) + "]"
    if isinstance(value, enum.Enum):
        return _reference_to_json(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _reference_to_json({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise TypeError(f"cannot serialize {type(value).__name__}")


class TestFastSerialization:
    @pytest.mark.parametrize(
        "value",
        [
            np.float64(0.1),
            -0.0,
            float("nan"),
            float("-inf"),
            True,
            False,
            None,
            2**70,
            -3,
            "tab\tquote\"ünï\u2028",
            [1, [2.5, [None, True]], (np.float64(-0.0), "x")],
            {"ü": 1, "名前": [0.5, {"née": False}], 7: "int key", True: "bool key", 2.5: "float key"},
            {"lhs": np.float64(1.0) / 3.0, "center": None, "holds": True},
            # equal keys of different types spell differently
            [{1: "int"}, {True: "bool"}, {1.0: "float"}],
            # records: fields in declaration order, enums as their values
            SearchReport("schwarz", 3, np.float64(-0.0), None, 1, 0, (2, 0, 1), 0),
            MooreComplexReport(0.05, 4, 3, None, 0.6, 0.8, Verdict.NO_COUNTEREXAMPLE_FOUND, "ab"),
            SearchConfig(seed=2**63, dims=(1, 8), field=FieldChoice.COMPLEX, gram=GramKind.RANDOM),
            [GramKind.IDENTITY, {"config": SearchConfig()}],
        ],
    )
    def test_same_bytes_as_the_general_path(self, value):
        assert cli.to_json(value) == _reference_to_json(value)
        # the second call reads the memoized keys
        assert cli.to_json(value) == _reference_to_json(value)

    @pytest.mark.parametrize("value", [object(), np.float32(1.0), np.int64(3), {1, 2}, {"k": b"bytes"}, SearchReport])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            cli.to_json(value)
        with pytest.raises(TypeError):
            _reference_to_json(value)


class TestUsageErrors:
    def test_unknown_inequality_lists_names(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--ineq", "nonsense")
        assert code == 1
        for name in catalog_names():
            assert name in err

    def test_bad_dims_grammar(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--dims", "x..y")
        assert code == 1

    def test_inverted_dims_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--dims", "5..2")
        assert code == 1

    def test_negative_seed(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--seed", "-1")
        assert code == 1

    def test_real_only_name_with_complex_field(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--ineq", "richard-1.3", "--field", "complex", "--samples", "5")
        assert code == 1
        assert "complex" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--ineq", "all", "--field", "complex", "--samples", "3", "--dims", "2"),
            ("falsify", "--ineq", "schwarz,richard-1.3", "--field", "complex", "--trials", "2", "--ascent-steps", "1"),
        ],
    )
    def test_real_only_name_is_refused_before_the_first_run(self, capsys, tmp_path, argv):
        out = tmp_path / "records"
        for extra in ((), ("--out", str(out))):
            code, stdout, err = run_cli(capsys, *argv, *extra)
            assert code == 1
            assert stdout == ""
            assert err.startswith("ineq-forge: error:") and err.count("\n") == 1
            assert "not defined over complex spaces" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "falsify", "equality", "moore-complex"])
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.startswith("usage: ineq-forge " + command)

    def test_repeated_inequality_name(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--ineq", "schwarz,schwarz", "--samples", "5")
        assert code == 1
        assert "repeated" in err

    def test_moore_complex_has_no_field_flag(self, capsys):
        # the experiment runs over complex spaces only, so --field is refused
        code, _, _ = run_cli(capsys, "moore-complex", "--eps", "0.05", "--samples", "5", "--field", "real")
        assert code == 1

    def test_equality_has_no_gram_flag(self, capsys):
        # the builders construct identity-gram spaces, so --gram is refused
        code, _, _ = run_cli(capsys, "equality", "--samples", "5", "--gram", "random")
        assert code == 1

    def test_moore_complex_unwritable_out_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def experiment(eps, config):
            pytest.fail("the experiment ran before --out was opened")

        monkeypatch.setattr(cli, "moore_complex_experiment", experiment)
        path = tmp_path / "missing" / "records"
        code, _, err = run_cli(capsys, "moore-complex", "--eps", "0.05", "--samples", "5", "--out", str(path))
        assert code == 1
        assert err.startswith("ineq-forge: error:")

    def test_moore_complex_eps_out_of_range(self, capsys):
        assert run_cli(capsys, "moore-complex", "--eps", "1.5", "--samples", "5")[0] == 1
        assert run_cli(capsys, "moore-complex", "--eps", "0", "--samples", "5")[0] == 1

    def test_threads_env_must_be_a_count(self, capsys, monkeypatch):
        monkeypatch.setenv("INEQ_FORGE_THREADS", "many")
        code, _, err = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "5")
        assert code == 1
        assert "INEQ_FORGE_THREADS" in err

    def test_threads_env_zero_means_auto(self, capsys, monkeypatch):
        monkeypatch.setenv("INEQ_FORGE_THREADS", "0")
        code, _, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "5")
        assert code == 0

    @pytest.mark.parametrize("command, count_flag", [("verify", "--samples"), ("falsify", "--trials")])
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path(self, capsys, tmp_path, flag, command, count_flag):
        # the manifest is the final stdout line of every run, so a run that
        # cannot write an output fails before it prints anything
        path = tmp_path / "missing" / "records"
        code, out, err = run_cli(capsys, command, "--ineq", "schwarz", count_flag, "3", flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ineq-forge: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("good, bad", [("--out", "--csv"), ("--csv", "--out")])
    def test_unwritable_output_leaves_the_other_as_it_was(self, capsys, tmp_path, good, bad, existing):
        kept = tmp_path / "kept"
        if existing:
            kept.write_text("earlier run\n")
        code, out, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "3",
                               good, str(kept), bad, str(tmp_path / "missing" / "file"))
        assert code == 1 and out == ""
        if existing:
            assert kept.read_text() == "earlier run\n"
        else:
            assert not kept.exists()

    @pytest.mark.parametrize("spelling", ["same", "dot-slash", "hard-link"])
    def test_out_and_csv_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "x.jsonl"
        path.write_text("earlier run\n")
        if spelling == "hard-link":
            os.link(path, tmp_path / "y.jsonl")
        other = {"same": "x.jsonl", "dot-slash": "./x.jsonl", "hard-link": "y.jsonl"}[spelling]
        code, out, err = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "3",
                                 "--out", "x.jsonl", "--csv", other)
        assert code == 1 and out == ""
        assert err.startswith("ineq-forge: error:") and err.count("\n") == 1
        assert path.read_text() == "earlier run\n"

    def test_out_and_csv_naming_one_new_file_leave_no_file(self, capsys, tmp_path):
        path = str(tmp_path / "x.jsonl")
        code, out, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "3", "--out", path, "--csv", path)
        assert code == 1 and out == ""
        assert not (tmp_path / "x.jsonl").exists()

    def test_outputs_that_open_are_rewritten(self, capsys, tmp_path):
        out_path, csv_path = tmp_path / "records", tmp_path / "summary.csv"
        for path in (out_path, csv_path):
            path.write_text("x" * 10_000 + "\n")
        argv = ("verify", "--ineq", "schwarz", "--samples", "3", "--seed", "2")
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(out_path), "--csv", str(csv_path))[0] == 0
        assert out_path.read_text() == expected.splitlines(keepends=True)[0]
        assert csv_path.read_text().splitlines()[0] == "ineq,trials,violations,near_equality,worst_margin"
        assert "x" not in csv_path.read_text()


class TestVerify:
    def test_small_sweep_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ineq", "all", "--samples", "30", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(catalog_names()) + 1
        manifest = json.loads(lines[-1])
        assert manifest["command"] == "verify"
        assert manifest["catalog_version"] == "1.0.0"
        assert sum(manifest["totals"].values()) == 30 * len(catalog_names())

    def test_out_file_gets_records_stdout_gets_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--ineq", "buzano-1.14", "--field", "complex",
            "--dims", "1..4", "--samples", "100", "--seed", "9", "--out", str(out_path),
        )
        assert code == 0
        recorded = out_path.read_text().strip().splitlines()
        assert len(recorded) == 1
        summary = json.loads(recorded[0])
        assert summary["ineq"] == "buzano-1.14"
        assert summary["violation_count"] == 0
        stdout_lines = out.strip().splitlines()
        assert len(stdout_lines) == 1
        assert json.loads(stdout_lines[0])["command"] == "verify"

    def test_emit_instances_key_order_and_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--ineq", "schwarz", "--samples", "6", "--dims", "2..3", "--emit-instances"
        )
        assert code == 0
        lines = out.strip().splitlines()
        instances = [json.loads(line) for line in lines[:-2]]
        assert len(instances) == 6
        expected_keys = [
            "ineq", "dim", "field", "seed", "digest", "lhs", "center", "rhs",
            "margin_lower", "margin_upper", "holds", "near_equality",
        ]
        for obj in instances:
            assert list(obj) == expected_keys
            assert obj["holds"] is True
            assert obj["center"] is None
            assert isinstance(obj["margin_upper"], float)

    def test_csv_summary(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--ineq", "schwarz,kurepa-3.2", "--samples", "20", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "ineq,trials,violations,near_equality,worst_margin"
        assert len(lines) == 3
        assert lines[1].startswith("schwarz,20,0,")

    def test_violation_exit_code(self, capsys, monkeypatch):
        fake = SearchReport(
            ineq="schwarz", trials_run=1, worst_margin=-1.0, worst_instance_digest="00",
            near_equality_count=0, violation_count=1, margin_histogram=(0,) * 32, premise_starved=0,
        )
        monkeypatch.setattr(cli, "falsify", lambda name, config, threads=1, on_records=None: fake)
        code, _, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "1")
        assert code == 2


def _starving_every_third(statement):
    """A statement whose premises fail on every third instance it evaluates
    (a group's rows in order), which is every third trial of a run when each
    trial is evaluated once."""
    calls = itertools.count()

    def run(*args, **kwargs):
        result = statement(*args, **kwargs)
        rows = len(result.links[0].lhs)
        return dataclasses.replace(result, premises_hold=np.array([next(calls) % 3 != 2 for _ in range(rows)]))

    return run


class TestInstanceLines:
    def test_one_line_per_counted_trial(self, capsys, monkeypatch):
        names = ("moore-1.9", "t1.5-i")
        for name in names:
            entry = CATALOG[name]
            monkeypatch.setitem(CATALOG, name, dataclasses.replace(entry, statement=_starving_every_third(entry.statement)))
        monkeypatch.delenv("INEQ_FORGE_THREADS", raising=False)
        code, out, _ = run_cli(
            capsys, "verify", "--ineq", ",".join(names), "--samples", "30", "--dims", "2..4",
            "--seed", "4", "--emit-instances",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        reports = {r["ineq"]: r for r in records if "trials_run" in r}
        for name in names:
            report = reports[name]
            emitted = sum(1 for r in records if "digest" in r and r["ineq"] == name)
            assert report["premise_starved"] == 10
            assert emitted == sum(report["margin_histogram"]) == report["trials_run"] - report["premise_starved"]
        # each name's instance lines come before its summary line
        assert [r["ineq"] for r in records] == ["moore-1.9"] * 21 + ["t1.5-i"] * 21


class TestFalsify:
    def test_kurepa_dimension_one_example(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "--ineq", "kurepa-3.2", "--dims", "1..1", "--trials", "100")
        assert code == 0
        report = json.loads(out.strip().splitlines()[0])
        assert report["near_equality_count"] == 100
        assert report["violation_count"] == 0

    def test_zero_trials_empty_report(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "--ineq", "schwarz", "--trials", "0")
        assert code == 0
        report = json.loads(out.strip().splitlines()[0])
        assert report["worst_margin"] is None
        assert report["worst_instance_digest"] is None
        assert sum(report["margin_histogram"]) == 0

    def test_ascent_reaches_near_equality(self, capsys):
        code, out, _ = run_cli(
            capsys, "falsify", "--ineq", "generalized-2.1", "--trials", "150",
            "--ascent-steps", "40", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out.strip().splitlines()[0])
        assert report["near_equality_count"] > 0


class TestEquality:
    def test_all_builders_pass(self, capsys):
        code, out, _ = run_cli(capsys, "equality", "--samples", "40", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["passes"] == 40
            assert record["failures"] == 0

    def test_zero_samples_vacuous_pass(self, capsys):
        assert run_cli(capsys, "equality", "--samples", "0")[0] == 0

    def test_name_without_builder_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "equality", "--ineq", "moore-1.9", "--samples", "5")
        assert code == 1
        assert "generalized-2.1" in err


class TestMooreComplex:
    def test_small_run_reports_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "moore-complex", "--eps", "0.05", "--samples", "500", "--seed", "7")
        assert code == 0
        report = json.loads(out.strip().splitlines()[0])
        assert report["samples_satisfying_premises"] == 500
        assert report["min_observed_ratio"] >= 0.805 - 1e-9
        assert report["verdict"] == "NoCounterexampleFound"
        assert report["witness_digest"] is None

    def test_a_finding_exits_3_and_writes_its_record_and_manifest(self, capsys, halved_moore):
        argv = ("moore-complex", "--eps", "0.05", "--samples", "40", "--dims", "2..4", "--seed", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and err == ""
        record, manifest = out.splitlines()
        config = SearchConfig(seed=1, trials=40, dims=(2, 4), field=FieldChoice.COMPLEX)
        report = cli.moore_complex_experiment(0.05, config)
        assert report.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert record == cli.to_json(report)
        assert json.loads(manifest)["command"] == "moore-complex"

    def test_vacuous_large_eps(self, capsys):
        code, out, _ = run_cli(capsys, "moore-complex", "--eps", "0.6", "--samples", "100")
        assert code == 0
        assert json.loads(out.strip().splitlines()[0])["first_bound"] < 0


class TestDeterminism:
    def test_identical_runs_byte_identical_modulo_timestamps(self, capsys):
        argv = ("verify", "--ineq", "schwarz,chain-2.10", "--samples", "200", "--dims", "1..5",
                "--gram", "random", "--seed", "11", "--emit-instances")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert strip_times(first) == strip_times(second)
        assert first != second  # the timestamps themselves moved

    def test_thread_count_invisible_in_output(self, capsys, monkeypatch):
        argv = ("verify", "--ineq", "schwarz", "--samples", "4200", "--dims", "2..3", "--seed", "2")
        monkeypatch.setenv("INEQ_FORGE_THREADS", "1")
        _, one, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("INEQ_FORGE_THREADS", "8")
        _, eight, _ = run_cli(capsys, *argv)
        assert strip_times(one) == strip_times(eight)

    def test_manifest_excludes_thread_count(self, capsys, monkeypatch):
        monkeypatch.setenv("INEQ_FORGE_THREADS", "3")
        _, out, _ = run_cli(capsys, "verify", "--ineq", "schwarz", "--samples", "5")
        manifest = json.loads(out.strip().splitlines()[-1])
        assert "3" not in json.dumps(manifest["config"])
        assert set(manifest["config"]) == {
            "seed", "trials", "dims", "ascent_steps", "step_size", "fd_eps", "field", "gram",
        }


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ineq_forge", "verify", "--ineq", "schwarz", "--samples", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1].startswith('{"command":"verify"')

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "ineq_forge"], capture_output=True, text=True)
        assert proc.returncode == 1

    def test_closed_stdout_pipe_exits_1_silently(self):
        # the reader takes one line and closes the pipe, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "ineq_forge", "verify", "--ineq", "schwarz", "--samples", "3000",
             "--emit-instances"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().startswith(b'{"ineq":"schwarz"')
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert stderr == b""


class TestGoldenOutput:
    """Pinned sha256 of the timestamp-blanked output of small runs of every
    subcommand: plain and emitting sweeps, falsify with and without a gram
    through the ascent and its coordinate codec (which the instance digest
    goldens do not cover), equality, moore-complex with and without
    refinement, and an emitting run over two shards."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "falsify --ineq all --dims 1..4 --gram random --trials 6 --ascent-steps 2 --seed 3",
                "a34b32eb443d2588d37cdb8b1da586a3045581986cec34fe9743a979e18e199e",
            ),
            (
                "falsify --ineq all --dims 1..6 --trials 12 --ascent-steps 4 --seed 5",
                "75871393aa627e61645cf93278bfb39a993c253473ab431cd845d814645c58ab",
            ),
            (
                "falsify --ineq all --gram random --dims 2..5 --trials 10 --ascent-steps 3 --seed 11",
                "f7db85b25d95081d106c0e2102dff9f1f3ab5df25cbb2366624a4c6bf3736587",
            ),
            (
                "falsify --ineq kurepa-3.2,buzano-1.14 --trials 200 --ascent-steps 5 --seed 3",
                "5f3b714c7478f699ac4b0019f77fe9886f223729d5571f7dd544492ea7076a47",
            ),
            (
                "verify --ineq all --samples 300 --dims 1..5 --gram random --seed 0 --emit-instances",
                "ef8bb6024b83aa515140e79601a1244dc1de24cec5cfcd8d006f8a00872d00e5",
            ),
            (
                "verify --ineq all --dims 1..8 --gram random --samples 40 --emit-instances --seed 2",
                "63ed11542d8d56fa76344799cdbc58eb81971456a70cabcf4f2e9110a701c93d",
            ),
            (
                "verify --ineq schwarz --samples 9000 --dims 1..4 --seed 5",
                "625274bc578e016b47311ede3d8d9fd8f52e042140196ea539e9ef080d2c12b4",
            ),
            (
                "equality --samples 60 --seed 5",
                "0f13ec9e7870732f3662e70ae877bed67ef69eb9679baa9ac56579f3ad4644ab",
            ),
            (
                "equality --samples 20 --seed 4",
                "32f841b643e0ee45acc9b559cce754ad916bec1c60b37106f1c69b73b0ac8f77",
            ),
            (
                "moore-complex --eps 0.05 --samples 400 --seed 7",
                "50cfd033e6e279ab1f2d8b0f4024f18e610674dcb5e4cb96797583683c81316c",
            ),
            (
                "moore-complex --eps 0.05 --samples 300 --ascent-steps 4 --seed 7",
                "f834f1811e7342083bd7cc521b17f2c49df4b6fab565b980751f01661f809141",
            ),
            (
                "moore-complex --eps 0.2 --samples 200 --ascent-steps 6 --gram random --dims 2..4 --seed 14",
                "c1dd7353038b04f311a6c29ebefefa0fbbe8edb95c59381122669f3755d7b92b",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(strip_times(out).encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_emitting_run_over_two_shards_is_pinned(self, capsys, monkeypatch, threads):
        # 4100 trials per name make two shards, so with two threads the
        # instance lines of both shards come back through the pool
        monkeypatch.setenv("INEQ_FORGE_THREADS", threads)
        argv = "verify --ineq schwarz,generalized-2.1 --samples 4100 --dims 1..2 --gram random --seed 2 --emit-instances"
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out.count("\n") == 8203
        digest = hashlib.sha256(strip_times(out).encode("utf-8")).hexdigest()
        assert digest == "fae61a64bb7896047ddc604dc933c1e233c448767f1c707de36a4a9bc9dee689"
