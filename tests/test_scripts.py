"""Smoke tests of the experiment scripts: each `main()` at tiny sizes."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMooreComplexScan:
    def test_tiny_scan(self, capsys):
        assert _load("moore_complex_scan").main(["--samples", "20", "--steps", "2", "--dims", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        assert all(row.endswith("NoCounterexampleFound") and "n/a" not in row for row in rows)

    def test_zero_samples_print_na(self, capsys):
        assert _load("moore_complex_scan").main(["--samples", "0", "--steps", "1"]) == 0
        (row,) = capsys.readouterr().out.splitlines()[2:]
        assert row.split()[3:5] == ["n/a", "n/a"]

    def test_rejected_configuration_exits_one(self, capsys):
        assert _load("moore_complex_scan").main(["--dims", "0", "--samples", "2", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("moore_complex_scan: error: dims") and err.count("\n") == 1


class TestTightnessProbe:
    def test_tiny_probe(self, capsys):
        argv = ["--names", "schwarz,t1.5-ii", "--trials", "4", "--ascent-steps", "1", "--dims", "3"]
        assert _load("tightness_probe").main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["schwarz", "t1.5-ii"]

    def test_unknown_name_exits_one(self, capsys):
        assert _load("tightness_probe").main(["--names", "nosuch"]) == 1
        assert "unknown inequality 'nosuch'" in capsys.readouterr().err

    def test_real_only_name_is_refused_before_the_first_row(self, capsys):
        argv = ["--names", "all", "--field", "complex", "--trials", "2", "--ascent-steps", "1"]
        assert _load("tightness_probe").main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tightness_probe: error:") and captured.err.count("\n") == 1

    def test_real_only_name_with_complex_field_exits_one(self, capsys):
        argv = ["--names", "richard-1.3", "--field", "complex", "--trials", "2", "--ascent-steps", "1"]
        assert _load("tightness_probe").main(argv) == 1
        err = capsys.readouterr().err
        assert err == "tightness_probe: error: richard-1.3 is not defined over complex spaces\n"
