"""Opt-in pytest plugin: which lines of `src/ineq_forge` a test run executed.

    python -m pytest -q -p tests.linetrace

traces the pytest process with `sys.settrace` (stdlib only, so it needs no
coverage package) from the start of the run, imports included, and at the
end lists, module by module, the executable lines that never ran.  A line
is executable when the compiled module attributes bytecode to it.  Lines
that run only in a child process (a `python -m ineq_forge` subprocess or a
process-pool worker) are not seen.  Tracing makes the run several times
slower, so a test with a timing gate (acceptance criterion 3) can fail
under it.  The plugin is not a test module, so a run without `-p` never
imports it.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ineq_forge"


def executable_lines(path) -> set:
    """The lines of a source file that its compiled code attributes bytecode to."""
    code = compile(pathlib.Path(path).read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


class LineTrace:
    """The lines of package modules that ran while `trace` was the trace function."""

    def __init__(self):
        self.ran = {}  # absolute path of a package module -> the line numbers that ran
        self._seen = {}  # co_filename -> its set in `ran`, or None outside the package

    def trace(self, frame, event, arg):
        """A global trace function: a line tracer for frames of package code."""
        filename = frame.f_code.co_filename
        if filename not in self._seen:
            path = pathlib.Path(os.path.realpath(filename))
            self._seen[filename] = self.ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        lines = self._seen[filename]
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def report(self) -> list:
        """One line per package module: how many executable lines ran, and
        the ones that never did."""
        out = []
        for path in sorted(PACKAGE.glob("*.py")):
            executable = executable_lines(path)
            missed = executable - self.ran.get(str(path), set())
            line = f"{path.relative_to(PACKAGE.parent)}: {len(executable) - len(missed)} of {len(executable)} ran"
            out.append(line + (f"; never ran: {spans(missed)}" if missed else ""))
        return out


_TRACE = pytest.StashKey[LineTrace]()


def pytest_configure(config):
    tracer = config.stash[_TRACE] = LineTrace()
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    terminalreporter.section("lines of src/ineq_forge")
    for line in config.stash[_TRACE].report():
        terminalreporter.write_line(line)
