"""The opt-in line tracer (`-p tests.linetrace`) records the lines it sees run."""

import inspect
import sys

import linetrace

from ineq_forge import spaces


def test_spans_join_consecutive_lines():
    assert linetrace.spans({9, 3, 5, 4, 12, 11}) == "3-5, 9, 11-12"
    assert linetrace.spans(set()) == ""


def test_a_traced_call_records_the_lines_it_ran():
    tracer = linetrace.LineTrace()
    previous = sys.gettrace()
    sys.settrace(tracer.trace)
    try:
        spaces.as_vector(spaces.SpaceSpec(2), [1.0, 2.0])
    finally:
        sys.settrace(previous)
    path = linetrace.PACKAGE / "spaces.py"
    source = path.read_text(encoding="utf-8").splitlines()
    executable = linetrace.executable_lines(path)
    lines, first = inspect.getsourcelines(spaces.as_vector)
    body = {line for line in executable if first < line < first + len(lines)}
    raises = {line for line in body if "raise" in source[line - 1]}
    ran = tracer.ran[str(path)]
    # the checks that pass ran; the raises they skip did not
    assert raises and body - raises
    assert body - raises <= ran
    assert not raises & ran
    assert f"ineq_forge/spaces.py: {len(ran)} of {len(executable)} ran; never ran: " in "\n".join(tracer.report())
