"""Line reach of ``src/pseudosim`` under tier-1: the executable lines no test runs.

Run it from anywhere, with pytest's arguments if any (tier-1 by default):

    python tests/reach.py

It runs tier-1 in this process under ``sys.settrace`` and
``threading.settrace``, so lines run in a worker process are not seen, and
takes each source file's executable lines from the ``co_lines`` of its code
objects. It prints every unreached line and exits 1 if one of them is not on
the allow-list ``tests/reach_allow.json``, or if a listed line is reached.
Each entry there names a file, the exact text of one line in it (the anchor,
compared without surrounding blanks) and why the line may stay unreached.

It reports reach only: tier-1's own verdict comes from running it untraced.
Tracing slows every call, so a wall-time test may fail here; that failure
says nothing about the code. It needs only the standard library and the
pytest that runs tier-1.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudosim"
ALLOW = ROOT / "tests" / "reach_allow.json"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object of ``path`` maps an instruction to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # a line of None maps no source; 0 is a module's start
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def allowed_lines() -> dict[tuple[str, int], str]:
    """(file relative to the root, line number) of each allow-list anchor, with its reason.

    Raises ``ValueError`` unless each anchor is the text of exactly one line.
    """
    allowed = {}
    for entry in json.loads(ALLOW.read_text(encoding="utf-8")):
        text = (ROOT / entry["file"]).read_text(encoding="utf-8").splitlines()
        hits = [n for n, line in enumerate(text, 1) if line.strip() == entry["anchor"]]
        if len(hits) != 1:
            raise ValueError(f"{entry['file']}: anchor {entry['anchor']!r} is on "
                             f"{len(hits)} lines, not one")
        allowed[(entry["file"], hits[0])] = entry["reason"]
    return allowed


def traced_run(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest under the tracer; the lines reached in each package file."""
    reached = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    tracers: dict[str, object] = {}  # a code file name -> its line tracer, or None

    def line_tracer(lines: set[int]):
        add = lines.add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            lines = reached.get(os.path.realpath(name))
            tracers[name] = tracer = None if lines is None else line_tracer(lines)
            return tracer

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    package = sys.modules.get("pseudosim")
    if package is None or Path(package.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"the run did not import pseudosim from {PACKAGE}")
    return reached


def main(argv: list[str]) -> int:
    allowed = allowed_lines()
    reached = traced_run(argv)
    total = unreached = failures = 0
    report = []
    for name, lines in reached.items():
        path = Path(name)
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for n in sorted(executable - lines):
            unreached += 1
            reason = allowed.pop((rel, n), None)
            failures += reason is None
            tag = "allowed" if reason is not None else "UNREACHED"
            report.append(f"{tag} {rel}:{n}: {text[n - 1].strip()}")
    for (rel, n), reason in sorted(allowed.items()):
        failures += 1
        report.append(f"REACHED {rel}:{n}: on the allow-list ({reason})")
    print("\n".join(report))
    print(f"reach: {total - unreached} of {total} executable lines reached, "
          f"{unreached} unreached, {failures} not as the allow-list says")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
