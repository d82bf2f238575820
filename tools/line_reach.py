"""Share of the executable `src/coalitions` lines that tier-1's tests reach.

    PYTHONPATH=src python3 tools/line_reach.py [extra pytest arguments]

Runs pytest on `tests/` in this process under a stdlib `sys.settrace`
tracer, then prints, per source file, the executable lines reached, their
share and the line numbers never reached, and last the share over all
files.  The executable lines of a file are those its compiled code objects
map instructions to (`co_lines`).  Code that runs only in a child process,
such as `oracle_stub.py` behind a plugin pipe, reads as unreached.

This is a report, not a gate: tracing more than doubles the time of the
tests, and their own timing checks may fail under it.  The exit code is 0
whatever the tests do; pytest's own result is printed above the table.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coalitions"


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines reached,
    by the real path of each package file."""
    package = os.path.realpath(PACKAGE)
    reached: dict[str, set[int]] = {}
    hits_of: dict[str, set[int] | None] = {}  # by co_filename as given

    def hits_for(filename: str) -> set[int] | None:
        try:
            return hits_of[filename]
        except KeyError:
            real = os.path.realpath(filename)
            hits = reached.setdefault(real, set()) if real.startswith(package + os.sep) else None
            hits_of[filename] = hits
            return hits

    def on_call(frame, event, arg):
        hits = hits_for(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest  # before tracing starts: only package code is traced anyway

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3-5, 9"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    code, reached = trace_tests(argv)
    print(f"\npytest exit code {code}\n")
    total = hit = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        seen = lines & reached.get(os.path.realpath(path), set())
        total += len(lines)
        hit += len(seen)
        missed = sorted(lines - seen)
        share = 100.0 * len(seen) / len(lines) if lines else 100.0
        print(f"{path.relative_to(ROOT)}: {len(seen)}/{len(lines)} ({share:.1f} %)")
        if missed:
            print(f"  unreached: {ranges(missed)}")
    print(f"\ntotal: {hit}/{total} executable lines reached ({100.0 * hit / total:.1f} %)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
