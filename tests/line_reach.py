"""Which lines of ``src/`` the test suite reaches, checked against an allowlist.

    python tests/line_reach.py [pytest arguments]

Runs the suite in this process under ``sys.settrace`` and records every
line of a function body in ``src/socialgraph`` that executes: the lines
the function's code object holds (``co_lines``) after its ``def`` (or
first decorator) line, which counts only for a one-line function and
then when the function is called. Module and class bodies run at import
and are not checked. Lines run only in child interpreters, such as the
CLI tests that start ``python -m socialgraph.cli``, are not seen.

Exits 1 when a line that no test reaches is missing from ``ALLOWED``,
or when an ``ALLOWED`` entry is reached after all; otherwise with
pytest's own exit code.
"""

from __future__ import annotations

import os
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "socialgraph"

# (file, function, line text) -> why no test in this process reaches it.
# An entry covers every unreached line of that text in that function.
ALLOWED = {
    ("cli.py", "main", "sys.exit(run_command(sys.argv[1:]))"): (
        "the CLI tests reach it in child interpreters; in this process they call run_command"
    ),
}


def function_lines(code) -> set:
    """The lines of ``code``'s body if it is a function's, else none; a
    one-line function's body is its first line."""
    if not code.co_flags & CO_OPTIMIZED:
        return set()
    lines = {line for _, _, line in code.co_lines() if line} | {code.co_firstlineno}
    return lines - {code.co_firstlineno} or lines


def expected_lines(path: Path) -> dict:
    """Line number -> (function name, text) of every line of a function
    body in ``path``."""
    source = path.read_text("utf-8")
    text = source.splitlines()
    lines: dict = {}
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        for line in function_lines(code):
            lines.setdefault(line, (code.co_name, text[line - 1].strip()))
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineReach:
    """Records (file, line) for every line of the package that runs; a
    code object stops being traced once each of its lines has run."""

    def __init__(self):
        self.files = {os.path.realpath(p): p.name for p in PACKAGE.glob("*.py")}
        self.left: dict = {}  # code object -> (file name, lines not yet run)
        self.reached: set = set()

    def _mark(self, code, line):
        name, left = self.left[code]
        if line in left:
            left.discard(line)
            self.reached.add((name, line))
        return bool(left)

    def trace(self, frame, event, arg):
        code = frame.f_code
        if code not in self.left:
            name = self.files.get(os.path.realpath(code.co_filename))
            self.left[code] = (name, function_lines(code) if name else set())
        if not self.left[code][1]:
            return None
        return self._local if self._mark(code, code.co_firstlineno) else None

    def _local(self, frame, event, arg):
        if event == "line" and not self._mark(frame.f_code, frame.f_lineno):
            return None
        return self._local

    def unreached(self) -> list:
        """(file, line, function, text) of every line no frame reached."""
        return [
            (path.name, line, function, text)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, (function, text) in sorted(expected_lines(path).items())
            if (path.name, line) not in self.reached
        ]


def check(unreached: list) -> list:
    """The complaints: unreached lines not allowed, and allowed lines reached."""
    seen = {(name, function, text) for name, _, function, text in unreached}
    problems = [
        f"{name}:{line} in {function}: {text}  (reached by no test)"
        for name, line, function, text in unreached
        if (name, function, text) not in ALLOWED
    ]
    problems += [
        f"{name} in {function}: {text}  (allowed as unreached, but reached)"
        for name, function, text in ALLOWED
        if (name, function, text) not in seen
    ]
    return problems


def main(args: list) -> int:
    reach = LineReach()
    sys.settrace(reach.trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    unreached = reach.unreached()
    for name, line, function, text in unreached:
        print(f"unreached {name}:{line} in {function}: {text}")
    problems = check(unreached)
    for problem in problems:
        print(f"line-reach: {problem}")
    if problems:
        return 1
    print(f"line-reach: {len(unreached)} unreached lines, all allowed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
