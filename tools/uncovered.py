"""List the lines of src/acir that no Tier-1 test runs.

Runs the Tier-1 suite (pytest on tests/) in this one process under the
standard library's trace module, then prints each executable line of
src/acir that never ran, as ``file:line: source``, and their count.

Only this process is traced: lines that run only in a forked worker (the
second half of a large read or write, a forked replication batch) are not
seen, and are listed although a test runs them there.

Usage, from the repository root:

    python tools/uncovered.py [extra pytest arguments]

It always exits 0; pytest's own exit status is printed beside the count.
Under tracing the suite takes about three times as long as without it.
"""

from __future__ import annotations

import os
import sys
import trace
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "acir")


class _OnlyPackage:
    """The ignore test trace.Trace asks of each module called into: all but src/acir."""

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(PACKAGE + os.sep)


def executable_lines(source: str, path: str) -> set[int]:
    """The line numbers that carry bytecode in a module's source, nested code included."""
    stack = [compile(source, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    tracer = trace.Trace(count=1, trace=0)
    # Trace the package alone, chosen by path: trace's own ignore test caches
    # its answer per module basename, so numpy's __init__.py would hide the
    # package's. Leaving the rest untraced also keeps the run fast.
    tracer.ignore = _OnlyPackage()
    status = tracer.runfunc(
        pytest.main, ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *argv]
    )
    ran = tracer.results().counts
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        for line in sorted(executable_lines(source, path)):
            if (path, line) not in ran:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} lines of src/acir run by no test in this process "
          f"(pytest exit status {int(status)}; forked workers' lines are not seen)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
