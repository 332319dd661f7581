"""List the lines of src/acir that no Tier-1 test runs.

Runs the Tier-1 suite (pytest on tests/) in this one process under the
standard library's trace module, then prints each executable line of
src/acir that never ran, as ``file:line: source``, and their count.

Only this process is traced: lines that run only in a forked worker (the
second half of a large read or write, a forked replication batch) are not
seen, and are listed although a test runs them there.

Usage, from the repository root:

    python tools/uncovered.py [extra pytest arguments]

Two places are expected to be listed: ``__main__.py``, which runs only as
the command, and the ``if pid == 0:`` body of ``core._in_two``, which runs
only in the forked worker. Any other listed line is marked ``unexpected``.
It exits 0 if pytest passed and every listed line is expected, and 1
otherwise, so dead code shows in the change that leaves it. pytest's own
exit status is printed beside the count. Under tracing the suite takes
about three times as long as without it.
"""

from __future__ import annotations

import ast
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


def expected_lines() -> set[tuple[str, int]]:
    """The (path, line) pairs no traced test can run: all of __main__.py, and
    the body of the ``if pid == 0:`` branch of core._in_two, the forked worker."""
    main_path = os.path.join(PACKAGE, "__main__.py")
    with open(main_path, encoding="utf-8") as fh:
        lines = {(main_path, n) for n in range(1, len(fh.read().splitlines()) + 1)}
    core_path = os.path.join(PACKAGE, "core.py")
    with open(core_path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), core_path)
    (in_two,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_in_two")
    (worker,) = (n for n in ast.walk(in_two)
                 if isinstance(n, ast.If) and ast.unparse(n.test) == "pid == 0")
    first, last = worker.body[0].lineno, worker.body[-1].end_lineno
    return lines | {(core_path, n) for n in range(first, last + 1)}


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
    expected = expected_lines()
    missed = unexpected = 0
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
                mark = "" if (path, line) in expected else "  [unexpected]"
                unexpected += bool(mark)
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}{mark}")
    print(f"{missed} lines of src/acir run by no test in this process, {unexpected} unexpected "
          f"(pytest exit status {int(status)}; forked workers' lines are not seen)")
    return int(status != 0 or unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
