"""Pin OpenBLAS to one thread before numpy is imported, and hold the check
that a test left no worker process behind.

Some tests fork a worker through core._in_two, the one fork primitive behind
the two-process CSV writer and reader and the replications of
bench.run_experiment. Forking next to a live BLAS thread can deadlock the
child, and core._can_fork refuses it, so the suite runs with one BLAS
thread, as the benchmark does.
The variable is read once, when numpy loads OpenBLAS, which no test module
or plugin has done when this file is imported.
"""

import os

import pytest

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def assert_no_child_left():
    """Fail if this process has a child that has not been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
