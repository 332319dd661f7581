"""Pin OpenBLAS to one thread before numpy is imported, hold the check that a
test left no worker process behind, and record the workers a test forks.

Some tests fork a worker through core._in_two, the one fork primitive behind
the two-process CSV writer and reader and the replications of
bench.run_experiment. Forking next to a live BLAS thread can deadlock the
child, and core._can_fork refuses it, so the suite runs with one BLAS
thread, as the benchmark does.
The variable is read once, when numpy loads OpenBLAS, which no test module
or plugin has done when this file is imported.
"""

import os
import tempfile
from dataclasses import dataclass

import pytest

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def assert_no_child_left():
    """Fail if this process has a child that has not been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@dataclass
class Worker:
    """One forked worker: its pid, its wait status once reaped, and the bytes
    of the half it handed back through its temporary file (None unless it
    exited 0)."""

    pid: int
    fd: int
    status: int | None = None
    handed: bytes | None = None


class Forks(list):
    """The workers forked while the fixture is active, in fork order."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch
        temporary_file, fork, waitpid = tempfile.TemporaryFile, os.fork, os.waitpid
        latest = []

        def noted_file(*args, **kwargs):
            latest[:] = [temporary_file(*args, **kwargs)]
            return latest[0]

        def noted_fork():
            pid = fork()
            if pid:  # the worker is forked beside the file it hands back through
                self.append(Worker(pid, latest[0].fileno()))
            return pid

        def noted_waitpid(pid, options):
            reaped, status = waitpid(pid, options)
            for worker in self:
                if worker.pid == reaped:
                    worker.status = status
                    if status == 0:
                        worker.handed = os.pread(worker.fd, os.fstat(worker.fd).st_size, 0)
            return reaped, status

        monkeypatch.setattr(tempfile, "TemporaryFile", noted_file)
        monkeypatch.setattr(os, "fork", noted_fork)
        monkeypatch.setattr(os, "waitpid", noted_waitpid)

    def gate_shut(self, call):
        """call() with the fork gate shut, which must fork no worker."""
        from acir import core

        forked = len(self)
        with self._monkeypatch.context() as shut:
            shut.setattr(core, "_can_fork", lambda: False)
            result = call()
        assert len(self) == forked
        return result


@pytest.fixture
def forks(monkeypatch):
    """Every worker the test forks, as Worker records in a Forks list."""
    return Forks(monkeypatch)
