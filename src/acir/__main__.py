"""The ``acir`` command, as ``python -m acir`` and as the installed script.

numpy reads OPENBLAS_NUM_THREADS once, when it loads OpenBLAS. A BLAS
thread pool shuts core's fork gate, so the command pins one BLAS thread
before anything imports numpy, unless the caller set the variable. Its
large reads, writes and runs may then take a second process. Importing the
library sets nothing: a library caller who wants those paths pins the
thread itself.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import console_main  # noqa: E402 - after the pin

if __name__ == "__main__":
    console_main()
