"""Pin OpenBLAS to one thread before numpy is imported.

Some tests fork a worker (the two-process CSV writer and reader, and the
replications of bench.run_experiment). Forking next to a live BLAS thread
can deadlock the child, and core._can_fork refuses it, so the suite runs
with one BLAS thread, as the benchmark does.
The variable is read once, when numpy loads OpenBLAS, which no test module
or plugin has done when this file is imported.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
