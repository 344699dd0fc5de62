"""Time ``import wvcsim`` plus building one workload's plan, in a fresh interpreter.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the host seconds from before the import to the start of the first
trial.
"""

import sys
import time

import workloads

t0 = time.perf_counter()
import wvcsim  # noqa: E402,F401  (the import is what is timed)

workloads.build_tasks(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
