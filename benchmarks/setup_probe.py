"""Seconds a fresh interpreter needs to import seculoc and warm it up.

``run.py`` starts this with ``PYTHONPATH=src`` and the output directory as
its argument; the last line printed is the time.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import seculoc  # noqa: E402,F401
import seculoc.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up(Path(sys.argv[1]))
print(time.perf_counter() - t0)
