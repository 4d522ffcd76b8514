"""Time one set-up in a fresh interpreter: import braggbell and build a
workload's inputs. Prints the seconds it took.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads

sys.path.insert(0, str(workloads.SRC))
t0 = perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(perf_counter() - t0))
