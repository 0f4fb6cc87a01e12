"""One fresh interpreter's set-up: import finmeas and generate a workload.

Usage: ready.py WORKLOAD SEED DIR
For cli_requests the payload files are written under DIR. `run.py` times
this script from start to exit to measure setup_s, and compares the
inputs digest it prints with its own.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(workloads.gen.digest(wl.requests))
