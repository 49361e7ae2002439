"""Print the seconds a fresh interpreter takes to import kummerlog and build
every context of one workload: `python3 perfbench/setup_probe.py <workload>`."""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports kummerlog from this checkout)

workloads.build_contexts(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - t0)
