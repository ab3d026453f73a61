"""Set-up probe for run.py: import squadsim, build one workload's run list,
then print the CLOCK_MONOTONIC time at which the list is ready.

    python3 perfbench/probe_setup.py <workload> <seed>
"""

import sys
import time

import workloads

workloads.build_units(workloads.run_units(sys.argv[1], int(sys.argv[2])))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
