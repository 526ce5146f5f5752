"""Set-up probe: import the package, build a workload's config, run trial 0.

Started by ``run.py`` as a fresh process, which times it from its start to
the ``time.perf_counter()`` reading this prints when the trial returns.
Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import sys
import time

from run import import_package

if __name__ == "__main__":
    workloads, _ = import_package()
    w = workloads.WORKLOADS[sys.argv[1]]
    w.run(w.config(), 0, w.trial_seeds(int(sys.argv[2]), 1)[0])
    print(repr(time.perf_counter()))
