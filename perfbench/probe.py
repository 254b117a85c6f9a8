"""Set-up probe, run in a fresh interpreter by run.py.

Times importing shamans and building one workload's grid, array and
steering vectors, and prints the seconds as the last line:

    PYTHONPATH=src python3 perfbench/probe.py <workload> [<sh artifact>]
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is what is being timed)

workloads.build_svs(workloads.base_config(), workloads.WORKLOADS[sys.argv[1]].svs_models,
                    sys.argv[2] if len(sys.argv) > 2 else None)
print(f"{time.perf_counter() - t0:.6f}")
