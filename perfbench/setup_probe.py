"""Set-up probe timed by run.py: import the program from src/ and warm it up.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

import run  # pins the BLAS thread count before numpy loads

if __name__ == "__main__":
    run.warm_up(run.import_program(), run.WORKLOADS[sys.argv[1]])
