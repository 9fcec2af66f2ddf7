"""Set-up probe: time importing hillmono and writing one workload's inputs.

    python3 bench/setup_probe.py WORKLOAD SEED DIR

Runs in a fresh process so the import is cold for the interpreter (the file
cache stays warm). Prints the seconds taken as its last line.
"""

from time import perf_counter

T0 = perf_counter()

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed, work):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import hillmono
    import hillmono.cli
    import workloads

    os.makedirs(work, exist_ok=True)
    workloads.make(workload, int(seed)).write_inputs(work)
    print(perf_counter() - T0)


if __name__ == "__main__":
    main(*sys.argv[1:])
