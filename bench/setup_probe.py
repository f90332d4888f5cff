"""Time one workload set-up in a fresh process.

Usage: ``python3 bench/setup_probe.py WORKLOAD SEED WORKDIR``

The clock starts before ``import pmvi`` and stops once the workload's
inputs exist (games built and validated, game files written).  Prints the
elapsed seconds as its only line.  ``bench/run.py`` starts this several
times per run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])

    start = time.perf_counter()
    import pmvi  # noqa: F401  (timed: the package import is part of set-up)
    import workloads

    workloads.make(name, seed, workdir)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
