"""Time one set-up in a fresh interpreter: ``import repro`` plus boot.

Import cost is paid once per process, so ``run.py`` measures set-up by
running this script several times and taking the median.  Usage::

    python3 perfbench/probe.py <workload>

Prints the set-up seconds as its only line.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)
    from perfbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].new_simulator()
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
