"""Run one rep3 command in this process, then print its peak memory.

From the root of a rep3 checkout:

    PYTHONPATH=src python3 scripts/peak_rss.py verify --min-n 9 --max-n 9 --jobs 2

The command's output and exit status are its own.  One more line goes
to standard error: the command, its wall time, and the peak resident
set size of this process (the command's main process) and of the
largest worker process it waited for, from getrusage (RUSAGE_SELF and
RUSAGE_CHILDREN; Linux counts ru_maxrss in KiB).  Standard library and
rep3 only.
"""

import resource
import sys
from time import perf_counter

from rep3.cli import run


def main() -> int:
    argv = sys.argv[1:]
    start = perf_counter()
    status = run(argv)
    wall = perf_counter() - start
    main_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    sys.stdout.flush()
    print(f"rep3 {' '.join(argv)}: {wall:.1f} s, peak RSS main {main_mb:.1f} MB,"
          f" largest worker {worker_mb:.1f} MB", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
