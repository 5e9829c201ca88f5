"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the result object: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
