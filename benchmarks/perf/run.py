"""Run one workload: ``python3 benchmarks/perf/run.py --workload <name> ...``.

The same as ``python -m benchmarks.perf run ...`` from the repository
root; this file form works from any working directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Drop this script's own directory from the import path: its module
# names must not shadow anything, and the package imports from the root.
sys.path[0] = str(ROOT)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["run", *sys.argv[1:]]))
