"""``python -m benchmarks.perf {run,compare,baseline} ...``"""

from benchmarks.perf.cli import main

raise SystemExit(main())
