"""Repository benchmark: four workloads, end-to-end metrics, per-layer trace.

Run ``python -m benchmarks.perf run --workload <name> --seed <n>`` from
the repository root; see ``benchmarks/perf/README.md``.
"""
