"""End-to-end and per-layer benchmark of the secnoma package.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name>``; ``BENCHMARK.json`` lists the workloads and metrics.
"""
