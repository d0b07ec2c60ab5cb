"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help``; perfbench/README.md explains the
workloads and metrics.
"""
