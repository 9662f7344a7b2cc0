"""The repository benchmark: seeded workloads, end-to-end metrics and
per-layer host-time attribution. See perfbench/README.md."""
