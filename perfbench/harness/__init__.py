"""Benchmark harness for the bitmap-filter reproduction (see ../README.md)."""
