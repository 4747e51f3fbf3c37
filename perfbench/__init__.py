"""Benchmark of the rjcma package; run it with perfbench/run.py."""
