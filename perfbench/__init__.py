"""Benchmark for choreshare; run it with ``python3 perfbench/run.py --help``."""
