"""End-to-end request benchmark with per-layer attribution.

``python -m benchmarks.e2e run`` measures; ``python -m benchmarks.e2e
compare`` judges two sets of runs.  See README.md in this directory.
"""
