"""Layered performance ledger: four workloads across the five deployment shapes.

One command measures every end-to-end metric of a workload from outside
the program, checks the answers, and prints one JSON result line; a
traced run wraps each layer's public functions from this package and
reports per-layer counts and self time.  See ``README.md`` here for the
workloads, the metrics and how to run, trace, record and compare.
"""
