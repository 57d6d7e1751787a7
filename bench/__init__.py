"""Benchmark harness for qbandit.

``run.py`` runs one workload and prints its metrics, ``sweep.py`` runs
it over several seeds and summarizes the spread; ``workloads``,
``oracle``, ``tracing`` and ``layers`` hold the pieces they share.
"""
