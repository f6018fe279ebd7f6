"""End-to-end + per-layer benchmark of the serve, session and ingest paths.

One command (``python3 benchmarks/e2e/run.py``, or ``python -m
benchmarks.e2e``) builds a corpus, starts the real ``repro serve`` CLI as a
subprocess, drives one of five seeded workloads over HTTP keep-alive,
verifies sampled answers against an in-process oracle and prints every
metric by name and unit.  See ``README.md`` in this directory and
``BENCHMARK.json`` at the repository root.
"""
