"""End-to-end benchmark: four workloads over the hot path, plus a traced run.

See README.md.  ``run.py`` runs one workload (the command BENCHMARK.json
names); ``python -m benchmarks.e2e`` runs sets of them and
``compare.py`` judges two sets against BENCHMARK.json's bounds.
"""
