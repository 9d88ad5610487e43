"""End-to-end benchmark of the entity-group-matching system.

Run it through ``e2ebench/run.py``; ``e2ebench/README.md`` describes the
workloads, the metrics and which layer should move which metric.
"""
