"""perfbench: the repository's fixed, outside-in performance benchmark.

See ``perfbench/README.md`` for the workloads, the metrics and how to
read a trace; ``perfbench/run.py`` is the entry point.
"""
