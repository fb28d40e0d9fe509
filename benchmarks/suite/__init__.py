"""Outside-in benchmark suite: four workloads, end-to-end and per-layer.

``BENCHMARK.json`` at the repository root declares the workloads, the
metrics, their units, directions and regression bounds; ``README.md``
in this directory explains them. Entry points: ``bench.py`` (one
workload in this interpreter) and ``python -m benchmarks.suite``
(``run``/``trace``/``compare``/``baseline``).
"""
