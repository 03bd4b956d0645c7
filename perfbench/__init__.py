"""Fresh-process scenario benchmark for the ``repro`` registry.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) as a closed loop of
scenario processes and prints one JSON result line; ``BENCHMARK.json``
at the repository root describes the workloads and metrics.
"""
