"""Benchmark of hankelfill, driven through its command-line entry point.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics as one JSON line; see ``run.py``.
"""
