"""Benchmark of py_stringsimjoin_ray; entry point: run.py."""
