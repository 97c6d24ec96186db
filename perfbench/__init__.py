"""End-to-end and per-layer benchmark of nilrad; run it with `python3 perfbench/run.py`."""
