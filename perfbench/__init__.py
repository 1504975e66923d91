"""Closed-loop serve benchmark with per-layer attribution (see run.py)."""
