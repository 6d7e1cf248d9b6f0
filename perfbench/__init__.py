"""P2GO end-to-end benchmark with per-layer tracing (see run.py)."""
