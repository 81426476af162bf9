"""End-to-end and per-layer benchmark of the jacobiweil library (see README.md)."""
