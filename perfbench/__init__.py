"""End-to-end benchmark with a traced per-layer split (see README.md)."""
