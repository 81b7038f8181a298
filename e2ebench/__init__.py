"""End-to-end benchmark of process-mode serving, live ingest and replica
advising, with a traced per-layer ledger.  See ``e2ebench/README.md``."""
