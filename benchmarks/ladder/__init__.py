"""The benchmark ladder: eight named workloads, end-to-end and per-layer
metrics, one command.  See ``README.md`` in this directory."""
