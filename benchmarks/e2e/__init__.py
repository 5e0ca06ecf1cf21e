"""End-to-end benchmark: four workloads over the real data path, with a
per-layer traced run.  See README.md in this directory."""
