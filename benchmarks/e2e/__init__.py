"""The repo's end-to-end benchmark (see README.md and BENCHMARK.json)."""
