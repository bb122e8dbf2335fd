"""One repeatable end-to-end benchmark of the whole stack (see README.md).

Run with ``python3 -m benchmarks.e2e`` from the repository root.
"""
