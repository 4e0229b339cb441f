"""Benchmark harness for sidground: HTTP serving and the offline evaluation path.

Run from the repository root:

    python3 sgbench/run.py --workload serve_hit --seed 1 --seconds 15 --trace 0

The harness drives the library only through its public API: it generates
inputs with the fixture module, hands them to a server or offline child
process as files, and checks every output. See sgbench/README.md.
"""
