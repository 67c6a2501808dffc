"""The repository's performance benchmark (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload kbuild --seed 1 --seconds 20
--trace 0`` from the repository root.
"""
