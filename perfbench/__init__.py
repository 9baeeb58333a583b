"""The repository benchmark (see ``perfbench/README.md``).

Run it from the repository root::

    python3 perfbench/run.py --workload cell_characterize --seed 1 --seconds 10 --trace 0
"""
