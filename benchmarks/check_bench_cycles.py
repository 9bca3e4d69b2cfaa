"""Assert BENCH_sim_throughput.json's cycle fields match the committed copy.

``benchmarks/test_sim_throughput.py`` rewrites the export on every run.
Only its wall-clock fields (``seed_seconds``, ``fast_seconds``,
``speedup``) are machine-dependent; every other field is a simulated
cycle count or a workload descriptor and must be byte-identical to the
version at ``HEAD``.  Run from the repository root after the benchmark:

    python benchmarks/check_bench_cycles.py
"""

from __future__ import annotations

import json
import subprocess

EXPORT = "BENCH_sim_throughput.json"
WALLCLOCK = {"seed_seconds", "fast_seconds", "speedup"}


def _strip(export: dict) -> dict:
    return {k: v for k, v in export.items() if k not in WALLCLOCK}


def main() -> None:
    with open(EXPORT) as fh:
        current = _strip(json.load(fh))
    committed = _strip(json.loads(
        subprocess.check_output(["git", "show", f"HEAD:{EXPORT}"])
    ))
    assert current == committed, (current, committed)
    print("BENCH cycle fields byte-identical")


if __name__ == "__main__":
    main()
