"""Assert the BENCH exports' cycle fields match the committed copies.

``benchmarks/test_sim_throughput.py`` and
``benchmarks/test_jit_throughput.py`` rewrite ``BENCH_sim_throughput.json``
and ``BENCH_jit.json`` on every run.  Only their wall-clock fields are
machine-dependent; every other field is a simulated cycle count or a
workload descriptor and must be byte-identical to the version at
``HEAD``.  Run from the repository root after either benchmark:

    python benchmarks/check_bench_cycles.py
"""

from __future__ import annotations

import json
import subprocess

#: Each export and its machine-dependent wall-clock fields, stripped at
#: any nesting depth (``BENCH_jit.json`` times every entry).
EXPORTS = {
    "BENCH_sim_throughput.json": {"seed_seconds", "fast_seconds", "speedup"},
    "BENCH_jit.json": {
        "interpreter_seconds", "jit_seconds", "speedup", "median_speedup",
    },
}


def _strip(node, wallclock: set[str]):
    if isinstance(node, dict):
        return {
            k: _strip(v, wallclock)
            for k, v in node.items() if k not in wallclock
        }
    if isinstance(node, list):
        return [_strip(v, wallclock) for v in node]
    return node


def main() -> None:
    for export, wallclock in EXPORTS.items():
        with open(export) as fh:
            current = _strip(json.load(fh), wallclock)
        committed = _strip(json.loads(
            subprocess.check_output(["git", "show", f"HEAD:{export}"])
        ), wallclock)
        assert current == committed, (export, current, committed)
        print(f"{export}: cycle fields byte-identical")


if __name__ == "__main__":
    main()
