"""NumPy-JIT throughput guard: compiled batch kernels vs interpreter.

The per-instruction numeric interpreter re-derives gather/scatter index
arrays and bounds checks on every instruction of every tile; for a
Table-1-scale sweep that Python dispatch dominates the wall clock.  The
JIT (:mod:`repro.sim.compile`) compiles each unique tile program once
into a fused batch kernel and replays it at every slice's deltas.

This guard measures interpreter vs. JIT wall-clock per implementation
on a Table-1-scale workload (forward *and* backward), asserts outputs
and cycle counts are bit-identical, requires a median speedup of at
least 10x, and exports ``BENCH_jit.json`` at the repo root so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.config import ASCEND910
from repro.ops import PoolSpec
from repro.ops.base import run_backward, run_forward
from repro.ops.registry import backward_impl, forward_impl
from repro.ops.reference import maxpool_argmax_ref
from repro.sim import ProgramCache
from repro.workloads import make_gradient, make_input

from conftest import record_cycles, run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPORT = REPO_ROOT / "BENCH_jit.json"

#: Table-1-scale workload (VGG16-class 56x56 rows): 128 slices of a
#: 3x3/s2 MaxPool, enough tiles per program that per-instruction
#: dispatch dominates the interpreter's wall clock.
N, C = 2, 64
H = W = 56
SPEC = PoolSpec.square(3, 2)
FWD_IMPLS = ("standard", "im2col")
BWD_IMPLS = ("standard", "col2im")
MIN_MEDIAN_SPEEDUP = 10.0


def _workload():
    x = make_input(H, W, C, n=N, seed=0)
    mask = maxpool_argmax_ref(x, SPEC)
    oh, ow = SPEC.out_hw(H, W)
    grad = make_gradient(x.shape[1], oh, ow, n=N, seed=1)
    return x, mask, grad


def _bench_entry(label, run):
    """Interpreter vs JIT wall-time of one operator invocation."""
    t0 = time.perf_counter()
    ref = run(execute="numeric", cache=ProgramCache())
    interp_s = time.perf_counter() - t0

    cache = ProgramCache()
    run(execute="jit", cache=cache)  # compile + warm
    t0 = time.perf_counter()
    jit = run(execute="jit", cache=cache)
    jit_s = time.perf_counter() - t0

    assert np.array_equal(ref.output, jit.output), label
    if ref.mask is not None:
        assert np.array_equal(ref.mask, jit.mask), label
    assert ref.cycles == jit.cycles, (
        f"{label}: JIT changed the cycle count "
        f"({jit.cycles} != {ref.cycles})"
    )
    assert cache.stats.jit_hits > 0, label
    return {
        "impl": label,
        "cycles": ref.cycles,
        "interpreter_seconds": round(interp_s, 6),
        "jit_seconds": round(jit_s, 6),
        "speedup": round(interp_s / jit_s, 2),
    }


class TestJitThroughput:
    def test_jit_speedup_and_export(self, benchmark):
        x, mask, grad = _workload()
        entries = []

        for name in FWD_IMPLS:
            impl = forward_impl(name, "max", with_mask=True)

            def run_fwd(execute, cache, impl=impl):
                return run_forward(
                    x, SPEC, impl, ASCEND910, collect_trace=False,
                    execute=execute, cache=cache,
                )

            entries.append(_bench_entry(f"maxpool-{name}+mask", run_fwd))

        for name in BWD_IMPLS:
            impl = backward_impl(name, "max")

            def run_bwd(execute, cache, impl=impl):
                return run_backward(
                    grad, SPEC, impl, H, W, mask=mask, config=ASCEND910,
                    collect_trace=False, execute=execute, cache=cache,
                )

            entries.append(_bench_entry(f"maxpool-bwd-{name}", run_bwd))

        median = statistics.median(e["speedup"] for e in entries)
        assert median >= MIN_MEDIAN_SPEEDUP, (
            f"median JIT speedup {median:.1f}x below the "
            f"{MIN_MEDIAN_SPEEDUP:.0f}x floor: {entries}"
        )

        # Time the steady state of one representative entry.
        cache = ProgramCache()
        impl = forward_impl(FWD_IMPLS[1], "max", with_mask=True)
        run_forward(
            x, SPEC, impl, ASCEND910, collect_trace=False,
            execute="jit", cache=cache,
        )
        run_once(
            benchmark,
            lambda: run_forward(
                x, SPEC, impl, ASCEND910, collect_trace=False,
                execute="jit", cache=cache,
            ),
        )
        record_cycles(
            benchmark,
            total_cycles=sum(e["cycles"] for e in entries),
            median_speedup_x100=int(median * 100),
        )

        payload = {
            "workload": {
                "n": N, "c": C, "h": H, "w": W,
                "kernel": [SPEC.kh, SPEC.kw],
                "stride": [SPEC.sh, SPEC.sw],
            },
            "timing_model": "serial",
            "entries": entries,
            "median_speedup": round(median, 2),
            "modes": {
                "interpreter": "program cache + execute='numeric'",
                "jit": "program cache + execute='jit' (warm kernels)",
            },
            "contract": (
                "outputs, masks and cycle counts bit-identical to the "
                "interpreter; speedup is wall-clock only"
            ),
        }
        EXPORT.write_text(json.dumps(payload, indent=2) + "\n")
