"""Self-validation: golden-model checks and differential fuzzing.

Two layers, both exposed as library features and as a CLI
(``python -m repro.validate``):

1. :func:`validate_all` -- the fixed geometry grid (:data:`DEFAULT_GRID`)
   swept over every registered implementation against the pure-NumPy
   golden models.  The grid covers the paper's regimes (overlap / no
   overlap / max overlap / anisotropic / padded) plus multi-``C1``,
   ``batch > 1`` and all-four-sides-padded geometries whose slice
   offsets exercise program relocation.

2. :func:`fuzz` -- a *differential fuzzer*: seeded random geometries
   (:func:`repro.workloads.sample_pool_geometry`, biased toward edge
   regimes) run every registered implementation through the base
   routes ``fresh`` / ``relocated`` / ``cached`` / ``cycles``, plus
   ``pipelined`` unless restricted to the serial model (contract:
   :func:`_check_routes`).

The opt-in routes live in one registry, :data:`ROUTES`, one entry per
route; each entry's check function states its contract and the CLI
exposes it as ``--<name>``.  The per-operator add-ons ``chaos``,
``sanitize``, ``jit`` and ``autotune`` extend every fuzzed operator;
the standalone storms ``serve-chaos`` and ``integrity`` drive a live
:class:`~repro.serve.PoolService` in place of the grid and the
operator fuzz.

Failures are shrunk (binary-reducing image extents, channels and batch)
to a minimal reproducer printed as a ready-to-paste :class:`FuzzCase`::

    python -m repro.validate --seed 0 --cases 200
    python -m repro.validate --impl im2col col2im --json report.json
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import ASCEND910, ASCEND910_SINGLE_CORE, ChipConfig
from .dtypes import dtype_of
from .errors import LayoutError, PlanError, ReproError, TilingError
from .ops import (
    PoolSpec,
    backward_impl,
    backward_variants,
    forward_impl,
    forward_variants,
    run_backward,
    run_forward,
)
from .ops.base import PoolRunResult
from .ops.reference import (
    avgpool_backward_ref,
    avgpool_forward_ref,
    maxpool_argmax_ref,
    maxpool_backward_ref,
    maxpool_forward_ref,
)
from .plan import Workload, search
from .sim import BitFlip, Crash, FaultPlan, ProgramCache, RetryPolicy
from .workloads import make_gradient, make_input, sample_pool_geometry

#: Geometry grid: (h, w, c, n, spec) covering the paper's regimes --
#: overlap / no overlap / max overlap / anisotropic / padded -- plus
#: multi-C1, batch>1 and all-four-sides-padded entries whose slice
#: offsets catch relocation bugs the C=16/N=1 grid cannot see.
DEFAULT_GRID: tuple[tuple[int, int, int, int, PoolSpec], ...] = (
    (13, 13, 16, 1, PoolSpec.square(3, 2)),
    (12, 12, 16, 1, PoolSpec.square(2, 2)),
    (12, 12, 16, 1, PoolSpec.square(3, 3)),
    (9, 9, 16, 1, PoolSpec.square(3, 1)),
    (10, 14, 16, 1, PoolSpec(kh=3, kw=2, sh=2, sw=3)),
    (10, 10, 16, 1, PoolSpec(kh=3, kw=3, sh=2, sw=2, pb=1, pr=1)),
    # multi-C1 (padded lanes at C=33), batch>1, and all-four-sides
    # padding: every relocation delta (x/out/mask/grad/dx) is non-zero
    # and distinct across slices.
    (10, 10, 33, 1, PoolSpec.square(3, 2)),
    (9, 9, 16, 2, PoolSpec.square(2, 2)),
    (8, 11, 32, 2, PoolSpec(kh=3, kw=3, sh=2, sw=2, pt=1, pb=1, pl=1, pr=1)),
    (7, 9, 48, 1, PoolSpec(kh=2, kw=3, sh=2, sw=1, pt=1, pb=1, pl=1, pr=2)),
)

#: Tolerance (in float32) for cases with a regrouped fp16 summation.
_TOL = dict(rtol=5e-3, atol=5e-3)

#: Default chip for differential fuzzing: a few cores so the planner
#: row-chunks tiles and deals them round-robin (the regime relocation
#: and cache bugs live in), without the full 32-core tile fan-out.
FUZZ_CHIP: ChipConfig = _dc_replace(ASCEND910, num_cores=4)

#: Timing models exercised by default: the serial baseline (the four
#: classic routes) plus the pipelined scoreboard model, whose numeric
#: outputs must be bit-identical and whose makespan may never exceed
#: the serial one.
DEFAULT_MODELS: tuple[str, ...] = ("serial", "pipelined")


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail outcome."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Accumulated check results of one validation or fuzzing run."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one check outcome."""
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        """Whether every recorded check passed."""
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        """The failing checks, in recording order."""
        return [c for c in self.checks if not c.passed]

    def render(self, only_failures: bool = False) -> str:
        """Human-readable listing of the checks."""
        lines = [
            f"{len(self.checks)} checks, "
            f"{len(self.failures)} failures"
        ]
        for c in self.checks:
            if only_failures and c.passed:
                continue
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name} {c.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable summary (the ``--json`` export payload)."""
        return {
            "checks": len(self.checks),
            "failures": [
                {"name": c.name, "detail": c.detail} for c in self.failures
            ],
            "passed": self.all_passed,
        }


def _close(a: np.ndarray, b: np.ndarray, exact: bool) -> bool:
    if exact:
        return bool(np.array_equal(a, b))
    return bool(np.allclose(
        a.astype(np.float32), b.astype(np.float32), **_TOL
    ))


def _diff_detail(a: np.ndarray | None, b: np.ndarray | None) -> str:
    if a is None or b is None:
        return "missing output" if (a is None) != (b is None) else ""
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    d = np.abs(a.astype(np.float32) - b.astype(np.float32))
    return f"max|diff|={float(d.max()):.3e}" if d.size else ""


def _array_identity(arr: np.ndarray | None):
    return None if arr is None else (
        arr.dtype.str, arr.shape, np.ascontiguousarray(arr).tobytes()
    )


def _same_result(a, b) -> bool:
    """Whether two results carry byte-identical outputs and masks.

    Presence, dtype, shape and raw bytes all count: ``array_equal``
    would treat ``-0.0`` and ``0.0`` as equal, yet a flipped sign bit on
    a zero is still a different result (and corruption the fingerprint
    rightly catches).  Cycles are compared by the callers that need it.
    """
    return (
        _array_identity(a.output) == _array_identity(b.output)
        and _array_identity(a.mask) == _array_identity(b.mask)
    )


def _same_cycles(a: PoolRunResult, b: PoolRunResult) -> bool:
    return (
        a.cycles == b.cycles
        and a.chip.total_work_cycles == b.chip.total_work_cycles
    )


def _raised(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class _Operator:
    """One registered variant bound to a workload and its golden models.

    ``run(**kw)`` forwards ``kw`` (cache, execute, model, faults, ...)
    to :func:`~repro.ops.run_forward` / :func:`~repro.ops.run_backward`.
    ``workload`` is set on the first non-mask variant per (direction,
    op) only: the operator the ``autotune`` route searches.
    """

    name: str
    kind: str
    run: Callable[..., PoolRunResult]
    ref: np.ndarray
    mask_ref: np.ndarray | None
    regroups: bool
    workload: Workload | None

    def golden_exact(self, res: PoolRunResult) -> bool:
        """Whether ``res`` must match the golden model bit-for-bit.

        Exact while a single fp16 summation order exists: the X-Y split
        regroups the AvgPool sum (rows, then columns), and a row-chunked
        backward slice accumulates partial sums via DMA-add, regrouping
        them at chunk boundaries (README "Scope and fidelity").
        """
        return not self.regroups and (
            self.kind == "fwd" or len(res.tiles) == 1
        )


def _operators(
    ih: int,
    iw: int,
    c: int,
    n: int,
    spec: PoolSpec,
    seed: int,
    config: ChipConfig,
    impls: Sequence[str] | None = None,
    collect_trace: bool = True,
) -> Iterator[_Operator]:
    """Every registered variant (forward first, then backward) bound to
    the seeded workload ``(n, ih, iw, c, spec)``."""
    x = make_input(ih, iw, c, n=n, seed=seed)
    oh, ow = spec.out_hw(ih, iw)
    grad = make_gradient(x.shape[1], oh, ow, n=n, seed=seed + 1)
    mask_ref = maxpool_argmax_ref(x, spec)
    refs = {
        ("fwd", "max"): maxpool_forward_ref(x, spec),
        ("fwd", "avg"): avgpool_forward_ref(x, spec),
        ("bwd", "max"): maxpool_backward_ref(mask_ref, grad, spec, ih, iw),
        ("bwd", "avg"): avgpool_backward_ref(grad, spec, ih, iw),
    }
    names = tuple(impls) if impls is not None else None
    kw = dict(config=config, collect_trace=collect_trace)
    tuned: set[tuple[str, str]] = set()

    def workload(kind, impl, data, with_mask=False):
        if with_mask or (kind, impl.op) in tuned:
            return None
        tuned.add((kind, impl.op))
        return Workload.of_impl(
            kind, impl, spec, dtype_of(data), n, data.shape[1], ih, iw
        )

    for name, op, with_mask in forward_variants(names):
        impl = forward_impl(name, op, with_mask)
        yield _Operator(
            name=f"{op}pool/{name}{'+mask' if with_mask else ''}",
            kind="fwd",
            run=partial(run_forward, x, spec, impl, **kw),
            ref=refs["fwd", op],
            mask_ref=mask_ref if with_mask else None,
            regroups=op == "avg" and name == "xysplit",
            workload=workload("fwd", impl, x, with_mask),
        )
    for name, op in backward_variants(names):
        impl = backward_impl(name, op)
        yield _Operator(
            name=f"{op}pool-bwd/{name}",
            kind="bwd",
            run=partial(
                run_backward, grad, spec, impl, ih, iw,
                mask=mask_ref if op == "max" else None, **kw,
            ),
            ref=refs["bwd", op],
            mask_ref=None,
            regroups=False,
            workload=workload("bwd", impl, grad),
        )


def validate_all(
    config: ChipConfig = ASCEND910_SINGLE_CORE,
    grid: Sequence[tuple[int, int, int, int, PoolSpec]] = DEFAULT_GRID,
    seed: int = 0,
    models: Sequence[str] = DEFAULT_MODELS,
) -> ValidationReport:
    """Run every (implementation, op, geometry) combination and compare
    against the golden models.

    Implementations are discovered through the registry
    (:func:`repro.ops.forward_variants` /
    :func:`repro.ops.backward_variants`), so newly registered variants
    are validated automatically.  With ``"pipelined"`` in ``models``
    (the default) every grid point additionally asserts the scheduler
    invariant: the pipelined makespan never exceeds the serial one.
    """
    report = ValidationReport()
    for h, w, c, n, spec in grid:
        label = (
            f"{n}x{h}x{w}x{c}/k{spec.kh}{spec.kw}s{spec.sh}{spec.sw}"
        )
        for op in _operators(h, w, c, n, spec, seed, config,
                             collect_trace=False):
            res = op.run()
            ok = _close(res.output, op.ref, op.golden_exact(res))
            if op.mask_ref is not None:
                ok = ok and res.mask is not None and _close(
                    res.mask, op.mask_ref, exact=True
                )
            report.add(f"{op.name}/{label}", ok)
            if "pipelined" in models:
                pipe = op.run(execute="cycles", model="pipelined")
                ok = pipe.cycles <= res.cycles
                report.add(
                    f"{op.name}/{label}/pipelined-le-serial", ok,
                    "" if ok else f"{pipe.cycles} > {res.cycles}",
                )
    return report


# ---------------------------------------------------------------------------
# Differential fuzzing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    """One random workload: geometry, extents and data seed."""

    ih: int
    iw: int
    c: int
    n: int
    spec: PoolSpec
    seed: int = 0

    @property
    def label(self) -> str:
        """Compact identifier used in check names."""
        s = self.spec
        pad = (
            f"p{s.pt}{s.pb}{s.pl}{s.pr}" if s.has_padding else ""
        )
        return (
            f"{self.n}x{self.ih}x{self.iw}x{self.c}"
            f"/k{s.kh}{s.kw}s{s.sh}{s.sw}{pad}@{self.seed}"
        )

    def reproducer(self) -> str:
        """Ready-to-paste Python snippet reconstructing this case."""
        s = self.spec
        return (
            f"FuzzCase(ih={self.ih}, iw={self.iw}, c={self.c}, "
            f"n={self.n}, seed={self.seed}, spec=PoolSpec(kh={s.kh}, "
            f"kw={s.kw}, sh={s.sh}, sw={s.sw}, pt={s.pt}, pb={s.pb}, "
            f"pl={s.pl}, pr={s.pr}))"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--json`` export payload)."""
        s = self.spec
        return {
            "ih": self.ih, "iw": self.iw, "c": self.c, "n": self.n,
            "seed": self.seed,
            "spec": {
                "kh": s.kh, "kw": s.kw, "sh": s.sh, "sw": s.sw,
                "pt": s.pt, "pb": s.pb, "pl": s.pl, "pr": s.pr,
            },
        }


def generate_cases(seed: int, count: int) -> list[FuzzCase]:
    """``count`` seeded random workloads (deterministic per ``seed``)."""
    rng = random.Random(seed)
    cases = []
    for idx in range(count):
        ih, iw, c, n, spec = sample_pool_geometry(rng)
        cases.append(
            FuzzCase(ih=ih, iw=iw, c=c, n=n, spec=spec,
                     seed=seed * 100003 + idx)
        )
    return cases


def _routes(
    run: Callable[..., PoolRunResult],
    models: Sequence[str] = DEFAULT_MODELS,
) -> dict[str, PoolRunResult]:
    """Execute one operator through the base differential routes.

    Always the four serial routes; with ``"pipelined"`` in ``models`` a
    fifth numeric route under the scoreboard timing model is added.
    """
    cache = ProgramCache()
    routes = {
        "fresh": run(cache=None, execute="numeric"),
        "relocated": run(cache=cache, execute="numeric"),
        "cached": run(cache=cache, execute="numeric"),
        "cycles": run(cache=cache, execute="cycles"),
    }
    if "pipelined" in models:
        routes["pipelined"] = run(
            cache=cache, execute="numeric", model="pipelined"
        )
    assert cache.stats.hits > 0, "warm cache route served no hits"
    return routes


def _baselines(
    runs: dict[str, PoolRunResult], models: Sequence[str]
) -> Iterator[tuple[str, PoolRunResult]]:
    """``(model, fault-free numeric run under that model)`` pairs."""
    for m in models:
        yield m, runs["pipelined"] if m == "pipelined" else runs["fresh"]


def _trace_identical(a: PoolRunResult, b: PoolRunResult) -> str:
    """Empty string if per-tile traces agree exactly, else a detail."""
    if len(a.chip.per_tile) != len(b.chip.per_tile):
        return (
            f"tile count {len(a.chip.per_tile)} vs "
            f"{len(b.chip.per_tile)}"
        )
    for idx, (ra, rb) in enumerate(zip(a.chip.per_tile, b.chip.per_tile)):
        if ra.cycles != rb.cycles:
            return f"tile {idx} cycles {ra.cycles} vs {rb.cycles}"
        if ra.instructions != rb.instructions:
            return (
                f"tile {idx} instructions {ra.instructions} vs "
                f"{rb.instructions}"
            )
        if ra.trace.issue_counts() != rb.trace.issue_counts():
            return f"tile {idx} issue counts differ"
        if ra.trace.cycles_by_unit() != rb.trace.cycles_by_unit():
            return f"tile {idx} per-unit cycles differ"
    return ""


def _check_routes(
    report: ValidationReport,
    prefix: str,
    op: _Operator,
    routes: dict[str, PoolRunResult],
) -> None:
    """The base-route contract for one operator run.

    ``fresh`` matches the golden model (bit-for-bit where
    :meth:`_Operator.golden_exact`, else within :data:`_TOL`), masks
    bit-for-bit; ``relocated`` and ``cached`` are byte-identical to
    ``fresh`` at the same cycle count; ``cycles`` carries no data but
    the exact cycle count and per-tile trace of numeric execution; the
    ``pipelined`` scoreboard route is byte-identical to ``fresh`` with a
    makespan no larger than the serial one, on every tile.
    """
    fresh = routes["fresh"]
    ok = _close(fresh.output, op.ref, exact=op.golden_exact(fresh))
    report.add(
        f"{prefix}/fresh-vs-golden", ok,
        "" if ok else _diff_detail(fresh.output, op.ref),
    )
    if op.mask_ref is not None:
        ok = fresh.mask is not None and _close(fresh.mask, op.mask_ref, True)
        report.add(
            f"{prefix}/mask-vs-golden", ok,
            "" if ok else _diff_detail(fresh.mask, op.mask_ref),
        )
    for route in ("relocated", "cached"):
        res = routes[route]
        ok = _same_result(res, fresh) and res.cycles == fresh.cycles
        report.add(
            f"{prefix}/{route}-vs-fresh", ok,
            "" if ok else _diff_detail(res.output, fresh.output),
        )
    cyc = routes["cycles"]
    report.add(f"{prefix}/cycles-no-data",
               cyc.output is None and cyc.mask is None)
    ok = _same_cycles(cyc, fresh)
    report.add(
        f"{prefix}/cycles-vs-fresh", ok,
        "" if ok else f"cycles {cyc.cycles} vs {fresh.cycles}",
    )
    detail = _trace_identical(cyc, fresh)
    report.add(f"{prefix}/trace-vs-fresh", detail == "", detail)
    pipe = routes.get("pipelined")
    if pipe is not None:
        ok = _same_result(pipe, fresh)
        report.add(
            f"{prefix}/pipelined-output-vs-fresh", ok,
            "" if ok else _diff_detail(pipe.output, fresh.output),
        )
        # The scoreboard only moves issue slots *earlier*.
        ok = pipe.cycles <= fresh.cycles and all(
            pa.cycles <= pb.cycles
            for pa, pb in zip(pipe.chip.per_tile, fresh.chip.per_tile)
        )
        report.add(
            f"{prefix}/pipelined-makespan-le-serial", ok,
            "" if ok else f"cycles {pipe.cycles} > {fresh.cycles}",
        )


def _chaos_seed(prefix: str, model: str) -> int:
    """Deterministic per-(operator, case, model) chaos seed.

    ``zlib.crc32`` rather than ``hash()``: stable across processes and
    immune to ``PYTHONHASHSEED``, so two runs with the same ``--seed``
    build identical :class:`~repro.sim.FaultPlan` objects.
    """
    return zlib.crc32(f"{prefix}/{model}".encode())


def _plan_must_fail(plan: FaultPlan) -> bool:
    """Whether ``plan`` is guaranteed to fail at least one attempt.

    Core-bound faults may never meet their core and ``Deadline``
    budgets may exceed the tile's makespan, so only unbound first-attempt
    crashes and detected bit flips *guarantee* a retry.
    """
    return any(
        isinstance(f, (Crash, BitFlip))
        and (not isinstance(f, BitFlip) or f.detected)
        and f.core is None
        and (f.attempts is None or 0 in f.attempts)
        for f in plan.faults
    )


def _check_chaos(
    report: ValidationReport,
    prefix: str,
    op: _Operator,
    routes: dict[str, PoolRunResult],
    models: Sequence[str],
    config: ChipConfig,
) -> None:
    """The chaos route: re-run under a seeded fault plan per model.

    Each operator re-runs through the resilient dispatcher under a
    seeded :class:`~repro.sim.FaultPlan` (stalls, mid-program core
    crashes, detected scratch-pad bit flips, cycle-budget deadlines).
    Asserts the resilience contract -- recovered outputs bit-identical
    to the fault-free run, the :class:`~repro.sim.ResilienceReport`
    attached and accounting the plan, recovery engaged whenever the
    plan contains a must-fail fault, and the chip never *cheaper* than
    the fault-free baseline.  Unrecoverable runs (raised
    :class:`~repro.errors.ReproError`) are recorded as failing checks,
    so the fuzzer shrinks them like any numeric mismatch.
    """
    for m, base in _baselines(routes, models):
        plan = FaultPlan.generate(
            _chaos_seed(prefix, m),
            num_tiles=len(base.chip.per_tile),
            num_cores=config.num_cores,
        )
        tag = f"{prefix}/chaos-{m}"
        try:
            res = op.run(
                cache=ProgramCache(), execute="numeric", model=m,
                faults=plan, retry=RetryPolicy(),
            )
        except ReproError as exc:
            report.add(f"{tag}/recovered", False,
                       f"unrecoverable: {_raised(exc)}")
            continue
        ok = _same_result(res, base)
        report.add(
            f"{tag}/output-vs-fault-free", ok,
            "" if ok else _diff_detail(res.output, base.output),
        )
        rep = res.resilience
        ok = rep is not None and rep.plan_faults == len(plan.faults)
        report.add(
            f"{tag}/report-attached", ok,
            "" if ok else f"resilience={rep!r}",
        )
        if rep is None:
            continue
        if plan.faults:
            ok = rep.retries > 0 if _plan_must_fail(plan) else True
            report.add(
                f"{tag}/recovery-engaged", ok,
                "" if ok else (
                    f"plan has must-fail faults but report shows "
                    f"{rep.retries} retries / {len(rep.failures)} failures"
                ),
            )
            ok = (
                res.chip.total_work_cycles >= base.chip.total_work_cycles
                and rep.extra_cycles >= 0
            )
            report.add(
                f"{tag}/overhead-accounted", ok,
                "" if ok else (
                    f"work {res.chip.total_work_cycles} < fault-free "
                    f"{base.chip.total_work_cycles}"
                ),
            )
        else:
            # Empty plan: the resilient path must be a cycle-exact
            # no-op relative to the fault-free run.
            ok = rep.clean and _same_cycles(res, base)
            report.add(
                f"{tag}/empty-plan-identical", ok,
                "" if ok else (
                    f"cycles {res.cycles} vs {base.cycles}, clean="
                    f"{rep.clean}"
                ),
            )


def _check_sanitize(
    report: ValidationReport,
    prefix: str,
    op: _Operator,
    routes: dict[str, PoolRunResult],
    models: Sequence[str],
    config: ChipConfig,
) -> None:
    """The sanitize route: re-run numerically in strict mode per model.

    Strict mode (:mod:`repro.sim.sanitizer`) poisons scratch-pads on
    reset, bounds- and initialization-checks every operand against the
    program's allocation manifest, shadow-diffs ``execute()`` side
    effects against declared regions, and audits the pipelined
    timeline for races.  Asserts the memory-safety contract: the run
    completes without a :class:`~repro.errors.SanitizerError`, the
    merged :class:`~repro.sim.SanitizerReport` is attached and *clean*,
    the outputs are bit-identical to the unsanitized baseline and the
    cycle count is unchanged -- the sanitizer observes execution, it
    never perturbs it.  A raised violation is recorded as a failing
    check (its message names the program, instruction index and byte
    range), so the fuzzer shrinks it like any numeric mismatch.
    """
    for m, base in _baselines(routes, models):
        tag = f"{prefix}/sanitize-{m}"
        try:
            res = op.run(
                cache=ProgramCache(), execute="numeric", model=m,
                sanitize=True,
            )
        except ReproError as exc:
            report.add(f"{tag}/clean", False, _raised(exc))
            continue
        rep = res.sanitizer
        ok = rep is not None and rep.clean
        report.add(
            f"{tag}/clean", ok,
            "" if ok else (
                "no report attached" if rep is None else
                "; ".join(v.message for v in rep.violations[:3])
            ),
        )
        ok = _same_result(res, base)
        report.add(
            f"{tag}/output-vs-unsanitized", ok,
            "" if ok else _diff_detail(res.output, base.output),
        )
        ok = _same_cycles(res, base)
        report.add(
            f"{tag}/cycles-unperturbed", ok,
            "" if ok else f"cycles {res.cycles} vs {base.cycles}",
        )
        if rep is not None:
            ok = rep.checked_instructions > 0 and bool(rep.coverage)
            report.add(
                f"{tag}/report-accounts-work", ok,
                "" if ok else (
                    f"checked={rep.checked_instructions}, "
                    f"coverage buffers={sorted(rep.coverage)}"
                ),
            )


def _check_jit(
    report: ValidationReport,
    prefix: str,
    op: _Operator,
    routes: dict[str, PoolRunResult],
    models: Sequence[str],
    config: ChipConfig,
) -> None:
    """The JIT route: re-run through compiled batch kernels per model.

    Asserts the compilation contract (:mod:`repro.sim.compile`):
    ``execute="jit"`` produces **bit-identical** outputs (and masks) to
    the interpreter, the chip makespan and total work cycles are
    unchanged (the JIT accelerates dispatch, never the timing model),
    and a warm second run through the same
    :class:`~repro.sim.ProgramCache` serves the memoized kernel
    (``stats.jit_hits > 0``) with identical results.  A raised error is
    recorded as a failing check, so the fuzzer shrinks it like any
    numeric mismatch.
    """
    for m, base in _baselines(routes, models):
        tag = f"{prefix}/jit-{m}"
        cache = ProgramCache()
        try:
            res = op.run(cache=cache, execute="jit", model=m)
            warm = op.run(cache=cache, execute="jit", model=m)
        except ReproError as exc:
            report.add(f"{tag}/bit-identical", False, _raised(exc))
            continue
        ok = _same_result(res, base)
        report.add(
            f"{tag}/bit-identical", ok,
            "" if ok else _diff_detail(res.output, base.output),
        )
        ok = _same_cycles(res, base)
        report.add(
            f"{tag}/cycles-unchanged", ok,
            "" if ok else f"cycles {res.cycles} vs {base.cycles}",
        )
        ok = (
            cache.stats.jit_hits > 0
            and _same_result(warm, res)
            and warm.cycles == res.cycles
        )
        report.add(
            f"{tag}/warm-cache-served", ok,
            "" if ok else (
                f"jit_hits={cache.stats.jit_hits}, "
                f"jit_misses={cache.stats.jit_misses}"
            ),
        )


def _check_autotune(
    report: ValidationReport,
    prefix: str,
    op: _Operator,
    routes: dict[str, PoolRunResult],
    models: Sequence[str],
    config: ChipConfig,
) -> None:
    """The autotune route: cost-model search, then numeric re-execution.

    Runs once per (direction, op) -- on the first registered non-mask
    variant, the one carrying a ``workload``.  Asserts the autotuner
    contract (:mod:`repro.plan.autotune`): the coarse-grid search finds
    a winning :class:`~repro.plan.ExecutionPlan` no more expensive than
    the default-plan baseline; re-running that plan *numerically*
    produces outputs (and masks) **bit-identical** to the default
    plan's ``fresh`` route -- the search only swaps members of a
    bit-exact equivalence class -- and reports *exactly* the cycle
    count the cycles-mode search predicted (the cost model is
    data-independent).  A raised error is recorded as a failing check,
    so the fuzzer shrinks it like any numeric mismatch.
    """
    if op.workload is None:
        return
    tag = f"{prefix}/autotune"
    try:
        result = search(op.workload, config, models=models, chunks="coarse")
        res = op.run(
            cache=ProgramCache(), execute="numeric", plan=result.best
        )
    except ReproError as exc:
        report.add(f"{tag}/output-vs-default", False, _raised(exc))
        return
    fresh = routes["fresh"]
    ok = _same_result(res, fresh)
    report.add(
        f"{tag}/output-vs-default", ok,
        "" if ok else _diff_detail(res.output, fresh.output),
    )
    ok = res.cycles == result.best_cycles
    report.add(
        f"{tag}/cycles-as-predicted", ok,
        "" if ok else f"numeric {res.cycles} vs predicted "
        f"{result.best_cycles}",
    )
    ok = result.best_cycles <= result.baseline_cycles
    report.add(
        f"{tag}/no-regression", ok,
        "" if ok else f"best {result.best_cycles} > baseline "
        f"{result.baseline_cycles}",
    )


def _operator_checks(routes: Sequence[str]) -> list[Callable[..., None]]:
    """The checks of the named per-operator routes, in registry order."""
    add_ons = [name for name, r in ROUTES.items() if not r.standalone]
    unknown = sorted(set(routes) - set(add_ons))
    if unknown:
        raise ValueError(
            f"unknown per-operator route(s) {unknown}; expected any of "
            f"{add_ons}"
        )
    return [ROUTES[name].check for name in add_ons if name in routes]


def check_case(
    case: FuzzCase,
    config: ChipConfig = FUZZ_CHIP,
    impls: Sequence[str] | None = None,
    report: ValidationReport | None = None,
    models: Sequence[str] = DEFAULT_MODELS,
    routes: Sequence[str] = (),
) -> ValidationReport:
    """Differentially validate one workload across every registered
    implementation and all execution routes.

    Returns the (possibly supplied) report; check names are prefixed
    with the case label so one report can hold many cases.  ``models``
    selects the timing models: ``"pipelined"`` adds the scoreboard
    route.  ``routes`` names per-operator :data:`ROUTES` add-ons (e.g.
    ``("chaos", "jit")``) checked after the base routes of every
    operator.
    """
    if report is None:
        report = ValidationReport()
    checks = _operator_checks(routes)
    for op in _operators(case.ih, case.iw, case.c, case.n, case.spec,
                         case.seed, config, impls):
        prefix = f"{op.name}/{case.label}"
        runs = _routes(op.run, models)
        _check_routes(report, prefix, op, runs)
        for check in checks:
            check(report, prefix, op, runs, models, config)
    return report


def _case_fails(
    case: FuzzCase,
    config: ChipConfig,
    impls: Sequence[str] | None,
    models: Sequence[str] = DEFAULT_MODELS,
    routes: Sequence[str] = (),
) -> bool:
    """Whether differential validation of ``case`` records any failure.

    A shrink candidate whose geometry cannot even be built (layout,
    tiling or plan error) is not a *smaller* reproduction and counts as
    not failing; any other exception is a genuine bug and propagates.
    """
    try:
        return not check_case(
            case, config, impls, models=models, routes=routes
        ).all_passed
    except (LayoutError, TilingError, PlanError):
        return False


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_evals: int = 60,
) -> FuzzCase:
    """Greedily minimize a failing case while it keeps failing.

    Batch and channels collapse first (``n -> 1``, ``c -> C0``), then
    the image extents binary-reduce (halving toward the smallest legal
    input, then decrementing) -- the order that shrinks fastest for
    slice-offset bugs, which usually survive at ``1x1`` output grids.
    """
    spec = case.spec
    min_ih = max(1, spec.kh - spec.pt - spec.pb)
    min_iw = max(1, spec.kw - spec.pl - spec.pr)
    evals = 0

    def candidates(cur: FuzzCase):
        if cur.n > 1:
            yield _dc_replace(cur, n=1)
        if cur.c > 16:
            yield _dc_replace(cur, c=16)
        for dim, floor in (("ih", min_ih), ("iw", min_iw)):
            val = getattr(cur, dim)
            for nxt in (max(floor, val // 2), val - 1):
                if floor <= nxt < val:
                    yield _dc_replace(cur, **{dim: nxt})

    cur = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in candidates(cur):
            evals += 1
            if evals > max_evals:
                break
            if still_fails(cand):
                cur = cand
                improved = True
                break
    return cur


@dataclass
class FuzzFailure:
    """One failing fuzz case with its shrunk minimal reproducer."""

    case: FuzzCase
    shrunk: FuzzCase
    checks: list[CheckResult]

    def render(self) -> str:
        """Failure report with the ready-to-paste reproducer."""
        lines = [f"case {self.case.label} FAILED:"]
        for c in self.checks:
            lines.append(f"  [FAIL] {c.name} {c.detail}".rstrip())
        lines.append(f"  shrunk reproducer: {self.shrunk.reproducer()}")
        lines.append(
            f"  dims: ih={self.shrunk.ih} iw={self.shrunk.iw} "
            f"c={self.shrunk.c} n={self.shrunk.n} -> "
            f"out={self.shrunk.spec.out_hw(self.shrunk.ih, self.shrunk.iw)}"
        )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of a differential fuzzing run."""

    seed: int
    cases: int = 0
    checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Whether no case recorded a failing check."""
        return not self.failures

    def render(self) -> str:
        """Human-readable run summary plus every shrunk failure."""
        lines = [
            f"fuzz(seed={self.seed}): {self.cases} cases, "
            f"{self.checks} checks, {len(self.failures)} failing cases"
        ]
        for f in self.failures:
            lines.append(f.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable report (the ``--json`` export payload)."""
        return {
            "seed": self.seed,
            "cases": self.cases,
            "checks": self.checks,
            "passed": self.all_passed,
            "failures": [
                {
                    "case": f.case.to_dict(),
                    "shrunk": f.shrunk.to_dict(),
                    "reproducer": f.shrunk.reproducer(),
                    "checks": [
                        {"name": c.name, "detail": c.detail}
                        for c in f.checks
                    ],
                }
                for f in self.failures
            ],
        }


def fuzz(
    seed: int = 0,
    cases: int = 50,
    config: ChipConfig = FUZZ_CHIP,
    impls: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    models: Sequence[str] = DEFAULT_MODELS,
    routes: Sequence[str] = (),
) -> FuzzReport:
    """Differentially fuzz every registered implementation.

    Generates ``cases`` seeded random geometries, runs each through
    :func:`check_case` (the base routes for ``models``, plus the
    per-operator :data:`ROUTES` add-ons named in ``routes``) for every
    registered forward and backward implementation, and shrinks any
    failure to a minimal reproducer.  ``impls`` optionally restricts
    the sweep to the named implementations (forward and backward names
    share one namespace).
    """
    report = FuzzReport(seed=seed)
    for case in generate_cases(seed, cases):
        case_report = check_case(
            case, config, impls, models=models, routes=routes
        )
        report.cases += 1
        report.checks += len(case_report.checks)
        if not case_report.all_passed:
            shrunk = shrink_case(
                case,
                lambda cand: _case_fails(cand, config, impls, models, routes),
            )
            report.failures.append(
                FuzzFailure(
                    case=case,
                    shrunk=shrunk,
                    checks=case_report.failures,
                )
            )
            if progress is not None:
                progress(f"FAIL {case.label}")
        elif progress is not None and report.cases % 10 == 0:
            progress(f"{report.cases} cases ok")
    return report


# ---------------------------------------------------------------------------
# Service storms: seeded request streams through a live PoolService.
# ---------------------------------------------------------------------------

def _storm_request(
    rng: random.Random, seed: int, idx: int, models: Sequence[str]
) -> tuple[dict, str]:
    """The ``PoolRequest`` keywords and label of storm request ``idx``.

    Geometries come from the operator fuzz's biased sampler (small
    outputs and kernels); kinds cover all four operators (backward
    masks derived from the golden model), timing models are drawn from
    ``models`` so ``--model both`` mixes serial and pipelined requests
    in one storm, and a slice of requests runs ``execute="jit"`` so
    compiled kernels cross the service too.
    """
    ih, iw, c, n, spec = sample_pool_geometry(rng, max_out=4, max_kernel=3)
    case_seed = seed * 100003 + idx
    kind = rng.choice(
        ("maxpool", "maxpool", "avgpool",
         "maxpool_backward", "avgpool_backward")
    )
    model = rng.choice(tuple(models))
    execute = rng.choice(("numeric", "numeric", "numeric", "jit"))
    kw: dict = dict(kind=kind, spec=spec, tenant=f"tenant{idx % 4}",
                    execute=execute, model=model)
    x = make_input(ih, iw, c, n=n, seed=case_seed)
    if kind in ("maxpool", "avgpool"):
        kw.update(x=x, impl="im2col")
        if kind == "maxpool" and rng.random() < 0.5:
            kw["with_mask"] = True
    else:
        oh, ow = spec.with_image(ih, iw).out_hw()
        grad = make_gradient(x.shape[1], oh, ow, n=n, seed=case_seed + 1)
        kw.update(x=grad, impl="col2im", ih=ih, iw=iw)
        if kind == "maxpool_backward":
            kw["mask"] = maxpool_argmax_ref(x, spec)
    return kw, f"{kind}/{model}/{execute}/{n}x{ih}x{iw}x{c}@{case_seed}"


#: Fault profiles the serve-chaos storm cycles through.  ``clean`` is
#: the control group; ``crash``/``stall``/``slow``/``drop`` each
#: exercise one process-level fault class on the first attempt (the
#: service must recover byte-identically); ``deadline`` stalls *every*
#: attempt under a short budget, so the one correct outcome is a
#: punctual structured :class:`~repro.errors.DeadlineError`.
SERVE_CHAOS_PROFILES: tuple[str, ...] = (
    "clean", "crash", "stall", "slow", "drop", "deadline",
)

#: Deadline budget (ms) of the ``deadline`` profile.
_SERVE_DEADLINE_MS = 500.0

#: Watchdog scan period (ms) of the serve-chaos service.
_SERVE_WATCHDOG_MS = 50.0


@dataclass(frozen=True)
class ServeChaosCase:
    """One serve-chaos submission: a request plus its fault profile."""

    profile: str
    request: "object"  # PoolRequest (lazy import keeps serve optional)
    label: str


def generate_serve_cases(
    seed: int,
    count: int,
    models: Sequence[str] = DEFAULT_MODELS,
) -> list[ServeChaosCase]:
    """``count`` seeded storm requests (:func:`_storm_request`) with
    cycled fault profiles (:data:`SERVE_CHAOS_PROFILES`)."""
    from .serve import PoolRequest

    rng = random.Random(zlib.crc32(b"serve-chaos") + seed)
    cases: list[ServeChaosCase] = []
    for idx in range(count):
        profile = SERVE_CHAOS_PROFILES[idx % len(SERVE_CHAOS_PROFILES)]
        kw, label = _storm_request(rng, seed, idx, models)
        if profile == "crash":
            kw["chaos_crash_attempts"] = (0,)
        elif profile == "stall":
            kw["chaos_stall_attempts"] = (0,)
        elif profile == "slow":
            kw["chaos_slow_ms"] = float(rng.randint(50, 150))
            kw["chaos_slow_attempts"] = (0,)
        elif profile == "drop":
            kw["chaos_drop_reply"] = (0,)
        elif profile == "deadline":
            kw["chaos_stall_attempts"] = tuple(range(8))
            kw["deadline_ms"] = _SERVE_DEADLINE_MS
        cases.append(ServeChaosCase(
            profile=profile, request=PoolRequest(**kw),
            label=f"{profile}/{label}",
        ))
    return cases


def _strip_chaos(request):
    """The fault-free twin of ``request`` (the byte-identity oracle)."""
    return _dc_replace(
        request,
        deadline_ms=None,
        chaos_crash_attempts=(),
        chaos_stall_attempts=(),
        chaos_slow_ms=0.0,
        chaos_slow_attempts=(),
        chaos_drop_reply=(),
    )


def serve_chaos(
    seed: int = 0,
    cases: int = 50,
    models: Sequence[str] = DEFAULT_MODELS,
    workers: int = 3,
    config: ChipConfig = FUZZ_CHIP,
    progress: Callable[[str], None] | None = None,
) -> ValidationReport:
    """The serve-chaos route: drive a seeded fault storm through the service.

    Builds one :class:`~repro.serve.PoolService` (stall watchdog +
    hedging enabled, generous retry budget so every recoverable fault
    *is* recovered), submits ``cases`` requests concurrently with
    cycled fault profiles (:data:`SERVE_CHAOS_PROFILES`), and checks:

    * every non-``deadline`` request completes with outputs, masks and
      cycle counts **byte-identical** to executing its chaos-stripped
      twin in-process (the service adds routing, recovery, hedging --
      never arithmetic);
    * every ``deadline`` request fails with a structured
      :class:`~repro.errors.DeadlineError` (stage/deadline recorded)
      within deadline + one watchdog period (plus scheduling slack);
    * the ledger closes exactly once: ``submitted`` equals resolved
      futures, ``completed + failed == submitted``, no pending-request
      or in-flight-dispatch residue survives the storm;
    * the storm actually exercised the machinery (stalls detected,
      worker deaths recovered).
    """
    import asyncio

    from .serve import (
        PoolService,
        ResilienceConfig,
        TenantQuota,
        execute_request,
    )
    from .errors import DeadlineError

    report = ValidationReport()
    storm = generate_serve_cases(seed, cases, models)

    # Oracles first, synchronously: the event loop must stay free to
    # run the watchdog while the storm is in flight.
    oracles = {
        idx: execute_request(_strip_chaos(c.request), config)
        for idx, c in enumerate(storm)
        if c.profile != "deadline"
    }

    resilience = ResilienceConfig(
        stall_timeout_ms=1200.0,
        watchdog_interval_ms=_SERVE_WATCHDOG_MS,
        hedge_after_ms=400.0,
    )

    async def drive():
        svc = PoolService(
            workers=workers,
            config=config,
            queue_limit=max(64, 4 * cases),
            default_quota=TenantQuota(max_pending=max(64, 4 * cases)),
            resilience=resilience,
            retry=RetryPolicy(max_attempts=8, quarantine_after=64),
        )
        await svc.start()
        try:
            loop = asyncio.get_running_loop()

            async def one(idx, case):
                t0 = loop.time()
                try:
                    res = await svc.submit(case.request)
                    return idx, res, None, loop.time() - t0
                except Exception as exc:
                    return idx, None, exc, loop.time() - t0

            outcomes = await asyncio.gather(
                *(one(i, c) for i, c in enumerate(storm))
            )
            # Let hedge losers / post-resolution stragglers drain so
            # the ledger checks below see the settled end state.
            for _ in range(100):
                if not svc._dispatched:
                    break
                await asyncio.sleep(0.1)
            return outcomes, svc.stats, dict(
                requests=len(svc._requests),
                dispatched=len(svc._dispatched),
            )
        finally:
            await svc.close(drain=False)

    outcomes, stats, residue = asyncio.run(drive())

    for idx, res, exc, elapsed in outcomes:
        case = storm[idx]
        if case.profile == "deadline":
            ok = isinstance(exc, DeadlineError)
            report.add(
                f"{case.label}/deadline-error", ok,
                "" if ok else f"got {type(exc).__name__ if exc else res}",
            )
            if ok:
                report.add(
                    f"{case.label}/deadline-context",
                    exc.deadline_ms == _SERVE_DEADLINE_MS
                    and exc.stage in ("admission", "queued", "in-flight"),
                    f"stage={exc.stage}",
                )
                # Punctual: deadline + one watchdog period, plus slack
                # for event-loop scheduling under the storm.
                bound = (
                    _SERVE_DEADLINE_MS + _SERVE_WATCHDOG_MS
                ) / 1e3 + 0.5
                report.add(
                    f"{case.label}/deadline-punctual", elapsed <= bound,
                    f"{elapsed * 1e3:.0f} ms vs bound {bound * 1e3:.0f} ms",
                )
            continue
        if exc is not None:
            report.add(f"{case.label}/completed", False, _raised(exc))
            continue
        direct = oracles[idx]
        ok = _same_result(res, direct) and res.cycles == direct.cycles
        report.add(
            f"{case.label}/byte-identical", ok,
            "" if ok else _diff_detail(res.output, direct.output),
        )
        if case.profile in ("crash", "stall"):
            report.add(
                f"{case.label}/recovered", res.attempts >= 2,
                f"attempts={res.attempts}",
            )
        if progress is not None and (idx + 1) % 10 == 0:
            progress(f"{idx + 1}/{len(storm)} outcomes checked")

    # Exactly-once ledger over the whole storm.
    resolved = len(outcomes)
    report.add(
        "ledger/every-submission-resolved", resolved == len(storm),
        f"{resolved}/{len(storm)}",
    )
    # Deadline-profile submissions may be rejected at admission (not
    # counted as submitted) only if the queue overflowed -- with the
    # generous queue above, all of them are admitted.
    report.add(
        "ledger/submitted-equals-storm", stats.submitted == len(storm),
        f"submitted={stats.submitted} storm={len(storm)}",
    )
    report.add(
        "ledger/completed-plus-failed",
        stats.completed + stats.failed == stats.submitted,
        f"{stats.completed}+{stats.failed} vs {stats.submitted}",
    )
    report.add(
        "ledger/no-pending-residue", residue["requests"] == 0,
        f"pending={residue['requests']}",
    )
    report.add(
        "ledger/no-inflight-residue", residue["dispatched"] == 0,
        f"dispatched={residue['dispatched']}",
    )
    # Injected-vs-observed fault accounting.  Counters are lower
    # bounds, not 1:1 with injected profiles: a fault leg queued in
    # the inbox of a worker another leg already killed is requeued
    # *past* its chaos attempt (it redispatches as attempt >= 1, so
    # attempt-0 chaos never fires), and one worker termination can
    # clear several stalled legs at once.
    n_stall = sum(1 for c in storm if c.profile == "stall")
    n_deadline = sum(1 for c in storm if c.profile == "deadline")
    n_crash = sum(1 for c in storm if c.profile == "crash")
    if n_stall:
        report.add(
            "storm/stalls-detected", stats.stalls_detected >= 1,
            f"detected={stats.stalls_detected} injected={n_stall}",
        )
    if n_crash or n_stall:
        report.add(
            "storm/worker-deaths-recovered",
            stats.worker_failures >= 1 and stats.respawns >= 1,
            f"deaths={stats.worker_failures} respawns={stats.respawns}",
        )
    if n_deadline:
        # Every admitted deadline-profile request misses exactly once
        # (it stalls on all attempts) and nothing else carries one.
        report.add(
            "storm/deadline-misses-counted",
            stats.deadline_misses == n_deadline,
            f"misses={stats.deadline_misses} injected={n_deadline}",
        )
    return report


#: Quarantine threshold of the integrity storms: a slot producing this
#: many corrupt replies is benched, so the checks below can pin down
#: exactly when the corrupt worker must stop serving traffic.
_INTEGRITY_QUARANTINE_AFTER = 2


def generate_integrity_cases(
    seed: int,
    count: int,
    models: Sequence[str] = DEFAULT_MODELS,
) -> list[tuple["object", str]]:
    """``count`` seeded *clean* storm requests (:func:`_storm_request`)
    with their labels.

    Each integrity storm applies its own corruption hook to copies of
    these requests, so the clean originals double as the in-process
    byte-identity oracles.
    """
    from .serve import PoolRequest

    rng = random.Random(zlib.crc32(b"integrity") + seed)
    cases: list[tuple[object, str]] = []
    for idx in range(count):
        kw, label = _storm_request(rng, seed, idx, models)
        cases.append((PoolRequest(**kw), label))
    return cases


def integrity_storm(
    seed: int = 0,
    cases: int = 50,
    models: Sequence[str] = DEFAULT_MODELS,
    workers: int = 3,
    config: ChipConfig = FUZZ_CHIP,
    progress: Callable[[str], None] | None = None,
) -> ValidationReport:
    """The integrity route: silent-corruption storms through the service.

    Four scenarios over one seeded case set, each against a live
    :class:`~repro.serve.PoolService` with integrity checking on:

    * **clean** (false-positive control): full fingerprinting plus
      ``audit_rate=1.0`` over untampered workers -- zero fingerprint
      failures, zero audit mismatches, zero integrity incidents, and
      every response byte-identical to in-process execution;
    * **payload** (transit corruption): worker 0 flips one bit in
      every reply *after* fingerprinting -- service-side verification
      must absorb every corrupt reply (no corrupt bytes ever served,
      all responses still byte-identical), charge the slot, and
      quarantine it at the threshold;
    * **output** (corrupt core): worker 0 flips one bit *before*
      fingerprinting, so the reply is self-consistent and only
      dual-execution audits can see it -- every corruptly-served
      response must trigger an audit mismatch, the tie-break must
      convict slot 0 with a structured
      :class:`~repro.errors.IntegrityError`, and responses served by
      healthy workers stay byte-identical;
    * **KAT**: a quiet fleet under a fast probe cadence stays
      incident-free, and a fleet whose probes chaos-corrupt worker 1
      convicts it with no user traffic at all.

    Requests are submitted *sequentially* so placement is
    deterministic (ties break to the lowest slot: the corrupt worker
    is guaranteed traffic before its quarantine).
    """
    import asyncio

    from .errors import IntegrityError
    from .serve import (
        IntegrityConfig,
        PoolService,
        TenantQuota,
        execute_request,
    )

    report = ValidationReport()
    storm = generate_integrity_cases(seed, cases, models)
    oracles = [execute_request(req, config) for req, _ in storm]

    def identical(idx, res):
        return (
            _same_result(res, oracles[idx])
            and res.cycles == oracles[idx].cycles
        )

    retry = RetryPolicy(
        max_attempts=8, quarantine_after=_INTEGRITY_QUARANTINE_AFTER
    )

    async def drive(integrity, chaos_field=None):
        svc = PoolService(
            workers=workers,
            config=config,
            queue_limit=max(64, 4 * len(storm)),
            default_quota=TenantQuota(max_pending=max(64, 4 * len(storm))),
            retry=retry,
            integrity=integrity,
        )
        await svc.start()
        try:
            outcomes = []
            for idx, (req, label) in enumerate(storm):
                if chaos_field is not None:
                    req = _dc_replace(req, **{chaos_field: (0,)})
                try:
                    res = await svc.submit(req)
                    outcomes.append((idx, res, None))
                except Exception as exc:  # noqa: BLE001 - storm verdicts
                    outcomes.append((idx, None, exc))
                if progress is not None and (idx + 1) % 20 == 0:
                    progress(f"{idx + 1}/{len(storm)} submitted")
            # Let audit/tie-break probes drain (or hit probe_timeout_ms)
            # so the counters below see the settled end state.
            for _ in range(240):
                if not svc._dispatched and not svc._requests:
                    break
                await asyncio.sleep(0.05)
            return outcomes, svc.stats, list(svc.integrity_errors), dict(
                requests=len(svc._requests),
                dispatched=len(svc._dispatched),
            )
        finally:
            await svc.close(drain=False)

    def served(prefix, outcomes):
        """``(idx, label, response)`` of every completed submission;
        each failed one is recorded as a failing check."""
        for idx, res, exc in outcomes:
            label = storm[idx][1]
            if exc is not None:
                report.add(f"{prefix}/{label}/completed", False,
                           _raised(exc))
            else:
                yield idx, label, res

    def check_ledger(prefix, outcomes, stats, residue):
        report.add(
            f"{prefix}/every-submission-resolved",
            len(outcomes) == len(storm),
            f"{len(outcomes)}/{len(storm)}",
        )
        report.add(
            f"{prefix}/completed-plus-failed",
            stats.completed + stats.failed == stats.submitted,
            f"{stats.completed}+{stats.failed} vs {stats.submitted}",
        )
        report.add(
            f"{prefix}/no-residue",
            residue["requests"] == 0 and residue["dispatched"] == 0,
            f"pending={residue['requests']} "
            f"dispatched={residue['dispatched']}",
        )
        if progress is not None:
            progress(f"{prefix} storm checked")

    # -- scenario 1: clean storm (false-positive control) ---------------
    outcomes, stats, errors, residue = asyncio.run(
        drive(IntegrityConfig(audit_rate=1.0, seed=seed))
    )
    for idx, label, res in served("clean", outcomes):
        report.add(
            f"clean/{label}/byte-identical",
            identical(idx, res) and res.fingerprint_ok is True,
            f"fingerprint_ok={res.fingerprint_ok}",
        )
    report.add(
        "clean/zero-false-positives",
        stats.fingerprint_failures == 0 and stats.audit_mismatches == 0
        and stats.corrupt_workers_quarantined == 0 and not errors
        and not stats.quarantined,
        f"fp_failures={stats.fingerprint_failures} "
        f"mismatches={stats.audit_mismatches} errors={len(errors)} "
        f"quarantined={stats.quarantined}",
    )
    report.add(
        "clean/audits-exercised", stats.audits_run >= 1,
        f"audits_run={stats.audits_run}",
    )
    check_ledger("clean", outcomes, stats, residue)

    # -- scenario 2: transit corruption (fingerprint catches it) --------
    outcomes, stats, errors, residue = asyncio.run(
        drive(IntegrityConfig(), chaos_field="chaos_corrupt_payload")
    )
    served_by_corrupt = 0
    for idx, label, res in served("payload", outcomes):
        served_by_corrupt += res.worker == 0
        report.add(
            f"payload/{label}/byte-identical", identical(idx, res),
            f"served by worker {res.worker}",
        )
    report.add(
        "payload/corrupt-slot-never-serves", served_by_corrupt == 0,
        f"{served_by_corrupt} responses from the corrupt slot",
    )
    report.add(
        "payload/corruption-detected",
        stats.fingerprint_failures >= _INTEGRITY_QUARANTINE_AFTER,
        f"fp_failures={stats.fingerprint_failures}",
    )
    report.add(
        "payload/corrupt-slot-quarantined",
        0 in stats.quarantined
        and stats.corrupt_workers_quarantined == 1,
        f"quarantined={stats.quarantined} "
        f"counted={stats.corrupt_workers_quarantined}",
    )
    check_ledger("payload", outcomes, stats, residue)

    # -- scenario 3: corrupt core (audits + tie-break catch it) ---------
    outcomes, stats, errors, residue = asyncio.run(
        drive(IntegrityConfig(audit_rate=1.0, seed=seed),
              chaos_field="chaos_corrupt_output")
    )
    served_by_corrupt = 0
    for idx, label, res in served("output", outcomes):
        report.add(
            f"output/{label}/audited", res.audited,
            "audit_rate=1.0 must sample everything",
        )
        if res.worker == 0:
            served_by_corrupt += 1
            report.add(
                f"output/{label}/corruption-served-corrupt",
                not identical(idx, res),
                "corrupt worker served oracle-identical bytes",
            )
        else:
            report.add(
                f"output/{label}/byte-identical", identical(idx, res),
                f"served by worker {res.worker}",
            )
    # Sequential submission + lowest-slot ties: the corrupt worker
    # serves the very first request before any audit can convict it.
    report.add(
        "output/corrupt-slot-served-traffic", served_by_corrupt >= 1,
        f"{served_by_corrupt} responses from the corrupt slot",
    )
    report.add(
        "output/every-corruption-detected",
        stats.audit_mismatches >= served_by_corrupt,
        f"mismatches={stats.audit_mismatches} "
        f"corrupt-served={served_by_corrupt}",
    )
    report.add(
        "output/corrupt-slot-convicted",
        any(isinstance(e, IntegrityError) and e.slot == 0
            for e in errors)
        and 0 in stats.quarantined
        and stats.corrupt_workers_quarantined >= 1,
        f"errors={[e.slot for e in errors]} "
        f"quarantined={stats.quarantined}",
    )
    report.add(
        "output/no-healthy-slot-convicted",
        all(e.slot in (0, None) for e in errors)
        and all(s == 0 for s in stats.quarantined),
        f"errors={[e.slot for e in errors]} "
        f"quarantined={stats.quarantined}",
    )
    check_ledger("output", outcomes, stats, residue)

    # -- scenario 4: known-answer probes --------------------------------
    async def kat(workers, corrupt, done, polls):
        svc = PoolService(
            workers=workers, config=config, retry=retry,
            integrity=IntegrityConfig(
                kat_interval_ms=40.0, kat_chaos_corrupt_output=corrupt
            ),
        )
        await svc.start()
        try:
            for _ in range(polls):
                await asyncio.sleep(0.05)
                if done(svc):
                    break
            return svc.stats, list(svc.integrity_errors)
        finally:
            await svc.close(drain=False)

    stats, errors = asyncio.run(
        kat(2, (), lambda svc: svc.stats.kat_probes >= 3, 40)
    )
    report.add(
        "kat/quiet-fleet-probed", stats.kat_probes >= 3,
        f"kat_probes={stats.kat_probes}",
    )
    report.add(
        "kat/quiet-fleet-clean",
        not errors and not stats.quarantined,
        f"errors={len(errors)} quarantined={stats.quarantined}",
    )

    stats, errors = asyncio.run(kat(
        3, (1,), lambda svc: any(e.slot == 1 for e in svc.integrity_errors),
        200,
    ))
    report.add(
        "kat/corrupt-core-convicted-between-requests",
        any(isinstance(e, IntegrityError) and e.slot == 1
            for e in errors)
        and 1 in stats.quarantined,
        f"errors={[e.slot for e in errors]} "
        f"quarantined={stats.quarantined}",
    )
    report.add(
        "kat/only-corrupt-core-convicted",
        all(e.slot == 1 for e in errors)
        and all(s == 1 for s in stats.quarantined),
        f"errors={[e.slot for e in errors]} "
        f"quarantined={stats.quarantined}",
    )
    if progress is not None:
        progress("kat scenarios checked")
    return report


# ---------------------------------------------------------------------------
# Route registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """One opt-in validation route: a :data:`ROUTES` entry.

    A per-operator add-on's ``check`` runs after the base routes of
    every fuzzed operator as ``check(report, prefix, op, runs, models,
    config)``.  A ``standalone`` route is a service storm called as
    ``check(seed=, cases=, models=, progress=)``; it returns its own
    :class:`ValidationReport` and replaces the grid and the operator
    fuzz.  ``help`` is the ``--<name>`` CLI help.
    """

    check: Callable[..., object]
    help: str
    standalone: bool = False


#: Every opt-in route by name -- the one place a route is added.  The
#: CLI flag is ``--<name>``; the ``--json`` payload carries a boolean
#: under :func:`route_key` (and a standalone route's report under
#: ``<key>_report``).  Registry order is check order.
ROUTES: dict[str, Route] = {
    "chaos": Route(
        _check_chaos,
        "re-run every fuzzed operator under a seeded FaultPlan through "
        "the resilient dispatcher; recovered outputs must be "
        "bit-identical to the fault-free run",
    ),
    "sanitize": Route(
        _check_sanitize,
        "re-run every fuzzed operator per timing model under the "
        "ISA-level memory sanitizer; clean, bit-identical, cycle-exact",
    ),
    "jit": Route(
        _check_jit,
        "re-run every fuzzed operator per timing model through the "
        "NumPy JIT (execute='jit'); bit-identical, cycle-exact, and "
        "served from the warm program cache",
    ),
    "autotune": Route(
        _check_autotune,
        "autotune each fuzzed workload (first variant per op and "
        "direction) and re-run the winning plan numerically; "
        "bit-identical at exactly the predicted cycles, never costlier "
        "than the default plan",
    ),
    "serve-chaos": Route(
        serve_chaos,
        "run ONLY a seeded fault storm of --cases requests through a "
        "PoolService with watchdog and hedging (skips the grid and the "
        "operator fuzz)",
        standalone=True,
    ),
    "integrity": Route(
        integrity_storm,
        "run ONLY seeded silent-data-corruption storms through a "
        "PoolService with IntegrityConfig active (skips the grid and "
        "the operator fuzz)",
        standalone=True,
    ),
}


def route_key(name: str) -> str:
    """The identifier form of a route name (``serve-chaos`` ->
    ``serve_chaos``): its argparse dest and ``--json`` payload key."""
    return name.replace("-", "_")


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def _known_impls() -> set[str]:
    from .ops import BACKWARD_IMPLS, FORWARD_IMPLS

    return set(FORWARD_IMPLS) | set(BACKWARD_IMPLS)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.validate``: grid validation + differential fuzz.

    Exits 0 when every check passes, 1 on any failure (after printing
    the shrunk minimal reproducers), 2 on usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Validate every registered pooling implementation: "
        "the fixed geometry grid against the golden models, then a "
        "seeded differential fuzz across the execution routes "
        "(fresh / relocated / cached / cycles, plus the pipelined "
        "scoreboard route unless --model serial).",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="fuzzing seed (the run is deterministic per seed)",
    )
    parser.add_argument(
        "--cases", type=int, default=50,
        help="number of random geometries to fuzz (0 disables fuzzing)",
    )
    parser.add_argument(
        "--impl", nargs="+", default=None, metavar="NAME",
        help="restrict to these implementation names "
        "(forward: standard/im2col/expansion/xysplit; "
        "backward: standard/col2im)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable report to this file",
    )
    parser.add_argument(
        "--skip-grid", action="store_true",
        help="skip the fixed-grid golden-model sweep",
    )
    for name, route in ROUTES.items():
        parser.add_argument(f"--{name}", action="store_true",
                            help=route.help)
    parser.add_argument(
        "--model", choices=("serial", "pipelined", "both"),
        default="both",
        help="timing models to exercise: 'serial' runs only the four "
        "classic routes; 'pipelined'/'both' add the scoreboard route "
        "with its bit-identical-output and makespan<=serial invariants "
        "(the pipelined checks always compare against the serial "
        "baseline, so 'pipelined' and 'both' are equivalent)",
    )
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be >= 0")
    if args.impl is not None:
        unknown = sorted(set(args.impl) - _known_impls())
        if unknown:
            parser.error(
                f"unknown implementation(s) {unknown}; known: "
                f"{sorted(_known_impls())}"
            )

    from .bench.export import write_json
    from .bench.report import render_config

    models: tuple[str, ...] = (
        ("serial",) if args.model == "serial" else DEFAULT_MODELS
    )
    selected = [name for name in ROUTES if getattr(args, route_key(name))]
    storms = [name for name in selected if ROUTES[name].standalone]
    print(render_config(FUZZ_CHIP))
    payload: dict = {"models": list(models)}
    payload.update((route_key(name), name in selected) for name in ROUTES)
    failed = False

    def progress(msg: str) -> None:
        print(f"  {msg}", flush=True)

    for name in storms:
        storm_report = ROUTES[name].check(
            seed=args.seed, cases=args.cases or 50, models=models,
            progress=progress,
        )
        print(f"{name}:", storm_report.render(only_failures=True))
        payload[f"{route_key(name)}_report"] = storm_report.to_dict()
        failed |= not storm_report.all_passed

    if not storms and not args.skip_grid:
        grid_report = validate_all(models=models)
        print("grid:", grid_report.render(only_failures=True))
        payload["grid"] = grid_report.to_dict()
        failed |= not grid_report.all_passed

    if not storms and args.cases:
        fuzz_report = fuzz(
            seed=args.seed,
            cases=args.cases,
            impls=args.impl,
            progress=progress,
            models=models,
            routes=selected,
        )
        print(fuzz_report.render())
        payload["fuzz"] = fuzz_report.to_dict()
        failed |= not fuzz_report.all_passed

    if args.json:
        path = write_json(payload, args.json)
        print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
