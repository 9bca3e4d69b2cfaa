"""Plan identity and resolution: the contract that lets plans key
caches, persist in the autotune table, and travel with results.

Three properties carry the whole pipeline:

* an :class:`~repro.plan.ExecutionPlan` is hashable, equality-
  comparable, and round-trips losslessly through JSON;
* two equal plans lower into the *same* :class:`~repro.sim.
  ProgramCache` entries (the cache is keyed by the plan, so equal
  plans never duplicate programs);
* a ``detach()``-ed :class:`~repro.ops.base.PoolRunResult` pickles
  with its plan attached, so the serving layer ships plans across the
  worker boundary for free.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
from repro.dtypes import FLOAT16, FLOAT32
from repro.errors import LayoutError, PlanError, ReproError, SimulationError
from repro.ops import PoolSpec
from repro.ops.base import run_backward, run_forward
from repro.ops.reference import maxpool_argmax_ref
from repro.ops.registry import (
    backward_impl,
    backward_variants,
    forward_impl,
    forward_variants,
)
from repro.plan import (
    ExecutionPlan,
    dispatch,
    lower,
    plan_chunk,
    plan_default,
    resolve_plan,
)
from repro.isa.operand import MemRef
from repro.plan.planner import _heuristic_chunk
from repro.sim import AICore, ProgramCache, compile_program
from repro.workloads import make_gradient, make_input

SPEC = PoolSpec(kh=3, kw=3, sh=2, sw=2)


def _shift(operand, delta: int):
    if isinstance(operand, MemRef):
        return replace(operand, offset=operand.offset + delta)
    return replace(operand, ref=_shift(operand.ref, delta))


def addressed(program, deltas):
    """``program``'s instructions with every global-memory operand
    moved by its tensor's delta: what the program addresses when a
    core runs it at ``deltas``."""
    return [
        replace(ins, **{
            name: _shift(v, deltas[v.buffer])
            for name, v, _ in ins.operands() if deltas.get(v.buffer)
        })
        for ins in program.instructions
    ]


def work_items(lowering):
    """``(program, instructions addressed, deltas)`` per tile, flat."""
    return [
        (item.program, addressed(item.program, item.deltas or {}),
         item.deltas or {})
        for group in lowering.groups for item in group
    ]


def fwd_plan(execute: str = "numeric") -> ExecutionPlan:
    impl = forward_impl("standard", "max")
    return plan_default(
        "fwd", impl, SPEC, FLOAT16, 1, 1, 28, 28, ASCEND910,
        execute=execute,
    )


class TestPlanIdentity:
    def test_hash_equality_and_json_round_trip(self):
        a = fwd_plan()
        b = fwd_plan()
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        restored = ExecutionPlan.from_json(a.to_json())
        assert restored == a
        assert hash(restored) == hash(a)
        # The canonical encoding is stable: re-encoding the round-trip
        # reproduces the same bytes (sorted keys, no drift).
        assert restored.to_json() == a.to_json()

    def test_distinct_choices_are_distinct_plans(self):
        a = fwd_plan()
        assert replace(a, chunk=a.chunk + 1) != a
        assert replace(a, model="pipelined") != a
        assert replace(a, impl="im2col") != a

    def test_from_dict_rejects_malformed_payloads(self):
        good = fwd_plan().to_dict()
        bad = dict(good)
        bad.pop("chunk")
        with pytest.raises(PlanError, match="malformed plan payload"):
            ExecutionPlan.from_dict(bad)
        with pytest.raises(PlanError, match="malformed plan JSON"):
            ExecutionPlan.from_json("{not json")
        # Payloads from an on-disk autotune table: no spec, a
        # non-object payload or spec, an unknown spec key.
        for payload in (
            {}, [good], "plan", {**good, "spec": [3, 3, 2, 2]},
            {**good, "spec": {**good["spec"], "kz": 3}},
        ):
            with pytest.raises(PlanError, match="malformed plan payload"):
                ExecutionPlan.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value, match", [
        pytest.param("model", ["serial"], "unknown", id="model"),
        pytest.param("dtype", ["float16"], "unknown", id="dtype"),
        pytest.param("chunk", 2.5, "chunk must be int", id="chunk-float"),
        pytest.param("chunk", True, "chunk must be int", id="chunk-bool"),
        pytest.param("n", "1", "n must be int", id="n-str"),
        pytest.param("impl", ["im2col"], "impl must be str", id="impl-list"),
        pytest.param(
            "serialize_slices", "yes", "serialize_slices must be bool",
            id="flag-str",
        ),
    ])
    def test_malformed_json_values_fail_validation(self, field, value, match):
        payload = fwd_plan().to_dict()
        payload[field] = value
        plan = ExecutionPlan.from_json(json.dumps(payload))
        with pytest.raises(PlanError, match=match):
            plan.validate()

    def test_equal_plans_share_cache_entries(self):
        x = make_input(28, 28, 16, n=1, seed=0)
        impl = forward_impl("standard", "max")
        cache = ProgramCache()
        first = run_forward(
            x, SPEC, impl, ASCEND910, collect_trace=False,
            cache=cache, plan=fwd_plan(),
        )
        misses = cache.stats.misses
        assert misses > 0
        hits_before = cache.stats.hits
        second = run_forward(
            x, SPEC, impl, ASCEND910, collect_trace=False,
            cache=cache, plan=fwd_plan(),
        )
        # An equal plan re-keys into the same entries: zero new misses,
        # every lookup a hit.
        assert cache.stats.misses == misses
        assert cache.stats.hits > hits_before
        assert np.array_equal(second.output, first.output)
        assert second.cycles == first.cycles

    def test_detached_result_pickles_with_plan(self):
        x = make_input(28, 28, 16, n=1, seed=1)
        impl = forward_impl("im2col", "max")
        res = run_forward(
            x, SPEC, impl, ASCEND910, cache=ProgramCache(),
        )
        assert res.plan is not None
        slim = res.detach()
        restored = pickle.loads(pickle.dumps(slim))
        assert restored.plan == res.plan
        assert restored.cycles == res.cycles
        assert np.array_equal(restored.output, res.output)

    def test_geometry_memo_travels_with_no_plan(self):
        """Plan geometry is memoized off the instance: a plan pickles
        to the same bytes before and after its geometry is read."""
        plan = plan_default(
            "fwd", forward_impl("im2col", "max", True), SPEC, FLOAT16,
            1, 2, 28, 28, ASCEND910,
        )
        before = pickle.dumps(plan)
        assert plan.tiles and plan.tensors
        assert plan.image and plan.full_params
        assert pickle.dumps(plan) == before
        assert set(vars(plan)) == {f.name for f in fields(plan)}


class TestResolvePlan:
    """Explicit plans are validated against the workload they run on."""

    def args(self, **overrides):
        impl = forward_impl("standard", "max")
        base = dict(
            kind="fwd", impl=impl, spec=SPEC, dtype=FLOAT16,
            n=1, c1=1, ih=28, iw=28, config=ASCEND910,
        )
        base.update(overrides)
        return base

    def call(self, plan, **overrides):
        a = self.args(**overrides)
        return resolve_plan(
            plan, a["kind"], a["impl"], a["spec"], a["dtype"],
            a["n"], a["c1"], a["ih"], a["iw"], a["config"],
        )

    def test_unknown_policy_string(self):
        with pytest.raises(PlanError, match="unknown plan 'greedy'"):
            self.call("greedy")

    def test_non_plan_object(self):
        with pytest.raises(PlanError, match="must be a string"):
            self.call(42)

    def test_kind_mismatch(self):
        plan = replace(fwd_plan(), kind="bwd")
        with pytest.raises(PlanError, match="direction"):
            self.call(plan)

    def test_spec_mismatch(self):
        plan = replace(fwd_plan(), spec=PoolSpec(kh=2, kw=2, sh=2, sw=2))
        with pytest.raises(PlanError, match="spec"):
            self.call(plan)

    def test_dtype_mismatch(self):
        plan = replace(fwd_plan(), dtype=FLOAT32.name)
        with pytest.raises(PlanError, match="dtype"):
            self.call(plan)

    def test_extent_mismatch(self):
        plan = replace(fwd_plan(), ih=56, iw=56)
        with pytest.raises(PlanError, match="extents"):
            self.call(plan)

    def test_operator_mismatch(self):
        plan = replace(fwd_plan(), op="avg")
        with pytest.raises(PlanError, match="operator"):
            self.call(plan)

    def test_mask_mismatch(self):
        plan = replace(fwd_plan(), with_mask=True)
        with pytest.raises(PlanError, match="operator|mask"):
            self.call(plan)

    def test_invalid_execute_chunk_model(self):
        with pytest.raises(PlanError, match="execution mode"):
            self.call(replace(fwd_plan(), execute="warp"))
        with pytest.raises(PlanError, match="row chunk"):
            self.call(replace(fwd_plan(), chunk=0))
        with pytest.raises(PlanError, match="timing model"):
            self.call(replace(fwd_plan(), model="quantum"))

    def test_impl_swap_resolves_through_registry(self):
        # A plan naming a different bit-exact variant wins over the
        # call's impl argument: the plan lowers the registry's im2col.
        plan = replace(fwd_plan(), impl="im2col")
        resolved_plan = self.call(plan)
        assert resolved_plan is plan
        assert resolved_plan.describe == "maxpool-im2col"

    def test_unknown_impl_is_a_plan_error(self):
        plan = replace(fwd_plan(), impl="no-such-variant")
        with pytest.raises(PlanError, match="unusable implementation"):
            self.call(plan)

    def test_registry_bug_propagates(self, monkeypatch):
        # Only the registry's own errors become PlanError; a genuine
        # bug surfaces as itself.
        import repro.ops.registry as registry

        def broken(*args, **kwargs):
            raise RuntimeError("registry bug")

        monkeypatch.setattr(registry, "forward_impl", broken)
        with pytest.raises(RuntimeError, match="registry bug"):
            self.call(replace(fwd_plan(), impl="im2col"))


class TestDefaultPlanEquivalence:
    """``plan="default"`` is the reified historical heuristic."""

    def test_forward_explicit_default_plan_is_identical(self):
        x = make_input(30, 30, 16, n=1, seed=2)
        impl = forward_impl("standard", "max")
        implicit = run_forward(
            x, SPEC, impl, ASCEND910, collect_trace=False,
            cache=ProgramCache(),
        )
        explicit = run_forward(
            x, SPEC, impl, ASCEND910, collect_trace=False,
            cache=ProgramCache(),
            plan=plan_default(
                "fwd", impl, SPEC, FLOAT16, 1, x.shape[1], 30, 30,
                ASCEND910,
            ),
        )
        assert np.array_equal(explicit.output, implicit.output)
        assert explicit.cycles == implicit.cycles
        assert explicit.plan == implicit.plan

    def test_backward_explicit_default_plan_is_identical(self):
        spec = SPEC
        oh, ow = spec.out_hw(30, 30)
        grad = make_gradient(1, oh, ow, n=1, seed=3)
        impl = backward_impl("col2im", "avg")
        implicit = run_backward(
            grad, spec, impl, 30, 30, config=ASCEND910,
            collect_trace=False, cache=ProgramCache(),
        )
        explicit = run_backward(
            grad, spec, impl, 30, 30, config=ASCEND910,
            collect_trace=False, cache=ProgramCache(),
            plan=plan_default(
                "bwd", impl, spec, FLOAT16, 1, grad.shape[1], 30, 30,
                ASCEND910,
            ),
        )
        assert np.array_equal(explicit.output, implicit.output)
        assert explicit.cycles == implicit.cycles
        assert explicit.plan == implicit.plan


class TestCachedLoweringMatchesUncached:
    """Cached base programs run at their deltas address what fresh
    per-slice builds address, instruction by instruction: each tile's
    global-memory windows and the per-tile deltas describe the same
    layout."""

    SPEC = PoolSpec(kh=3, kw=3, sh=2, sw=2, pt=1, pb=1, pl=0, pr=1)

    @pytest.mark.parametrize(
        "kind, name, op, with_mask",
        [("fwd", *variant) for variant in forward_variants()]
        + [("bwd", name, op, False) for name, op in backward_variants()],
    )
    def test_programs_agree(self, kind, name, op, with_mask):
        impl = (
            forward_impl(name, op, with_mask) if kind == "fwd"
            else backward_impl(name, op)
        )
        plan = plan_default(
            kind, impl, self.SPEC, FLOAT16, 2, 2, 23, 19, ASCEND910,
        )
        assert len(plan.tiles) > 1  # row-chunked
        uncached = work_items(lower(plan, ASCEND910, cache=None))
        cached = work_items(lower(plan, ASCEND910, cache=ProgramCache()))
        assert [p.name for p, _, _ in cached] == [
            p.name for p, _, _ in uncached
        ]
        assert [ins for _, ins, _ in cached] == [
            ins for _, ins, _ in uncached
        ]


class TestRowRelocation:
    """A cached tile program is built once per tile-local geometry, at
    row 0 of slice 0, and run at every ``(slice, tile)`` by its deltas:
    what it addresses there equals a fresh build at the true position,
    and it runs to the same outputs and cycles."""

    SPEC = PoolSpec(kh=3, kw=3, sh=2, sw=2, pt=1, pb=1, pl=0, pr=1)
    IH, IW, CHUNK = 25, 19, 3  # 13 output rows: padded ends, a tail

    CASES = {
        "padded-tail": ("fwd", "im2col", False, 1, 1, False),
        "argmax-mask": ("fwd", "im2col", True, 1, 1, False),
        "bwd-serialized": ("bwd", "col2im", False, 1, 1, True),
        "bwd-parallel": ("bwd", "col2im", False, 1, 1, False),
        "slices": ("fwd", "im2col", True, 2, 2, False),
    }

    def plan(self, case, execute="numeric"):
        kind, name, with_mask, n, c1, serialize = self.CASES[case]
        impl = (
            forward_impl(name, "max", with_mask) if kind == "fwd"
            else backward_impl(name, "max")
        )
        plan = plan_default(
            kind, impl, self.SPEC, FLOAT16, n, c1, self.IH, self.IW,
            ASCEND910, execute=execute, serialize_slices=serialize,
        )
        return replace(plan, chunk=self.CHUNK)

    def tensors(self, plan):
        x = make_input(self.IH, self.IW, 16 * plan.c1, n=plan.n, seed=4)
        if plan.kind == "fwd":
            return {"x": x}
        oh, ow = plan.out_hw
        return {
            "grad": make_gradient(plan.c1, oh, ow, n=plan.n, seed=5),
            "mask": maxpool_argmax_ref(x, self.SPEC),
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clones_equal_fresh_builds(self, case):
        """Each ``(slice, tile)`` work item -- the one base program of
        its geometry plus its deltas -- addresses what a fresh build at
        the true position addresses."""
        plan = self.plan(case)
        tiles = plan.tiles
        assert tiles[0].params.pt and tiles[-1].params.pb
        assert tiles[-1].out_rows < self.CHUNK  # a tail tile
        assert len({g.params for g in tiles}) < len(tiles)
        cached = work_items(lower(plan, ASCEND910, cache=ProgramCache()))
        fresh = work_items(lower(plan, ASCEND910))
        assert len(cached) == len(fresh) == len(tiles) * plan.num_slices
        # one program object per tile-local geometry, no per-tile clone
        assert len({id(p) for p, _, _ in cached}) == len(
            {g.params for g in tiles}
        )
        for (got, got_ins, _), (want, want_ins, _) in zip(cached, fresh):
            assert got.name == want.name
            assert got_ins == want_ins
            assert got.scalar_loop_trips == want.scalar_loop_trips
            assert got.allocations == want.allocations

    @pytest.mark.parametrize("execute", ["numeric", "jit"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_runs_equal_uncached(self, case, execute):
        plan = self.plan(case, execute)
        given = self.tensors(plan)
        got, want = (
            dispatch(plan, lower(plan, ASCEND910, cache=cache), ASCEND910,
                     **given)
            for cache in (ProgramCache(), None)
        )
        assert np.array_equal(got.output, want.output)
        assert (got.mask is None) == (want.mask is None)
        if want.mask is not None:
            assert np.array_equal(got.mask, want.mask)
        assert got.cycles == want.cycles

    @pytest.mark.parametrize("execute", ["numeric", "jit"])
    def test_plans_sharing_a_tail_tile_share_one_cache(self, execute):
        """Two chunks of one workload whose tail tiles have one
        geometry at different tile indices: the second plan reuses the
        first plan's tail program, summary and kernel."""
        x = make_input(12, 12, 16, n=1, seed=6)
        spec = PoolSpec.square(3, 1)
        impl = forward_impl("im2col", "max")
        config = ASCEND910_SINGLE_CORE
        base = plan_default(
            "fwd", impl, spec, FLOAT16, 1, 1, 12, 12, config,
            execute=execute,
        )
        cache = ProgramCache()
        for chunk in (3, 9):
            plan = replace(base, chunk=chunk)
            got, want = (
                run_forward(x, spec, impl, config, cache=c, plan=plan)
                for c in (cache, None)
            )
            assert np.array_equal(got.output, want.output)
            assert got.mask is None and want.mask is None
            assert got.cycles == want.cycles
        assert cache.stats.hits > 0  # the tail tile was shared

    def test_other_geometry_summary_and_kernel_rejected(self):
        """Provenance still discriminates tile-local geometries: a
        summary or kernel of a different geometry with an equal
        instruction count is refused."""
        plan = self.plan("padded-tail")
        low = lower(plan, ASCEND910, cache=ProgramCache())
        progs = [g[0].program for g in low.groups]
        sums = [g[0].summary for g in low.groups]
        pairs = [
            (a, b) for a in range(len(progs)) for b in range(len(progs))
            if len(progs[a]) == len(progs[b])
            and plan.tiles[a].params != plan.tiles[b].params
        ]
        assert pairs
        a, b = pairs[0]
        core = AICore(ASCEND910)
        with pytest.raises(SimulationError, match="summary mismatch"):
            core.run(progs[b], None, execute="cycles", summary=sums[a])
        kernel = compile_program(progs[a])
        with pytest.raises(SimulationError, match="kernel mismatch"):
            kernel({}, progs[b], None, [None])


class TestUncachedJitCompiles:
    """``lower(cache=None)`` compiles nothing: under ``execute="jit"``
    the chip compiles each fresh tile program exactly once per call,
    and the run equals the cached JIT run and the interpreter's, byte
    for byte."""

    SPEC = PoolSpec.square(3, 2)

    @pytest.mark.parametrize("kind", ["fwd", "bwd"])
    def test_each_tile_program_compiles_once_per_call(
        self, kind, monkeypatch
    ):
        import repro.sim.chip as chip_mod

        compiled = []
        real = chip_mod.compile_program

        def spy(program):
            compiled.append(program)
            return real(program)

        monkeypatch.setattr(chip_mod, "compile_program", spy)
        x = make_input(17, 17, 32, n=1, seed=2)
        if kind == "fwd":
            impl = forward_impl("im2col", "max", True)
        else:
            impl = backward_impl("col2im", "max")

        def plan(execute):
            return plan_default(
                kind, impl, self.SPEC, FLOAT16, 1, 2, 17, 17, ASCEND910,
                execute=execute,
            )

        given = {"x": x}
        if kind == "bwd":
            oh, ow = plan("jit").out_hw
            given = {
                "grad": make_gradient(2, oh, ow, n=1, seed=3),
                "mask": maxpool_argmax_ref(x, self.SPEC),
            }
        jit = plan("jit")
        low = lower(jit, ASCEND910, cache=None)
        assert not compiled
        progs = [item.program for group in low.groups for item in group]
        assert len(progs) > 1
        assert all(item.kernel is None for g in low.groups for item in g)
        runs = []
        for _ in range(2):
            runs.append(dispatch(jit, low, ASCEND910, **given))
            assert list(map(id, compiled)) == list(map(id, progs))
            compiled.clear()
        runs.append(dispatch(
            jit, lower(jit, ASCEND910, cache=ProgramCache()), ASCEND910,
            **given,
        ))
        assert not compiled  # cached items carry their kernels
        numeric = plan("numeric")
        runs.append(dispatch(
            numeric, lower(numeric, ASCEND910), ASCEND910, **given
        ))
        want = runs[-1]
        assert (want.mask is not None) == (kind == "fwd")
        for got in runs:
            assert got.output.tobytes() == want.output.tobytes()
            assert (got.mask is None) == (want.mask is None)
            if want.mask is not None:
                assert got.mask.tobytes() == want.mask.tobytes()
            assert got.cycles == want.cycles


class TestDispatchChecksTensors:
    """:func:`repro.plan.dispatch` rejects tensors that do not fit the
    plan, in every execute mode, with :class:`LayoutError`."""

    SPEC = PoolSpec.square(3, 2)

    def plan(self, kind="fwd", op="max", execute="numeric", c1=2):
        impl = (
            forward_impl("im2col", op) if kind == "fwd"
            else backward_impl("col2im", op)
        )
        return plan_default(
            kind, impl, self.SPEC, FLOAT16, 2, c1, 17, 17, ASCEND910,
            execute=execute,
        )

    def run(self, plan, **tensors):
        lowering = lower(plan, ASCEND910, cache=ProgramCache(),
                         collect_trace=False)
        return dispatch(plan, lowering, ASCEND910, collect_trace=False,
                        **tensors)

    def x(self, n=2, c1=2, dtype=np.float16):
        return make_input(17, 17, 16 * c1, n=n, seed=0).astype(dtype)

    def test_matching_input_runs(self):
        res = self.run(self.plan(), x=self.x())
        assert res.output.shape == (2, 2, 8, 8, 16)

    @pytest.mark.parametrize("execute", ["numeric", "cycles", "jit"])
    def test_extra_slices_rejected(self, execute):
        with pytest.raises(LayoutError, match="input shape"):
            self.run(self.plan(execute=execute), x=self.x(n=4))

    def test_wrong_channel_blocks_rejected(self):
        with pytest.raises(LayoutError, match="input shape"):
            self.run(self.plan(c1=1), x=self.x(n=1, c1=2))

    def test_too_few_slices_rejected(self):
        with pytest.raises(LayoutError, match="input shape"):
            self.run(self.plan(), x=self.x(n=1))

    def test_dtype_rejected(self):
        with pytest.raises(LayoutError, match="dtype"):
            self.run(self.plan(), x=self.x(dtype=np.float32))

    def test_missing_input_rejected(self):
        with pytest.raises(LayoutError, match="requires the input"):
            self.run(self.plan())

    def test_maxpool_backward_requires_mask(self):
        plan = self.plan("bwd")
        oh, ow = plan.out_hw
        grad = make_gradient(2, oh, ow, n=2, seed=1)
        with pytest.raises(LayoutError, match="Argmax mask"):
            self.run(plan, grad=grad)
        with pytest.raises(LayoutError, match="Argmax mask shape"):
            self.run(plan, grad=grad, mask=np.zeros((2, 2), np.float16))

    @pytest.mark.parametrize("execute", ["numeric", "cycles"])
    def test_avgpool_backward_rejects_mask(self, execute):
        plan = self.plan("bwd", op="avg", execute=execute)
        oh, ow = plan.out_hw
        grad = make_gradient(2, oh, ow, n=2, seed=1)
        mask = np.zeros((2, 2, 3, 3, oh, ow, 16), np.float16)
        with pytest.raises(LayoutError, match="takes no mask"):
            self.run(plan, grad=grad, mask=mask)

    @pytest.mark.parametrize("case, match", [
        ("bwd-given-x", "takes no x"),
        ("fwd-given-grad", "takes no grad"),
        ("mask-float32", "Argmax mask dtype"),
        ("mask-int8", "Argmax mask dtype"),
    ])
    def test_unread_or_mistyped_tensor_rejected(self, case, match):
        bwd = self.plan("bwd")
        oh, ow = bwd.out_hw
        grad = make_gradient(2, oh, ow, n=2, seed=1)
        mask = np.zeros((2, 2, 3, 3, oh, ow, 16), np.float16)
        plan, tensors = {
            "bwd-given-x": (bwd, dict(grad=grad, mask=mask, x=np.zeros(9))),
            "fwd-given-grad": (self.plan(), dict(x=self.x(), grad=grad)),
            "mask-float32": (bwd, dict(grad=grad, mask=mask.astype("f4"))),
            "mask-int8": (bwd, dict(grad=grad, mask=mask.astype("i1"))),
        }[case]
        with pytest.raises(LayoutError, match=match):
            self.run(plan, **tensors)

    def test_tensorless_cycles_costing_still_runs(self):
        res = self.run(self.plan(execute="cycles"))
        assert res.output is None and res.cycles > 0

    def test_run_backward_checks_before_lowering(self):
        cache = ProgramCache()
        plan = self.plan("bwd")
        oh, ow = plan.out_hw
        grad = make_gradient(2, oh, ow, n=2, seed=1)
        impl = backward_impl("col2im", "max")
        with pytest.raises(LayoutError, match="Argmax mask"):
            run_backward(grad, self.SPEC, impl, 17, 17, cache=cache)
        assert len(cache) == 0


def _memo_geometries():
    """``(spec, n, c1, ih, iw)`` of every Table-1 layer and every
    Figure 8 input size."""
    from repro.bench.figures import FIG8_IMPLS, fig8_sizes
    from repro.workloads.cnn_configs import CNN_MAXPOOL_LAYERS

    out = [
        (layer.spec, 1, -(-layer.c // FLOAT16.c0), layer.h, layer.w)
        for layers in CNN_MAXPOOL_LAYERS.values()
        for layer in layers
    ]
    for stride in FIG8_IMPLS:
        out += [
            (PoolSpec.square(3, stride), 1, 1, s, s)
            for s in fig8_sizes(stride)
        ]
    return out


def _memo_impls():
    return [
        ("fwd", forward_impl(*v)) for v in forward_variants()
    ] + [
        ("bwd", backward_impl(*v)) for v in backward_variants()
    ]


def _outcome(fn):
    try:
        return fn()
    except ReproError as exc:  # untileable geometries fail both ways
        return type(exc), str(exc)


class TestChunkMemo:
    """The heuristic's row chunk is memoized on what footprints read."""

    @pytest.mark.parametrize(
        "config", [ASCEND910, ASCEND910_SINGLE_CORE],
        ids=["32-core", "1-core"],
    )
    @pytest.mark.parametrize("serialize", [False, True])
    def test_memoized_chunk_equals_direct_search(self, config, serialize):
        for spec, n, c1, ih, iw in _memo_geometries():
            for kind, impl in _memo_impls():
                min_tiles = (
                    1 if kind == "bwd" and serialize
                    else -(-config.num_cores // (n * c1))
                )
                direct = _outcome(lambda: plan_chunk(
                    spec.with_image(ih, iw), impl.footprint, config,
                    FLOAT16, min_tiles=min_tiles,
                ))
                memo = _outcome(lambda: plan_default(
                    kind, impl, spec, FLOAT16, n, c1, ih, iw, config,
                    execute="cycles", serialize_slices=serialize,
                ).chunk)
                assert memo == direct, (kind, impl.describe(), ih, iw)

    def test_instances_of_one_variant_share_an_entry(self):
        _heuristic_chunk.cache_clear()
        plans = [
            plan_default(
                "fwd", forward_impl("im2col", "max", True), SPEC, FLOAT16,
                1, 4, 35, 35, ASCEND910,
            )
            for _ in range(2)
        ]
        info = _heuristic_chunk.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert plans[0] == plans[1]

    def test_autotune_table_change_is_honoured(self, tmp_path, monkeypatch):
        """The memo sits below the table lookup: a table installed after
        the heuristic was memoized still wins, and removing it falls
        back to the memoized heuristic."""
        from repro.plan import AutotuneTable, Workload, set_default_table

        impl = forward_impl("standard", "max")
        args = ("fwd", impl, SPEC, FLOAT16, 1, 1, 28, 28, ASCEND910)
        heuristic = plan_default(*args)
        tuned = replace(heuristic, chunk=heuristic.chunk + 1)
        key = Workload.of_impl(*args[:8]).key(ASCEND910)
        path = AutotuneTable({key: {"plan": tuned.to_dict()}}).save(
            tmp_path / "table.json"
        )

        def resolve(table_path):
            monkeypatch.setenv("REPRO_AUTOTUNE_TABLE", str(table_path))
            set_default_table(None)  # re-read the variable on next use
            return resolve_plan("autotuned", *args).chunk

        try:
            assert resolve(tmp_path / "missing.json") == heuristic.chunk
            assert resolve(path) == tuned.chunk
            assert resolve(tmp_path / "missing.json") == heuristic.chunk
        finally:
            monkeypatch.undo()
            set_default_table(None)
