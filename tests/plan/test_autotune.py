"""The cost-model autotuner: search spaces, determinism, and the
persisted best-config table behind ``plan="autotuned"``.

The contracts pinned here are the ones the benchmark guard
(``benchmarks/test_autotune.py``) and the ninth fuzz route build on:
the search space only contains bit-exact variants, repeated searches
return identical winners, table records are integer-only and
byte-deterministic, and table misses degrade to the default plan.
"""

from __future__ import annotations

import pytest

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.errors import PlanError
from repro.ops import PoolSpec
from repro.ops.registry import FORWARD_IMPLS, forward_impl
from repro.plan import (
    AutotuneTable,
    ExecutionPlan,
    Workload,
    autotune_grid,
    candidate_chunks,
    candidate_impls,
    grid_workloads,
    search,
    summarize_rows,
    tuned_plan,
)

SPEC = PoolSpec(kh=3, kw=3, sh=2, sw=2)


def fwd_workload(impl: str = "standard", **overrides) -> Workload:
    fields = dict(
        kind="fwd", op="max", impl=impl, with_mask=False,
        dtype=FLOAT16.name, spec=SPEC, n=1, c1=1, ih=28, iw=28,
    )
    fields.update(overrides)
    return Workload(**fields)


class TestSearchSpaces:
    def test_forward_max_ranges_over_all_variants(self):
        assert candidate_impls(fwd_workload()) == list(FORWARD_IMPLS)

    def test_mask_workloads_restricted_to_mask_capable(self):
        variants = candidate_impls(fwd_workload(with_mask=True))
        assert "standard" in variants
        assert set(variants) <= set(FORWARD_IMPLS)
        for name in variants:
            assert getattr(FORWARD_IMPLS[name], "supports_mask", True)

    def test_avg_and_backward_keep_the_requested_variant(self):
        assert candidate_impls(fwd_workload(op="avg")) == ["standard"]
        assert candidate_impls(
            fwd_workload(kind="bwd", impl="col2im")
        ) == ["col2im"]

    def test_candidate_chunks_exhaustive_and_coarse(self):
        impl = forward_impl("standard", "max")
        full = SPEC.with_image(28, 28)
        oh, _ = full.out_hw()
        exhaustive = candidate_chunks(
            full, impl.footprint, ASCEND910, FLOAT16
        )
        coarse = candidate_chunks(
            full, impl.footprint, ASCEND910, FLOAT16, mode="coarse"
        )
        assert exhaustive == sorted(set(exhaustive))
        assert set(coarse) <= set(exhaustive)
        assert 1 in coarse
        assert all(1 <= c <= oh for c in exhaustive)
        with pytest.raises(PlanError, match="chunk search mode"):
            candidate_chunks(
                full, impl.footprint, ASCEND910, FLOAT16, mode="greedy"
            )

    def test_extra_chunks_are_considered_but_clamped(self):
        impl = forward_impl("standard", "max")
        full = SPEC.with_image(28, 28)
        oh, _ = full.out_hw()
        chunks = candidate_chunks(
            full, impl.footprint, ASCEND910, FLOAT16, mode="coarse",
            extra=(3, 0, oh + 5),
        )
        assert 3 in chunks
        assert all(c <= oh for c in chunks)


class TestSearch:
    def test_baseline_always_in_space(self):
        result = search(fwd_workload(), ASCEND910, chunks="coarse")
        assert result.best_cycles <= result.baseline_cycles
        assert result.cycles_won >= 1.0
        assert result.evaluated >= 1
        assert result.best.execute == "numeric"

    def test_search_is_deterministic(self):
        w = fwd_workload()
        a = search(w, ASCEND910, chunks="coarse")
        b = search(w, ASCEND910, chunks="coarse")
        assert a.best == b.best
        assert a.best_cycles == b.best_cycles
        assert a.evaluated == b.evaluated

    def test_to_entry_is_integer_only(self):
        result = search(fwd_workload(), ASCEND910, chunks="coarse")
        entry = result.to_entry()
        for key in ("cycles", "baseline_cycles", "evaluated"):
            assert type(entry[key]) is int
        assert entry["plan"] == result.best.to_dict()
        assert entry["baseline_plan"] == result.baseline.to_dict()


class TestTable:
    def test_save_load_round_trip(self, tmp_path):
        table, _rows = autotune_grid(
            [fwd_workload()], ASCEND910, chunks="coarse"
        )
        assert len(table) == 1
        saved = table.save(tmp_path / "t.json")
        assert AutotuneTable.load(saved).to_json() == table.to_json()

    def test_missing_file_is_an_empty_table(self, tmp_path):
        table = AutotuneTable.load(tmp_path / "nope.json")
        assert len(table) == 0

    def test_malformed_files_raise_plan_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PlanError, match="malformed autotune table"):
            AutotuneTable.load(bad)
        bad.write_text('{"version": 1}')
        with pytest.raises(PlanError, match="no 'entries'"):
            AutotuneTable.load(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(PlanError, match="no 'entries'"):
            AutotuneTable.load(bad)
        # An entry without a usable plan fails the lookup, not later.
        key = fwd_workload().key(ASCEND910)
        impl = forward_impl("standard", "max")
        for entry in ({"cycles": 1}, {"plan": {}}):
            with pytest.raises(PlanError, match="malformed"):
                tuned_plan(
                    "fwd", impl, SPEC, FLOAT16, 1, 1, 28, 28, ASCEND910,
                    table=AutotuneTable({key: entry}),
                )

    def test_tuned_plan_hit_and_miss(self):
        w = fwd_workload()
        table, _rows = autotune_grid([w], ASCEND910, chunks="coarse")
        impl = forward_impl("standard", "max")
        plan = tuned_plan(
            "fwd", impl, SPEC, FLOAT16, 1, 1, 28, 28, ASCEND910,
            execute="cycles", table=table,
        )
        assert isinstance(plan, ExecutionPlan)
        # The caller's execute mode replaces the table's canonical one.
        assert plan.execute == "cycles"
        entry = table.lookup(w.key(ASCEND910))
        assert plan.to_dict() == {
            **entry["plan"], "execute": "cycles",
        }
        # Any workload drift -- here the extents -- is a miss.
        miss = tuned_plan(
            "fwd", impl, SPEC, FLOAT16, 1, 1, 30, 30, ASCEND910,
            table=table,
        )
        assert miss is None

    def test_workload_key_carries_config_fingerprint(self):
        w = fwd_workload()
        key = w.key(ASCEND910)
        assert key.startswith("fwd:max:standard:mask0:float16:")
        assert ":cfg" in key


class TestGrid:
    def test_grid_workloads_shape(self):
        grid = [(28, 28, 16, 1, SPEC), (14, 14, 32, 2, SPEC)]
        workloads = grid_workloads(grid)
        assert len(workloads) == 4
        assert [w.kind for w in workloads] == ["fwd", "bwd"] * 2
        assert workloads[0].impl == "standard"
        assert workloads[1].impl == "col2im"
        # Channels round up to whole C1 blocks.
        assert workloads[2].c1 == 2
        assert workloads[3].n == 2

    def test_autotune_grid_rows_and_summary(self):
        grid = [(28, 28, 16, 1, SPEC)]
        table, rows = autotune_grid(
            grid_workloads(grid), ASCEND910, chunks="coarse"
        )
        assert len(rows) == 2 == len(table)
        for row in rows:
            assert row["cycles_won"] >= 1.0
            assert row["best_cycles"] <= row["baseline_cycles"]
        summary = summarize_rows(rows)
        assert summary["workloads"] == 2
        assert summary["median_cycles_won"] >= 1.0
        assert summary["best_cycles_won"] >= summary["median_cycles_won"]
