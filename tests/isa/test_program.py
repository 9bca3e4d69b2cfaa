"""Tests for instruction streams and their static analysis."""

import pytest

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.isa import (
    DataMove,
    Mask,
    MemRef,
    Program,
    VADD,
    VectorDup,
    VectorOperand,
)

COST = ASCEND910.cost


def ops(n=128):
    d = MemRef("UB", 0, n, FLOAT16)
    s = MemRef("UB", n, n, FLOAT16)
    return VectorOperand(d), VectorOperand(s)


class TestProgram:
    def test_emit_and_len(self):
        p = Program("k")
        d, s = ops()
        p.emit(VectorDup(d, 0.0, Mask.full(), 1))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        assert len(p) == 2

    def test_issue_counts(self):
        p = Program("k")
        d, s = ops()
        for _ in range(5):
            p.emit(VADD(d, d, s, Mask.full(), 1))
        p.emit(VectorDup(d, 0.0, Mask.full(), 1))
        counts = p.issue_counts()
        assert counts["vadd"] == 5
        assert counts["vector_dup"] == 1

    def test_static_cycles_matches_sum(self):
        p = Program("k")
        d, s = ops()
        i1 = VectorDup(d, 0.0, Mask.full(), 3)
        i2 = VADD(d, d, s, Mask.full(), 2)
        p.emit(i1)
        p.emit(i2)
        assert p.static_cycles(COST) == i1.cycles(COST) + i2.cycles(COST)

    def test_scalar_loop_trips_charged(self):
        p = Program("k")
        d, s = ops()
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.scalar_loop_trips = 10
        base = VADD(d, d, s, Mask.full(), 1).cycles(COST)
        assert p.static_cycles(COST) == base + 10 * COST.loop_cycles

    def test_unit_cycles_split(self):
        p = Program("k")
        d, s = ops()
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.emit(DataMove(MemRef("x", 0, 64, FLOAT16),
                        MemRef("UB", 0, 64, FLOAT16)))
        u = p.unit_cycles(COST)
        assert set(u) == {"vector", "mte"}
        assert u["vector"] == COST.issue_cycles + 1

    def test_mean_lane_utilization_weighted_by_repeats(self):
        p = Program("k")
        d, s = ops(512)
        # 1 repeat at 100% + 3 repeats at 12.5%
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.emit(VADD(d, d, s, Mask.first(16), 3))
        want = (1.0 * 1 + 0.125 * 3) / 4
        assert p.mean_lane_utilization() == pytest.approx(want)

    def test_mean_lane_utilization_none_without_vector(self):
        p = Program("k")
        p.emit(DataMove(MemRef("x", 0, 64, FLOAT16),
                        MemRef("UB", 0, 64, FLOAT16)))
        assert p.mean_lane_utilization() is None
