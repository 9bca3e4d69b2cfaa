"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AdmissionError,
    AlignmentError,
    CapacityError,
    CoreFailure,
    DeadlineExceeded,
    FaultInjectionError,
    IsaError,
    LayoutError,
    LoweringError,
    MaskError,
    QuotaExceededError,
    RepeatError,
    ReproError,
    ScheduleError,
    ServeError,
    SimulationError,
    TilingError,
    WorkerFailure,
)

ALL = [
    LayoutError, AlignmentError, CapacityError, IsaError, MaskError,
    RepeatError, ScheduleError, LoweringError, TilingError, SimulationError,
    CoreFailure, DeadlineExceeded, FaultInjectionError,
    ServeError, AdmissionError, QuotaExceededError, WorkerFailure,
]


@pytest.mark.parametrize("exc", ALL)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_alignment_is_layout_error():
    assert issubclass(AlignmentError, LayoutError)


def test_mask_and_repeat_are_isa_errors():
    assert issubclass(MaskError, IsaError)
    assert issubclass(RepeatError, IsaError)


def test_serve_errors_form_a_hierarchy():
    assert issubclass(AdmissionError, ServeError)
    assert issubclass(QuotaExceededError, ServeError)
    assert issubclass(WorkerFailure, ServeError)
    assert issubclass(ServeError, ReproError)


def test_fault_errors_are_simulation_errors():
    assert issubclass(CoreFailure, SimulationError)
    assert issubclass(DeadlineExceeded, SimulationError)
    assert issubclass(FaultInjectionError, SimulationError)


def test_summary_mismatch_message_names_both_sides():
    """The mismatch diagnostic carries the program names and the
    instruction counts of both the summary and the program."""
    from repro.config import ASCEND910
    from repro.isa import Mask, MemRef, Program, VectorDup, VectorOperand
    from repro.dtypes import FLOAT16
    from repro.sim import AICore
    from repro.sim.aicore import summarize

    def prog(name, repeat):
        p = Program(name)
        d = MemRef("UB", 0, 128 * repeat, FLOAT16)
        p.emit(VectorDup(VectorOperand(d), 1.0, Mask.full(), repeat))
        return p

    target = prog("pool-t0", 1)
    # count mismatch: message names the program and both counts
    two = prog("pool-t0", 1)
    two.emit(VectorDup(
        VectorOperand(MemRef("UB", 0, 128, FLOAT16)), 2.0, Mask.full(), 1
    ))
    with pytest.raises(SimulationError) as exc:
        AICore._check_summary(target, summarize(two, ASCEND910))
    msg = str(exc.value)
    assert "pool-t0" in msg and "2 instructions" in msg and "1" in msg

    # name mismatch: both names and counts appear
    other = prog("other-t0", 1)
    with pytest.raises(SimulationError) as exc:
        AICore._check_summary(target, summarize(other, ASCEND910))
    msg = str(exc.value)
    assert "'other-t0'" in msg and "'pool-t0'" in msg
    assert "1 instructions" in msg


def test_library_raises_only_repro_errors_for_bad_usage():
    """A downstream user can wrap any call in `except ReproError`."""
    import numpy as np

    from repro import PoolSpec, maxpool

    with pytest.raises(ReproError):
        maxpool(np.zeros((2, 2), np.float16), PoolSpec.square(2, 2))
    with pytest.raises(ReproError):
        PoolSpec(kh=0, kw=1, sh=1, sw=1)
