"""The per-class operand table behind every instruction's operand view,
and the slotted, immutable ISA value classes it reads."""

import copy
import dataclasses
import pickle
import sys

import pytest

from repro.dtypes import FLOAT16
from repro.isa import (
    Col2ImStore,
    DataMove,
    Im2ColLoad,
    Im2ColParams,
    Instruction,
    Mask,
    MemRef,
    Mmad,
    Region,
    VADD,
    VADDS,
    VectorDup,
    VectorOperand,
)
from repro.isa.instruction import operand_table


def _ref(buffer, offset=0, size=256):
    return MemRef(buffer, offset, size, FLOAT16)


def _samples():
    """One instance of every concrete instruction class."""
    d = VectorOperand(_ref("UB", 0, 128))
    s = VectorOperand(_ref("UB", 128, 128))
    params = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
    image = 8 * 8 * 16
    return [
        VADD(d, d, s, Mask.full(), 1),
        VADDS(d, s, 2.5, Mask.full(), 1),
        VectorDup(d, 0.0, Mask.full(), 1),
        Im2ColLoad(src=_ref("L1", 0, image), dst=_ref("UB"), params=params,
                   c1=0, xk=1, yk=0),
        Col2ImStore(src=_ref("UB"), dst=_ref("UB", 256, image),
                    params=params, c1=0, xk=0, yk=1),
        DataMove(_ref("x", 0, 64), _ref("UB", 0, 64)),
        Mmad(a=_ref("L0A"), b=_ref("L0B"), c=_ref("L0C")),
    ]


def _field_walk(instr):
    """The per-instance dataclass-field walk the table replaces."""
    return tuple(
        (f.name, f.name in instr.write_fields)
        for f in dataclasses.fields(instr)
        if isinstance(getattr(instr, f.name), (MemRef, VectorOperand))
    )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_samples_cover_every_shipped_instruction_class():
    # ``dataclass(slots=True)`` replaces the class it decorates, and the
    # pre-slots class lingers in ``__subclasses__()``; a shipped class
    # is the one its module exports under its name.
    shipped = {
        c for c in _subclasses(Instruction)
        if c.__module__.startswith("repro.")
        and getattr(sys.modules[c.__module__], c.__name__, None) is c
    }
    assert shipped == {type(i) for i in _samples()}


@pytest.mark.parametrize("instr", _samples(), ids=lambda i: type(i).__name__)
def test_table_equals_field_walk(instr):
    table = operand_table(type(instr))
    assert table == _field_walk(instr)
    assert operand_table(type(instr)) is table  # computed once per class
    assert [(n, w) for n, _, w in instr.operands()] == list(table)


class TestReadModifyWriteStaysPerInstance:
    def test_mmad_init_decides_accumulator_read(self):
        acc = Region("L0C", 0, 256)
        fresh = Mmad(a=_ref("L0A"), b=_ref("L0B"), c=_ref("L0C"), init=True)
        accumulating = dataclasses.replace(fresh, init=False)
        assert acc not in fresh.reads()
        assert acc in accumulating.reads()
        assert fresh.writes() == accumulating.writes() == (acc,)

    def test_data_move_accumulate_decides_destination_read(self):
        dst = Region("dx", 0, 64)
        plain = DataMove(_ref("UB", 0, 64), _ref("dx", 0, 64))
        accumulating = DataMove(
            _ref("UB", 0, 64), _ref("dx", 0, 64), accumulate=True
        )
        assert plain.reads() == (Region("UB", 0, 64),)
        assert accumulating.reads() == (Region("UB", 0, 64), dst)
        assert plain.writes() == accumulating.writes() == (dst,)


def _values():
    """Every sample instruction plus one of each operand value class."""
    d = VectorOperand(_ref("UB", 0, 128))
    return _samples() + [d, d.ref, Region("UB", 0, 128), Mask.full()]


def _name(value):
    return type(value).__name__


class TestSlottedValues:
    """ISA values are slotted and immutable, so lowering may share one
    operand object between instructions; copies must stay equal."""

    @pytest.mark.parametrize("value", _values(), ids=_name)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", _values(), ids=_name)
    def test_replace_deepcopy_and_pickle_round_trip(self, value):
        for twin in (
            dataclasses.replace(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value
            assert not hasattr(twin, "__dict__")
