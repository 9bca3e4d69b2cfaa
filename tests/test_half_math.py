"""fp16 arithmetic on float32 operands (:mod:`repro.dtypes`).

JIT kernels keep fp16 values in float32 scratch-pad stacks, so these
helpers must reproduce NumPy's fp16 results bit for bit:

* :func:`round_to_half` equals ``astype(float16).astype(float32)`` on
  every sign and exponent, round-to-nearest-even ties and near-ties,
  overflow, subnormals, signed zeros, infinities and NaN payloads, and
  :func:`to_half` narrows what it leaves as ``astype(float16)`` does;
* :func:`half_op` (compute in float32, round once) equals the fp16
  ufuncs over random pairings of all 65,536 fp16 bit patterns, NaN
  payloads included, and the accumulating forms equal the
  interpreter's ``+=`` and ``np.add.at``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtypes import half_op, jit_dtype, round_to_half, to_half

F32 = np.float32

#: Low significand bits around fp16's rounding point (bit 13): zero,
#: one, just below / at / just above a tie, and all ones.
LOW_BITS = (0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF)


def _f32(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).astype(np.uint32).view(F32)


def _want(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(F32)


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    bad = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
    assert not bad.size, [
        (hex(int(w)), hex(int(g)))
        for w, g in zip(want.view(np.uint32)[bad[:5]],
                        got.view(np.uint32)[bad[:5]])
    ]


ALL_HALF = np.arange(65536, dtype=np.uint32).astype(np.uint16).view(
    np.float16
)


class TestRoundToHalf:
    def test_every_sign_exponent_and_low_bit_pattern(self):
        mids = (0, 0x2000, 0x5A000, 0x400000, 0x7FE000)
        bits = [
            (sign << 31) | (exp << 23) | mid | low
            for sign in (0, 1)
            for exp in range(256)
            for mid in mids
            for low in LOW_BITS
        ]
        x = _f32(bits)
        _same_bits(round_to_half(x), _want(x))

    def test_edges(self):
        x = np.array(
            [
                65504.0, -65504.0, 65519.996, 65520.0, -65520.0, 65536.0,
                2.0**-14, -(2.0**-14), 2.0**-14 * (1 - 2.0**-11),
                2.0**-24, 2.0**-25, 2.0**-25 * 1.0000001, 3 * 2.0**-26,
                1e-30, -1e-30, 0.0, -0.0, np.inf, -np.inf,
            ],
            dtype=F32,
        )
        _same_bits(round_to_half(x), _want(x))

    def test_nan_payloads(self):
        payloads = [
            0x000001, 0x001FFF, 0x002000, 0x200000, 0x3FFFFF, 0x400000,
            0x400001, 0x7FE000, 0x7FFFFF,
        ]
        bits = [
            (sign << 31) | 0x7F800000 | p for sign in (0, 1) for p in payloads
        ]
        x = _f32(bits)
        _same_bits(round_to_half(x), _want(x))

    def test_every_half_value_is_a_fixed_point(self):
        x = ALL_HALF.astype(F32)
        _same_bits(round_to_half(x), x)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(0)
        x = _f32(rng.integers(0, 2**32, 200_000, dtype=np.uint64))
        _same_bits(round_to_half(x), _want(x))

    def test_input_is_left_alone(self):
        x = np.array([1.0001, 3e-6, 70000.0], dtype=F32)
        before = x.copy()
        round_to_half(x)
        assert x.tobytes() == before.tobytes()


class TestToHalf:
    def test_every_half_pattern_round_trips(self):
        got = to_half(ALL_HALF.astype(F32))
        assert got.dtype == np.float16
        assert got.tobytes() == ALL_HALF.tobytes()

    def test_rounded_values_narrow_like_astype(self):
        rng = np.random.default_rng(1)
        x = round_to_half(
            _f32(rng.integers(0, 2**32, 200_000, dtype=np.uint64))
        ).reshape(400, 500)
        with np.errstate(over="ignore"):
            want = x.astype(np.float16)
        assert to_half(x).tobytes() == want.tobytes()


def _pairings(count: int):
    rng = np.random.default_rng(20)
    for _ in range(count):
        yield ALL_HALF[rng.permutation(ALL_HALF.size)]


class TestHalfOps:
    @pytest.mark.parametrize("op, nan_from", [
        (np.add, 1), (np.subtract, None), (np.multiply, 1),
        (np.divide, None),
    ], ids=["add", "subtract", "multiply", "divide"])
    def test_matches_the_fp16_ufunc_on_all_patterns(self, op, nan_from):
        """Float32-then-round equals the fp16 ufunc, NaN payloads
        included, over 20 random pairings of every fp16 bit pattern."""
        rounded = half_op(op, nan_from)
        with np.errstate(all="ignore"):
            for b in _pairings(20):
                want = op(ALL_HALF, b).astype(F32)
                got = rounded(ALL_HALF.astype(F32), b.astype(F32))
                _same_bits(got, want)

    def test_scalar_operand_nan_comes_from_the_scalar(self):
        """``vadds``/``vmuls`` pass the immediate second, as the
        interpreter's ``a + a.dtype.type(s)`` does."""
        imm = np.array([0x7E05], np.uint16).view(np.float16)[0]
        for op in (np.add, np.multiply):
            with np.errstate(all="ignore"):
                want = op(ALL_HALF, imm).astype(F32)
                got = half_op(op, 1)(ALL_HALF.astype(F32), F32(imm))
            _same_bits(got, want)

    @pytest.mark.parametrize("nan_from", [0, 1], ids=["add.at", "iadd"])
    def test_accumulating_statements(self, nan_from):
        """``nan_from=1`` is DataMove's ``dst += src``, ``nan_from=0``
        Col2Im's ``np.add.at(dst, idx, src)``."""
        acc = half_op(np.add, nan_from)
        idx = np.arange(ALL_HALF.size)
        with np.errstate(all="ignore"):
            for src in _pairings(4):
                dst = ALL_HALF.copy()
                if nan_from:
                    dst += src
                else:
                    np.add.at(dst, idx, src)
                got = acc(ALL_HALF.astype(F32), src.astype(F32))
                _same_bits(got, dst.astype(F32))


def test_jit_dtype():
    assert jit_dtype(np.float16) == np.float32
    for other in (np.float32, np.int8, np.uint8):
        assert jit_dtype(other) == np.dtype(other)
