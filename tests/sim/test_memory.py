"""Tests for the simulated global memory."""

import numpy as np
import pytest

from repro.config import SCRATCH_PADS
from repro.dtypes import FLOAT16
from repro.errors import SimulationError
from repro.sim import GlobalMemory


class TestGlobalMemory:
    def test_add_returns_spanning_ref(self, rng):
        gm = GlobalMemory()
        x = rng.standard_normal((2, 3, 4)).astype(np.float16)
        ref = gm.add("x", x)
        assert (ref.buffer, ref.offset, ref.size) == ("x", 0, 24)

    def test_add_copies(self, rng):
        gm = GlobalMemory()
        x = rng.standard_normal(8).astype(np.float16)
        gm.add("x", x)
        x[0] = 99
        assert gm.view("x")[0] != np.float16(99)

    def test_duplicate_name_rejected(self, rng):
        gm = GlobalMemory()
        gm.add("x", np.zeros(4, np.float16))
        with pytest.raises(SimulationError):
            gm.add("x", np.zeros(4, np.float16))

    @pytest.mark.parametrize("name", sorted(SCRATCH_PADS))
    def test_scratch_pad_names_rejected(self, name):
        # A core resolves these names to its own scratch-pad, so such a
        # tensor could never be read or written by a kernel.
        gm = GlobalMemory()
        with pytest.raises(SimulationError, match="scratch-pad"):
            gm.add(name, np.zeros(4, np.float16))
        with pytest.raises(SimulationError, match="scratch-pad"):
            gm.zeros(name, 4, FLOAT16)
        assert name not in gm

    def test_zeros(self):
        gm = GlobalMemory()
        gm.zeros("out", 100, FLOAT16)
        assert gm.view("out").size == 100
        assert not gm.view("out").any()

    def test_view_missing(self):
        with pytest.raises(SimulationError):
            GlobalMemory().view("nope")

    def test_read_reshapes_and_copies(self, rng):
        gm = GlobalMemory()
        x = rng.standard_normal((3, 4)).astype(np.float16)
        gm.add("x", x)
        got = gm.read("x", (3, 4))
        assert np.array_equal(got, x)
        got[0, 0] = 1  # copy: must not write through
        assert gm.view("x")[0] == x[0, 0]

    def test_read_wrong_shape(self, rng):
        gm = GlobalMemory()
        gm.add("x", np.zeros(12, np.float16))
        with pytest.raises(SimulationError):
            gm.read("x", (5, 5))

    def test_contains(self):
        gm = GlobalMemory()
        gm.add("x", np.zeros(4, np.float16))
        assert "x" in gm
        assert "y" not in gm
