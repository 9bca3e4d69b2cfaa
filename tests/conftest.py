"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def core() -> AICore:
    """A fresh single AI Core with empty buffers."""
    return AICore(ASCEND910)


@pytest.fixture
def kb() -> KernelBuilder:
    """A kernel builder to allocate scratch-pad regions from, the way
    kernels allocate them (a core holds no allocation state)."""
    return KernelBuilder(ASCEND910)


@pytest.fixture
def gm() -> GlobalMemory:
    return GlobalMemory()


@pytest.fixture
def single_core_config():
    return ASCEND910_SINGLE_CORE


@pytest.fixture
def chip_config():
    return ASCEND910


def random_fp16(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard-normal fp16 data with distinct values (ties in max
    reductions are still possible but astronomically unlikely)."""
    return rng.standard_normal(shape).astype(np.float16)
