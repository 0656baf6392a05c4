"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sketch.kernels as kernels
from repro.data.synthetic import BlockCorrelationModel
from repro.sketch.count_sketch import CountSketch

#: The compiled kernel module this process can import (``None`` without
#: numba), captured before any test pins the seam.
_COMPILED_KERNELS = kernels.numba_kernels()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def kernel_path(monkeypatch):
    """Setter pinning the kernel path, by name, for the rest of the test.

    Sketches pick the compiled path whenever numba is importable, so a
    test reaches the numpy path on a numba host by pinning the kernels
    module's one-shot import state (its test seam) to "unavailable".
    ``"numba"`` restores the real compiled module; only names from
    :func:`repro.sketch.kernels.available_backends` are meaningful.
    """

    def pin(name: str) -> None:
        monkeypatch.setattr(kernels, "_jit_checked", True)
        monkeypatch.setattr(
            kernels, "_jit_module", _COMPILED_KERNELS if name == "numba" else None
        )

    return pin


@pytest.fixture
def small_sketch():
    """A sketch wide enough that a handful of keys never collide."""
    return CountSketch(num_tables=5, num_buckets=4096, seed=7)


@pytest.fixture
def block_model():
    """A tiny block-correlation model with known signal pairs."""
    return BlockCorrelationModel.from_alpha(60, alpha=0.02, seed=3)
