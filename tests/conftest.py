"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric.mesh import Mesh


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG shared by numerical tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def mesh2x2() -> Mesh:
    return Mesh(2, 2)


@pytest.fixture
def mesh1x2() -> Mesh:
    return Mesh(1, 2)


#: What a dropped fabric must not leave behind for the cyclic GC.
FABRIC_TYPES = {"Mesh", "Tile", "DataMemory", "InstructionMemory", "TileStats"}


@pytest.fixture
def cyclic_garbage():
    """Run a callable with the collector off and return the type names
    (function qualnames for functions) of what only the cyclic GC frees
    once its result is dropped."""
    import gc

    def collect(fn) -> list[str]:
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fn()
            gc.collect()
            found = [getattr(o, "__qualname__", type(o).__name__)
                     if callable(o) else type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        return found

    return collect
