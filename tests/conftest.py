"""Shared fixtures: compiled programs are expensive, so cache them."""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.compiler import CompileOptions, compile_source
from repro.sim import HazardMode, Machine


@pytest.fixture(scope="session")
def compile_cache():
    """Session-wide (source, options-key) -> CompiledProgram cache."""
    cache = {}

    def compile_cached(source, options=None, opt_level=None):
        from repro.reorg import OptLevel

        level = opt_level or OptLevel.BRANCH_DELAY
        key = (source, repr(options), level)
        if key not in cache:
            cache[key] = compile_source(source, options, level)
        return cache[key]

    return compile_cached


def run_program(compiled, inputs=None, hazard_mode=HazardMode.CHECKED, max_steps=30_000_000):
    """Run a compiled program under the checking simulator."""
    machine = Machine(compiled.program, hazard_mode=hazard_mode, inputs=inputs)
    machine.run(max_steps)
    return machine


@pytest.fixture
def run():
    return run_program


@pytest.fixture(scope="session")
def reorg_golden():
    """``tools/reorg_golden.py`` as a module: its inputs and ``check``."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "reorg_golden.py")
    spec = importlib.util.spec_from_file_location("reorg_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
