"""Housekeeping benchmark: simulator and toolchain throughput.

Not a paper result -- it tracks the reproduction's own performance so
regressions in the simulator or compiler show up.
"""

from repro.compiler import compile_source
from repro.sim import Machine
from repro.workloads import CORPUS, puzzle_source


def test_simulator_throughput(benchmark):
    compiled = compile_source(CORPUS["sort"])

    def run():
        machine = Machine(compiled.program)
        return machine.run(10_000_000)

    stats = benchmark(run)
    assert stats.words > 10_000


def test_simulator_throughput_reference(benchmark):
    """The precise per-step interpreter, for fast-path speedup tracking."""
    compiled = compile_source(CORPUS["sort"])

    def run():
        machine = Machine(compiled.program)
        return machine.run(10_000_000, fast=False)

    stats = benchmark(run)
    assert stats.words > 10_000


def test_compiler_throughput(benchmark):
    source = puzzle_source(0)

    def build():
        return compile_source(source)

    compiled = benchmark(build)
    assert compiled.static_count > 500


def test_kernel_boot_throughput(benchmark):
    from repro.system import Kernel

    program = compile_source(CORPUS["fib_iterative"]).program

    def boot_and_run():
        kernel = Kernel()
        kernel.add_process(program)
        kernel.run()
        return kernel

    kernel = benchmark(boot_and_run)
    assert kernel.output(0)
