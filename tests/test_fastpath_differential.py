"""Differential tests: the fast-path engine vs the reference stepper.

The contract of :mod:`repro.sim.fastpath` is bit-for-bit equivalence
with :meth:`repro.sim.cpu.Cpu.step` across every hazard mode: identical
registers, memory, output, statistics, and fault behaviour.  These
tests run the same programs through both and compare complete state
fingerprints.
"""

import pytest

from repro.compiler import compile_source
from repro.isa.encoding import encode
from repro.isa.pieces import MovImm
from repro.isa.registers import Reg
from repro.isa.words import InstructionWord
from repro.reorg import OptLevel
from repro.sim import HazardMode, HazardViolation, Machine, state_fingerprint
from repro.sim.machine import run_source
from repro.system.kernel import Kernel
from repro.workloads import CORPUS

#: a fast-running cross-section of the corpus (control flow, recursion,
#: byte/string handling, memory traffic, input consumption)
PROGRAMS = ("scanner", "strings", "sort", "calc", "fib_iterative")

MODES = (HazardMode.BARE, HazardMode.CHECKED, HazardMode.INTERLOCKED)


def _run_pair(program, mode, inputs=()):
    """Run fast and reference instances; return both machines."""
    machines = []
    for fast in (True, False):
        machine = Machine(program, hazard_mode=mode, inputs=list(inputs))
        machine.run(60_000_000, fast=fast)
        machines.append(machine)
    return machines


def _assert_identical(fast, ref):
    assert state_fingerprint(fast.cpu) == state_fingerprint(ref.cpu)
    assert fast.output == ref.output
    assert fast.char_output == ref.char_output
    assert fast.memory._words == ref.memory._words
    fstats, rstats = fast.memory.stats, ref.memory.stats
    assert (fstats.reads, fstats.writes, fstats.fetches) == (
        rstats.reads,
        rstats.writes,
        rstats.fetches,
    )


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROGRAMS)
def test_differential_corpus(name, mode):
    """Fast path and reference stepper agree on the workload corpus.

    ``INTERLOCKED`` runs naive code order (the hardware-interlock
    ablation's configuration); the other modes run scheduled code.
    """
    opt = OptLevel.NONE if mode is HazardMode.INTERLOCKED else OptLevel.BRANCH_DELAY
    program = compile_source(CORPUS[name], opt_level=opt).program
    fast, ref = _run_pair(program, mode, inputs=[7, 3, 9])
    _assert_identical(fast, ref)


HAZARD_SOURCE = """
        start:  mov #7, r1
                ld @val, r1
                mov r1, r2      ; reads r1 in its load delay slot
                trap #0
        val:    .word 42
"""


def test_checked_mode_raises_at_same_pc_through_batched_loop():
    """CHECKED still raises HazardViolation, at the same PC, when batched."""
    results = []
    for fast in (True, False):
        with pytest.raises(HazardViolation):
            run_source(HAZARD_SOURCE, hazard_mode=HazardMode.CHECKED)
        machine = Machine(
            __import__("repro.asm.assembler", fromlist=["assemble"]).assemble(
                HAZARD_SOURCE
            ),
            hazard_mode=HazardMode.CHECKED,
        )
        with pytest.raises(HazardViolation):
            machine.run(fast=fast)
        results.append(machine)
    fast_m, ref_m = results
    assert fast_m.cpu.pc == ref_m.cpu.pc
    assert state_fingerprint(fast_m.cpu) == state_fingerprint(ref_m.cpu)


READER_SOURCE = """
        start:  trap #3
                trap #1
                trap #3
                trap #1
                trap #3
                trap #1
                trap #0
"""


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
def test_input_queue_exhaustion_returns_zero(fast):
    """Trap #3 beyond the queued inputs reads zero (and popleft is O(1))."""
    from repro.asm.assembler import assemble

    machine = Machine(assemble(READER_SOURCE), inputs=[5])
    machine.run(fast=fast)
    assert machine.output == [5, 0, 0]
    assert len(machine.inputs) == 0


SELF_MODIFY_SOURCE = """
        start:  mov #0, r5
        loop:   mov #1, r1      ; overwritten with `movi #2,r1` mid-run
                trap #1
                ld @patch, r2
                nop
                st r2, @loop
                add r5, #1, r5
                blo r5, #2, loop
                nop
                trap #0
        patch:  .word 0
"""


def test_self_modifying_code_invalidates_compiled_handlers():
    """A store over an already-executed word takes effect identically."""
    from repro.asm.assembler import assemble

    program = assemble(SELF_MODIFY_SOURCE)
    patched_bits = encode(InstructionWord.single(MovImm(2, Reg(1))))
    machines = []
    for fast in (True, False):
        machine = Machine(program)
        machine.memory.poke(program.symbol("patch"), patched_bits)
        machine.run(fast=fast)
        machines.append(machine)
    fast_m, ref_m = machines
    assert fast_m.output == [1, 2]
    _assert_identical(fast_m, ref_m)


#: a counted loop whose body stores over a word of the same loop that
#: runs later in the iteration (with the word's own bits: each store is
#: value-identical but must still drop the compiled handler)
STORE_INTO_LOOP_SOURCE = """
        start:  ld @patch, r2
                nop
                mov #0, r1
                lim #60, r4
        loop:   add r1, #1, r1
        tgt:    add r1, #0, r3
                st r2, @tgt
                blo r1, r4, loop
                nop
                add r3, #0, r1
                trap #1
                trap #0
        patch:  .word 0
"""


def test_store_into_running_loop_matches_reference():
    """A loop that rewrites one of its own words every iteration stays
    exact: each store drops the word's handler if it has one."""
    from repro.asm.assembler import assemble

    program = assemble(STORE_INTO_LOOP_SOURCE)
    machines = []
    for fast in (True, False):
        machine = Machine(program)
        machine.memory.poke(program.symbol("patch"), program.memory[program.symbol("tgt")])
        machine.run(fast=fast)
        machines.append(machine)
    fast_m, ref_m = machines
    assert fast_m.output == [60]
    _assert_identical(fast_m, ref_m)
    # a dropped word that already ran in the burst ends it and runs once
    # on the reference stepper, so every other store finds a handler
    assert fast_m.cpu.fastpath().stats.invalidations == 30


#: prints 100 five times; ``loop`` is hot long before the run ends
HOT_LOOP_SOURCE = """
        start:  mov #0, r3
        outer:  mov #0, r1
                lim #100, r2
        loop:   add r1, #1, r1
                blo r1, r2, loop
                nop
                trap #1
                add r3, #1, r3
                blo r3, #5, outer
                nop
                trap #0
"""


def test_external_write_mid_run_matches_reference():
    """A watch-hook write (the DMA and loader path) over a live, hot
    handler between two runs drops it; execution stays exact."""
    from repro.asm.assembler import assemble

    program = assemble(HOT_LOOP_SOURCE)
    entry = program.symbol("loop")
    machines = []
    for fast in (True, False):
        machine = Machine(program)
        machine.run_steps(700, fast=fast)
        machine.memory.poke(entry, program.memory[entry])
        machine.run(fast=fast)
        machines.append(machine)
    fast_m, ref_m = machines
    assert fast_m.output == [100] * 5
    _assert_identical(fast_m, ref_m)
    assert fast_m.cpu.fastpath().stats.invalidations == 1


def test_engine_stats_deterministic_across_runs():
    """Dispatch accounting is exact: the dispatch gate depends on it."""
    from dataclasses import asdict

    from repro.asm.assembler import assemble

    runs = []
    for _ in range(2):
        machine = Machine(assemble(HOT_LOOP_SOURCE))
        machine.run()
        runs.append(asdict(machine.cpu.fastpath().stats))
    assert runs[0] == runs[1]
    assert runs[0]["word_dispatches"] + runs[0]["ref_steps"] == machine.cpu.stats.words


def _kernel_pair(programs, patch=None, **options):
    """Boot one kernel per engine over ``programs`` and run both to exit.

    ``patch``, when given, is ``(steps, apply)``: both kernels first run
    ``steps`` words, then ``apply(kernel)`` changes each the same way.
    """
    kernels = []
    for fast in (True, False):
        kernel = Kernel(inputs=[5, 6], **options)
        for program in programs:
            kernel.add_process(program)
        if patch is not None:
            steps, apply = patch
            kernel.run_steps(steps, fast=fast)
            apply(kernel)
        kernel.run(fast=fast)
        kernels.append(kernel)
    return kernels


def _assert_kernels_identical(fast_k, ref_k):
    assert state_fingerprint(fast_k.cpu) == state_fingerprint(ref_k.cpu)
    assert fast_k.steps_run == ref_k.steps_run
    assert fast_k.physical._words == ref_k.physical._words
    assert fast_k.pagemap.stats.__dict__ == ref_k.pagemap.stats.__dict__
    fstats, rstats = fast_k.physical.stats, ref_k.physical.stats
    assert (fstats.reads, fstats.writes, fstats.fetches) == (
        rstats.reads,
        rstats.writes,
        rstats.fetches,
    )
    # page-map state, insertion order included, and the backing store
    for field in ("entries", "referenced", "dirty"):
        fmap, rmap = getattr(fast_k.pagemap, field), getattr(ref_k.pagemap, field)
        assert list(fmap.items()) == list(rmap.items()), field
    assert fast_k.disk.pages == ref_k.disk.pages
    assert (fast_k.disk.copies, fast_k.disk.writebacks) == (
        ref_k.disk.copies,
        ref_k.disk.writebacks,
    )
    for pid in range(len(fast_k.processes)):
        assert fast_k.output(pid) == ref_k.output(pid)
        assert fast_k.process_state(pid) == ref_k.process_state(pid)


@pytest.mark.parametrize(
    "quantum,max_frames", ((0, None), (700, None), (500, 8)),
    ids=("run-to-exit", "preemptive", "paging-pressure"),
)
def test_kernel_differential(quantum, max_frames):
    """Batched Kernel.run is exact: steps, timer quanta, paging, output."""
    programs = [
        compile_source(CORPUS[name]).program for name in ("fib_iterative", "calc")
    ]
    _assert_kernels_identical(
        *_kernel_pair(programs, quantum=quantum, max_frames=max_frames)
    )


@pytest.mark.parametrize(
    "mode", (HazardMode.BARE, HazardMode.CHECKED), ids=("bare", "checked")
)
def test_kernel_differential_four_processes(mode):
    """Four processes, one MiniJava, 3 frames each: user-mode words run
    on mapped handlers and every page-map side effect stays exact."""
    from repro.mjlang import compile_minijava
    from repro.workloads import MINIJAVA_CORPUS

    programs = [
        compile_source(CORPUS[name]).program for name in ("fib_iterative", "calc", "sieve")
    ] + [compile_minijava(MINIJAVA_CORPUS["mj_list"]).program]
    fast_k, ref_k = _kernel_pair(
        programs, quantum=1000, max_frames=12, hazard_mode=mode
    )
    _assert_kernels_identical(fast_k, ref_k)
    assert ref_k.pagemap.stats.victims_suggested > 0  # the cap evicts
    engine = fast_k.cpu.fastpath()
    assert engine.stats.ref_steps / fast_k.cpu.stats.words < 0.1
    # no code was written, so every eviction and reload kept its handlers
    assert engine.stats.invalidations == 0


#: stores over its own already-executed ``loop`` word and, in pass one,
#: runs it again at once, while its page is still mapped.  Later passes
#: first sweep three data pages, so that in two frames the code page is
#: evicted (dirty, so written back) and demand-loaded again.  The two
#: words after a process starts or a trap returns come from the stream
#: ``rfs`` forces (reference steps); nops keep ``loop`` and the store
#: out of it, so both run on the fast path.
KERNEL_SELF_MODIFY_SOURCE = """
        start:  mov #0, r5
                nop
                nop
        loop:   mov #1, r1      ; overwritten with `movi #2,r1` in pass one
                trap #1
                nop
                nop
                ld @patch, r2
                nop
                st r2, @loop
                add r5, #1, r5
                beq r5, #1, loop
                nop
                lim 256, r3
                st r5, 0(r3)
                lim 512, r3
                st r5, 0(r3)
                lim 768, r3
                st r5, 0(r3)
                blo r5, #3, loop
                nop
                trap #0
        patch:  .word {patched}
"""


def test_kernel_self_modifying_code_across_eviction():
    """A user store over its own executed code takes effect, and stays
    in effect after the page is evicted and reloaded."""
    from repro.asm.assembler import assemble

    patched = encode(InstructionWord.single(MovImm(2, Reg(1))))
    program = assemble(KERNEL_SELF_MODIFY_SOURCE.format(patched=patched))
    fast_k, ref_k = _kernel_pair([program], quantum=0, max_frames=2)
    _assert_kernels_identical(fast_k, ref_k)
    assert fast_k.output(0) == [1, 2, 2]
    assert ref_k.disk.writebacks > 0
    assert ref_k.disk.copies > 4  # more loads than the four pages touched


#: prints 1 three times, spinning between the prints (the nops as above)
KERNEL_SPIN_SOURCE = """
        start:  mov #0, r5
                nop
                nop
        loop:   mov #1, r1
                trap #1
                lim 2000, r6
        spin:   sub r6, #1, r6
                bne r6, #0, spin
                nop
                add r5, #1, r5
                blo r5, #3, loop
                nop
                trap #0
"""


def test_remap_revalidates_changed_code():
    """Code changed while its page is unmapped is not served stale.

    Mid-run, both kernels unmap the code page, rewrite the already
    executed ``loop`` word in its frame, and map the page back.  The
    fast path keeps handlers across remaps, so only the comparison of
    compiled bits with the frame's contents can catch the change.
    """
    from repro.asm.assembler import assemble
    from repro.system.mapping import PAGE_SHIFT

    program = assemble(KERNEL_SPIN_SOURCE)
    loop = program.symbol("loop")
    patched = encode(InstructionWord.single(MovImm(2, Reg(1))))

    def rewrite(kernel):
        assert kernel.output(0) == [1]
        page = loop >> PAGE_SHIFT  # process 0: system and virtual pages agree
        frame = kernel.pagemap.entries[page]
        kernel.pagemap.unmap_page(page)
        kernel.physical.poke((frame << PAGE_SHIFT) + loop, patched)
        kernel.pagemap.map_page(page, frame)

    fast_k, ref_k = _kernel_pair([program], patch=(3000, rewrite), quantum=0)
    _assert_kernels_identical(fast_k, ref_k)
    assert fast_k.output(0) == [1, 2, 2]


def test_shared_handler_shapes_compile_like_their_source(monkeypatch):
    """A handler built from a shared shape runs the bytecode its own
    source compiles to (constants compared by value and type)."""
    import dis
    import types

    from repro.sim import fastpath

    built = []
    make = fastpath._make_handler

    def record(src, env):
        handler = make(src, env)
        built.append((src, handler))
        return handler

    def listing(code):
        return [
            (ins.opname, type(ins.argval).__name__, ins.argval)
            for ins in dis.get_instructions(code)
        ]

    monkeypatch.setattr(fastpath, "_make_handler", record)
    programs = [compile_source(CORPUS[name]).program for name in ("calc", "strings")]
    _kernel_pair(programs, quantum=700, max_frames=8)
    for mode in MODES:
        opt = OptLevel.NONE if mode is HazardMode.INTERLOCKED else OptLevel.BRANCH_DELAY
        _run_pair(compile_source(CORPUS["sort"], opt_level=opt).program, mode)
    assert len(built) > 1000
    for src, handler in built:
        module = compile(src, "<handler>", "exec")
        direct = next(c for c in module.co_consts if isinstance(c, types.CodeType))
        assert listing(handler.__code__) == listing(direct), src
