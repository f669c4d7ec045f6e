"""Superblock JIT tests: discovery boundaries, invalidation, tiers.

The fusion tier (:mod:`repro.sim.jit`) must be invisible in every
architectural observable: the three engines (reference stepper, threaded
fast path, fast path + JIT) produce bit-identical registers, memory,
output, statistics, and profiles.  These tests pin the discovery rules
(where a superblock is allowed to end), the invalidation paths
(self-modifying stores, external/DMA writes, page-map changes), the
determinism of the dispatch counters, and the per-PC tier report.
"""

from dataclasses import asdict

import pytest

from repro.asm.assembler import assemble
from repro.compiler import compile_source
from repro.reorg import OptLevel
from repro.sim import HazardMode, Machine, state_fingerprint
from repro.sim import jit as jit_mod
from repro.system.mapping import PageMap
from repro.workloads import CORPUS

#: low enough that small test loops cross it within one burst flush
HOT = 16


def _jit_machine(source, **kwargs):
    """Machine with the JIT armed at a test-friendly heat threshold."""
    machine = Machine(assemble(source), **kwargs)
    machine.cpu.fastpath().enable_jit(threshold=HOT)
    return machine


def _assert_identical(a, b):
    assert state_fingerprint(a.cpu) == state_fingerprint(b.cpu)
    assert a.output == b.output
    assert a.char_output == b.char_output
    assert a.memory._words == b.memory._words
    astats, bstats = a.memory.stats, b.memory.stats
    assert (astats.reads, astats.writes, astats.fetches) == (
        bstats.reads,
        bstats.writes,
        bstats.fetches,
    )


# ---------------------------------------------------------------------------
# three-tier differential: jit == fast == precise on the corpus
# ---------------------------------------------------------------------------

PROGRAMS = ("sort", "scanner", "fib_iterative")
MODES = (HazardMode.BARE, HazardMode.CHECKED, HazardMode.INTERLOCKED)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROGRAMS)
def test_differential_jit_corpus(name, mode):
    """JIT tier agrees with the plain fast path on the workload corpus."""
    opt = OptLevel.NONE if mode is HazardMode.INTERLOCKED else OptLevel.BRANCH_DELAY
    program = compile_source(CORPUS[name], opt_level=opt).program
    machines = []
    for jit in (True, False):
        machine = Machine(program, hazard_mode=mode, inputs=[7, 3, 9])
        if jit:
            machine.cpu.fastpath().enable_jit(threshold=HOT)
        machine.run(60_000_000, fast=True)
        machines.append(machine)
    _assert_identical(*machines)


# ---------------------------------------------------------------------------
# a loop that actually fuses and runs through its superblock
# ---------------------------------------------------------------------------

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


def test_hot_loop_fuses_and_enters():
    """The hot loop crosses the threshold, fuses, and executes fused."""
    machine = _jit_machine(HOT_LOOP_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    assert machine.output == [100] * 5
    assert engine.stats.block_compiles >= 1
    assert engine.stats.block_entries >= 1
    assert engine.stats.fused_words >= 2
    # the fused loop is [loop, blo, nop] rooted at the back-edge target
    entry = machine.program.symbol("loop")
    (ctx,) = engine._contexts.values()
    assert entry in ctx.blocks
    assert ctx.blocks[entry].pcs == (entry, entry + 1, entry + 2)


def test_jit_run_equals_plain_fast_run():
    reference = Machine(assemble(HOT_LOOP_SOURCE))
    reference.run(fast=True)
    jitted = _jit_machine(HOT_LOOP_SOURCE)
    jitted.run(fast=True)
    _assert_identical(jitted, reference)


def test_engine_stats_deterministic_across_runs():
    """Two identical jit runs produce identical dispatch accounting."""
    runs = []
    for _ in range(2):
        machine = _jit_machine(HOT_LOOP_SOURCE)
        machine.run()
        runs.append(asdict(machine.cpu.fastpath().stats))
    assert runs[0] == runs[1]
    assert runs[0]["block_entries"] > 0


# ---------------------------------------------------------------------------
# discovery boundaries
# ---------------------------------------------------------------------------


def _discover_pcs(machine, entry):
    """Run the discovery walk rooted at ``entry``; member addresses."""
    engine = machine.cpu.fastpath()
    (ctx,) = engine._contexts.values()
    members = jit_mod._discover(engine, ctx, entry)
    return [pc for pc, _, _ in members or ()]


STRAIGHT_SOURCE = """
        start:  add r0, #1, r1
                add r1, #1, r2
                add r2, #1, r3
                add r3, #1, r4
                add r4, #1, r5
                add r5, #1, r6
                add r6, #1, r7
                add r7, #1, r8
                trap #0
"""


def test_discovery_splits_at_branch_targets():
    """A block never spans another branch target: jumps may land there."""
    machine = _jit_machine(STRAIGHT_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    start = machine.program.symbol("start")
    engine._branch_targets.add(start)
    engine._branch_targets.add(start + 3)
    assert _discover_pcs(machine, start) == [start, start + 1, start + 2]


def test_discovery_splits_at_traps():
    """Reference-stepper words (traps) end the block before them."""
    machine = _jit_machine(STRAIGHT_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    start = machine.program.symbol("start")
    engine._branch_targets.add(start)
    # the full straight run: all eight adds, never the trap word
    assert _discover_pcs(machine, start) == list(range(start, start + 8))


PAGE_CROSS_SOURCE = """
        .org 250
        start:  add r0, #1, r1
                add r1, #1, r2
                add r2, #1, r3
                add r3, #1, r4
                add r4, #1, r5
                add r5, #1, r6
                add r6, #1, r7
                add r7, #1, r8
                trap #0
"""


def test_discovery_never_crosses_a_page_boundary():
    """Fusion stops at the 256-word page edge (mapping granularity)."""
    machine = _jit_machine(PAGE_CROSS_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    engine._branch_targets.add(250)
    assert _discover_pcs(machine, 250) == [250, 251, 252, 253, 254, 255]


def test_short_straight_runs_are_not_fused():
    """A non-looping block below MIN_STRAIGHT_WORDS cannot pay for its
    own entry overhead, so build_block declines it."""
    machine = _jit_machine(STRAIGHT_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    (ctx,) = engine._contexts.values()
    start = machine.program.symbol("start")
    engine._branch_targets.add(start)
    engine._branch_targets.add(start + 4)  # caps the run at 4 words
    assert jit_mod.build_block(engine, ctx, start) is None


# ---------------------------------------------------------------------------
# invalidation: self-modifying stores, external (DMA) writes, remaps
# ---------------------------------------------------------------------------

SMC_OUTSIDE_SOURCE = """
        start:  mov #0, r5
                ld @patch, r9
                nop
        outer:  mov #0, r1
                lim #50, r4
        loop:   add r1, #1, r1
                add r1, #0, r6
        tgt:    add r6, #0, r7
                blo r1, r4, loop
                nop
                add r7, #0, r1
                trap #1
                st r9, @tgt
                add r5, #1, r5
                blo r5, #4, outer
                nop
                trap #0
        patch:  .word 0
"""


def test_store_into_fused_region_invalidates_block():
    """A store over a fused member drops the block; semantics follow the
    patched instruction exactly as on the other engines."""
    program = assemble(SMC_OUTSIDE_SOURCE)
    # patch tgt from `add r6, #0, r7` to a copy of the word before it
    # (`add r1, #0, r6` -> r7 keeps its stale value, visibly changing
    # the output stream after the first outer pass)
    patched_bits = program.memory[program.symbol("loop") + 1]
    machines = []
    for fast, jit in ((True, True), (True, False), (False, False)):
        machine = Machine(program)
        if jit:
            machine.cpu.fastpath().enable_jit(threshold=HOT)
        machine.memory.poke(program.symbol("patch"), patched_bits)
        machine.run(fast=fast)
        machines.append(machine)
    jitted, fast_m, ref_m = machines
    _assert_identical(jitted, fast_m)
    _assert_identical(fast_m, ref_m)
    stats = jitted.cpu.fastpath().stats
    assert stats.block_compiles >= 1
    assert stats.block_invalidations >= 1


SMC_INSIDE_SOURCE = """
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


def test_store_fused_inside_its_own_block_exits_via_epoch():
    """A fused store hitting the block's own region must stop the block
    before any stale member runs (the epoch check), then re-fuse."""
    program = assemble(SMC_INSIDE_SOURCE)
    # store rewrites tgt with its own original bits: semantically a
    # no-op, but each write invalidates the compiled word and block
    original_bits = program.memory[program.symbol("tgt")]
    machines = []
    for jit in (True, False):
        machine = Machine(program)
        if jit:
            machine.cpu.fastpath().enable_jit(threshold=HOT)
        machine.memory.poke(program.symbol("patch"), original_bits)
        machine.run(fast=True)
        machines.append(machine)
    jitted, plain = machines
    assert jitted.output == [60]
    _assert_identical(jitted, plain)
    stats = jitted.cpu.fastpath().stats
    assert stats.block_invalidations >= 1
    assert jitted.cpu.fastpath()._block_epoch[0] >= 1


def test_external_write_drops_block_mid_run():
    """A watch-hook write (the DMA/loader path) lands mid-run: the block
    is dropped and execution continues bit-identical to never-JIT."""
    program = assemble(HOT_LOOP_SOURCE)
    entry = program.symbol("loop")
    pause = 700  # mid-run boundary: past the first fused outer pass
    machines = []
    for jit in (True, False):
        machine = Machine(program)
        if jit:
            machine.cpu.fastpath().enable_jit(threshold=HOT)
        machine.run_steps(pause, fast=True)
        # rewrite a block member with its own bits through poke: value-
        # identical, but it must still invalidate (address-based check)
        machine.memory.poke(entry, program.memory[entry])
        machine.run(fast=True)
        machines.append(machine)
    jitted, plain = machines
    _assert_identical(jitted, plain)
    engine = jitted.cpu.fastpath()
    assert engine.stats.block_compiles >= 2  # dropped once, re-fused
    assert engine.stats.block_invalidations >= 1


def test_pagemap_change_drops_all_blocks():
    """A page-map mutation conservatively flushes every fused block."""
    machine = _jit_machine(HOT_LOOP_SOURCE)
    engine = machine.cpu.fastpath()
    machine.run_steps(700, fast=True)
    (ctx,) = engine._contexts.values()
    assert ctx.blocks, "precondition: a block fused before the remap"
    pagemap = PageMap()
    pagemap.change_hook = engine._on_pagemap_change  # as MappedMemory wires it
    pagemap.map_page(3, 7)
    assert not ctx.blocks
    assert not engine._block_members
    assert engine.stats.block_invalidations >= 1
    # execution resumes on per-word handlers and stays exact
    machine.run(fast=True)
    plain = Machine(machine.program)
    plain.run(fast=True)
    _assert_identical(machine, plain)


# ---------------------------------------------------------------------------
# tier reporting
# ---------------------------------------------------------------------------


def test_tier_reports_fused_threaded_interpreted():
    machine = _jit_machine(HOT_LOOP_SOURCE)
    machine.run()
    engine = machine.cpu.fastpath()
    loop = machine.program.symbol("loop")
    assert engine.tier(loop) == "fused"
    assert engine.tier(loop + 1) == "fused"
    assert engine.tier(machine.program.symbol("start")) == "threaded"
    assert engine.tier(0x3FFF) == "interpreted"  # never executed


def test_profile_tiers_are_opt_in():
    """Profiles carry tier keys only when explicitly requested, so
    farm/corpus profiles stay byte-identical across engines."""
    from repro.perf import Profiler, build_profile

    machine = _jit_machine(HOT_LOOP_SOURCE)
    Profiler().attach(machine.cpu)
    machine.run()
    plain = build_profile(machine.cpu, machine.program)
    assert all("tier" not in entry for entry in plain["hot"])
    tiered = build_profile(machine.cpu, machine.program, tiers=True)
    assert any(entry.get("tier") == "fused" for entry in tiered["hot"])
    # identical apart from the annotation
    for entry in tiered["hot"]:
        entry.pop("tier", None)
    assert tiered == plain
