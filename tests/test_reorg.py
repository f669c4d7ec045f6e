"""The reorganizer: DAG, scheduling, packing, branch-delay filling.

The headline property: every optimization level produces a program that
computes the same results, verified under the CHECKED hazard mode (a
violated pipeline constraint raises instead of corrupting silently).
"""

import pytest

from repro.asm import assemble_pieces
from repro.isa.operations import AluOp, Comparison
from repro.isa.pieces import Alu, CompareBranch, Displacement, Imm, Load, Store
from repro.isa.registers import Reg
from repro.reorg import (
    ALL_LEVELS,
    DepKind,
    DependenceDag,
    FlowGraph,
    LOAD_DELAY,
    OptLevel,
    liveness,
    min_distance,
    reorganize,
    reorganize_all_levels,
    split_blocks,
)
from repro.sim import HazardMode, Machine


class TestPipelineModel:
    def test_load_consumer_distance(self):
        load = Load(Displacement(Reg(1), 0), Reg(2))
        assert min_distance(load, DepKind.RAW) == 1 + LOAD_DELAY

    def test_alu_consumer_distance(self):
        alu = Alu(AluOp.ADD, Reg(1), Reg(2), Reg(3))
        assert min_distance(alu, DepKind.RAW) == 1

    def test_anti_dependence_allows_same_word(self):
        alu = Alu(AluOp.ADD, Reg(1), Reg(2), Reg(3))
        assert min_distance(alu, DepKind.WAR) == 0


class TestDag:
    def _dag(self, source):
        return DependenceDag([p for _l, p in assemble_pieces(source)])

    def test_raw_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r3, r4, r5")
        assert dag.nodes[0].succs == {1: 1}

    def test_load_use_edge_distance_two(self):
        dag = self._dag("ld 0(r1), r2\nadd r2, r3, r4")
        assert dag.nodes[0].succs[1] == 2

    def test_independent_pieces_have_no_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r6")
        assert not dag.nodes[0].succs

    def test_war_edge_distance_zero(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r1")
        assert dag.nodes[0].succs == {1: 0}

    def test_waw_edge(self):
        dag = self._dag("add r1, r2, r3\nadd r4, r5, r3")
        assert dag.nodes[0].succs == {1: 1}

    def test_store_load_alias_conservative(self):
        dag = self._dag("st r1, (r2+r3)\nld 0(r4), r5")
        assert 1 in dag.nodes[0].succs

    def test_disjoint_displacements_not_ordered(self):
        dag = self._dag("st r1, 0(r2)\nld 1(r2), r3")
        assert 1 not in dag.nodes[0].succs

    def test_same_displacement_ordered(self):
        dag = self._dag("st r1, 0(r2)\nld 0(r2), r3")
        assert dag.nodes[0].succs[1] == 1

    def test_rewritten_base_defeats_disambiguation(self):
        dag = self._dag("st r1, 0(r2)\nadd r2, #4, r2\nld 1(r2), r3")
        assert 2 in dag.nodes[0].succs  # cannot prove disjoint any more

    def test_absolutes_are_order_pinned(self):
        """Distinct absolute addresses stay ordered: the absolute window
        hosts memory-mapped devices with select-then-trigger protocols
        (this once let the scheduler swap the kernel's DISK_PAGE select
        and DISK_FRAME trigger, paging in the wrong page)."""
        dag = self._dag("st r1, @100\nst r2, @101")
        assert 1 in dag.nodes[0].succs

    def test_absolute_loads_are_order_pinned(self):
        """Device reads have side effects (input queues, fault latches):
        two absolute loads must not commute."""
        dag = self._dag("ld @100, r1\nld @101, r2")
        assert 1 in dag.nodes[0].succs

    def test_displacement_loads_still_commute(self):
        dag = self._dag("ld 0(r5), r1\nld 1(r5), r2")
        assert 1 not in dag.nodes[0].succs

    def test_flow_is_a_barrier(self):
        dag = self._dag("add r1, r2, r3\nstart2: jmp start2\n")
        assert 1 in dag.nodes[0].succs

    def test_heights_follow_critical_path(self):
        dag = self._dag("ld 0(r1), r2\nadd r2, r3, r4\nadd r4, r5, r6")
        assert dag.nodes[0].height > dag.nodes[1].height > dag.nodes[2].height

    def test_topological_check(self):
        dag = self._dag("add r1, r2, r3\nadd r3, r4, r5")
        assert dag.topological_check([0, 1])
        assert not dag.topological_check([1, 0])

    def test_fences_and_aliases_are_reduced(self):
        """A run of loads between two barriers: one edge in and one out
        per load, not one per pair; absolute stores form a chain."""
        source = "\n".join(
            ["mov r1, lo"] + [f"ld {k}(r5), r{k + 6}" for k in range(6)] + ["trap #0"]
        )
        dag = self._dag(source)
        assert sum(len(n.succs) for n in dag.nodes) == 12
        chain = self._dag("\n".join(f"st r1, @{100 + k}" for k in range(5)))
        assert [sorted(n.succs) for n in chain.nodes] == [[1], [2], [3], [4], []]


def _reference_dag(pieces):
    """The all-pairs DAG: every ordered pair checked for every reason.

    The oracle the table-driven builder is held to.  Returns one
    ``{successor: distance}`` dict per node plus the node heights.
    """
    from repro.reorg.dag import _addresses_disjoint, _is_io_like
    from repro.reorg.pipeline_model import is_barrier

    succs = [{} for _ in pieces]
    for j, later in enumerate(pieces):
        j_reads = later.reads() | later.reads_special()
        j_writes = later.writes() | later.writes_special()
        base_written = False
        for i in range(j - 1, -1, -1):
            earlier = pieces[i]
            i_reads = earlier.reads() | earlier.reads_special()
            i_writes = earlier.writes() | earlier.writes_special()
            kinds = []
            if is_barrier(earlier) or is_barrier(later) or earlier.is_flow or later.is_flow:
                kinds.append(DepKind.ORDER)
            if i_writes & j_reads:
                kinds.append(DepKind.RAW)
            if i_reads & j_writes:
                kinds.append(DepKind.WAR)
            if i_writes & j_writes:
                kinds.append(DepKind.WAW)
            if later.is_memory and earlier.is_memory:
                io_pair = _is_io_like(earlier) and _is_io_like(later)
                either_stores = earlier.is_store or later.is_store
                if io_pair or (
                    either_stores and not _addresses_disjoint(earlier, later, base_written)
                ):
                    kinds.append(DepKind.MEM)
            if kinds:
                succs[i][j] = max(min_distance(earlier, kind) for kind in kinds)
            if later.is_memory and isinstance(later.addr, Displacement):
                if later.addr.base in i_writes:
                    base_written = True
    heights = [0] * len(pieces)
    for i in reversed(range(len(pieces))):
        if succs[i]:
            heights[i] = max(max(d, 1) + heights[s] for s, d in succs[i].items())
    return succs, heights


def _longest_paths_from(dag, source):
    """Largest summed distance from ``source`` to every node (-1: none)."""
    best = [-1] * len(dag.nodes)
    best[source] = 0
    for k in range(source, len(dag.nodes)):
        if best[k] < 0:
            continue
        for succ, dist in dag.nodes[k].succs.items():
            best[succ] = max(best[succ], best[k] + dist)
    return best


class TestDagEquivalence:
    """The table-driven DAG against the all-pairs reference.

    An edge may be left out only when a path with at least its summed
    distance implies it; heights must match exactly, and the builder
    may add no edge the reference lacks (nor a longer one).
    """

    def test_matches_all_pairs_reference(self, reorg_golden):
        blocks = 0
        for name, stream, _entry in reorg_golden.golden_streams():
            for block in FlowGraph.build(stream).blocks:
                pieces = block.pieces
                if not pieces:
                    continue
                blocks += 1
                dag = DependenceDag(pieces)
                succs, heights = _reference_dag(pieces)
                where = f"{name} block {block.index}"
                assert [n.height for n in dag.nodes] == heights, where
                for node in dag.nodes:
                    for succ, dist in node.succs.items():
                        assert dist <= succs[node.index].get(succ, -1), (where, node.index, succ)
                for i, edges in enumerate(succs):
                    if not edges:
                        continue
                    reach = _longest_paths_from(dag, i)
                    for succ, dist in edges.items():
                        assert reach[succ] >= dist, (where, i, succ, dist, reach[succ])
        assert blocks > 1000


class TestBlocks:
    def test_split_on_labels_and_flow(self):
        stream = assemble_pieces(
            "a: add r1, r2, r3\njmp c\nb: add r1, r2, r3\nc: nop"
        )
        blocks = split_blocks(stream)
        assert len(blocks) == 3
        assert blocks[0].label == "a" and blocks[0].flow is not None
        assert blocks[1].label == "b" and blocks[1].falls_through
        assert blocks[2].label == "c"

    def test_fallthrough_links(self):
        stream = assemble_pieces("a: nop\nb: beq r1, #0, a\nnop")
        graph = FlowGraph.build(stream)
        assert graph.successors[1] == [0, 2]

    def test_unconditional_jump_does_not_fall_through(self):
        stream = assemble_pieces("a: jmp a\nb: nop")
        graph = FlowGraph.build(stream)
        assert graph.successors[0] == [0]

    def test_liveness_simple_loop(self):
        stream = assemble_pieces(
            """
            top:    add r1, #1, r1
                    bne r1, r2, top
                    mov r3, r4
            """
        )
        graph = FlowGraph.build(stream)
        live = liveness(graph)
        assert Reg(1) in live[0]
        assert Reg(2) in live[0]

    def test_liveness_conservative_at_stream_exit(self):
        stream = assemble_pieces("a: trap #0")
        graph = FlowGraph.build(stream)
        live = liveness(graph)
        assert len(live[0]) == 16  # everything live: unknown continuation


SEMANTIC_CASES = {
    "straight-line": """
        start:  mov #3, r2
                movi #100, r3
                add r2, r3, r4
                st r4, @64
                ld @64, r5
                add r5, #1, r1
                trap #1
                trap #0
    """,
    "load-chains": """
        start:  lim #4096, r2
                mov #5, r3
                st r3, 0(r2)
                ld 0(r2), r4
                add r4, r4, r5
                st r5, 1(r2)
                ld 1(r2), r6
                add r6, #1, r1
                trap #1
                trap #0
    """,
    "loop": """
        start:  mov #0, r1
                mov #10, r2
        top:    add r1, r2, r1
                sub r2, #1, r2
                bne r2, #0, top
                trap #1
                trap #0
    """,
    "byte-ops": """
        start:  movi #65, r2
                lim #16384, r3
                sll r3, #2, r4
                add r4, #2, r4
                ld (r4>>2), r5
                mov r4, lo
                ic r2, r5
                st r5, (r4>>2)
                ld 0(r3), r6
                srl r6, #15, r1
                srl r1, #1, r1
                trap #1
                trap #0
    """,
    "diamond": """
        start:  mov #7, r2
                ble r2, #10, less
                mov #1, r3
                jmp join
                nop
        less:   mov #2, r3
        join:   add r3, r2, r1
                trap #1
                trap #0
    """,
}


class TestSemanticEquivalence:
    @pytest.mark.parametrize("name", sorted(SEMANTIC_CASES))
    def test_all_levels_agree(self, name):
        stream = assemble_pieces(SEMANTIC_CASES[name])
        outputs = {}
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(100_000)
            outputs[level] = machine.output
        values = list(outputs.values())
        assert all(v == values[0] for v in values), outputs

    @pytest.mark.parametrize("name", sorted(SEMANTIC_CASES))
    def test_levels_monotonically_improve(self, name):
        stream = assemble_pieces(SEMANTIC_CASES[name])
        counts = [reorganize(stream, level).static_count for level in ALL_LEVELS]
        assert counts == sorted(counts, reverse=True)


class TestReorganizerStructure:
    def test_none_level_keeps_source_order(self):
        stream = assemble_pieces("start: add r1, r2, r3\nadd r4, r5, r6\ntrap #0")
        result = reorganize(stream, OptLevel.NONE)
        nonnop = [w for _l, w in result.words if not w.is_nop]
        assert repr(nonnop[0].pieces[0]).startswith("add r1")

    def test_none_inserts_load_delay_noop(self):
        stream = assemble_pieces("start: ld 0(r1), r2\nadd r2, r3, r4\ntrap #0")
        result = reorganize(stream, OptLevel.NONE)
        assert result.noop_count >= 1

    def test_reorganize_avoids_noop_when_possible(self):
        stream = assemble_pieces(
            "start: ld 0(r1), r2\nadd r2, r3, r4\nadd r5, r6, r7\ntrap #0"
        )
        none = reorganize(stream, OptLevel.NONE)
        reorg = reorganize(stream, OptLevel.REORGANIZE)
        assert reorg.noop_count < none.noop_count

    def test_packing_reduces_count(self):
        stream = assemble_pieces(
            """
            start:  ld 0(r10), r2
                    add #1, r5, r5
                    st r5, 1(r10)
                    add #2, r6, r6
                    trap #0
            """
        )
        pack = reorganize(stream, OptLevel.PACK)
        assert pack.packed_count >= 1

    def test_branch_delay_slots_left_as_noops_before_filling(self):
        stream = assemble_pieces("start: jmp start\nnop")
        result = reorganize(stream, OptLevel.PACK)
        assert result.noop_count >= 1

    def test_fill_stats_present_only_at_full_level(self):
        stream = assemble_pieces("start: jmp start")
        assert reorganize(stream, OptLevel.PACK).fill_stats is None
        assert reorganize(stream, OptLevel.BRANCH_DELAY).fill_stats is not None

    def test_to_program_resolves_labels(self):
        stream = assemble_pieces("start: jmp start")
        program = reorganize(stream, OptLevel.NONE).to_program()
        flow = program.fetch(program.symbols["start"]).flow
        assert flow.target == program.symbols["start"]

    def test_cross_block_load_hazard_fixed(self):
        # block ends with a load; the fall-through successor reads it
        stream = assemble_pieces(
            """
            start:  ld 0(r1), r2
            next:   add r2, r3, r4
                    trap #0
            """
        )
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)  # CHECKED raises if the fixup failed


class TestDelayFilling:
    def test_hoist_moves_independent_word(self):
        stream = assemble_pieces(
            """
            start:  add r4, #1, r4
                    beq r1, #0, out
                    add r2, r2, r2
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        assert result.fill_stats.hoisted >= 1

    def test_branch_comparison_dependency_blocks_hoist(self):
        stream = assemble_pieces(
            """
            start:  add r1, #1, r1
                    beq r1, #0, out
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        assert result.fill_stats.hoisted == 0

    def test_loop_rotation_preserves_semantics(self):
        source = """
        start:  mov #0, r1
                movi #25, r2
        top:    add r1, r2, r1
                sub r2, #1, r2
                bne r2, #0, top
                mov r1, r1
                trap #1
                trap #0
        """
        stream = assemble_pieces(source)
        for level in (OptLevel.NONE, OptLevel.BRANCH_DELAY):
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(10_000)
            assert machine.output == [sum(range(1, 26))]

    def test_rotation_target_is_frozen_against_reordering(self):
        """Regression: a rotation split label points at a block's second
        word by offset; a later hoist inside that block must not reorder
        its prefix (this once mis-executed branching boolean code)."""
        source = """
        start:  mov #5, r9
                mov #7, r10
                mov #1, r2
                beq r9, #5, Lj
                nop
                mov #0, r2
        Lj:     mov r2, r8
                trap #0?
        """
        # the exact shape that exposed it: a forward jump rotated into a
        # block whose own conditional branch then wants to hoist
        program_source = """
        start:  mov #5, r9
                mov #7, r10
                beq r9, #0, Lelse
                mov #1, r1
                jmp Ljoin
        Lelse:  mov #2, r1
        Ljoin:  mov #1, r2
                bne r9, #4, Lsc
                mov #9, r2
        Lsc:    mov r2, r1
                trap #1
                trap #0
        """
        stream = assemble_pieces(program_source)
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)
            # r9 = 5: not 0 -> r1 := 1 path; join: r2 := 1; 5 != 4 so
            # branch to Lsc skips r2 := 9; result r2 == 1
            assert machine.output == [1], level

    def test_hoist_never_moves_link_register_traffic_past_jal(self):
        """Regression: a word that READS ra must not hoist into a jal's
        delay slot -- the slot executes after the link write, so the
        word would capture the callee's return address (this once sent
        a compiled function into an infinite self-return loop)."""
        source = """
        start:  mov #7, r15
                add r15, #1, r2    ; reads ra: must stay before the jal
                jal sub
                mov r2, r1
                trap #1
                trap #0
        sub:    jmpr ra
        """
        stream = assemble_pieces(source)
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol="start")
            machine = Machine(program, hazard_mode=HazardMode.CHECKED)
            machine.run(1000)
            assert machine.output == [8], level

    def test_stores_never_fill_speculatively(self):
        # the fall-through word is a store: must not move into the slot
        stream = assemble_pieces(
            """
            start:  beq r1, #0, out
                    st r2, 0(r3)
                    add r2, #1, r2
            out:    trap #0
            """
        )
        result = reorganize(stream, OptLevel.BRANCH_DELAY)
        words = [w for _l, w in result.words]
        branch_pos = next(
            i for i, w in enumerate(words) if w.flow is not None and not w.flow.is_flow is False
        )
        slot = words[branch_pos + 1]
        assert slot.mem is None or not slot.mem.is_store
