"""Machine-level dependence DAG for one basic block.

Paper, section 4.2.1, step 1 of the algorithm: "Read in a basic block
and create a machine-level dag that represents the dependencies between
individual instruction pieces."

Nodes are instruction pieces (by position); edges carry the minimum
word distance from :mod:`repro.reorg.pipeline_model`.  Memory ordering
uses a small alias analysis: two references provably distinct (different
absolute addresses, or same unmodified base register with different
displacements) need no edge; everything else is conservatively ordered
("The algorithm must also avoid reordering loads and stores that might
be aliased").

The builder makes one pass over the block.  A per-register table (last
writer, readers since that write) gives the register edges; a fence
(barrier or flow piece) gets edges only from the pieces since the
previous fence that have no successor yet, and a piece after a fence
gets an edge from it only when nothing since the fence precedes it.
The resulting DAG omits an all-pairs edge only where a path with at
least the same summed distance implies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..isa.pieces import Absolute, Displacement, Piece
from .pipeline_model import DepKind, is_barrier, min_distance


@dataclass
class DagNode:
    """One piece and its dependence edges (indices into the block)."""

    index: int
    piece: Piece
    #: successors: node index -> required minimum word distance
    succs: Dict[int, int] = field(default_factory=dict)
    #: predecessors: node index -> required minimum word distance
    preds: Dict[int, int] = field(default_factory=dict)
    #: longest path (in words) from this node to any sink
    height: int = 0


def _addresses_disjoint(
    first: Piece, second: Piece, base_written_between: bool
) -> bool:
    """True when two memory references provably touch different words.

    Absolute addresses are *never* disjoint from each other: the
    absolute window hosts memory-mapped device registers, whose access
    order is semantics (select-then-trigger protocols), not just data.
    """
    a, b = first.addr, second.addr  # type: ignore[union-attr]
    if (
        isinstance(a, Displacement)
        and isinstance(b, Displacement)
        and a.base == b.base
        and not base_written_between
    ):
        return a.disp != b.disp
    return False


def _is_io_like(piece: Piece) -> bool:
    """Memory pieces whose order must be pinned even against other reads."""
    return piece.is_memory and isinstance(piece.addr, Absolute)  # type: ignore[union-attr]


class DependenceDag:
    """The dependence DAG over a basic block's pieces."""

    def __init__(self, pieces: Sequence[Piece]):
        self.nodes: List[DagNode] = [DagNode(i, p) for i, p in enumerate(pieces)]
        self._build()
        self._compute_heights()

    def _add_edge(self, pred: int, succ: int, kind: DepKind) -> None:
        distance = min_distance(self.nodes[pred].piece, kind)
        node = self.nodes[pred]
        if succ in node.succs:
            distance = max(distance, node.succs[succ])
        node.succs[succ] = distance
        self.nodes[succ].preds[pred] = distance

    def _build(self) -> None:
        """One pass over the block, O(pieces + accesses + memory pairs).

        A per-register table (last writer, readers since that write)
        yields RAW, WAR and WAW edges; fences (barriers and flow pieces)
        and memory references get only the edges no path implies.  An
        edge i->j is left out only when a path i->...->j whose distances
        sum to at least its own already exists, so readiness, heights
        and :meth:`independent` match the all-pairs DAG's.
        """
        last_writer: Dict[object, int] = {}
        readers: Dict[object, List[int]] = {}
        memory: List[int] = []
        fence: Optional[int] = None  # most recent barrier or flow piece
        for j, node in enumerate(self.nodes):
            piece = node.piece
            is_fence = piece.is_flow or is_barrier(piece)
            if is_fence:
                # everything since the last fence precedes this one; a
                # piece with a successor reaches it through that successor
                for i in range(0 if fence is None else fence, j):
                    if not self.nodes[i].succs:
                        self._add_edge(i, j, DepKind.ORDER)

            reads = piece.reads() | piece.reads_special()
            writes = piece.writes() | piece.writes_special()
            for reg in reads:
                if reg in last_writer:
                    self._add_edge(last_writer[reg], j, DepKind.RAW)
            if piece.is_memory:
                self._memory_edges(j, memory, last_writer)
                memory.append(j)
            for reg in writes:
                for i in readers.pop(reg, ()):
                    self._add_edge(i, j, DepKind.WAR)
                if reg in last_writer:
                    self._add_edge(last_writer[reg], j, DepKind.WAW)
            for reg in reads - writes:
                readers.setdefault(reg, []).append(j)
            for reg in writes:
                last_writer[reg] = j

            if is_fence:
                fence = j
            elif fence is not None and all(p <= fence for p in node.preds):
                # nothing since the fence already orders this piece after it
                self._add_edge(fence, j, DepKind.ORDER)

    def _memory_edges(
        self, j: int, memory: List[int], last_writer: Dict[object, int]
    ) -> None:
        """Alias edges into memory reference ``j`` from earlier ones.

        Scans the earlier references newest first.  A conflicting store
        whose address is not a displacement conflicts with every earlier
        reference, so it ends the scan; after the first absolute
        reference, earlier absolute ones are ordered through it.
        """
        later = self.nodes[j].piece
        addr = later.addr  # type: ignore[union-attr]
        later_io = isinstance(addr, Absolute)
        # the last write of j's base register, for the alias check's
        # "base rewritten between the two references" rule
        base_writer = last_writer.get(addr.base, -1) if isinstance(addr, Displacement) else -1
        seen_io = False
        for i in reversed(memory):
            earlier = self.nodes[i].piece
            io_pair = later_io and _is_io_like(earlier)
            if io_pair and seen_io:
                continue
            either_stores = earlier.is_store or later.is_store
            if io_pair or (
                either_stores and not _addresses_disjoint(earlier, later, base_writer > i)
            ):
                self._add_edge(i, j, DepKind.MEM)
                if earlier.is_store and not isinstance(earlier.addr, Displacement):  # type: ignore[union-attr]
                    return
            seen_io = seen_io or io_pair

    def _compute_heights(self) -> None:
        for node in reversed(self.nodes):
            if node.succs:
                node.height = max(
                    max(dist, 1) + self.nodes[s].height for s, dist in node.succs.items()
                )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def topological_check(self, order: Sequence[int]) -> bool:
        """True when ``order`` respects every edge direction."""
        position = {index: at for at, index in enumerate(order)}
        return all(
            position[i] < position[s] for i in position for s in self.nodes[i].succs
        )
