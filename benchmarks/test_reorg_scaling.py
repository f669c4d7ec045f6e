"""The reorganizer's DAG grows with the block, not with its square.

A deterministic count, not a clock: over every corpus program's basic
blocks (the DAGs the ``pack`` level schedules), the dependence DAG may
hold at most five edges per piece.  The all-pairs builder this replaced
held about 12.9 per piece over the corpus and 124 per piece in ``calc``'s
largest block, so a return to pairwise edges fails here at once.
"""

from repro.compiler.driver import piece_stream
from repro.reorg import DependenceDag, FlowGraph
from repro.workloads import CORPUS

MAX_EDGES_PER_PIECE = 5


def test_dag_edges_per_piece_bounded():
    pieces = edges = 0
    for source in CORPUS.values():
        for block in FlowGraph.build(piece_stream(source)).blocks:
            if not block.pieces:
                continue
            dag = DependenceDag(block.pieces)
            pieces += len(dag)
            edges += sum(len(node.succs) for node in dag.nodes)
    ratio = edges / pieces
    print(f"\n{edges} DAG edges over {pieces} pieces = {ratio:.2f} per piece")
    assert ratio <= MAX_EDGES_PER_PIECE, (
        f"{ratio:.2f} DAG edges per piece over the corpus "
        f"(limit {MAX_EDGES_PER_PIECE}; {edges} edges, {pieces} pieces)"
    )
