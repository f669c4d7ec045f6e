"""The ``fuzz`` workload: the differential oracle on programs never seen.

A closed loop with one in-process client.  A request generates one fuzz
case with ``make_case`` and checks it with ``check_case``: every
optimization level on the reference, fast and JIT engines, the CC
baseline where it compiles, and a chaos schedule on every eighth index.
Each case must come back ``ok``.  Round ``r`` is the cases of indices
``4r .. 4r+3`` of the default campaign (``mips-fuzz run`` seed 0) in
each mode -- a mini-Pascal AST program, a MiniJava program and a raw
instruction stream -- in an order the benchmark seed shuffles.  A run
serves ``seconds / ROUND_SECONDS`` rounds, so every seed measures the
same programs, none of them twice, and only the runtime library is
shared between requests.  Case cost varies tenfold between programs,
which is why the programs follow neither the benchmark seed nor the
host's speed.
"""

from __future__ import annotations

import itertools
import random

from common import Phase, Request, clock, closed_loop, timed_import

MODES = ("ast", "minijava", "words")
#: the default campaign's generator seed
FUZZ_SEED = 0
#: case indices per mode in one round
ROUND_INDICES = 4
#: nominal seconds of one round, sizing a run from ``--seconds``
ROUND_SECONDS = 8.0
#: what the oracle imports on its first case
MODULES = (
    "repro.fuzz", "repro.fuzz.oracle", "repro.ccmachine", "repro.chaos.engine",
    "repro.compiler.driver", "repro.mjlang", "repro.asm.assembler", "repro.sim.fastpath",
    "repro.sim.jit",
)


class Fuzz:
    name = "fuzz"
    in_process = True
    latency_limit_ms = None

    def __init__(self, root: str, seed: int, bench: dict):
        self.root = root
        self.seed = seed

    def setup(self) -> float:
        return timed_import(self.root, MODULES)

    def close(self) -> None:
        pass

    def _rounds(self):
        rng = random.Random(self.seed)
        for r in itertools.count():
            indices = range(ROUND_INDICES * r, ROUND_INDICES * (r + 1))
            cases = [(index, mode) for index in indices for mode in MODES]
            rng.shuffle(cases)
            yield cases

    def _serve(self, item) -> Request:
        import repro.fuzz as fuzz

        index, mode = item
        start = clock()
        case = fuzz.make_case(FUZZ_SEED, index, mode)
        result = fuzz.check_case(case)
        end = clock()
        error = None
        if result.status != "ok":
            error = f"{result.status}: {result.divergences}; replay: {case.replay_command}"
        return Request(case.name, end - start, error is None, error, exact=result.digest)

    def measure(self, seconds: float, count: int = 0, tracer=None) -> Phase:
        count = count or max(1, int(seconds // ROUND_SECONDS)) * ROUND_INDICES * len(MODES)
        phase, rounds = closed_loop(self._rounds(), self._serve, seconds, count, tracer)
        phase.extra = {"rounds": rounds}
        return phase
