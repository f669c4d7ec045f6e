"""The ``multiprog`` workload: the paper's section 3 operating system.

A closed loop with one in-process client.  A request boots a fresh
:class:`~repro.system.kernel.Kernel` with 2 to 4 corpus programs as
processes and runs it until every process exits; each process's console
output must match its oracle.  A round runs every program of
:data:`PROGRAMS` once under each kernel configuration of
:data:`CONFIGS`, from ample down to frame caps tight enough that the
clock algorithm evicts and writes dirty pages back.  The groups are
fixed; the seed orders the processes of each kernel, which changes its
scheduling and paging, and the requests of each round.  Only whole
rounds are measured, so every seed runs the same groups under the same
configurations.  The images are compiled in set-up, so the reorganizer
works here only on the kernel ROM each boot builds.
"""

from __future__ import annotations

import random

from common import Phase, Request, clock, closed_loop, timed_setup

#: corpus programs short enough to run mapped (every user-mode word is
#: reference-stepped); hashsym and the puzzles would dominate a round
PROGRAMS = (
    "scanner", "strings", "sieve", "calc", "fib_iterative", "logic",
    "mj_list", "mj_tree", "mj_shapes",
)
#: processes per kernel, one group of each size per configuration (the
#: sizes sum to len(PROGRAMS)); each configuration rotates the program
#: list by two before splitting it, so groups differ between them
GROUP_SIZES = (2, 3, 4)
#: (timer quantum in cycles, user frames per process); None is the
#: whole pool.  The cap scales with the process count so that no
#: grouping thrashes far beyond the others.
CONFIGS = ((10_000, None), (2_500, 6), (1_000, 4), (1_000, 3))
MAX_STEPS = 300_000_000


class Multiprog:
    name = "multiprog"
    in_process = True
    latency_limit_ms = None

    def __init__(self, root: str, seed: int, bench: dict):
        self.seed = seed

    def _compile_all(self) -> None:
        import repro.compiler.driver as driver
        import repro.mjlang as mjlang
        from repro.workloads import CORPUS, MINIJAVA_CORPUS

        self.images = {
            name: (
                mjlang.compile_minijava(MINIJAVA_CORPUS[name])
                if name in MINIJAVA_CORPUS
                else driver.compile_source(CORPUS[name])
            ).program
            for name in PROGRAMS
        }

    def setup(self) -> float:
        import repro.sim.fastpath  # noqa: F401 -- imported lazily by the first boot
        from repro.workloads import EXPECTED_OUTPUT, MINIJAVA_EXPECTED

        self.expected = {**EXPECTED_OUTPUT, **MINIJAVA_EXPECTED}
        return timed_setup(self._compile_all)

    def close(self) -> None:
        pass

    def _rounds(self):
        rng = random.Random(self.seed)
        while True:
            requests = []
            for k, config in enumerate(CONFIGS):
                names = PROGRAMS[2 * k:] + PROGRAMS[:2 * k]
                for size in GROUP_SIZES:
                    group = list(names[:size])
                    rng.shuffle(group)
                    requests.append((tuple(group), config))
                    names = names[size:]
            rng.shuffle(requests)
            yield requests

    def _serve(self, group, config, totals) -> Request:
        from repro.system.kernel import Kernel

        quantum, per_process = config
        frames = per_process and per_process * len(group)
        label = f"{'+'.join(group)}@q{quantum}/f{frames}"
        start = clock()
        kernel = Kernel(quantum=quantum, max_frames=frames)
        for name in group:
            kernel.add_process(self.images[name])
        kernel.run(MAX_STEPS)
        end = clock()
        stats = kernel.cpu.stats
        totals["sim_words"] += stats.words
        totals["sim_cycles"] += stats.cycles
        errors = [
            f"pid {pid} ({name}) output {kernel.output(pid)} != oracle {self.expected[name]}"
            for pid, name in enumerate(group)
            if kernel.output(pid) != self.expected[name]
        ]
        paging = kernel.pagemap.stats
        return Request(
            label,
            end - start,
            not errors,
            "; ".join(errors) or None,
            exact=(stats.cycles, stats.words, paging.faults, paging.victims_suggested,
                   kernel.disk.writebacks, stats.exceptions),
        )

    def measure(self, seconds: float, count: int = 0, tracer=None) -> Phase:
        totals = {"sim_words": 0, "sim_cycles": 0}
        phase, rounds = closed_loop(
            self._rounds(), lambda item: self._serve(*item, totals), seconds, count, tracer
        )
        phase.extra = {
            "rounds": rounds,
            "sim_words_per_s": totals["sim_words"] / phase.elapsed_s,
            "sim_cycles": totals["sim_cycles"] / len(phase.requests),
        }
        return phase
