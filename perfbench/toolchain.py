"""The ``toolchain`` workload: the paper's compile-and-simulate pipeline.

A closed loop with one in-process client.  A pass is a seeded shuffle of
every (corpus program, opt level) pair -- 13 mini-Pascal and 3 MiniJava
programs at each of the four Table 11 levels.  A request compiles one
pair from source and runs it on a fresh bare machine on the fast path;
its output must match the corpus oracle.  Only whole passes are
measured, so every seed measures the same work in another order.
"""

from __future__ import annotations

import json
import os
import random

from common import Phase, Request, clock, closed_loop, timed_import

#: output of both quick Puzzle variants (kount at limit 25); the Python
#: oracle in the workload tests derives it from the canonical 2005
PUZZLE_QUICK_OUTPUT = [38]

MAX_STEPS = 50_000_000
MODULES = (
    "repro.compiler.driver", "repro.mjlang", "repro.sim.machine", "repro.sim.fastpath",
    "repro.workloads",
)


class Toolchain:
    name = "toolchain"
    in_process = True
    latency_limit_ms = None

    def __init__(self, root: str, seed: int, bench: dict):
        self.root = root
        self.seed = seed

    def setup(self) -> float:
        setup_s = timed_import(self.root, MODULES)
        from repro.reorg.reorganizer import OptLevel
        from repro.workloads import CORPUS, EXPECTED_OUTPUT, MINIJAVA_CORPUS, MINIJAVA_EXPECTED

        programs = []
        for name, source in CORPUS.items():
            expected = EXPECTED_OUTPUT.get(name, PUZZLE_QUICK_OUTPUT)
            programs.append((name, source, "pascal", expected))
        for name, source in MINIJAVA_CORPUS.items():
            programs.append((name, source, "minijava", MINIJAVA_EXPECTED[name]))
        self.pairs = [(p, level) for p in programs for level in OptLevel]
        with open(os.path.join(self.root, "PERF_BASELINE.json")) as handle:
            self.baseline = json.load(handle)["benchmarks"]
        return setup_s

    def _passes(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.pairs)
            rng.shuffle(order)
            yield order

    def _serve(self, pair, totals) -> Request:
        import repro.compiler.driver as driver
        import repro.mjlang as mjlang
        from repro.sim.machine import Machine

        (name, source, front, expected), level = pair
        label = f"{name}@{level.value}"
        start = clock()
        if front == "pascal":
            compiled = driver.compile_source(source, opt_level=level)
        else:
            compiled = mjlang.compile_minijava(source, opt_level=level)
        compiled_at = clock()
        machine = Machine(compiled.program)
        stats = machine.run(MAX_STEPS)
        end = clock()
        totals["compile_s"] += compiled_at - start
        totals["run_s"] += end - compiled_at
        totals["sim_words"] += stats.words
        totals["sim_cycles"] += stats.cycles
        totals["code_words"] += compiled.static_count
        errors = []
        if machine.output != expected:
            errors.append(f"output {machine.output} != oracle {expected}")
        base = self.baseline.get(name)
        if level.value == "branch-delay" and base is not None:
            if (stats.cycles, stats.words) != (base["cycles"], base["words"]):
                errors.append(
                    f"cycles/words {stats.cycles}/{stats.words} != "
                    f"PERF_BASELINE.json {base['cycles']}/{base['words']}"
                )
        return Request(
            label,
            end - start,
            not errors,
            "; ".join(errors) or None,
            exact=(stats.cycles, stats.words, compiled.static_count),
        )

    def close(self) -> None:
        pass

    def measure(self, seconds: float, count: int = 0, tracer=None) -> Phase:
        totals = dict.fromkeys(("compile_s", "run_s", "sim_words", "sim_cycles", "code_words"), 0)
        phase, passes = closed_loop(
            self._passes(), lambda pair: self._serve(pair, totals), seconds, count, tracer
        )
        per_pass = 1.0 / passes
        phase.extra = {
            "passes": passes,
            "compile_s": totals["compile_s"] * per_pass,
            "sim_words_per_s": totals["sim_words"] / totals["run_s"],
            "sim_cycles": totals["sim_cycles"] * per_pass,
            "code_words": totals["code_words"] * per_pass,
        }
        return phase
