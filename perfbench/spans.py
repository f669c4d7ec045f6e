"""Timing spans around the public entry point of each layer.

The benchmark records spans from its own files: :meth:`Tracer.install`
rebinds each entry point in :data:`ENTRY_POINTS` -- on the module or
class attribute its callers look it up through -- to a wrapper that
opens a span, and :meth:`Tracer.uninstall` puts the originals back.  Nothing in the
program under test is edited.

A span records its name, start, end, parent span and request id.  The
parent is the innermost open span of the same thread (asyncio task
contexts keep their own), so a layer's *self time* is its span's
duration minus the time its child spans cover.  Counters read before
and after a call (words simulated, page faults, pieces reorganized)
are added as deltas at the same boundary.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        #: [name, start, end, parent span (a list like this one) or None, rid]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        #: request id stamped on spans opened by a closed-loop harness
        self.rid: Any = None
        self._undo: List[Callable[[], None]] = []
        #: spans recorded in another process and read back (see export)
        self.imported: Optional[Dict[str, Any]] = None

    def _open(self, name: str, rid: Any):
        parent = self._current.get()
        if rid is None:
            rid = parent[4] if parent is not None else self.rid
        span = [name, _clock(), 0.0, parent, rid]
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span, token) -> None:
        span[2] = _clock()
        self._current.reset(token)

    def wrap(self, fn, name, probe=None, tally=None, rid_of=None):
        """``fn`` wrapped in a span.

        ``probe(args) -> {counter: value}`` is read before and after the
        call and the difference counted; ``tally(args, result)`` returns
        counts to add from a call that returned.
        """
        namer = name if callable(name) else (lambda args, kwargs: name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = self._open(namer(args, kwargs), rid_of(args) if rid_of else None)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(span, token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe(args) if probe else None
            span, token = self._open(namer(args, kwargs), rid_of(args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token)
                if probe:
                    for key, value in probe(args).items():
                        self.counts[key] += value - before.get(key, 0)
            if tally:
                self.counts.update(tally(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, probe, tally, rid_of in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, probe, tally, rid_of))
            else:
                wrapped = self.wrap(raw, name, probe, tally, rid_of)
            setattr(owner, leaf, wrapped)
            self._undo.append(functools.partial(setattr, owner, leaf, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction -----------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """Spans as plain data (parent by index), for writing to a file."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "spans": [
                [name, start, end, index.get(id(parent)), rid]
                for name, start, end, parent, rid in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(exported: Dict[str, Any]) -> Dict[str, float]:
    """Seconds of self time per span name: duration minus child spans."""
    spans = exported["spans"]
    child_time = defaultdict(float)
    for _name, start, end, parent, _rid in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _rid) in enumerate(spans):
        totals[name] += max(0.0, end - start - child_time[i])
    return totals


def queue_waits(exported: Dict[str, Any]) -> List[float]:
    """Per gateway miss: seconds from its batch's start to its execution.

    Spans of one job share its key as request id; the batch span opens on
    the event loop and the execution span in an executor thread.
    """
    first: Dict[Any, float] = {}
    waits = []
    for name, start, _end, _parent, rid in exported["spans"]:
        if name == "service.batch":
            first[rid] = start
        elif name == "farm.execute_job" and rid in first:
            waits.append(start - first.pop(rid))
    return waits


def layer_metrics(exported: Dict[str, Any], requests: int) -> Dict[str, float]:
    """The per-layer metrics from one traced phase, per request served."""
    own = self_times(exported)
    counts = Counter(exported["counts"])
    per = 1.0 / max(requests, 1)
    reorg_total = sum(v for k, v in own.items() if k.startswith("reorg."))
    out = {
        "reorg.reorganize_s": reorg_total,
        "reorg.flowgraph_s": own["reorg.flowgraph"],
        "reorg.schedule_s": own["reorg.schedule"],
        "reorg.delay_fill_s": own["reorg.delay_fill"],
        "reorg.pieces_in": counts["reorg.pieces_in"],
        "reorg.words_out": counts["reorg.words_out"],
        "reorg.noops": counts["reorg.noops"],
        "reorg.packed": counts["reorg.packed"],
        "sim.translated_words": counts["sim.translated_words"],
        "sim.run_fast_s": own["sim.run_fast"],
        "sim.run_precise_s": own["sim.run_precise"],
        "sim.run_jit_s": own["sim.run_jit"],
        "sim.machine_init_s": own["sim.machine_init"],
        "sim.bails": counts["sim.bails"],
        "sim.fallbacks": counts["sim.fallbacks"],
        "sim.invalidations": counts["sim.invalidations"],
        "sim.words": counts["sim.words"],
        "sim.cycles": counts["sim.cycles"],
        "system.kernel_init_s": own["system.kernel_init"],
        "system.run_s": own["system.run"],
        "system.page_faults": counts["system.page_faults"],
        "system.victims": counts["system.victims"],
        "system.writebacks": counts["system.writebacks"],
        "system.exceptions": counts["system.exceptions"],
        "service.cache_get_s": own["service.cache_get"],
        "service.cache_put_s": own["service.cache_put"],
        "farm.execute_job_s": own["farm.execute_job"],
        "farm.run_report_s": own["farm.run_report"],
        "farm.queue_wait_s": sum(queue_waits(exported)),
        "fuzz.make_case_s": own["fuzz.make_case"],
        "fuzz.check_case_s": own["fuzz.check_case"],
        "ccmachine.compile_s": own["ccmachine.compile"],
        "ccmachine.run_s": own["ccmachine.run"],
        "lang.tokenize_s": own["lang.tokenize"],
        "lang.parse_s": own["lang.parse"],
        "lang.analyze_s": own["lang.analyze"],
        "mjlang.parse_s": own["mjlang.parse"],
        "mjlang.check_s": own["mjlang.check"],
        "mjlang.lower_s": own["mjlang.lower"],
        "compiler.generate_s": own["compiler.generate"],
        "compiler.pieces": counts["compiler.pieces"],
        "asm.to_program_s": own["asm.to_program"],
    }
    out = {k: v * per for k, v in out.items()}
    # ratios are taken over the whole phase, not per request
    out["reorg.us_per_piece"] = _ratio(reorg_total * 1e6, counts["reorg.pieces_in"])
    out["sim.words_per_translation"] = _ratio(counts["sim.words"], counts["sim.translated_words"])
    out["system.words_per_s"] = _ratio(counts["system.words"], own["system.run"])
    out["lang.tokens_per_s"] = _ratio(counts["lang.tokens"], own["lang.tokenize"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- entry points ---------------------------------------------------------------


def _machine_probe(args) -> Dict[str, int]:
    cpu = args[0].cpu
    engine = cpu._fastpath
    counts = {"sim.words": cpu.stats.words, "sim.cycles": cpu.stats.cycles}
    if engine is not None:
        counts.update(
            {
                "sim.translated_words": engine.stats.compiles,
                "sim.bails": engine.stats.bails,
                "sim.fallbacks": engine.stats.fallbacks,
                "sim.invalidations": engine.stats.invalidations,
            }
        )
    return counts


def _kernel_probe(args) -> Dict[str, int]:
    kernel = args[0]
    counts = _machine_probe(args)
    counts.update(
        {
            "system.words": kernel.cpu.stats.words,
            "system.page_faults": kernel.pagemap.stats.faults,
            "system.victims": kernel.pagemap.stats.victims_suggested,
            "system.writebacks": kernel.disk.writebacks,
            "system.exceptions": kernel.cpu.stats.exceptions,
        }
    )
    return counts


def _machine_run_name(args, kwargs) -> str:
    fast = kwargs.get("fast", args[2] if len(args) > 2 else True)
    jit = kwargs.get("jit", args[3] if len(args) > 3 else False)
    if not fast:
        return "sim.run_precise"
    return "sim.run_jit" if jit else "sim.run_fast"


def _job_key(args) -> Optional[str]:
    return args[0].get("key")


def _batch_key(args) -> Optional[str]:
    owned = args[2]
    return owned[0][0].key if owned else None


def _report_key(args) -> Optional[str]:
    jobs = args[1]
    return jobs[0].key if jobs else None


def _reorg_tally(args, result) -> Dict[str, int]:
    return {
        "reorg.pieces_in": len(args[0]),
        "reorg.words_out": result.static_count,
        "reorg.noops": result.noop_count,
        "reorg.packed": result.packed_count,
    }


#: (module, attribute on it, span name, probe, tally, request-id function)
ENTRY_POINTS = [
    ("repro.lang.parser", "tokenize", "lang.tokenize", None,
     lambda args, result: {"lang.tokens": len(result)}, None),
    ("repro.lang.parser", "parse_program", "lang.parse", None, None, None),
    ("repro.lang.semantic", "check_program", "lang.analyze", None, None, None),
    ("repro.mjlang", "parse", "mjlang.parse", None, None, None),
    ("repro.mjlang", "check", "mjlang.check", None, None, None),
    ("repro.mjlang", "lower", "mjlang.lower", None, None, None),
    ("repro.compiler.driver", "generate", "compiler.generate", None,
     lambda args, result: {"compiler.pieces": len(result.stream)}, None),
    ("repro.compiler.driver", "reorganize", "reorg.reorganize", None, _reorg_tally, None),
    ("repro.system.kernel", "reorganize", "reorg.reorganize", None, _reorg_tally, None),
    ("repro.reorg.reorganizer", "FlowGraph.build", "reorg.flowgraph", None, None, None),
    ("repro.reorg.reorganizer", "schedule_block", "reorg.schedule", None, None, None),
    ("repro.reorg.reorganizer", "naive_block", "reorg.schedule", None, None, None),
    ("repro.reorg.reorganizer", "DelaySlotFiller.fill", "reorg.delay_fill", None, None, None),
    ("repro.reorg.reorganizer", "ReorgResult.to_program", "asm.to_program", None, None, None),
    ("repro.sim.machine", "Machine.__init__", "sim.machine_init", None, None, None),
    ("repro.sim.machine", "Machine.run", _machine_run_name, _machine_probe, None, None),
    ("repro.system.kernel", "Kernel.__init__", "system.kernel_init", None, None, None),
    ("repro.system.kernel", "Kernel.run", "system.run", _kernel_probe, None, None),
    ("repro.farm.scheduler", "Scheduler.run_report", "farm.run_report", None, None, _report_key),
    ("repro.farm.scheduler", "execute_job", "farm.execute_job", None, None, _job_key),
    ("repro.service.cache", "ResultCache.get", "service.cache_get", None, None, None),
    ("repro.service.cache", "ResultCache.put", "service.cache_put", None, None, None),
    ("repro.service.gateway", "Gateway._run_batch", "service.batch", None, None, _batch_key),
    ("repro.fuzz", "make_case", "fuzz.make_case", None, None, None),
    ("repro.fuzz", "check_case", "fuzz.check_case", None, None, None),
    ("repro.ccmachine", "compile_cc_source", "ccmachine.compile", None, None, None),
    ("repro.ccmachine", "CcMachine.run", "ccmachine.run", None, None, None),
]
