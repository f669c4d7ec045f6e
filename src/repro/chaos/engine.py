"""The injection engine: drive a target along a plan, deterministically.

The engine never installs per-step hooks.  It paces execution with the
targets' resumable ``run_steps`` primitive (:class:`~repro.sim.machine.
Machine` and :class:`~repro.system.kernel.Kernel` both provide one),
pausing at the exact ``cpu.stats.words`` boundary each injection names,
applying the fault, and resuming.  Because fast-path and precise
execution count words identically, the same plan lands every injection
on the same architectural state under either engine -- which is what
makes the fastpath-vs-precise differential meaningful *under* injection,
not just on clean runs.

Outcomes are part of the record, not exceptions: a double fault becomes
``outcome="panic"`` with the structured PANIC record, an unhandled
machine fault becomes ``outcome="fault"``, a runaway (e.g. a bit flip
that destroyed a loop bound) becomes ``outcome="step-budget"``.  All of
them are deterministic and reproduce from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..farm.worker import fingerprint_digest
from ..sim.faults import KernelPanic, MachineFault, OverflowTrap
from .invariants import RecoveryContractChecker
from .plan import ChaosPlan, Injection, apply_rng

#: injections that walk forward to reach the right machine mode get a
#: bounded window; running past it records a skip, never hangs the run
WALK_LIMIT = 30_000


@dataclass
class ChaosRun:
    """Everything one plan execution produced."""

    outcome: str                       # halted | panic | fault | step-budget
    records: List[Dict[str, Any]]      # one per injection, in plan order
    final: Dict[str, Any]              # end-of-run state summary
    violations: List[Dict[str, Any]]   # recovery-contract violations
    victims: List[int]                 # pids deliberately killed by refaults
    outputs: Dict[str, List[int]] = field(default_factory=dict)


def _physical(target):
    """The physical memory behind a Machine or a Kernel."""
    return getattr(target, "physical", None) or target.memory


def _collect_outputs(target) -> Dict[str, List[int]]:
    if hasattr(target, "processes"):  # Kernel
        return {str(pid): list(target.output(pid)) for pid in range(len(target.processes))}
    return {"0": list(target.output)}


def _drive_to(target, boundary: int, fast: bool) -> None:
    cpu = target.cpu
    while not target.halted and cpu.stats.words < boundary:
        target.run_steps(boundary - cpu.stats.words, fast=fast)


def _walk_until(target, fast: bool, predicate) -> bool:
    """Single-step until ``predicate(cpu)``; False if the window closed."""
    cpu = target.cpu
    for _ in range(WALK_LIMIT):
        if predicate(cpu):
            return True
        if target.halted:
            return False
        target.run_steps(1, fast=fast)
    return False


def run_plan(
    target,
    plan: ChaosPlan,
    *,
    fast: bool = True,
    max_steps: int = 2_000_000,
) -> ChaosRun:
    """Execute ``target`` under ``plan``; returns the full run record.

    ``target`` must be freshly constructed (the plan's step numbers are
    absolute word counts from reset).
    """
    cpu = target.cpu
    checker = RecoveryContractChecker()
    checker.install(cpu)
    records: List[Dict[str, Any]] = []
    victims: List[int] = []
    outcome = "halted"
    panic: Optional[Dict[str, Any]] = None
    fault_info: Optional[Dict[str, Any]] = None
    try:
        for index, inj in enumerate(plan.injections):
            _drive_to(target, min(inj.step, max_steps), fast)
            record = {
                "index": index,
                "step": inj.step,
                "kind": inj.kind,
                "params": dict(inj.params),
            }
            if target.halted or cpu.stats.words >= max_steps:
                record["outcome"] = "not-reached"
                records.append(record)
                continue
            try:
                record["detail"] = _apply(target, plan, index, inj, fast, victims)
                record["outcome"] = "applied"
            except KernelPanic as exc:
                record["detail"] = {"panic": exc.record()}
                record["outcome"] = "panic"
                records.append(record)
                raise
            record["applied_at"] = cpu.stats.words
            record["digest"] = fingerprint_digest(cpu)
            records.append(record)
        _drive_to(target, max_steps, fast)
        if not target.halted:
            outcome = "step-budget"
    except KernelPanic as exc:
        outcome = "panic"
        panic = exc.record()
    except MachineFault as exc:
        outcome = "fault"
        fault_info = {
            "type": type(exc).__name__,
            "cause": exc.cause.name,
            "minor": exc.minor,
            "message": str(exc),
        }
    final = {
        "outcome": outcome,
        "words": cpu.stats.words,
        "cycles": cpu.stats.cycles,
        "exceptions": cpu.stats.exceptions,
        "digest": fingerprint_digest(cpu),
        "panic": panic,
        "fault": fault_info,
        "faults_observed": checker.observed,
    }
    return ChaosRun(
        outcome=outcome,
        records=records,
        final=final,
        violations=list(checker.violations),
        victims=victims,
        outputs=_collect_outputs(target),
    )


# ---------------------------------------------------------------------------
# injection application
# ---------------------------------------------------------------------------


def _apply(target, plan, index: int, inj: Injection, fast: bool, victims: List[int]):
    cpu = target.cpu
    rng = apply_rng(plan.seed, index)
    kind = inj.kind

    if kind == "reg-flip":
        reg = inj.param("reg")
        bit = inj.param("bit")
        before = cpu.regs[reg]
        cpu.regs[reg] = before ^ (1 << bit)
        return {"reg": reg, "bit": bit, "before": before, "after": cpu.regs[reg]}

    if kind == "mem-flip":
        mem = _physical(target)
        addr = inj.param("addr")
        bit = inj.param("bit")
        before = mem.peek(addr)
        mem.poke(addr, before ^ (1 << bit))  # poke fires the fastpath watch hook
        return {"addr": addr, "bit": bit, "before": before, "after": mem.peek(addr)}

    if kind == "spurious-int":
        cpu.interrupt_line = True  # no source raised: the controller must
        return {}                  # answer INT_NONE and the kernel just return

    if kind == "int-burst":
        from ..system.devices import INT_TIMER

        count = inj.param("count", 4)
        for _ in range(count):  # duplicates coalesce, as in the controller
            target.interrupts.raise_source(INT_TIMER)
        cpu.interrupt_line = True
        return {"count": count, "pending": list(target.interrupts.pending)}

    if kind == "pagemap-drop":
        pm = target.pagemap
        clean = sorted(p for p in pm.entries if not pm.dirty.get(p, False))
        if not clean:
            return {"skipped": "no clean page mapped"}
        page = clean[rng.randrange(len(clean))]
        frame = pm.entries[page]
        pm.unmap_page(page)
        return {"page": page, "frame": frame, "clean_candidates": len(clean)}

    if kind == "dma-corrupt":
        return _apply_dma_corrupt(target, inj, rng)

    if kind == "timer-stall":
        duration = inj.param("duration")
        target._timer_stall_until = cpu.stats.words + duration
        return {"duration": duration, "until": target._timer_stall_until}

    if kind == "refault":
        # deliver at a recoverable boundary: outside any handler window
        if not _walk_until(target, fast, lambda c: not c.in_exception):
            return {"skipped": "no recoverable boundary before halt"}
        victim = _current_pid(target)
        if victim is not None:
            victims.append(victim)
        cpu._take_fault(OverflowTrap("chaos: injected overflow"))
        return {"victim": victim}

    if kind == "kernel-refault":
        # deliver *inside* the exception path: this is the double fault
        if not _walk_until(target, fast, lambda c: c.in_exception):
            return {"skipped": "no handler window before halt"}
        cpu._take_fault(OverflowTrap("chaos: injected fault in handler"))
        raise AssertionError("double fault did not panic")  # pragma: no cover

    raise ValueError(f"unknown injection kind {kind!r}")


def _current_pid(target) -> Optional[int]:
    if not hasattr(target, "processes"):
        return None
    from ..system.kernel import KVAR_CURPID

    return target.physical.peek(KVAR_CURPID)


def _apply_dma_corrupt(target, inj: Injection, rng) -> Dict[str, Any]:
    """A free-cycle DMA transfer with a source bit flipped mid-flight.

    The contract under test: corruption stays *confined* to the transfer
    window.  Guard words on both sides of the destination must survive,
    the words moved before the flip must match the original source, and
    the words moved after must carry the flip -- the engine never
    re-reads, re-orders, or strays.
    """
    from ..system.dma import FreeCycleDma

    mem = _physical(target)
    physical = getattr(mem, "physical", mem)  # MappedMemory -> PhysicalMemory
    src = inj.param("src")
    dst = inj.param("dst")
    length = inj.param("length")
    flip_at = inj.param("flip_at")  # index within the window, > moved prefix
    bit = inj.param("bit")
    for i in range(length):
        physical.poke(src + i, (i * 2654435761 + 97) & 0xFFFFFFFF)
    guard_lo, guard_hi = physical.peek(dst - 1), physical.peek(dst + length)
    dma = FreeCycleDma(physical)
    dma.enqueue(src, dst, length)
    prefix = flip_at  # move this many words, then corrupt the source tail
    for _ in range(prefix):
        dma.offer_free_cycle()
    flipped_before = physical.peek(src + flip_at)
    physical.poke(src + flip_at, flipped_before ^ (1 << bit))
    drained = 0
    while dma.busy and drained < 4 * length:
        dma.offer_free_cycle()
        drained += 1
    confined = (
        physical.peek(dst - 1) == guard_lo
        and physical.peek(dst + length) == guard_hi
        and dma.words_moved == length
        and all(
            physical.peek(dst + i) == physical.peek(src + i) for i in range(length)
        )
    )
    return {
        "src": src,
        "dst": dst,
        "length": length,
        "flip_at": flip_at,
        "bit": bit,
        "words_moved": dma.words_moved,
        "confined": confined,
    }
