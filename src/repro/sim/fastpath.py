"""Threaded-code fast path for the simulator.

The per-step interpreter in :class:`~repro.sim.cpu.Cpu` pays Python-level
dispatch costs (isinstance chains, dict churn, attribute lookups) for
every executed word.  This module pre-compiles each instruction word --
once, at its address -- into a specialized Python closure (threaded-code
style) and runs a batched inner loop over those handlers, only falling
back to the precise reference stepper for the rare events it cannot
prove cheap: faults, traps, privileged/special instructions, interlock
stalls, device-window accesses, and interrupt delivery.

Correctness discipline (what keeps the fast path bit-for-bit identical
to :meth:`Cpu.step`):

- **Bail before mutation.**  A handler raises the private ``_Bail``
  exception *before* touching any architectural state.  The bailed word
  then re-executes exactly once on the reference stepper, which performs
  the precise fault ordering, stats accounting, and device side effects.
- **Exact stats by counts x deltas.**  Each compiled word has a static
  stats-delta tuple; the burst loop counts executions per address and
  the flush multiplies.  Every fast word is exactly one cycle (all
  stall/flush cases bail), so ``cycles == words`` holds within a burst
  and kernel timer quanta stay exact under batching.
- **Pipeline state in a 5-slot list** (``st``): deferred-load register
  and value, the two pending-branch slots (countdown 1 and 2), and the
  dynamic taken-branch counter.  It is synced from and back to the CPU's
  canonical fields around every burst, so reference steps interleave
  transparently.
- **Self-modifying code** is caught by invalidation: fast stores check
  the written address against the set of compiled addresses, and all
  reference-path writes (including device DMA and loader pokes) report
  through :attr:`PhysicalMemory.watch_hook`.

Supported execution contexts: mapping disabled, over a bare
:class:`~repro.sim.memory.PhysicalMemory` or the physical side of a
``MappedMemory`` (device-window references bail); and mapping enabled
over a ``MappedMemory`` (user space):

- **Identity by system virtual address.**  A mapped handler is cached
  under the address :meth:`Cpu.translate` forms (PID folded in), in a
  context keyed by the surprise bits and the segment mask.  Its code
  embeds the virtual pc, never a frame.  Each word first passes the
  segment check and a lookup in the engine's frame table (system page
  -> frame, kept current by :attr:`PageMap.change_hook`); data
  references do the same inside the handler.  Either miss bails, so the
  reference stepper raises the exact ``PageFault``.
- **Handlers survive remaps.**  A handler remembers the bits it was
  compiled from.  Mapping its page again compares them with the new
  frame's contents; a physical write to a mapped frame reaches the page
  through a frame -> page reverse map.  Only a changed word is dropped.
- **Exact page-map accounting.**  The flush charges one translation per
  fetch, load and store, and sets the referenced bit of every page
  fetched from; handlers set the referenced (and, for stores, dirty)
  bit of the data page they touch.

Each handler is generated as Python source; ``_make_handler`` turns it
into a function, compiling every source shape once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..isa.bits import u32
from ..isa.encoding import decode
from ..isa.operations import AluOp, Comparison, alu_overflows
from ..isa.pieces import (
    Absolute,
    Alu,
    BaseIndex,
    BaseShifted,
    CompareBranch,
    Displacement,
    Imm,
    Jump,
    JumpIndirect,
    Load,
    LoadImm,
    MovImm,
    Noop,
    ReadSpecial,
    Rfs,
    SetCond,
    Store,
    Trap,
    WriteSpecial,
)
from ..isa.registers import RA, SpecialReg
from .jit import _make_handler


class _Bail(Exception):
    """Raised by a handler, pre-mutation, to punt to the reference stepper.

    Handlers raise the class, so each bail gets a fresh instance: one
    shared instance would grow its ``__traceback__`` by every raise and
    keep every bailing frame -- and so every engine -- alive.
    """


#: cache marker for words that must always run on the reference stepper
_FALLBACK = object()

#: ALU ops participating in overflow detection (mirrors alu_overflows)
_OVF_OPS = (AluOp.ADD, AluOp.SUB, AluOp.RSUB)

#: signed-compare trick: s32(a) < s32(b)  <=>  (a^SIGN) < (b^SIGN)
_COND_TEMPLATES = {
    Comparison.EQ: "{a} == {b}",
    Comparison.NE: "{a} != {b}",
    Comparison.LT: "({a} ^ 2147483648) < ({b} ^ 2147483648)",
    Comparison.LE: "({a} ^ 2147483648) <= ({b} ^ 2147483648)",
    Comparison.GT: "({a} ^ 2147483648) > ({b} ^ 2147483648)",
    Comparison.GE: "({a} ^ 2147483648) >= ({b} ^ 2147483648)",
    Comparison.LO: "{a} < {b}",
    Comparison.LS: "{a} <= {b}",
    Comparison.HI: "{a} > {b}",
    Comparison.HS: "{a} >= {b}",
    Comparison.T: "True",
    Comparison.F: "False",
    Comparison.BC: "({a} & {b}) == 0",
    Comparison.BS: "({a} & {b}) != 0",
    Comparison.NBC: "({a} & ({b} ^ 4294967295)) == 0",
    Comparison.NBS: "({a} & ({b} ^ 4294967295)) != 0",
}


@dataclass
class EngineStats:
    """Fast-path diagnostics (engine-specific -- the reference stepper
    has no analogue, so these never enter fingerprints or profiles that
    must match across engines)."""

    compiles: int = 0        # words compiled into handlers
    fallbacks: int = 0       # words screened out at compile time
    bails: int = 0           # handlers that punted pre-mutation at run time
    invalidations: int = 0   # compiled words dropped (SMC, DMA, loader pokes, remaps)
    bursts: int = 0          # batched inner-loop entries
    # dispatch accounting (deterministic per workload: burst boundaries
    # are serial and exact)
    word_dispatches: int = 0    # words executed through per-address handlers
    ref_steps: int = 0          # words delegated to the reference stepper


class _Context:
    """Handler and stats-delta caches for one execution context.

    The context key is the surprise register's privilege and
    overflow-enable bits.  Unmapped contexts cache handlers by physical
    word address.  Mapped contexts add the mapping bit and the segment
    mask (bits 4 and up) to the key, record the process space size in
    ``space``, and cache handlers by system virtual address.
    """

    __slots__ = ("key", "space", "handlers", "deltas")

    def __init__(self, key: int, space: int = 0):
        self.key = key
        #: words per process space (mapped contexts only; 0 when unmapped)
        self.space = space
        self.handlers: Dict[int, object] = {}
        #: address -> (pieces, noops, loads, stores, branches,
        #:             taken_static, mem_used, note)
        self.deltas: Dict[int, tuple] = {}


class FastPathEngine:
    """Batched threaded-code executor bound to one :class:`Cpu`."""

    def __init__(self, cpu):
        self.cpu = cpu
        mem = cpu.memory
        # duck-type the memory stack: a MappedMemory exposes .physical
        # (and possibly .devices); a bare PhysicalMemory is its own store
        physical = getattr(mem, "physical", None)
        if physical is None and hasattr(mem, "_words"):
            physical = mem
        self._phys = physical
        self._devices = getattr(mem, "devices", None)
        self._supported = physical is not None and hasattr(physical, "_words")
        self._contexts: Dict[int, _Context] = {}
        #: mapped (user-space) contexts; kept apart because their handler
        #: tables are keyed by system virtual, not physical, address
        self._mapped: Dict[int, _Context] = {}
        #: physical addresses whose write must invalidate: unmapped
        #: compiled words, plus the frames' words behind live mapped ones
        self._compiled_pcs = set()
        #: system page -> frame base address, for every in-bounds mapping
        self._frames: Dict[int, int] = {}
        #: frame -> the system pages currently mapped to it
        self._frame_pages: Dict[int, list] = {}
        #: system page -> {system virtual address: compiled bits}
        self._mapped_words: Dict[int, Dict[int, int]] = {}
        self._disabled = False
        #: steps completed by the current/last run() call *before* any
        #: exception escaped -- callers use this to account for steps
        #: when a reference step raises (halt, hazard violation, ...)
        self.last_run_steps = 0
        self.stats = EngineStats()
        self._st = [-1, 0, -1, -1, 0]
        if self._supported and hasattr(physical, "watch_hook"):
            physical.watch_hook = self._on_external_write
        pagemap = getattr(mem, "pagemap", None)
        #: the page map mapped execution runs through (None: mapping on
        #: this memory stays with the reference stepper)
        self._pagemap = None
        if self._supported and pagemap is not None and hasattr(pagemap, "change_hook"):
            self._pagemap = pagemap
            pagemap.change_hook = self._on_pagemap_change
            for page, frame in pagemap.entries.items():
                self._on_pagemap_change(page, frame)
        #: the globals all per-word handlers share
        self._env = self._base_env() if self._supported else None

    def release(self) -> None:
        """Drop every compiled handler; counters stay.

        The engine, its CPU and its handlers reference one another, so
        a finished kernel's handlers would otherwise live until the next
        full garbage collection.  Running on afterwards is exact: words
        simply compile again.
        """
        for table in (self._contexts, self._mapped, self._mapped_words):
            table.clear()
        self._compiled_pcs.clear()

    # ------------------------------------------------------------------
    # driving loop
    # ------------------------------------------------------------------

    def run(self, max_steps: int, cycle_limit: Optional[int] = None) -> int:
        """Execute up to ``max_steps`` words; returns the number executed.

        With ``cycle_limit``, stops at the first step boundary where
        ``stats.cycles >= cycle_limit`` -- the exact boundary the
        per-step kernel loop would have observed, because fast words are
        one cycle each and reference steps re-check before issue.

        Machine-level exceptions (halt, traps surfacing to Python,
        hazard violations) propagate from the reference stepper;
        :attr:`last_run_steps` then holds the steps completed *before*
        the raising word, matching the per-step loops this replaces.
        """
        cpu = self.cpu
        stats = cpu.stats
        surprise = cpu.surprise
        contexts = self._contexts
        mapped = self._mapped
        estats = self.stats
        steps = 0
        self.last_run_steps = 0
        supported = self._supported and not self._disabled
        paged = self._pagemap is not None
        while True:
            self.last_run_steps = steps
            if steps >= max_steps:
                break
            if cycle_limit is not None and stats.cycles >= cycle_limit:
                break
            sv = surprise.value
            if (
                supported
                and not cpu._forced_stream
                and not (cpu.interrupt_line and sv & 2)
                and (paged or not sv & 8)
            ):
                budget = max_steps - steps
                if cycle_limit is not None:
                    budget = min(budget, cycle_limit - stats.cycles)
                if sv & 8:
                    key = (sv & 13) | (cpu.seg_mask << 4)
                    ctx = mapped.get(key)
                    if ctx is None:
                        ctx = _Context(key, 1 << (24 - cpu.seg_mask))
                        mapped[key] = ctx
                    n = self._burst_mapped(ctx, budget)
                else:
                    key = sv & 5  # privilege | overflow-enable
                    ctx = contexts.get(key)
                    if ctx is None:
                        ctx = _Context(key)
                        contexts[key] = ctx
                    n = self._burst(ctx, budget)
                steps += n
                self.last_run_steps = steps
                if self._disabled:
                    supported = False
                if steps >= max_steps:
                    break
                if cycle_limit is not None and stats.cycles >= cycle_limit:
                    break
                # the word the burst would not touch: a fallback, a
                # bailed word, or a translation miss -- exactly one
                # precise step
                estats.ref_steps += 1
                cpu.step()
                steps += 1
            else:
                # interrupt delivery, a forced return stream, mapping
                # without a page map, or an unsupported memory system:
                # one precise step
                estats.ref_steps += 1
                cpu.step()
                steps += 1
        self.last_run_steps = steps
        return steps

    # ------------------------------------------------------------------
    # the burst: sync in, run handlers, flush stats, sync out
    # ------------------------------------------------------------------

    def _sync_in(self) -> bool:
        """Load the CPU's pipeline state into ``st``.

        Returns False (and disables the engine) on a state the CPU
        cannot produce architecturally.
        """
        cpu = self.cpu
        st = self._st
        deferred = cpu._deferred_load
        if deferred:
            if len(deferred) != 1:  # cannot happen architecturally
                self._disabled = True
                return False
            (st[0], st[1]), = deferred.items()
        else:
            st[0] = -1
        p1 = p2 = -1
        for countdown, target in cpu._pending_branches:
            # simultaneous countdowns: the later-appended entry wins the
            # fire and both retire, so last-wins assignment is exact
            if countdown == 1:
                p1 = target
            elif countdown == 2:
                p2 = target
            else:  # not a state the CPU can produce
                self._disabled = True
                return False
        st[2], st[3], st[4] = p1, p2, 0
        return True

    def _flush(self, ctx: _Context, counts: Dict[int, int]) -> tuple:
        """Charge a burst's executions to the CPU and memory stats.

        Counts x static deltas; returns ``(words, loads, stores)``.
        """
        stats = self.cpu.stats
        st = self._st
        if not counts:
            if st[4]:  # pragma: no cover - taken implies counts
                stats.branches_taken += st[4]
            return 0, 0, 0
        deltas = ctx.deltas
        words = pieces = noops = loads = stores = 0
        branches = taken = mem_used = 0
        for wpc, c in counts.items():
            d = deltas[wpc]
            words += c
            pieces += c * d[0]
            noops += c * d[1]
            loads += c * d[2]
            stores += c * d[3]
            branches += c * d[4]
            taken += c * d[5]
            mem_used += c * d[6]
            if d[7] is not None:
                stats.ref_notes[d[7]] += c
        stats.words += words
        stats.cycles += words
        stats.pieces += pieces
        stats.noops += noops
        stats.loads += loads
        stats.stores += stores
        stats.branches += branches
        stats.branches_taken += taken + st[4]
        stats.memory_cycles_used += mem_used
        stats.free_memory_cycles += words - mem_used
        mstats = self._phys.stats
        mstats.fetches += words
        mstats.reads += loads
        mstats.writes += stores
        return words, loads, stores

    def _profile(self, counts: Dict[int, int]) -> None:
        """Merge per-pc burst counts into the attached profiler, if any."""
        profiler = self.cpu.profiler
        if profiler is not None:
            pcounts = profiler.counts
            pget = pcounts.get
            for wpc, c in counts.items():
                pcounts[wpc] = pget(wpc, 0) + c

    def _sync_out(self, pc: int) -> None:
        """Write the burst's pc and pipeline state back to the CPU."""
        cpu = self.cpu
        st = self._st
        cpu.pc = pc
        cpu._deferred_load = {st[0]: st[1]} if st[0] != -1 else {}
        pending = []
        if st[2] != -1:
            pending.append([1, st[2]])
        if st[3] != -1:
            pending.append([2, st[3]])
        cpu._pending_branches = pending

    def _burst(self, ctx: _Context, budget: int) -> int:
        cpu = self.cpu
        regs = cpu.regs
        st = self._st
        self.stats.bursts += 1
        if not self._sync_in():
            return 0

        pc = cpu.pc
        n = 0
        counts: Dict[int, int] = {}
        handlers = ctx.handlers
        get_handler = handlers.get
        get_count = counts.get
        try:
            while n < budget:
                h = get_handler(pc)
                if h is None:
                    if pc in counts:
                        # invalidated mid-burst: flush the executions of
                        # the old word against its old delta first
                        break
                    h = self._compile(ctx, pc)
                if h is _FALLBACK:
                    break
                try:
                    npc = h(regs, st)
                except _Bail:
                    self.stats.bails += 1
                    break
                counts[pc] = get_count(pc, 0) + 1
                pc = npc
                n += 1
        finally:
            self.stats.word_dispatches += n
            self._flush(ctx, counts)
            self._profile(counts)
            self._sync_out(pc)
        return n

    # ------------------------------------------------------------------
    # the mapped burst: same contract, translation in front of dispatch
    # ------------------------------------------------------------------

    def _burst_mapped(self, ctx: _Context, budget: int) -> int:
        """The burst loop for user-space (mapping-enabled) execution.

        It differs from :meth:`_burst` only where translation must sit.
        Each pc passes the on-chip segment check and the frame-table
        lookup before dispatch; a miss of either ends the burst, so the
        reference stepper raises the exact fault.  Handlers are found by
        system virtual address.  The flush also charges the page map:
        one translation per fetch, load and store, and the referenced
        bit of every page fetched from.  Handlers set the bits of the
        data pages they touch themselves.
        """
        cpu = self.cpu
        regs = cpu.regs
        st = self._st
        self.stats.bursts += 1
        if not self._sync_in():
            return 0

        # the segment unit's constants for this burst: segpid and the
        # mask cannot change inside one (writing them is a fallback)
        space = ctx.space
        half = space >> 1
        top = 4294967296 - half
        base = cpu.seg_pid * space
        shift = 4294967296 - space - base  # top region: sysva = pc - shift
        frames = self._frames
        pc = cpu.pc
        n = 0
        counts: Dict[int, int] = {}
        get_handler = ctx.handlers.get
        get_count = counts.get
        try:
            while n < budget:
                if pc < half:
                    s = pc + base
                elif top <= pc < 4294967296:
                    s = pc - shift
                else:
                    break  # between the regions (segment fault), or past 32 bits
                if s >> 8 not in frames:
                    break  # page-map miss (or an out-of-bounds frame)
                h = get_handler(s)
                if h is None:
                    if s in counts:
                        break  # invalidated mid-burst, as in _burst
                    h = self._compile(ctx, pc, s)
                if h is _FALLBACK:
                    break
                try:
                    npc = h(regs, st)
                except _Bail:
                    self.stats.bails += 1
                    break
                counts[s] = get_count(s, 0) + 1
                pc = npc
                n += 1
        finally:
            self.stats.word_dispatches += n
            words, loads, stores = self._flush(ctx, counts)
            if words:
                pagemap = self._pagemap
                pagemap.stats.translations += words + loads + stores
                referenced = pagemap.referenced
                for s in counts:
                    referenced[s >> 8] = True
                if cpu.profiler is not None:
                    self._profile({
                        (s - base if s - base < half else s + shift): c
                        for s, c in counts.items()
                    })
            self._sync_out(pc)
        return n

    # ------------------------------------------------------------------
    # invalidation (self-modifying code, DMA, loader pokes)
    # ------------------------------------------------------------------

    def _invalidate(self, addr: int) -> None:
        """Drop every handler compiled from the physical word at ``addr``.

        That is the unmapped handler at ``addr`` in every context, and
        the mapped handlers of each system page currently mapped to its
        frame.  Stats deltas are intentionally left behind: executions
        counted before the invalidation belong to the old word and must
        flush against its old delta; a recompile overwrites the entry.
        """
        self.stats.invalidations += 1
        for ctx in self._contexts.values():
            ctx.handlers.pop(addr, None)
        self._compiled_pcs.discard(addr)
        for page in self._frame_pages.get(addr >> 8, ()):
            self._drop_mapped((page << 8) | (addr & 255))

    def _drop_mapped(self, sva: int) -> None:
        """Drop the mapped handlers at system virtual address ``sva``."""
        words = self._mapped_words.get(sva >> 8)
        if words and sva in words:
            del words[sva]
            for ctx in self._mapped.values():
                ctx.handlers.pop(sva, None)

    def _on_external_write(self, addr: int) -> None:
        if addr in self._compiled_pcs:
            self._invalidate(addr)

    def _on_pagemap_change(self, page: int, frame: Optional[int]) -> None:
        """Page-map mutation: ``page`` now maps to ``frame`` (None: unmapped).

        Updates the frame table and its reverse map.  The page's mapped
        handlers stay cached across the change; mapping it again keeps
        each one whose compiled bits match the new frame and drops the
        rest.
        """
        words = self._mapped_words.get(page, {})
        old = self._frames.pop(page, None)
        if old is not None:
            aliases = self._frame_pages[old >> 8]
            aliases.remove(page)
            if not aliases:
                del self._frame_pages[old >> 8]
            for sva in words:
                self._unwatch(old | (sva & 255))
        if frame is None or (frame + 1) << 8 > self._phys.size:
            return  # unmapped, or a frame the reference stepper must fault on
        base = frame << 8
        self._frames[page] = base
        self._frame_pages.setdefault(frame, []).append(page)
        current = self._phys._words
        for sva, bits in list(words.items()):
            addr = base | (sva & 255)
            if current.get(addr, 0) == bits:
                self._compiled_pcs.add(addr)
            else:
                self.stats.invalidations += 1
                self._drop_mapped(sva)

    def _unwatch(self, addr: int) -> None:
        """Stop watching ``addr`` for writes unless a live handler needs it."""
        if any(addr in ctx.handlers for ctx in self._contexts.values()):
            return
        offset = addr & 255
        for page in self._frame_pages.get(addr >> 8, ()):
            if (page << 8) | offset in self._mapped_words.get(page, ()):
                return
        self._compiled_pcs.discard(addr)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def _compile(self, ctx: _Context, pc: int, sva: Optional[int] = None):
        """Compile the word at ``pc`` for ``ctx``; cache and return it.

        Mapped contexts pass the word's system virtual address ``sva``:
        the handler is cached under it, its bits are read through the
        frame table, and they are remembered for revalidation on remap.
        """
        if sva is None:
            key = addr = pc
        else:
            key = sva
            addr = self._frames[sva >> 8] | (sva & 255)
            self._mapped_words.setdefault(sva >> 8, {})[sva] = self._phys._words.get(addr, 0)
        handler = self._try_compile(ctx, pc, sva)
        if handler is None:
            handler = _FALLBACK
            self.stats.fallbacks += 1
        else:
            self.stats.compiles += 1
        ctx.handlers[key] = handler
        self._compiled_pcs.add(addr)
        return handler

    def _base_env(self) -> Dict[str, object]:
        """The globals every generated handler closes over."""
        env = {
            "_B": _Bail,
            "MW": self._phys._words,
            "MWG": self._phys._words.get,
            "CPU": self.cpu,
            "OVF": alu_overflows,
            "FPCS": self._compiled_pcs,
            "INVAL": self._invalidate,
            "FR": self._frames,
            "OP_ADD": AluOp.ADD,
            "OP_SUB": AluOp.SUB,
            "OP_RSUB": AluOp.RSUB,
        }
        if self._pagemap is not None:
            env["REF"] = self._pagemap.referenced
            env["DRT"] = self._pagemap.dirty
        return env

    def _try_compile(self, ctx: _Context, pc: int, sva: Optional[int] = None):
        emitted = self._emit_word(ctx, pc, sva)
        if emitted is None:
            return None
        body, delta = emitted
        src = "def _h(regs, st):\n" + "\n".join("    " + line for line in body)
        ctx.deltas[pc if sva is None else sva] = delta
        return _make_handler(src, self._env)

    def _emit_word(self, ctx: _Context, pc: int, sva: Optional[int] = None):
        """Emit the handler body of the word at ``pc``.

        In a mapped context ``pc`` is virtual and ``sva`` its system
        virtual address, whose page must be in the frame table.  Returns
        ``(body lines, stats delta)``, or ``None`` when the word belongs
        to the reference stepper.
        """
        from .cpu import HazardMode  # local import: cpu.py imports us lazily

        cpu = self.cpu
        phys = self._phys
        if sva is not None:
            bits = phys._words.get(self._frames[sva >> 8] | (sva & 255), 0)
        elif not 0 <= pc < phys.size:
            return None  # reference fetch raises the BusError
        else:
            bits = phys._words.get(pc, 0)
        cached = cpu._decode_cache.get(pc)
        if cached is not None and cached[0] == bits:
            word = cached[1]
        else:
            try:
                word = decode(bits, pc)
            except Exception:
                return None  # reference fetch raises IllegalInstruction
            cpu._decode_cache[pc] = (bits, word)

        mode = cpu.hazard_mode
        checked = mode is HazardMode.CHECKED
        interlocked = mode is HazardMode.INTERLOCKED
        ovf_enabled = bool(ctx.key & 4)

        pre: list = []      # pure evaluation + all bail checks
        commit: list = []   # register/special commits (post-deferred)
        reads = sorted(r.number for r in word.reads())
        mem_piece = word.mem
        flow = None
        load_dst = None
        note = None
        pieces = noops = 0

        # ---- screen + evaluate each piece -----------------------------
        for idx, piece in enumerate(word.pieces):
            if isinstance(piece, Noop):
                noops += 1
                continue
            pieces += 1
            if isinstance(piece, (Trap, Rfs)):
                return None
            if isinstance(piece, ReadSpecial):
                if piece.sreg is not SpecialReg.LO:
                    return None
                commit.append(f"regs[{piece.dst.number}] = CPU.lo")
                continue
            if isinstance(piece, WriteSpecial):
                if piece.sreg is not SpecialReg.LO:
                    return None
                pre.append(f"_w{idx} = {self._operand(piece.src)}")
                commit.append(f"CPU.lo = _w{idx}")
                continue
            if isinstance(piece, MovImm):
                commit.append(f"regs[{piece.dst.number}] = {piece.value}")
                continue
            if isinstance(piece, LoadImm):
                commit.append(f"regs[{piece.dst.number}] = {u32(piece.value)}")
                continue
            if isinstance(piece, Alu):
                lines = self._emit_alu(piece, idx, ovf_enabled)
                if lines is None:
                    return None
                pre.extend(lines)
                commit.append(f"regs[{piece.dst.number}] = _t{idx}")
                continue
            if isinstance(piece, SetCond):
                cond = _COND_TEMPLATES[piece.cond].format(
                    a=self._operand(piece.s1), b=self._operand(piece.s2)
                )
                pre.append(f"_t{idx} = 1 if {cond} else 0")
                commit.append(f"regs[{piece.dst.number}] = _t{idx}")
                continue
            if isinstance(piece, CompareBranch):
                if not isinstance(piece.target, int):
                    return None
                cond = _COND_TEMPLATES[piece.cond].format(
                    a=self._operand(piece.s1), b=self._operand(piece.s2)
                )
                pre.append(f"_tk = {cond}")
                if interlocked:
                    # taken branches squash the pipe: reference work
                    pre.append("if _tk: raise _B")
                flow = piece
                continue
            if isinstance(piece, Jump):
                if not isinstance(piece.target, int) or interlocked:
                    return None
                if piece.link:
                    commit.append(f"regs[{RA.number}] = {pc + 1 + piece.delay_slots}")
                flow = piece
                continue
            if isinstance(piece, JumpIndirect):
                if interlocked:
                    return None
                pre.append(f"_tgt = regs[{piece.reg.number}]")
                if piece.link:
                    commit.append(f"regs[{RA.number}] = {pc + 1 + piece.delay_slots}")
                flow = piece
                continue
            if isinstance(piece, (Load, Store)):
                continue  # handled below with the address
            return None  # unknown piece type

        # ---- memory reference -----------------------------------------
        mem_lines: list = []
        if mem_piece is not None:
            ea = self._emit_ea(mem_piece, pre, sva is not None)
            if ea is None:
                return None
            if sva is not None:
                ea = self._emit_translate(ea, pre, sva, ctx.space)
                mem_lines.append("REF[_pg] = True")
            note = mem_piece.note
            if isinstance(mem_piece, Load):
                mem_lines.append(f"_vld = MWG({ea}, 0)")
                load_dst = mem_piece.dst.number
            else:
                if sva is not None:
                    mem_lines.append("DRT[_pg] = True")
                pre.append(f"_vst = regs[{mem_piece.src.number}]")
                mem_lines.append(f"MW[{ea}] = _vst")
                mem_lines.append(f"if {ea} in FPCS: INVAL({ea})")

        # ---- assemble the body ----------------------------------------
        body: list = []
        if (checked or interlocked) and reads:
            conflict = " or ".join(f"_dr == {r}" for r in reads)
            body.append("_dr = st[0]")
            body.append(f"if _dr != -1 and ({conflict}): raise _B")
        body.extend(pre)
        body.extend(mem_lines)
        body.append("_d = st[0]")
        body.append("if _d != -1:")
        body.append("    regs[_d] = st[1]")
        if load_dst is None:
            body.append("    st[0] = -1")
        body.extend(commit)
        if load_dst is not None:
            if interlocked:
                body.append(f"regs[{load_dst}] = _vld")
            body.append(f"st[0] = {load_dst}")
            body.append("st[1] = _vld")

        branches = 1 if flow is not None else 0
        taken_static = 1 if isinstance(flow, (Jump, JumpIndirect)) else 0
        delta = (
            pieces,
            noops,
            1 if load_dst is not None else 0,
            1 if isinstance(mem_piece, Store) else 0,
            branches,
            taken_static,
            1 if word.uses_memory else 0,
            note,
        )
        body.extend(self._emit_epilogue(flow, pc))
        return body, delta

    # ---- emit helpers -----------------------------------------------------

    @staticmethod
    def _operand(op) -> str:
        if isinstance(op, Imm):
            return str(op.value)
        return f"regs[{op.number}]"

    def _emit_alu(self, piece: Alu, idx: int, ovf_enabled: bool) -> Optional[list]:
        lines = [f"_a{idx} = {self._operand(piece.s1)}"]
        a = f"_a{idx}"
        op = piece.op
        if op is AluOp.MOV:
            lines.append(f"_t{idx} = {a}")
            return lines
        if op is AluOp.NOT:
            lines.append(f"_t{idx} = {a} ^ 4294967295")
            return lines
        if op is AluOp.IC:
            lines.append("_sh = (CPU.lo & 3) * 8")
            lines.append(
                f"_t{idx} = (regs[{piece.dst.number}] & ~(255 << _sh) & 4294967295)"
                f" | (({a} & 255) << _sh)"
            )
            return lines
        lines.append(f"_b{idx} = {self._operand(piece.s2)}")
        b = f"_b{idx}"
        if ovf_enabled and op in _OVF_OPS:
            lines.append(f"if OVF(OP_{op.name}, {a}, {b}): raise _B")
        if op is AluOp.ADD:
            expr = f"({a} + {b}) & 4294967295"
        elif op is AluOp.SUB:
            expr = f"({a} - {b}) & 4294967295"
        elif op is AluOp.RSUB:
            expr = f"({b} - {a}) & 4294967295"
        elif op is AluOp.AND:
            expr = f"{a} & {b}"
        elif op is AluOp.OR:
            expr = f"{a} | {b}"
        elif op is AluOp.XOR:
            expr = f"{a} ^ {b}"
        elif op is AluOp.SLL:
            expr = f"({a} << ({b} & 31)) & 4294967295"
        elif op is AluOp.SRL:
            expr = f"{a} >> ({b} & 31)"
        elif op is AluOp.SRA:
            expr = (
                f"(({a} - 4294967296) >> ({b} & 31)) & 4294967295"
                f" if {a} & 2147483648 else {a} >> ({b} & 31)"
            )
        elif op is AluOp.XC:
            expr = f"({b} >> (({a} & 3) * 8)) & 255"
        elif op is AluOp.MSTEP:
            expr = f"({a} * 2 + {b}) & 4294967295"
        elif op is AluOp.DSTEP:
            lines.append(f"_sh = ({a} << 1) & 4294967295")
            lines.append(
                f"_t{idx} = (_sh - {b}) | 1 if _sh >= {b} else _sh & 4294967294"
            )
            return lines
        else:
            return None
        lines.append(f"_t{idx} = {expr}")
        return lines

    def _emit_ea(self, piece, pre: list, mapped: bool = False) -> Optional[str]:
        """Emit effective-address computation + bail checks; returns its name.

        A ``mapped`` address is virtual: it gets no physical checks here,
        :meth:`_emit_translate` follows.
        """
        size = self._phys.size
        addr = piece.addr
        ea = "_ea"
        if isinstance(addr, Absolute):
            if mapped:
                return str(u32(addr.addr))
            ea_val = addr.addr
            if not 0 <= ea_val < size:
                return None  # always a bus error: reference territory
            if self._devices is not None and self._devices.claims(ea_val):
                return None  # device register: always reference
            return str(ea_val)
        if isinstance(addr, Displacement):
            if addr.disp == 0:
                pre.append(f"{ea} = regs[{addr.base.number}]")
            else:
                pre.append(
                    f"{ea} = (regs[{addr.base.number}] + {addr.disp}) & 4294967295"
                )
        elif isinstance(addr, BaseIndex):
            pre.append(
                f"{ea} = (regs[{addr.base.number}] + regs[{addr.index.number}])"
                " & 4294967295"
            )
        elif isinstance(addr, BaseShifted):
            pre.append(f"{ea} = regs[{addr.base.number}] >> {addr.shift}")
        else:
            return None
        if mapped:
            return ea
        pre.append(f"if {ea} >= {size}: raise _B")
        if self._devices is not None:
            from ..system.devices import DEV_BASE, DEV_WORDS

            pre.append(f"if {DEV_BASE} <= {ea} < {DEV_BASE + DEV_WORDS}: raise _B")
        return ea

    @staticmethod
    def _emit_translate(ea: str, pre: list, sva: int, space: int) -> str:
        """Emit the segment check and frame-table lookup of a mapped data
        reference at virtual ``ea``; returns the physical address's name.

        The handler at ``sva`` only runs while ``segpid`` names its
        process, so the process base is a constant.  ``_pg`` holds
        the system page, for the referenced and dirty bits.
        """
        half = space >> 1
        base = sva - sva % space
        pre.append(f"if {ea} < {half}:")
        pre.append(f"    _s = {ea} + {base}")
        pre.append(f"elif {ea} >= {(1 << 32) - half}:")
        pre.append(f"    _s = {ea} - {(1 << 32) - space - base}")
        pre.append("else:")
        pre.append("    raise _B")
        pre.append("_pg = _s >> 8")
        pre.append("_f = FR.get(_pg)")
        pre.append("if _f is None: raise _B")
        pre.append("_pa = _f | (_s & 255)")
        return "_pa"

    @staticmethod
    def _emit_epilogue(flow, pc: int) -> list:
        """Next-PC logic: age the two pending-branch slots, then return.

        The two-slot model is exact: entries live at most two words, at
        most one per countdown is live between steps, and when a branch
        in a delay slot creates a same-tick tie the later-appended entry
        both wins the fire and retires the loser -- which is precisely
        what overwriting the slot expresses.
        """
        seq = pc + 1
        if isinstance(flow, Jump):
            return [
                "_p = st[2]",
                f"st[2] = {int(flow.target)}",
                "st[3] = -1",
                f"return _p if _p != -1 else {seq}",
            ]
        if isinstance(flow, JumpIndirect):
            return [
                "_p = st[2]",
                "st[2] = st[3]",
                "st[3] = _tgt",
                f"return _p if _p != -1 else {seq}",
            ]
        if isinstance(flow, CompareBranch):
            return [
                "_p = st[2]",
                "if _tk:",
                "    st[4] += 1",
                f"    st[2] = {int(flow.target)}",
                "else:",
                "    st[2] = st[3]",
                "st[3] = -1",
                f"return _p if _p != -1 else {seq}",
            ]
        return [
            "_p = st[2]",
            "st[2] = st[3]",
            "st[3] = -1",
            f"return _p if _p != -1 else {seq}",
        ]

