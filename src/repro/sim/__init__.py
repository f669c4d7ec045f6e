"""Machine simulator: functional execution and pipeline timing."""

from .cpu import Cpu, CpuStats, HazardMode
from .fastpath import FastPathEngine
from .faults import (
    BusError,
    ExceptionCause,
    Halted,
    HazardViolation,
    IllegalInstruction,
    InterruptRequest,
    KernelPanic,
    MachineFault,
    OverflowTrap,
    PageFault,
    PrivilegeViolation,
    TrapInstruction,
)
from .machine import (
    ENGINES,
    TRAP_HALT,
    TRAP_READ_INT,
    TRAP_WRITE_CHAR,
    TRAP_WRITE_INT,
    Machine,
    engine_is_fast,
    run_source,
)
from .memory import MemoryStats, MemorySystem, PhysicalMemory
from .surprise import SurpriseRegister
from .tracing import TraceRecord, format_trace, state_fingerprint, trace

__all__ = [
    "BusError",
    "Cpu",
    "CpuStats",
    "ENGINES",
    "ExceptionCause",
    "FastPathEngine",
    "Halted",
    "HazardMode",
    "HazardViolation",
    "IllegalInstruction",
    "InterruptRequest",
    "KernelPanic",
    "MachineFault",
    "Machine",
    "MemoryStats",
    "MemorySystem",
    "OverflowTrap",
    "PageFault",
    "PhysicalMemory",
    "PrivilegeViolation",
    "SurpriseRegister",
    "TraceRecord",
    "TRAP_HALT",
    "TRAP_READ_INT",
    "TRAP_WRITE_CHAR",
    "TRAP_WRITE_INT",
    "TrapInstruction",
    "engine_is_fast",
    "format_trace",
    "run_source",
    "state_fingerprint",
    "trace",
]
