"""User-mode (mapped) execution runs on handlers, translated once.

Deterministic counts, not a clock.  A fixed kernel mix -- the nine
``multiprog`` programs in three groups, at quantum 1000 and 4 frames per
process, so the larger groups evict pages and demand-load them again -- must:

- run at most 5% of its words on the reference stepper.  What is left
  is mostly the kernel's own privileged words, plus trap and fault
  words and the words ``rfs`` forces: 4.3% today.  Reference-stepping
  every mapped word, as the engine once did, gives 76%.
- translate at most 1.1 handlers per distinct system virtual address
  executed (user words, with the PID folded in, plus kernel words);
  0.94 today.  Handlers survive remaps, so a page that is evicted and
  loaded again is not translated again; dropping a page's handlers on
  every unmap gives 2.2 per address.

The distinct addresses come from a reference-stepped run of the same
kernels, which fetches every executed word through the memory port.
"""

from repro.compiler import compile_source
from repro.mjlang import compile_minijava
from repro.system.kernel import Kernel
from repro.workloads import CORPUS, EXPECTED_OUTPUT, MINIJAVA_CORPUS, MINIJAVA_EXPECTED

PROGRAMS = (
    "scanner", "strings", "sieve", "calc", "fib_iterative", "logic",
    "mj_list", "mj_tree", "mj_shapes",
)
GROUPS = (PROGRAMS[0:2], PROGRAMS[2:5], PROGRAMS[5:9])
QUANTUM = 1000
FRAMES_PER_PROCESS = 4

MAX_REF_STEP_SHARE = 0.05
MAX_COMPILES_PER_ADDRESS = 1.1


def _image(name):
    if name in MINIJAVA_CORPUS:
        return compile_minijava(MINIJAVA_CORPUS[name]).program
    return compile_source(CORPUS[name]).program


def _kernel(group):
    kernel = Kernel(quantum=QUANTUM, max_frames=FRAMES_PER_PROCESS * len(group))
    for name in group:
        kernel.add_process(_image(name))
    return kernel


def _executed_addresses(group):
    """Distinct (mapped, address) fetches of a reference-stepped run."""
    kernel = _kernel(group)
    seen = set()
    read = kernel.memory.read

    def recording_read(addr, *, supervisor=True, fetch=False, mapped=False):
        value = read(addr, supervisor=supervisor, fetch=fetch, mapped=mapped)
        if fetch:
            seen.add((mapped, addr))
        return value

    kernel.memory.read = recording_read
    kernel.run(fast=False)
    return seen


def test_mapped_words_run_on_handlers_translated_once():
    expected = {**EXPECTED_OUTPUT, **MINIJAVA_EXPECTED}
    words = ref_steps = compiles = addresses = victims = 0
    for group in GROUPS:
        kernel = _kernel(group)
        kernel.run()
        for pid, name in enumerate(group):
            assert kernel.output(pid) == expected[name], name
        victims += kernel.pagemap.stats.victims_suggested
        engine = kernel.cpu.fastpath()
        words += kernel.cpu.stats.words
        ref_steps += engine.stats.ref_steps
        compiles += engine.stats.compiles
        addresses += len(_executed_addresses(group))
    assert victims > 0  # the frame cap evicts
    share = ref_steps / words
    per_address = compiles / addresses
    print(
        f"\n{ref_steps} reference steps in {words} words = {share:.4f}; "
        f"{compiles} translations for {addresses} addresses = {per_address:.3f}"
    )
    assert share <= MAX_REF_STEP_SHARE, (
        f"{share:.4f} of words reference-stepped (limit {MAX_REF_STEP_SHARE})"
    )
    assert per_address <= MAX_COMPILES_PER_ADDRESS, (
        f"{per_address:.3f} translations per executed address "
        f"(limit {MAX_COMPILES_PER_ADDRESS})"
    )
