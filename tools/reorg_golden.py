#!/usr/bin/env python3
"""Golden digests of the reorganizer's output.

Hashes every ``Program`` image (memory, symbols, entry) the
reorganizer produces at all four Table 11 levels from the piece streams
of a fixed input set -- exactly the images ``compile_source``,
``compile_minijava`` and ``build_kernel_program`` assemble:

- every program in ``CORPUS`` and ``MINIJAVA_CORPUS``;
- every ``examples/minijava/*.java`` file;
- the kernel ROM source of ``repro.system.kernel``;
- fuzz cases seed 0, indices 0-23, in ``ast`` and ``minijava`` modes.

``write`` records the digests in ``REORG_GOLDEN.json``; ``check``
recomputes them and exits 1 naming every entry whose image changed.
A reorganizer change that claims byte-identical output must pass
``check`` against a fixture written before the change.

Usage::

    PYTHONPATH=src python tools/reorg_golden.py check
    PYTHONPATH=src python tools/reorg_golden.py write
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
from typing import Dict, Iterator, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(REPO_ROOT, "REORG_GOLDEN.json")
FUZZ_SEED = 0
FUZZ_CASES = range(24)
FUZZ_MODES = ("ast", "minijava")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def program_digest(program) -> str:
    """sha256 over a canonical rendering of a program image."""
    image = {
        "memory": sorted(program.memory.items()),
        "symbols": sorted(program.symbols.items()),
        "entry": program.entry,
    }
    text = json.dumps(image, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_streams() -> Iterator[Tuple[str, list, str]]:
    """(name, labeled piece stream, entry symbol) of every input."""
    from repro.asm import assemble_pieces
    from repro.compiler.codegen_mips import generate
    from repro.compiler.driver import piece_stream
    from repro.compiler.runtime import runtime_stream
    from repro.fuzz import make_case
    from repro.mjlang import analyze_minijava
    from repro.system.kernel import _kernel_source
    from repro.workloads import CORPUS, MINIJAVA_CORPUS

    def minijava_stream(source):
        unit = generate(analyze_minijava(source))
        return list(unit.stream) + runtime_stream(
            unit.needs_mul, unit.needs_div, unit.needs_alloc
        )

    for name, source in CORPUS.items():
        yield f"corpus/{name}", piece_stream(source), "start"
    for name, source in MINIJAVA_CORPUS.items():
        yield f"minijava/{name}", minijava_stream(source), "start"
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "minijava", "*.java"))):
        with open(path) as handle:
            stream = minijava_stream(handle.read())
        yield f"examples/{os.path.basename(path)}", stream, "start"
    yield "kernel/rom", assemble_pieces(_kernel_source(1 << 19)), "dispatch"
    for mode in FUZZ_MODES:
        for index in FUZZ_CASES:
            source = make_case(FUZZ_SEED, index, mode).source
            stream = piece_stream(source) if mode == "ast" else minijava_stream(source)
            yield f"fuzz/{mode}/s{FUZZ_SEED}/c{index}", stream, "start"


def compute() -> Dict[str, str]:
    """Digest of every golden input at every level, keyed name@level."""
    from repro.reorg.reorganizer import ALL_LEVELS, reorganize

    digests: Dict[str, str] = {}
    for name, stream, entry in golden_streams():
        for level in ALL_LEVELS:
            program = reorganize(stream, level).to_program(entry_symbol=entry)
            digests[f"{name}@{level.value}"] = program_digest(program)
    return digests


def check() -> list:
    """Entries whose digest differs from the fixture (empty when clean)."""
    with open(FIXTURE) as handle:
        expected = json.load(handle)["digests"]
    actual = compute()
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("write", "check"))
    args = parser.parse_args(argv)
    if args.mode == "write":
        digests = compute()
        with open(FIXTURE, "w") as handle:
            json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {FIXTURE}")
        return 0
    changed = check()
    if changed:
        print(f"reorg golden: {len(changed)} image(s) changed:", file=sys.stderr)
        for name in changed:
            print(f"  {name}", file=sys.stderr)
        return 1
    print("reorg golden: all images match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
