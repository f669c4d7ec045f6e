"""Run-time code generation for the fast path's per-word handlers.

:mod:`repro.sim.fastpath` translates each instruction word into the
Python source of one handler function.  This module turns that source
into a function, and keeps the cost of doing so low: handlers differ
mostly in their integer literals (pcs, targets, register numbers,
addresses), and ``compile`` is the largest cost of translation.  So each
*shape* -- the source with its literals blanked -- compiles once per
process, with a probe value for every literal; a handler copies the
shape's code object with its own literals put into those ``co_consts``
slots.  The bytecode is the one ``compile(src)`` produces, up to
constant-table indices.
"""

from __future__ import annotations

import re
from types import CodeType, FunctionType
from typing import Dict, Optional

#: the integer literals of generated handler source: pcs, targets,
#: register numbers, addresses (identifiers such as ``_t3`` and the
#: fixed ``-1`` sentinel do not match)
_LITERAL = re.compile(r"(?<![\w.\-])(\d+)")

#: handler source with its literals blanked -> (code, literal slots in
#: co_consts), or None when the compiler folded a literal away.  Kept
#: process-wide: a code object holds no engine state (globals are bound
#: per handler), so each new kernel or machine reuses the shapes
_SHAPES: Dict[str, Optional[tuple]] = {}

#: shapes kept process-wide; past this, new shapes compile uncached
_MAX_SHAPES = 4096

#: literal i compiles as _PROBE + i, so its co_consts slot can be found
_PROBE = 1 << 40


def _make_handler(src: str, env: Dict[str, object]):
    """The function defined by generated handler source ``src`` over ``env``.

    ``src`` defines one function named ``_h``; ``env`` is its globals.
    """
    parts = _LITERAL.split(src)
    key = "#".join(parts[0::2])
    shape = _SHAPES.get(key, False)
    if shape is False:
        shape = _compile_shape(parts)
        if len(_SHAPES) < _MAX_SHAPES:
            _SHAPES[key] = shape
    if shape is None:
        exec(src, env)  # noqa: S102 - generating the threaded-code handler
        return env.pop("_h")
    code, slots = shape
    consts = list(code.co_consts)
    for slot, literal in zip(slots, parts[1::2]):
        consts[slot] = int(literal)
    return FunctionType(code.replace(co_consts=tuple(consts)), env)


def _compile_shape(parts: list) -> Optional[tuple]:
    """Compile a handler shape; None unless every literal kept its own slot."""
    probed = list(parts)
    for i in range(1, len(parts), 2):
        probed[i] = str(_PROBE + i // 2)
    module = compile("".join(probed), "<handler>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    try:
        slots = [code.co_consts.index(_PROBE + i) for i in range(len(parts) // 2)]
    except ValueError:
        return None  # two literals folded into one constant
    return code, slots
