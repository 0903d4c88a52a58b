"""Span recorder installed on the qndsim modules from outside the package.

Every public function bound in a ``qndsim.*`` module namespace is replaced
there by a wrapper that records a span; this includes third-party functions
bound in those namespaces, such as ``curve_fit`` or ``dataclasses.replace``.
Public classmethods of classes defined in the package are wrapped the same
way. Classes themselves are left untouched, so ``isinstance`` keeps working.

Span names follow the modules: a function defined in the package is named
``<module>.<qualname>`` after the module that defines it, whichever
namespace the call came through; a third-party function is named after the
module that binds it (``harness.curve_fit``, ``atoms.replace``).

Spans are kept in memory, aggregated per (name, parent) as calls, total
seconds, seconds covered by child spans, and calls that raised. Self time
is total minus child time.
"""
from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "qndsim"


class SpanRecorder:
    def __init__(self) -> None:
        # (name, parent) -> [calls, total_s, child_s, raised]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []   # [name, child seconds so far]

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            raised = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                rec[3] += raised

        return traced

    def drain(self) -> list[list]:
        """Aggregated spans since the last drain, as JSON-ready rows."""
        rows = [[name, parent, *rec] for (name, parent), rec
                in sorted(self.stats.items())]
        self.stats.clear()
        return rows


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap the public functions of every imported qndsim module.

    Returns the sorted span names that were installed.
    """
    wrappers: dict = {}
    names: set[str] = set()
    modules = sorted((n, m) for n, m in sys.modules.items()
                     if n == PACKAGE or n.startswith(PACKAGE + "."))
    for modname, module in modules:
        layer = modname.partition(".")[2] or PACKAGE
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (types.FunctionType,
                                types.BuiltinFunctionType)):
                owner = getattr(obj, "__module__", None) or ""
                if owner.startswith(PACKAGE + "."):
                    key = id(obj)
                    name = f"{owner.partition('.')[2]}.{obj.__qualname__}"
                else:
                    key = (modname, id(obj))
                    name = f"{layer}.{attr}"
                if key not in wrappers:
                    wrappers[key] = recorder.wrap(name, obj)
                    names.add(name)
                setattr(module, attr, wrappers[key])
            elif isinstance(obj, type) and obj.__module__ == modname:
                for cattr, cobj in list(vars(obj).items()):
                    if cattr.startswith("_") or not isinstance(cobj,
                                                               classmethod):
                        continue
                    name = f"{layer}.{obj.__qualname__}.{cattr}"
                    setattr(obj, cattr,
                            classmethod(recorder.wrap(name, cobj.__func__)))
                    names.add(name)
    return sorted(names)
