"""Outside-in tracer: wraps the public functions of each markovembed module.

A function imported with ``from .kernel import eigenvalues`` has a second
binding in the importing module, so each wrapper is rebound under every
module attribute that holds the original.  ``restore`` puts the originals
back, so an untraced run executes the program's own code.  Spans nest on a
stack: a function's self time is its duration minus the time of the
wrapped calls it made.  Times use ``perf_counter_ns`` (cheap, wall clock).

Run as a script, it executes one traced CLI invocation and writes its
tallies as JSON to the file descriptor given in ``--tally-fd``.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = {"_roots": "roots", "kernel": "kernel", "classify": "classify", "embed": "embed",
          "models": "models", "inhom": "inhom", "cli": "cli"}
PACKAGE_MODULES = ("markovembed", "markovembed.errors") + tuple(f"markovembed.{m}" for m in LAYERS)


def _bindings():
    """(module, attribute, value) for every function bound in the package."""
    out = []
    for name in PACKAGE_MODULES:
        mod = importlib.import_module(name)
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value):
                out.append((mod, attr, value))
    return out


def snapshot() -> dict:
    """Identity of every function binding, to verify a restore."""
    return {(mod.__name__, attr): id(value) for mod, attr, value in _bindings()}


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.self_ns = collections.Counter()
        self.statuses = collections.Counter()  # hyperbola_search outcomes
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._stack, time.perf_counter_ns
        statuses = self.statuses if key == "embed.hyperbola_search" else None

        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if statuses is not None:
                statuses[result[0].value] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        targets = {}
        for short, layer in LAYERS.items():
            mod = importlib.import_module(f"markovembed.{short}")
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    targets[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for mod, attr, value in _bindings():
            if id(value) in targets:
                self._saved.append((mod, attr, value))
                setattr(mod, attr, targets[id(value)][1])

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def tallies(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "statuses": dict(self.statuses)}


def _cli_child(argv: list[str]) -> int:
    """One traced ``markovembed`` invocation; tallies go to --tally-fd."""
    fd = int(argv[argv.index("--tally-fd") + 1])
    args = argv[argv.index("--") + 1:]
    from markovembed import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with os.fdopen(fd, "w") as fh:
            json.dump(tracer.tallies(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
