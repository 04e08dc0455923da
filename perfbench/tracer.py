"""Run one paulisched operation with a span recorded at every module boundary.

Usage (the benchmark starts this as a child process):

    python3 tracer.py SPANS_JSON cli ARGS...     # paulisched.cli.main(ARGS)
    python3 tracer.py SPANS_JSON batch ARGS...   # batch.run(ARGS)

Boundaries are found, not listed: every function named in a paulisched
module's ``__all__`` is wrapped in its own module (where the cli and
intra-module calls look it up) and wherever another paulisched module binds
it by import.  The program itself is not changed.

Spans are aggregated into a calling-context tree: one node per boundary
label under a given parent path, holding call count and total time, so a
hot leaf such as ``pauli.multiply`` costs one node per parent, not one
record per call.  A node's self time is its total minus its children's.
The root node, ``process``, spans the whole run from this module's import;
its self time is the time outside every span.
Calls into ``flows`` also sum the sizes of the FlowNetwork and ScaledFlow
arguments they receive.  The tree is written to SPANS_JSON on exit.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import time
from functools import wraps
from pathlib import Path

_clock = time.perf_counter
_START = _clock()


class Node:
    __slots__ = ("label", "calls", "total", "counters", "children")

    def __init__(self, label: str):
        self.label = label
        self.calls = 0
        self.total = 0.0
        self.counters: dict[str, int] = {}
        self.children: dict[str, "Node"] = {}

    def child(self, label: str) -> "Node":
        node = self.children.get(label)
        if node is None:
            node = self.children[label] = Node(label)
        return node

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        child_total = sum(c.total for c in self.children.values())
        return {
            "label": self.label,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - child_total,
            "counters": self.counters,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    def __init__(self):
        self.top = Node("process")
        self.stack = [self.top]
        self.boundaries: list[str] = []

    def wrap(self, fn, label: str, probe=None):
        stack = self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            node = stack[-1].child(label)
            stack.append(node)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += _clock() - start
                node.calls += 1
                stack.pop()
            if type(result) is list:
                node.count("items_out", len(result))
            if probe is not None:
                probe(node, args)
            return result

        return traced

    def span(self, label: str, fn, *args):
        """Call fn(*args) inside a span, without wrapping it anywhere."""
        return self.wrap(fn, label)(*args)


def _probe_flow_arguments(node: Node, args) -> None:
    for arg in args:
        kind = type(arg).__name__
        if kind == "FlowNetwork":
            node.count("network_nodes", arg.node_count)
            node.count("network_edges", len(arg.edges))
        elif kind == "ScaledFlow":
            node.count("fractional_edges", sum(1 for f in arg.numerators if f % arg.denominator))


def paulisched_modules():
    import paulisched

    modules = [paulisched]
    for info in pkgutil.iter_modules(paulisched.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"paulisched.{info.name}"))
    return modules


def install(tracer: Tracer) -> None:
    """Wrap every exported paulisched function at each binding in the package."""
    modules = paulisched_modules()
    for owner in modules[1:]:
        short = owner.__name__.rsplit(".", 1)[1]
        for name in getattr(owner, "__all__", ()):
            fn = getattr(owner, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != owner.__name__:
                continue
            label = f"{short}.{name}"
            probe = _probe_flow_arguments if short == "flows" else None
            traced = tracer.wrap(fn, label, probe)
            tracer.boundaries.append(label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    spans_path, mode, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.top.calls = 1

    def setup():
        install(tracer)
        if mode == "batch":
            return importlib.import_module("batch").run  # this script's directory is on sys.path
        return importlib.import_module("paulisched.cli").main

    entry = tracer.span("setup.import", setup)
    try:
        status = entry(args)
    finally:
        tracer.top.total = _clock() - _START
        payload = {"boundaries": tracer.boundaries, "tree": tracer.top.to_dict()}
        Path(spans_path).write_text(json.dumps(payload))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
