"""Per-layer tracing from outside the program.

`Tracer.install` replaces, in place, every function that
`kgprov.maintenance` imports from the evaluate, planner, query and
subquery modules, plus `GlobalPlan.topo_order`, the `KnowledgeGraph`
mutators and the `Engine` entry points, with wrappers that record one
span per call. Nothing under `src/` changes; `uninstall` puts the
originals back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import defaultdict

import kgprov.maintenance as maintenance
from kgprov.maintenance import Engine
from kgprov.planner import GlobalPlan
from kgprov.store import KnowledgeGraph

LAYER_MODULES = ("evaluate", "planner", "query", "subquery")

METHODS = [
    (GlobalPlan, "topo_order", "planner.topo_order"),
    (KnowledgeGraph, "insert_triple", "store.insert_triple"),
    (KnowledgeGraph, "insert_edge", "store.insert_edge"),
    (KnowledgeGraph, "delete_edge", "store.delete_edge"),
    (Engine, "register_query", "maintenance.register_query"),
    (Engine, "insert_triple", "maintenance.insert_triple"),
    (Engine, "delete_edge", "maintenance.delete_edge"),
]


def _rows(deltas: dict) -> tuple[int, int]:
    return len(deltas), sum(len(d) for d in deltas.values())


def _pruned(report: dict) -> int:
    return sum(len(d.pruned) + len(d.removed) for d in report.values())


# counts read from a call's return value, kept as the span's payload
PAYLOADS = {
    "planner.topo_order": len,
    "evaluate.compute_insert_deltas": _rows,
    "evaluate.delta_delete": _pruned,
}


def layer_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced call site."""
    out = []
    for attr, fn in sorted(vars(maintenance).items()):
        module = getattr(fn, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(fn) and module.startswith("kgprov.") and layer in LAYER_MODULES:
            out.append((maintenance, attr, f"{layer}.{attr}"))
    return out + METHODS


class Tracer:
    """Span = (name, start, end, parent index, operation index, payload);
    the operation is the root span (a registration, an update, or one
    graph-load insert) that caused the call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        payload_of = PAYLOADS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                op = stack[0] if stack else idx
                spans[idx] = (name, t0, t1, parent, op, None)
            if payload_of is not None:
                spans[idx] = spans[idx][:5] + (payload_of(result),)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in layer_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class SpanTable:
    """Durations and self times of every span, grouped by operation."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_s = list(self.dur)
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                p = spans[parent]
                if not (p[1] <= s[1] and s[2] <= p[2]):
                    raise ValueError(f"span {i} ({s[0]}) escapes its parent {p[0]}")
                self.self_s[parent] -= self.dur[i]
        self.by_op: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_op[s[4]].append(i)
        for op, members in self.by_op.items():
            total = sum(self.self_s[i] for i in members)
            if abs(total - self.dur[op]) > 1e-9 * max(1, len(members)):
                raise ValueError(f"self times of operation {op} do not sum to its span")

    def ops(self, root_name: str, lo: int, hi: int) -> list[int]:
        return [
            i for i in range(lo, hi)
            if self.spans[i][3] == -1 and self.spans[i][0] == root_name
        ]

    def per_op(self, op: int) -> dict[str, list]:
        """name -> [inclusive seconds, self seconds, payloads] within one op."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, []])
        for i in self.by_op[op]:
            entry = out[self.spans[i][0]]
            entry[0] += self.dur[i]
            entry[1] += self.self_s[i]
            if self.spans[i][5] is not None:
                entry[2].append(self.spans[i][5])
        return out

    def totals(self, lo: int, hi: int) -> dict[str, list[float]]:
        """name -> [inclusive seconds, self seconds] over spans[lo:hi]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i in range(lo, hi):
            entry = out[self.spans[i][0]]
            entry[0] += self.dur[i]
            entry[1] += self.self_s[i]
        return out
