"""Update workloads, benchmark drivers, and the randomized oracle.

A workload is a text file of single-edge updates:

    + <subject> <predicate> <object>      insert
    - e<id>                               delete by edge id
    - <subject> <predicate> <object>      delete first matching edge

Generation is deterministic under a seed; since edge ids are assigned by
a monotone counter, future ids of generated insertions are predictable
and deletions may reference them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .evaluate import evaluate_patterns
from .maintenance import Engine
from .provenance import Polynomial
from .query import QueryGraph, TriplePattern, Var
from .store import KnowledgeGraph

PRESETS = {
    "insertion-heavy": 0.1,
    "insertion-leaning": 0.3,
    "balanced": 0.5,
    "deletion-leaning": 0.7,
    "deletion-heavy": 0.9,
}


@dataclass
class WorkloadConfig:
    size: int
    delete_ratio: float = 0.5
    seed: int = 0
    predicate_pool: list[str] = field(default_factory=list)


class WorkloadError(Exception):
    pass


def generate_workload(g: KnowledgeGraph, cfg: WorkloadConfig) -> list[str]:
    """Deterministic update stream against the current graph state.

    Insertions connect a vertex pair with no edge between it yet, using
    a pool predicate; deletions pick a random live pool edge (including
    edges inserted earlier in the same workload).
    """
    if cfg.size == 0:
        return []
    if not cfg.predicate_pool:
        raise WorkloadError("predicate pool is empty; nothing to generate")
    rng = random.Random(cfg.seed)
    nodes = sorted(g.nodes.names())  # all vertex names, stable order
    if len(nodes) < 2:
        raise WorkloadError("graph has fewer than two vertices")
    pool = sorted(cfg.predicate_pool)
    pool_ids = {g.predicates.get(p) for p in pool}

    # simulated live state: ids and triples of deletable edges, and the
    # set of (unordered) vertex pairs currently connected by any edge
    live_ids: list[int] = []
    live_pos: dict[int, int] = {}
    live_triple: dict[int, tuple[str, str, str]] = {}
    pair_edges: dict[tuple[str, str], int] = {}
    for e in g.edges.values():
        s, o = g.node_name(e.subject), g.node_name(e.object)
        pair = (s, o) if s <= o else (o, s)
        pair_edges[pair] = pair_edges.get(pair, 0) + 1
        if e.predicate in pool_ids:
            live_pos[e.id] = len(live_ids)
            live_ids.append(e.id)
            live_triple[e.id] = (s, g.predicate_name(e.predicate), o)
    next_id = g.next_edge_id

    def drop(eid: int):
        pos = live_pos.pop(eid)
        last = live_ids.pop()
        if last != eid:
            live_ids[pos] = last
            live_pos[last] = pos
        s, _, o = live_triple.pop(eid)
        pair = (s, o) if s <= o else (o, s)
        pair_edges[pair] -= 1
        if not pair_edges[pair]:
            del pair_edges[pair]

    lines: list[str] = []
    for _ in range(cfg.size):
        if rng.random() < cfg.delete_ratio and live_ids:
            eid = live_ids[rng.randrange(len(live_ids))]
            lines.append(f"- e{eid}")
            drop(eid)
            continue
        for _attempt in range(200):
            s = nodes[rng.randrange(len(nodes))]
            o = nodes[rng.randrange(len(nodes))]
            pair = (s, o) if s <= o else (o, s)
            if s != o and pair not in pair_edges:
                break
        else:
            raise WorkloadError("could not find an unconnected vertex pair")
        p = pool[rng.randrange(len(pool))]
        lines.append(f"+ {s} {p} {o}")
        pair_edges[pair] = 1
        live_pos[next_id] = len(live_ids)
        live_ids.append(next_id)
        live_triple[next_id] = (s, p, o)
        next_id += 1
    return lines


Op = tuple  # ("+", (s, p, o)) | ("-id", eid) | ("-triple", (s, p, o))


def parse_workload(lines) -> list[Op]:
    ops: list[Op] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "+" and len(parts) == 4:
            ops.append(("+", tuple(parts[1:])))
        elif parts[0] == "-" and len(parts) == 2 and parts[1][0] == "e" and parts[1][1:].isdecimal():
            ops.append(("-id", int(parts[1][1:])))
        elif parts[0] == "-" and len(parts) == 4:
            ops.append(("-triple", tuple(parts[1:])))
        else:
            raise WorkloadError(f"line {line_no}: bad update {line!r}")
    return ops


# --------------------------------------------------------------------------
# Benchmark drivers
# --------------------------------------------------------------------------


@dataclass
class BenchReport:
    mode: str
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    skipped: int = 0
    total_time: float = 0.0
    response_time: float = 0.0
    maintenance_time: float = 0.0
    answers_added: int = 0
    answers_removed: int = 0

    @property
    def mean_update_time(self) -> float:
        return self.total_time / self.updates if self.updates else 0.0

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "updates": self.updates,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "skipped": self.skipped,
            "total_time": self.total_time,
            "response_time": self.response_time,
            "maintenance_time": self.maintenance_time,
            "mean_update_time": self.mean_update_time,
            "answers_added": self.answers_added,
            "answers_removed": self.answers_removed,
        }


def _resolve_delete(g: KnowledgeGraph, op: Op) -> int | None:
    if op[0] == "-id":
        return op[1] if op[1] in g.edges else None
    s, p, o = op[1]
    sid, pid, oid = g.nodes.get(s), g.predicates.get(p), g.nodes.get(o)
    if sid is None or pid is None or oid is None:
        return None  # a name the graph has never seen matches nothing
    ids = g.lookup_ids(sid, pid, oid)
    return min(ids) if ids else None


def apply_incremental(engine: Engine, ops: list[Op]) -> BenchReport:
    report = BenchReport(mode="incremental")
    for op in ops:
        t0 = time.perf_counter()
        if op[0] == "+":
            upd = engine.insert_triple(*op[1])
            report.inserts += 1
        else:
            eid = _resolve_delete(engine.graph, op)
            if eid is None:
                report.skipped += 1
                continue
            upd = engine.delete_edge(eid)
            report.deletes += 1
        report.updates += 1
        report.total_time += time.perf_counter() - t0
        report.response_time += upd.response_time
        report.maintenance_time += upd.maintenance_time
        report.answers_added += sum(len(v) for v in upd.added.values())
        report.answers_removed += sum(len(v) for v in upd.removed.values())
    return report


class NaiveRunner:
    """Baseline: after each update, re-execute every query whose
    predicate set contains the updated edge's predicate."""

    def __init__(self, graph: KnowledgeGraph, queries: list[QueryGraph]):
        self.graph = graph
        self.queries = queries
        self.answers: list[dict[tuple[int, ...], Polynomial]] = [
            evaluate_patterns(q.patterns, graph, q.projection) for q in queries
        ]

    def _refresh(self, pred: str):
        for i, q in enumerate(self.queries):
            if any(p.predicate == pred for p in q.patterns):
                self.answers[i] = evaluate_patterns(q.patterns, self.graph, q.projection)

    def apply(self, ops: list[Op]) -> BenchReport:
        report = BenchReport(mode="naive")
        for op in ops:
            t0 = time.perf_counter()
            if op[0] == "+":
                s, p, o = op[1]
                self.graph.insert_triple(s, p, o)
                report.inserts += 1
                self._refresh(p)
            else:
                eid = _resolve_delete(self.graph, op)
                if eid is None:
                    report.skipped += 1
                    continue
                edge = self.graph.delete_edge(eid)
                report.deletes += 1
                self._refresh(self.graph.predicate_name(edge.predicate))
            report.updates += 1
            report.total_time += time.perf_counter() - t0
        return report


def _snapshot(g: KnowledgeGraph, answers) -> list[dict]:
    """(query id, projected row -> polynomial) pairs rendered with node
    names and polynomial text, rows sorted."""
    return [
        {"query": qid, "rows": dict(sorted(
            (tuple(map(g.node_name, row)), poly.to_text()) for row, poly in rows.items()
        ))}
        for qid, rows in answers
    ]


def engine_answer_snapshot(engine: Engine) -> list[dict]:
    """Canonical, name-keyed answer dump for cross-mode comparison."""
    queries = engine.queries
    return _snapshot(engine.graph, ((qid, queries[qid].answers) for qid in sorted(queries)))


def naive_answer_snapshot(runner: NaiveRunner) -> list[dict]:
    """The same dump of a naive runner, whose queries are numbered from 1."""
    return _snapshot(runner.graph, enumerate(runner.answers, start=1))


# --------------------------------------------------------------------------
# Randomized oracle-equivalence trials
# --------------------------------------------------------------------------


def random_graph(
    rng: random.Random, n_nodes: int, n_preds: int, n_edges: int
) -> KnowledgeGraph:
    g = KnowledgeGraph()
    for e in range(n_edges):
        s = f"n{rng.randrange(n_nodes)}"
        o = f"n{rng.randrange(n_nodes)}"
        p = f"p{rng.randrange(n_preds)}"
        g.insert_triple(s, p, o)
    return g


def random_query(
    g: KnowledgeGraph, rng: random.Random, n_patterns: int
) -> QueryGraph:
    """Variable-connected query with constant predicates; occasionally
    repeats a predicate (making 1:m potential matches possible) or
    pins a constant endpoint."""
    preds = sorted(g.predicates.names()) or ["p0"]
    nodes = sorted(g.nodes.names()) or ["n0"]
    nvars = 0

    def new_var():
        nonlocal nvars
        nvars += 1
        return Var(f"x{nvars - 1}")

    patterns: list[TriplePattern] = []
    known_vars: list[Var] = []

    def endpoint(anchor_needed: bool):
        roll = rng.random()
        if anchor_needed or (known_vars and roll < 0.45):
            return known_vars[rng.randrange(len(known_vars))]
        if roll < 0.85 or not nodes:
            return new_var()
        return nodes[rng.randrange(len(nodes))]

    for i in range(n_patterns):
        pred = preds[rng.randrange(len(preds))]
        if i == 0:
            s, o = new_var(), new_var()
        else:
            if rng.random() < 0.5:
                s = endpoint(True)
                o = endpoint(False)
            else:
                o = endpoint(True)
                s = endpoint(False)
        patterns.append(TriplePattern(s, pred, o, ordinal=i))
        for t in (s, o):
            if isinstance(t, Var) and t not in known_vars:
                known_vars.append(t)
    variables = sorted({v.name for v in known_vars})
    k = rng.randrange(1, len(variables) + 1)
    projection = sorted(rng.sample(variables, k))
    return QueryGraph(patterns, projection)


@dataclass
class VerifyReport:
    trials: int = 0
    updates: int = 0
    comparisons: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_equivalence_trials(
    trials: int = 100,
    max_edges: int = 300,
    updates: int = 500,
    seed: int = 0,
    max_failures: int = 5,
) -> VerifyReport:
    """Random graphs, random standing queries, random update streams;
    after every update the engine's stored answers must equal a
    from-scratch evaluation, and the inverted indexes must audit clean.
    """
    report = VerifyReport()
    master = random.Random(seed)
    for trial in range(trials):
        trial_seed = master.randrange(2**32)
        rng = random.Random(trial_seed)
        n_edges = rng.randrange(20, max_edges + 1)
        # keep node count proportional to edge count: very dense
        # multigraphs make derivation counts (and polynomials) explode
        # combinatorially without exercising anything new
        n_nodes = rng.randrange(max(8, n_edges // 3), n_edges + 10)
        n_preds = rng.randrange(2, 8)
        g = random_graph(rng, n_nodes, n_preds, n_edges)
        engine = Engine(g)
        n_queries = rng.randrange(1, 6)
        registered: list[tuple[int, QueryGraph]] = []
        for _ in range(n_queries):
            for _attempt in range(20):
                q = random_query(g, rng, rng.randrange(2, 6))
                try:
                    receipt = engine.register_query(q)
                except Exception:
                    continue
                registered.append((receipt.query_id, q))
                break
        report.trials += 1
        if not registered:
            continue

        node_names = [f"n{i}" for i in range(n_nodes)]
        pred_names = sorted(g.predicates.names())
        for step in range(updates):
            if rng.random() < 0.5 and g.edges:
                eid = rng.choice(sorted(g.edges))
                engine.delete_edge(eid)
            else:
                engine.insert_triple(
                    rng.choice(node_names),
                    rng.choice(pred_names),
                    rng.choice(node_names),
                )
            report.updates += 1
            for qid, q in registered:
                report.comparisons += 1
                want = evaluate_patterns(q.patterns, g, q.projection)
                got = engine.queries[qid].answers
                if want != got:
                    report.failures.append(
                        f"trial {trial} (seed {trial_seed}) step {step} "
                        f"query {qid}: stored answers diverge from "
                        f"from-scratch evaluation"
                    )
                    if len(report.failures) >= max_failures:
                        return report
                    break
        problems = engine.index_audit()
        if problems:
            report.failures.append(
                f"trial {trial} (seed {trial_seed}): index audit failed: "
                + "; ".join(problems[:3])
            )
            if len(report.failures) >= max_failures:
                return report
    return report
