"""Set-up, closed-loop update stream and correctness gate.

One process, one thread, one caller: each update waits for the engine's
`UpdateReport` before the next one is sent.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

from kgprov.evaluate import evaluate_bgp
from kgprov.maintenance import Engine
from kgprov.query import QueryGraph, TriplePattern, Var
from kgprov.store import KnowledgeGraph

from workloads import Op, Query, Stream, Triple, digest

class GateError(Exception):
    """The engine's state disagrees with a from-scratch evaluation."""


@dataclass
class Attempts:
    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, *args):
        """Call fn; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None


def to_query_graph(q: Query) -> QueryGraph:
    def term(t: str):
        return Var(t[1:]) if t.startswith("?") else t

    pats, proj = q
    return QueryGraph(
        [TriplePattern(term(s), p, term(o), ordinal=i) for i, (s, p, o) in enumerate(pats)],
        list(proj),
    )


def build_graph(triples: list[Triple]) -> KnowledgeGraph:
    g = KnowledgeGraph()
    for s, p, o in triples:
        g.insert_triple(s, p, o)
    return g


@dataclass
class Setup:
    engine: Engine
    qids: list[int]
    seconds: float


def set_up(triples: list[Triple], queries: list[Query], counter: Attempts) -> Setup:
    """Graph build plus registration of every query, timed."""
    graphs = [to_query_graph(q) for q in queries]
    t0 = time.perf_counter()
    engine = Engine(build_graph(triples))
    qids = []
    for qg in graphs:
        receipt = counter.attempt(engine.register_query, qg)
        if receipt is not None:
            qids.append(receipt.query_id)
    return Setup(engine, qids, time.perf_counter() - t0)


def resolve_delete(g: KnowledgeGraph, triple: Triple) -> int:
    key = (g.nodes.get(triple[0]), g.predicates.get(triple[1]), g.nodes.get(triple[2]))
    ids = g.lookup_ids(*key) if None not in key else ()
    if not ids:
        raise LookupError(f"no edge {' '.join(triple)} to delete")
    return min(ids)


@dataclass
class StreamResult:
    # per update, in stream order: "+" or "-", and its latency (None if it failed)
    kinds: list[str] = field(default_factory=list)
    latency_s: list[float | None] = field(default_factory=list)
    # wall time of each block, resolving deletes and loop overhead included
    block_s: list[float] = field(default_factory=list)
    answers_changed: int = 0

    @property
    def updates(self) -> int:
        return len(self.kinds)

    @property
    def wall_s(self) -> float:
        return sum(self.block_s)

    def samples(self, kind: str) -> list[float]:
        return [t for k, t in zip(self.kinds, self.latency_s) if k == kind and t is not None]


def run_stream(engine: Engine, stream: Stream, counter: Attempts, blocks: int) -> StreamResult:
    """Send blocks 0 .. blocks-1 of the stream, one update at a time."""
    res = StreamResult()
    g = engine.graph
    timed: list[float] = []

    def insert(triple):
        t0 = time.perf_counter()
        report = engine.insert_triple(*triple)
        timed.append(time.perf_counter() - t0)
        return report

    def delete(triple):
        eid = resolve_delete(g, triple)
        t0 = time.perf_counter()
        report = engine.delete_edge(eid)
        timed.append(time.perf_counter() - t0)
        return report

    for b in range(blocks):
        ops: list[Op] = stream.block(b)
        t0 = time.perf_counter()
        for kind, triple in ops:
            timed.clear()
            report = counter.attempt(insert if kind == "+" else delete, triple)
            res.kinds.append(kind)
            res.latency_s.append(timed[0] if report is not None else None)
            if report is not None:
                res.answers_changed += report.answers_changed
        res.block_s.append(time.perf_counter() - t0)
    return res


def best_of(passes: list[StreamResult]) -> StreamResult:
    """Each update's least latency over passes of the same blocks: what is
    left when interference from other work on the machine is taken out.
    Block times and answer counts are those of all passes together."""
    best = StreamResult(
        passes[0].kinds,
        block_s=[t for p in passes for t in p.block_s],
        answers_changed=sum(p.answers_changed for p in passes),
    )
    for timings in zip(*(p.latency_s for p in passes)):
        ok = [t for t in timings if t is not None]
        best.latency_s.append(min(ok) if ok else None)
    return best


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def answer_digest(engine: Engine, qids: list[int]) -> str:
    """Digest of every query's answers and polynomials, with vertices and
    edges written by name; equal for equal named graphs, whatever the ids."""
    g = engine.graph

    def edge_name(eid: int) -> str:
        e = g.edges[eid]
        return f"{g.node_name(e.subject)} {g.predicate_name(e.predicate)} {g.node_name(e.object)}"

    lines = []
    for qid in qids:
        lines.append(f"query {qid}")
        rows = []
        for row in engine.answers_of(qid):
            terms: dict[tuple, int] = {}
            for mono, coeff in row.provenance.terms:
                named = tuple(sorted((edge_name(eid), exp) for eid, exp in mono))
                terms[named] = terms.get(named, 0) + coeff
            vals = " ".join(g.node_name(v) for _, v in sorted(row.bindings.items()))
            rows.append(f"{vals} := {sorted(terms.items())}")
        lines.extend(sorted(rows))
    return digest(lines)


def gate(engine: Engine, qids: list[int], queries: list[Query], want_digest: str) -> str:
    """Clean index audit, stored answers and polynomials equal to a
    from-scratch evaluation, and the pinned answer digest. Returns the digest."""
    problems = engine.index_audit()
    if problems:
        raise GateError(f"index audit: {problems[:3]}")
    if len(qids) != len(queries):
        raise GateError(f"{len(queries) - len(qids)} queries not registered")
    for qid, q in zip(qids, queries):
        qg = to_query_graph(q)
        want = {
            tuple(r.bindings[v] for v in qg.projection): r.provenance.terms
            for r in evaluate_bgp(qg, engine.graph)
        }
        got = {
            tuple(r.bindings[v] for v in qg.projection): r.provenance.terms
            for r in engine.answers_of(qid)
        }
        if got != want:
            raise GateError(f"query {qid}: stored answers differ from evaluate_bgp")
    got_digest = answer_digest(engine, qids)
    if got_digest != want_digest:
        raise GateError(f"answer digest {got_digest}, expected {want_digest}")
    return got_digest


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


