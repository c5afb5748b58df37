"""Checks on the benchmark's own inputs and tracer.

    python3 -m pytest perfbench

The digests pin each workload's graph, queries and first update blocks
for the default seeds, so that a change to the program cannot change
what the benchmark feeds it. Engine state is not pinned.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from harness import Attempts, answer_digest, gate, run_stream, set_up  # noqa: E402
from kgprov.maintenance import Engine  # noqa: E402
from tracing import SpanTable, Tracer, layer_targets  # noqa: E402
from workloads import (  # noqa: E402
    BLOCK_PAIRS,
    DEFAULT_STREAM_SEED,
    WORKLOADS,
    Workload,
    Op,
    Query,
    digest,
)

PINNED = {
    "sparse-20k": {
        "triples": "59b4a25787373b73",
        "queries": "ee4eeca5f22fce41",
        "updates": "5c498edb268736d3",
    },
    "dense-shared": {
        "triples": "e5e30d17e3da6565",
        "queries": "beac5a3835002121",
        "updates": "4e00875869641b78",
    },
}


def query_text(q: Query) -> str:
    pats, proj = q
    body = " . ".join(" ".join(p) for p in pats)
    return f"SELECT {' '.join('?' + v for v in proj)} WHERE {{ {body} }}"


def op_text(op: Op) -> str:
    return f"{op[0]} {' '.join(op[1])}"


def input_digests(w: Workload) -> dict[str, str]:
    triples, queries = w.triples(), w.queries()
    stream = w.stream(DEFAULT_STREAM_SEED, triples, queries)
    return {
        "triples": digest(" ".join(t) for t in triples),
        "queries": digest(query_text(q) for q in queries),
        "updates": digest(op_text(op) for b in range(4) for op in stream.block(b)),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_pinned(name):
    assert input_digests(WORKLOADS[name]) == PINNED[name]


def test_sparse_workload_is_the_acceptance_bench_scaled():
    """sparse-20k is the acceptance bench at a fifth of its size: the same
    generator and seeds, which at 100,000 edges over 30,000 vertices give
    the bench's triples exactly, and the bench's 50 queries."""
    import test_acceptance as acceptance

    g = acceptance.build_bench_graph()
    triples = [
        (g.node_name(e.subject), g.predicate_name(e.predicate), g.node_name(e.object))
        for _, e in sorted(g.edges.items())
    ]

    def term(t):
        return t if isinstance(t, str) else f"?{t.name}"

    queries = [
        (
            tuple((term(p.subject), p.predicate, term(p.object)) for p in q.patterns),
            tuple(q.projection),
        )
        for q in acceptance.build_bench_queries()
    ]
    w = WORKLOADS["sparse-20k"]
    full = dataclasses.replace(w, n_nodes=30_000, n_edges=100_000)
    assert len(triples) == 100_000 and triples == full.triples()
    assert len(queries) == 50 and queries == w.queries()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_block_is_balanced_and_returns_to_base(name):
    w = WORKLOADS[name]
    triples, queries = w.triples(), w.queries()
    stream = w.stream(DEFAULT_STREAM_SEED, triples, queries)
    ops = stream.block(3)
    half = len(ops) // 2
    for part in (ops[:half], ops[half:]):
        assert Counter(kind for kind, _ in part) == {"+": BLOCK_PAIRS, "-": BLOCK_PAIRS}
    live = Counter(triples)
    for kind, t in ops:
        if kind == "+":
            live[t] += 1
        else:
            assert live[t] > 0, f"delete of absent {t}"
            live[t] -= 1
    assert +live == Counter(triples)


def test_traced_spans_nest_and_self_times_sum():
    small = Workload(
        name="small", n_nodes=60, n_preds=3, n_edges=150, n_queries=8, graph_seed=1,
        query_seed=2, distinct_query_preds=False, pass_blocks=1, traced_blocks=1,
        naive_prefix=1, answers_digest="",
    )
    triples, queries = small.triples(), small.queries()
    stream = small.stream(3, triples, queries)
    original = Engine.insert_triple
    tracer = Tracer()
    tracer.install()
    try:
        counter = Attempts()
        setup = set_up(triples, queries, counter)
        base = answer_digest(setup.engine, setup.qids)
        run_stream(setup.engine, stream, counter, 1)
    finally:
        tracer.uninstall()
    assert Engine.insert_triple is original
    assert counter.failed == 0
    names = {name for _, _, name in layer_targets()}
    assert {"evaluate.materialize_plan", "planner.topo_order", "query.canonicalize"} <= names
    table = SpanTable(tracer.spans)  # raises if nesting or self-time sums fail
    roots = table.ops("maintenance.insert_triple", 0, len(tracer.spans))
    assert len(roots) == 2 * BLOCK_PAIRS
    gate(setup.engine, setup.qids, queries, base)
