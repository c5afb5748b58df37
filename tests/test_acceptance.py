"""End-to-end acceptance gate.

Covers the golden collaboration example, update semantics, randomized
oracle equivalence, structural match properties, plan sharing, the
incremental-vs-naive performance gap, workload-mix trends, index audits,
and the provenance algebra laws.  The heavy synthetic benchmark state is
built once per module and reused across the performance criteria.
"""

from __future__ import annotations

import copy
import random
import time

import pytest

from kgprov.inspection import generate_subqueries
from kgprov.maintenance import Engine
from kgprov.planner import (
    GlobalPlan,
    compute_statistics,
    merge_into_global,
    select_best_plan,
)
from kgprov.provenance import Polynomial, mono_degree
from kgprov.query import QueryGraph, TriplePattern, Var, canonicalize, parse_query
from kgprov.store import KnowledgeGraph, load_ntriples_file
from kgprov.workload import (
    PRESETS,
    NaiveRunner,
    WorkloadConfig,
    apply_incremental,
    engine_answer_snapshot,
    generate_workload,
    naive_answer_snapshot,
    parse_workload,
    random_graph,
    random_query,
    run_equivalence_trials,
)

from conftest import FIXTURE, RUNNING_QUERY

# results shared between criteria (trials / benchmark -> audit assertions)
RESULTS: dict = {}

GOLDEN_ANSWER = "e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17"


def fresh_engine():
    engine = Engine(load_ntriples_file(FIXTURE))
    receipt = engine.register_query(parse_query(RUNNING_QUERY))
    return engine, receipt


def answer_dict(engine, qid=1):
    g = engine.graph
    return {
        tuple(g.node_name(row.bindings[v]) for v in
              engine.queries[qid].query.projection): row.provenance.to_text()
        for row in engine.answers_of(qid)
    }


# ---------------------------------------------------------------------------
# 1. Golden registration on the 17-edge collaboration fixture
# ---------------------------------------------------------------------------


def test_01_golden_answer_and_polynomial():
    t0 = time.perf_counter()
    engine, receipt = fresh_engine()
    elapsed = time.perf_counter() - t0
    assert answer_dict(engine) == {
        ("Stonebraker", "Ramakrishnan"): Polynomial.parse(GOLDEN_ANSWER).to_text()
    }
    assert len(receipt.answers) == 1
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Deletion semantics on the golden state
# ---------------------------------------------------------------------------


def test_02_deletion_prunes_or_removes():
    engine, _ = fresh_engine()
    engine.delete_edge(14)
    assert answer_dict(engine) == {
        ("Stonebraker", "Ramakrishnan"): "e2*e3*e6*e8*e17"
    }

    engine, _ = fresh_engine()
    engine.delete_edge(2)
    assert answer_dict(engine) == {}


# ---------------------------------------------------------------------------
# 3. Insertion semantics on the golden state
# ---------------------------------------------------------------------------


def test_03_insertions_complete_waiting_matches():
    engine, _ = fresh_engine()
    report = engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    assert [r for r, _ in report.added[1]] == [
        (engine.graph.node("Ramakrishnan"), engine.graph.node("Ooi"))
    ]
    assert answer_dict(engine)[("Ramakrishnan", "Ooi")] == "e1*e3*e15*e16*e18"

    engine, _ = fresh_engine()
    engine.insert_triple("Sarawagi", "worksIn", "IITB")
    answers = answer_dict(engine)
    # the one-to-one completion and the one-to-many completion (the new
    # edge serving as both workplaces, hence squared)
    assert answers[("Stonebraker", "Sarawagi")] == "e7*e12*e13*e17*e18"
    assert answers[("Sarawagi", "Sarawagi")] == "e7*e9*e10*e18^2"


# ---------------------------------------------------------------------------
# 4. Randomized oracle-equivalence suite
# ---------------------------------------------------------------------------


def test_04_randomized_equivalence_trials():
    t0 = time.perf_counter()
    report = run_equivalence_trials(
        trials=100, max_edges=300, updates=500, seed=20260823
    )
    elapsed = time.perf_counter() - t0
    RESULTS["trials"] = report
    assert report.trials == 100
    assert report.failures == []
    assert report.comparisons > 0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. Structural match properties on randomized instances
# ---------------------------------------------------------------------------


def edge_fits(g, pattern, eid, env):
    """Re-verify one pattern/edge assignment against the graph."""
    e = g.edges.get(eid)
    if e is None:
        return False
    checks = [
        (pattern.subject, e.subject, g.nodes),
        (pattern.predicate, e.predicate, g.predicates),
        (pattern.object, e.object, g.nodes),
    ]
    for term, value, interner in checks:
        if isinstance(term, Var):
            if env[term.name] != value:
                return False
        elif interner.get(term) != value:
            return False
    return True


def registerable_query(g, rng):
    for _ in range(30):
        q = random_query(g, rng, rng.randrange(2, 5))
        try:
            generate_subqueries(q)
        except Exception:
            continue
        return q
    raise AssertionError("could not draw a usable random query")


def test_05_match_partition_properties():
    from conftest import enumerate_matches

    rng = random.Random(1312)
    seen_single, seen_multi = 0, 0
    for _ in range(120):
        n_nodes = rng.randrange(6, 12)
        g = random_graph(rng, n_nodes, rng.randrange(2, 4), rng.randrange(15, 45))
        q = registerable_query(g, rng)
        sqs = generate_subqueries(q)
        preds = sorted({p.predicate for p in q.patterns})
        s = f"n{rng.randrange(n_nodes)}"
        o = f"n{rng.randrange(n_nodes)}"
        eid = g.insert_triple(s, preds[rng.randrange(len(preds))], o)

        for env, eids in enumerate_matches(q.patterns, g):
            uses = eids.count(eid)
            if uses == 0:
                continue  # pre-existing match
            satisfied = [
                sq
                for sq in sqs
                if eids[sq.removed] == eid
                and all(
                    eids[p.ordinal] != eid
                    for c in sq.components
                    for p in c
                )
            ]
            if uses == 1:
                # a one-to-one potential match satisfies exactly one
                # subquery: the one whose removed pattern it completes
                seen_single += 1
                assert len(satisfied) == 1
                assert eids[satisfied[0].removed] == eid
            else:
                # a one-to-many potential match satisfies none of them
                seen_multi += 1
                assert satisfied == []
                # ... yet the completed match satisfies every subquery
                # and the parent over the updated graph
                for sq in sqs:
                    for comp in sq.components:
                        for p in comp:
                            assert edge_fits(g, p, eids[p.ordinal], env)
                for p in q.patterns:
                    assert edge_fits(g, p, eids[p.ordinal], env)
    assert seen_single > 50  # the properties were exercised, not vacuous
    assert seen_multi > 5


# ---------------------------------------------------------------------------
# 6. Plan sharing across overlapping subqueries
# ---------------------------------------------------------------------------


def test_06_global_plan_shares_canonical_subexpressions():
    rng = random.Random(77)
    g = random_graph(rng, 60, 5, 600)
    stats = compute_statistics(g)
    preds = sorted(g.predicates.names())

    queries = []
    for _ in range(15):
        k = rng.randrange(3, 6)
        pats = [
            TriplePattern(
                Var(f"x{i}"), preds[rng.randrange(len(preds))], Var(f"x{i + 1}"),
                ordinal=i,
            )
            for i in range(k)
        ]
        queries.append(QueryGraph(pats, ["x0"]))

    plan = GlobalPlan()
    total_local_nodes = 0
    total_subqueries = 0
    for q in queries:
        for sq in generate_subqueries(q):
            total_subqueries += 1
            for comp in sq.components:
                order = select_best_plan(comp, stats)
                # n leaves and the n - 1 joins of the left-deep chain
                total_local_nodes += 2 * len(order) - 1
                merge_into_global(plan, order, stats)

    assert total_subqueries >= 50
    # overlap exists, so the shared DAG is strictly smaller than the sum
    # of the per-subquery plans
    assert len(plan.nodes) < total_local_nodes
    # and it contains no duplicate canonical expression
    for key, node in plan.nodes.items():
        assert node.key == key
        assert canonicalize(node.patterns).key == key
    assert len({n.key for n in plan.nodes.values()}) == len(plan.nodes)


# ---------------------------------------------------------------------------
# 7/8/9. Synthetic benchmark: shared heavy state
# ---------------------------------------------------------------------------

BENCH_NODES = 30_000
BENCH_PREDS = 200
BENCH_EDGES = 100_000
BENCH_UPDATES = 10_000
PRESET_ORDER = [
    "deletion-heavy",
    "deletion-leaning",
    "balanced",
    "insertion-leaning",
    "insertion-heavy",
]


def build_bench_graph() -> KnowledgeGraph:
    rng = random.Random(11)
    g = KnowledgeGraph()
    for _ in range(BENCH_EDGES):
        g.insert_triple(
            f"n{rng.randrange(BENCH_NODES)}",
            f"p{rng.randrange(BENCH_PREDS)}",
            f"n{rng.randrange(BENCH_NODES)}",
        )
    return g


def build_bench_queries(n_queries=50) -> list[QueryGraph]:
    rng = random.Random(5)
    out = []
    for _ in range(n_queries):
        n = rng.randrange(2, 6)
        preds = rng.sample([f"p{i}" for i in range(BENCH_PREDS)], n)
        pats = []
        for i in range(n):
            if i == 0:
                s, o = Var("x0"), Var("x1")
            else:
                anchor = Var(f"x{rng.randrange(i + 1)}")
                new = Var(f"x{i + 1}")
                s, o = (anchor, new) if rng.random() < 0.5 else (new, anchor)
            pats.append(TriplePattern(s, preds[i], o, ordinal=i))
        vars_ = sorted({v for p in pats for v in p.variables()})
        out.append(QueryGraph(pats, vars_[:2]))
    return out


@pytest.fixture(scope="module")
def bench():
    queries = build_bench_queries()
    master = Engine(build_bench_graph())
    for q in queries:
        master.register_query(q)
    pool = sorted({p.predicate for q in queries for p in q.patterns})

    results = {"presets": {}}
    for name in PRESET_ORDER:
        engine = copy.deepcopy(master)
        lines = generate_workload(
            engine.graph,
            WorkloadConfig(BENCH_UPDATES, PRESETS[name], 99, pool),
        )
        ops = parse_workload(lines)
        report = apply_incremental(engine, ops)
        results["presets"][name] = report
        if name == "balanced":
            results["balanced_ops"] = ops
            results["audit"] = engine.index_audit()
            results["snapshot"] = engine_answer_snapshot(engine)

    runner = NaiveRunner(build_bench_graph(), queries)
    results["naive"] = runner.apply(results["balanced_ops"])
    results["naive_snapshot"] = naive_answer_snapshot(runner)
    RESULTS["bench"] = results
    return results


def test_07_incremental_beats_naive_reevaluation(bench):
    incremental = bench["presets"]["balanced"]
    naive = bench["naive"]
    assert incremental.updates == naive.updates == BENCH_UPDATES
    assert incremental.total_time < naive.total_time
    speedup = naive.total_time / incremental.total_time
    assert speedup >= 2.0
    # both modes agree on every answer and polynomial at the end
    assert bench["snapshot"] == bench["naive_snapshot"]


def test_08_update_mix_trend(bench):
    means = [bench["presets"][name].mean_update_time for name in PRESET_ORDER]
    assert all(a <= b for a, b in zip(means, means[1:])), means


def test_09_index_audits_clean():
    trials = RESULTS.get("trials")
    assert trials is not None, "randomized trial suite did not run"
    assert not any("index audit" in f for f in trials.failures)
    assert trials.failures == []

    bench = RESULTS.get("bench")
    assert bench is not None, "benchmark suite did not run"
    assert bench["audit"] == []


# ---------------------------------------------------------------------------
# 10. Provenance algebra law sweep
# ---------------------------------------------------------------------------


def eval_poly(poly: Polynomial, assign: dict[int, int]) -> int:
    total = 0
    for mono, coeff in poly.terms:
        term = coeff
        for eid, exp in mono:
            term *= assign[eid] ** exp
        total += term
    return total


def test_10_algebra_law_sweep():
    rng = random.Random(4242)
    checks = 0

    def rand_poly():
        out = Polynomial.zero()
        for _ in range(rng.randrange(0, 4)):
            mono = tuple(
                sorted(
                    {
                        rng.randrange(1, 10): rng.randrange(1, 3)
                        for _ in range(rng.randrange(1, 3))
                    }.items()
                )
            )
            out = out + Polynomial.monomial(mono, rng.randrange(1, 4))
        return out

    zero, one = Polynomial.zero(), Polynomial.one()
    while checks < 10_000:
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        # pruning an edge equals evaluating it to zero
        eid = rng.randrange(1, 10)
        assign = {i: rng.randrange(1, 5) for i in range(1, 10)}
        assign[eid] = 0
        assert eval_poly(a.prune(eid), {**assign, eid: 1}) == eval_poly(a, assign)
        assert bool(a.prune(eid)) == any(
            mono_degree(m, eid) == 0 for m, _ in a.terms
        )
        checks += 8
    assert checks >= 10_000
