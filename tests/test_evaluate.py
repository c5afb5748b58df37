"""Query evaluation and incremental table maintenance, checked against
the brute-force homomorphism oracle."""

from __future__ import annotations

import random

from kgprov.evaluate import (
    _scan_matching,
    apply_insert_deltas,
    compute_insert_deltas,
    delta_delete,
    evaluate_bgp,
    hash_join,
    materialize_plan,
    scan_pattern,
)
from kgprov.planner import (
    GlobalPlan,
    LeafView,
    compute_statistics,
    merge_into_global,
    select_best_plan,
)
from kgprov.provenance import Polynomial
from kgprov.query import TriplePattern, Var, canonicalize, parse_query
from kgprov.store import KnowledgeGraph, bucket_entries
from kgprov.workload import random_graph, random_query

from conftest import brute_force_answers, enumerate_matches


def delta_insert(plan, g, e):
    """Compute and apply the insert deltas in one step."""
    apply_insert_deltas(plan, compute_insert_deltas(plan, g, e))


def as_answer_dict(q, rows):
    return {
        tuple(r.bindings[v] for v in q.projection): r.provenance for r in rows
    }


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------


def test_leaf_scan_rows_carry_edge_symbols(academia):
    g = academia
    t = scan_pattern(
        TriplePattern(Var("x"), "hadAdvisor", Var("y"), ordinal=0), g
    )
    assert set(t.vars) == {"x", "y"}
    assert len(t.rows) == 5
    for row, poly in t.rows.items():
        eids = sorted(poly.edges())
        assert len(eids) == 1 and poly == Polynomial.edge(eids[0])


def test_scan_constant_absent_from_graph(academia):
    t = scan_pattern(
        TriplePattern(Var("x"), "hadAdvisor", "Nobody", ordinal=0), academia
    )
    assert t.rows == {}


def test_leaf_scan_fast_path_matches_generic_scan():
    """A constant predicate with a variable endpoint is read through a
    `LeafView`; it must give what the edge-by-edge matcher gives,
    duplicate triples summed into one row and a self-loop edge kept.  A
    variable predicate takes the matcher itself.  For every leaf shape,
    the view's rows, count, row lookup and the row an inserted edge adds
    agree with the matcher, a constant that enters the store only later
    included."""
    g = KnowledgeGraph()
    for s, p, o in [
        ("a", "p", "b"), ("a", "p", "b"), ("a", "p", "b"),  # duplicates
        ("b", "p", "b"),  # a self-loop edge
        ("b", "p", "c"), ("c", "q", "a"), ("a", "q", "a"),
    ]:
        g.insert_triple(s, p, o)
    x, y = Var("x"), Var("y")
    for pattern in [
        (x, "p", y), (x, "q", y), (y, "p", x), (x, "absent", y),
        (x, "p", x), (x, "q", x), ("a", "p", y), (x, "p", "b"), (x, y, "a"),
    ]:
        p = TriplePattern(*pattern, ordinal=0)
        assert scan_pattern(p, g) == _scan_matching(p, g), pattern
    rows = scan_pattern(TriplePattern(x, "p", y, ordinal=0), g).rows
    a, b = g.node("a"), g.node("b")
    assert rows[(a, b)] == Polynomial.parse("e1 + e2 + e3")
    assert rows[(b, b)] == Polynomial.parse("e4")

    v0, v1 = Var("v0"), Var("v1")
    leaves = [
        TriplePattern(*pattern, ordinal=0)
        for pattern in [
            (v0, "p", v1), (v0, "q", v1), (v0, "p", v0), (v0, "q", v0),
            (v0, "p", "b"), ("a", "p", v0), (v0, "q", "a"), ("c", "q", v0),
            (v0, "absent", v1), (v0, "p", "new"), ("new", "p", v0), (v0, "new", v0),
        ]
    ]
    views = [LeafView(g, p) for p in leaves]

    def check(p, view):
        want = _scan_matching(p, g).rows
        assert view.rows() == want, p
        assert dict(view) == want and len(view) == len(want), p
        assert view.count() >= len(want), p
        for row, poly in want.items():
            assert view[row] == poly, p
        assert (99,) * len(p.variables()) not in view, p  # no such vertex
        return want

    tables = [check(p, view) for p, view in zip(leaves, views)]
    for triple in [
        ("a", "p", "b"),  # a fourth duplicate
        ("c", "p", "c"), ("c", "p", "c"),  # a self-loop, then its duplicate
        ("b", "p", "new"), ("new", "p", "new"), ("new", "new", "new"),
        ("c", "q", "a"), ("a", "q", "b"),
    ]:
        eid = g.insert_triple(*triple)
        for i, (p, view) in enumerate(zip(leaves, views)):
            added = view.delta(g.edges[eid])
            assert added in ({}, {next(iter(added), None): Polynomial.edge(eid)}), (p, triple)
            grown = dict(tables[i])
            for row, poly in added.items():
                grown[row] = grown[row] + poly if row in grown else poly
            tables[i] = check(p, view)
            assert grown == tables[i], (p, triple)
    # in the end every leaf matches some edge, but for the absent predicate's
    assert [p.predicate for p, t in zip(leaves, tables) if not t] == ["absent"]


def test_hash_join_agrees_with_oracle(academia):
    g = academia
    pats = [
        TriplePattern(Var("s"), "hadAdvisor", Var("p"), ordinal=0),
        TriplePattern(Var("p"), "worksIn", Var("o"), ordinal=1),
    ]
    joined = hash_join(scan_pattern(pats[0], g), scan_pattern(pats[1], g))
    want = {}
    for env, eids in enumerate_matches(pats, g):
        row = tuple(env[v] for v in joined.vars)
        mono = tuple(sorted((e, eids.count(e)) for e in set(eids)))
        want[row] = want.get(row, Polynomial.zero()) + Polynomial.monomial(mono)
    assert joined.rows == want


def test_running_example_answer(academia, running_query):
    answers = as_answer_dict(running_query, evaluate_bgp(running_query, academia))
    want_row = (academia.node("Stonebraker"), academia.node("Ramakrishnan"))
    assert set(answers) == {want_row}
    assert answers[want_row] == Polynomial.parse(
        "e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17"
    )


def test_evaluate_matches_brute_force_randomized():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(6, 15), rng.randrange(2, 5), rng.randrange(10, 60))
        q = random_query(g, rng, rng.randrange(1, 5))
        got = as_answer_dict(q, evaluate_bgp(q, g))
        assert got == brute_force_answers(q, g)


def test_projection_merges_derivations(academia):
    q = parse_query("SELECT ?x WHERE { ?x coAuthor ?y . }")
    answers = as_answer_dict(q, evaluate_bgp(q, academia))
    sarawagi = academia.node("Sarawagi")
    # Sarawagi co-authors with Godbole (e10) and Carey (e12)
    assert answers[(sarawagi,)] == Polynomial.parse("e10 + e12")


# ---------------------------------------------------------------------------
# Plan materialization and deltas
# ---------------------------------------------------------------------------


def build_plan(g, query_list):
    stats = compute_statistics(g)
    plan = GlobalPlan()
    orders = []
    for q in query_list:
        order = select_best_plan(q.patterns, stats)
        orders.append(order)
        merge_into_global(plan, order, stats)
    return plan, orders


def rebuild_reference(g, orders):
    stats = compute_statistics(g)
    plan = GlobalPlan()
    for order in orders:
        merge_into_global(plan, order, stats)
    materialize_plan(plan, g)
    return plan


def node_tables(plan):
    return {key: dict(node.table) for key, node in plan.nodes.items()}


def test_materialized_nodes_equal_per_node_evaluation(academia, running_query):
    g = academia
    plan, _ = build_plan(g, [running_query])
    materialize_plan(plan, g)
    for node in plan.nodes.values():
        varmap = canonicalize(node.patterns).varmap
        slot_order = sorted(set(varmap.values()))
        want = {}
        for env, eids in enumerate_matches(node.patterns, g):
            by_slot = {varmap[v]: env[v] for v in varmap}
            row = tuple(by_slot[s] for s in slot_order)
            mono = tuple(sorted((e, eids.count(e)) for e in set(eids)))
            want[row] = want.get(row, Polynomial.zero()) + Polynomial.monomial(
                mono
            )
        assert node.table == want


def test_edge_rows_cover_every_table_row(academia, running_query):
    """The edge index lists every row of every join node; a leaf, read
    from the store, holds no rows to list."""
    plan, _ = build_plan(academia, [running_query])
    materialize_plan(plan, academia)
    # a bucket holding one (node, row) pair is the bare pair
    listed = {
        entry for bucket in plan.edge_rows.values() for entry in bucket_entries(bucket)
    }
    actual = {
        (node, row) for node in plan.nodes.values() if not node.is_leaf for row in node.table
    }
    assert actual == listed
    assert any(node.is_leaf and node.table for node in plan.nodes.values())
    assert any(bucket.__class__ is tuple for bucket in plan.edge_rows.values())


def test_delta_insert_matches_rematerialization(academia, running_query):
    g = academia
    plan, orders = build_plan(g, [running_query])
    materialize_plan(plan, g)
    updates = [
        ("Ooi", "coAuthor", "Gehrke"),
        ("Sarawagi", "worksIn", "IITB"),
        ("Carey", "hasDegree", "PhD"),
    ]
    for s, p, o in updates:
        eid = g.insert_triple(s, p, o)
        delta_insert(plan, g, g.edges[eid])
        ref = rebuild_reference(g, orders)
        assert node_tables(plan) == node_tables(ref)


def test_delta_delete_matches_rematerialization(academia, running_query):
    g = academia
    plan, orders = build_plan(g, [running_query])
    materialize_plan(plan, g)
    for eid in (14, 5, 2, 17):
        g.delete_edge(eid)
        delta_delete(plan, eid)
        ref = rebuild_reference(g, orders)
        assert node_tables(plan) == node_tables(ref)


def test_randomized_delta_stream_stays_consistent():
    rng = random.Random(23)
    for _ in range(8):
        g = random_graph(rng, 10, 3, 40)
        queries = [random_query(g, rng, rng.randrange(2, 4)) for _ in range(2)]
        try:
            plan, orders = build_plan(g, queries)
        except Exception:
            continue
        materialize_plan(plan, g)
        node_names = [f"n{i}" for i in range(10)]
        preds = sorted(g.predicates.names())
        for _step in range(30):
            if rng.random() < 0.5 and g.edges:
                eid = rng.choice(sorted(g.edges))
                g.delete_edge(eid)
                delta_delete(plan, eid)
            else:
                eid = g.insert_triple(
                    rng.choice(node_names), rng.choice(preds), rng.choice(node_names)
                )
                delta_insert(plan, g, g.edges[eid])
        ref = rebuild_reference(g, orders)
        assert node_tables(plan) == node_tables(ref)
