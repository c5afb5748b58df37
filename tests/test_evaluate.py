"""Query evaluation and incremental table maintenance, checked against
the brute-force homomorphism oracle."""

from __future__ import annotations

import random

from kgprov.evaluate import (
    apply_insert_deltas,
    compute_insert_deltas,
    delta_delete,
    evaluate_bgp,
    evaluate_patterns,
    materialize_plan,
)
from kgprov.planner import (
    GlobalPlan,
    LeafView,
    compute_statistics,
    merge_into_global,
    select_best_plan,
)
from kgprov.provenance import Polynomial
from kgprov.query import QueryGraph, TriplePattern, Var, canonicalize, parse_query
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


def oracle_rows(p, g):
    """One pattern's rows from the oracle, keyed by its variables in
    order of first appearance over (s, p, o), the layout of a leaf."""
    names = list(dict.fromkeys(t.name for t in p.terms() if isinstance(t, Var)))
    rows = {}
    for env, (eid,) in enumerate_matches([p], g):
        key = tuple(env[v] for v in names)
        rows[key] = rows.get(key, Polynomial.zero()) + Polynomial.edge(eid)
    return rows


def test_leaf_scan_rows_carry_edge_symbols(academia):
    g = academia
    p = TriplePattern(Var("x"), "hadAdvisor", Var("y"), ordinal=0)
    rows = evaluate_patterns([p], g, ["x", "y"])
    assert LeafView(g, p).rows() == rows
    assert len(rows) == 5
    for row, poly in rows.items():
        eids = sorted(poly.edges())
        assert len(eids) == 1 and poly == Polynomial.edge(eids[0])


def test_scan_constant_absent_from_graph(academia):
    p = TriplePattern(Var("x"), "hadAdvisor", "Nobody", ordinal=0)
    assert evaluate_patterns([p], academia, ["x"]) == {}
    assert LeafView(academia, p).rows() == {}


def test_leaf_scan_fast_path_matches_generic_scan():
    """A plan leaf, a constant predicate with a variable endpoint, is
    read through a `LeafView`; it must give what the oracle gives,
    duplicate triples summed into one row and a self-loop edge kept, and
    so must the from-scratch evaluator on any one pattern, a variable
    predicate included.  For every leaf shape, the view's rows, count,
    row lookup and the row an inserted edge adds agree with the oracle,
    a constant that enters the store only later included."""
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
        names = list(dict.fromkeys(t.name for t in p.terms() if isinstance(t, Var)))
        assert evaluate_patterns([p], g, names) == oracle_rows(p, g), pattern
    rows = evaluate_patterns([TriplePattern(x, "p", y, ordinal=0)], g, ["x", "y"])
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
        want = oracle_rows(p, g)
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


# conjunctions that reach every shape the evaluator handles: a variable
# predicate, a variable repeated in one pattern, an all-constant pattern,
# two components linked only by a constant (a cross product), an absent
# constant, and patterns that one edge can match at once
SHAPES = [
    "?x ?r ?y . ?y {p} ?z",
    "?x {p} ?x . ?x {q} ?y",
    "?x ?r ?x",
    "{a} {p} {b} . ?x {q} {a}",
    "?x {p} {a} . {a} {q} ?y",
    "?x {p} ?y . ?y {q} Nobody",
    "?x {p} ?y . ?z {p} ?y",
    "?x {p} ?y . ?y {p} ?z . ?z {q} ?x",
]


def patterns_of(body):
    return parse_query(f"SELECT ?x WHERE {{ {body} . }}").patterns


def test_evaluate_patterns_agrees_with_oracle(academia):
    """Full bindings and projected answers equal the oracle's for every
    shape in SHAPES, the empty conjunction and random connected queries,
    on a hand-built graph with duplicate triples and self-loops, on the
    running example's graph and on seeded random graphs."""
    g = KnowledgeGraph()
    for triple in [
        ("a", "p", "b"), ("a", "p", "b"),  # e1 and e2 are duplicates
        ("b", "p", "b"), ("b", "q", "a"), ("b", "q", "a"), ("a", "q", "a"),
        ("c", "p", "a"), ("a", "q", "c"), ("c", "q", "b"),
    ]:
        g.insert_triple(*triple)
    a, b, c = (g.node(n) for n in "abc")
    # one edge matches both patterns, and so does its duplicate
    both = evaluate_patterns(patterns_of("?x p ?y . ?z p ?y"), g, ["x", "y", "z"])
    assert both[(a, b, a)] == Polynomial.parse("e1^2 + 2*e1*e2 + e2^2")
    # linked only by the constant a: one match of the first times two
    assert evaluate_patterns(patterns_of("?x p a . a q ?y"), g, ["x", "y"]) == {
        (c, a): Polynomial.parse("e6*e7"),
        (c, c): Polynomial.parse("e7*e8"),
    }
    assert evaluate_patterns(patterns_of("?x p ?y . ?y q Nobody"), g, ["x"]) == {}
    assert evaluate_patterns([], g, []) == {(): Polynomial.one()}

    rng = random.Random(29)
    graphs = [(g, "a", "b", "p", "q"), (academia, "PhD", "Stonebraker", "coAuthor", "worksIn")]
    graphs += [(random_graph(rng, 5, 2, 25), "n0", "n1", "p0", "p1") for _ in range(6)]
    for graph, a, b, p, q in graphs:
        conjunctions = [patterns_of(s.format(a=a, b=b, p=p, q=q)) for s in SHAPES] + [[]]
        conjunctions += [random_query(graph, rng, rng.randrange(1, 5)).patterns for _ in range(5)]
        for pats in conjunctions:
            names = sorted(set().union(*(t.variables() for t in pats)))
            for variables in (names, names[:1]):
                assert evaluate_patterns(pats, graph, variables) == brute_force_answers(
                    QueryGraph(pats, variables), graph
                ), (pats, variables)


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
        entry for bucket in plan.rows.by_edge.values() for entry in bucket_entries(bucket)
    }
    actual = {
        (node, row) for node in plan.nodes.values() if not node.is_leaf for row in node.table
    }
    assert actual == listed
    assert any(node.is_leaf and node.table for node in plan.nodes.values())
    assert any(bucket.__class__ is tuple for bucket in plan.rows.by_edge.values())


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
