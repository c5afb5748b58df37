"""Standing-query engine: registration, connection-point annotations,
and incremental answer maintenance under single-edge updates."""

from __future__ import annotations

import collections
import random
import sys

import pytest

from kgprov import evaluate, inspection, maintenance, planner, provenance
from kgprov.evaluate import evaluate_patterns, materialize_plan
from kgprov.inspection import IN, OUT, SubqueryType, generate_subqueries, plan_dump
from kgprov.maintenance import Engine
from kgprov.planner import LeafView, merge_into_global, select_best_plan
from kgprov.provenance import Polynomial
from kgprov.query import (
    QueryError,
    QueryGraph,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    canonicalize,
    parse_query,
)
from kgprov.store import KnowledgeGraph, bucket_add, load_ntriples_file
from kgprov.workload import random_graph, random_query

from conftest import FIXTURE, RUNNING_QUERY, brute_force_answers, enumerate_matches


@pytest.fixture
def engine(academia):
    return Engine(academia)


@pytest.fixture
def registered(engine, running_query):
    receipt = engine.register_query(running_query)
    return engine, receipt


def answer_dict(engine, qid):
    return {
        tuple(row.bindings[v] for v in engine.queries[qid].query.projection):
            row.provenance
        for row in engine.answers_of(qid)
    }


def annotations_at(engine, node):
    return [a for a in engine.all_annotations() if a.node == node]


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def test_registration_receipt(registered):
    engine, receipt = registered
    assert receipt.query_id == 1
    assert receipt.subquery_count == 5
    assert len(engine.all_annotations(receipt.query_id)) == 16
    assert len(receipt.answers) == 1
    row = receipt.answers[0]
    g = engine.graph
    assert row.bindings["prof"] == g.node("Stonebraker")
    assert row.bindings["collab"] == g.node("Ramakrishnan")
    assert row.provenance == Polynomial.parse(
        "e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17"
    )


def test_annotation_for_waiting_collaborator(registered):
    engine, _ = registered
    g = engine.graph
    ooi = g.node("Ooi")
    matches = [
        a
        for a in annotations_at(engine, ooi)
        if a.exp_rel == "coAuthor" and a.direction == OUT and a.removed == 2
    ]
    assert len(matches) == 1
    ann = matches[0]
    # Ooi's own degree + workplace satisfy the collaborator component;
    # Ooi waits for an outgoing coAuthor edge
    assert ann.prov == Polynomial.parse("e15*e16")
    assert ann.bindings["collab"] == ooi


def test_annotation_for_waiting_student(registered):
    engine, _ = registered
    g = engine.graph
    gehrke = g.node("Gehrke")
    matches = [
        a
        for a in annotations_at(engine, gehrke)
        if a.exp_rel == "coAuthor" and a.direction == IN
    ]
    assert len(matches) == 1
    # Gehrke's advisor chain (advisor works at UWisc) waits for an
    # incoming coAuthor edge naming Gehrke as the student
    assert matches[0].prov == Polynomial.parse("e1*e3")
    assert matches[0].bindings["prof"] == g.node("Ramakrishnan")


def test_duplicate_registration_rejected(registered):
    engine, _ = registered
    renamed = parse_query(RUNNING_QUERY.replace("?collab", "?c"))
    with pytest.raises(QueryError):
        engine.register_query(renamed)


def test_other_projection_registers(engine):
    """The same patterns under another projection are another query."""
    g = engine.graph
    for v in ("?x", "?y"):
        engine.register_query(parse_query(f"SELECT {v} WHERE {{ ?x hadAdvisor ?y . }}"))
    with pytest.raises(QueryError):
        engine.register_query(parse_query("SELECT ?b WHERE { ?a hadAdvisor ?b . }"))
    for qid, rq in engine.queries.items():
        assert answer_dict(engine, qid) == brute_force_answers(rq.query, g)
    assert answer_dict(engine, 1) != answer_dict(engine, 2)
    assert engine.index_audit() == []


def test_symmetric_pattern_set_duplicate_rejected():
    """Under the swap of ?x and ?y the two patterns trade places, so
    projecting either variable is one query."""
    g = KnowledgeGraph()
    g.insert_triple("a", "p", "b")
    g.insert_triple("b", "p", "a")
    engine = Engine(g)
    engine.register_query(parse_query("SELECT ?x WHERE { ?x p ?y . ?y p ?x . }"))
    with pytest.raises(QueryError):
        engine.register_query(parse_query("SELECT ?y WHERE { ?x p ?y . ?y p ?x . }"))
    # `?x q ?y` breaks the symmetry: ?x and ?y are two different answers
    engine.register_query(parse_query("SELECT ?x WHERE { ?x p ?y . ?y p ?x . ?x q ?y . }"))
    engine.register_query(parse_query("SELECT ?y WHERE { ?x p ?y . ?y p ?x . ?x q ?y . }"))
    assert len(engine.queries) == 3
    assert engine.index_audit() == []


def probe_reads(engine):
    """The (node, slots) pairs of every key index a delta may probe: each
    join node's left child, and each answer join's root, when it is a
    join node."""
    plan = engine.plan
    pairs = {
        (plan.nodes[node.children[0]], node.probes[1].o_slots)
        for node in plan.nodes.values() if node.children
    }
    pairs |= {(rq.root, rq.probes[1].o_slots) for rq in engine.queries.values() if rq.root}
    return {(node, slots) for node, slots in pairs if not node.is_leaf}


def indexed(engine):
    return {(node, slots) for node, idx in engine.plan.rows.key_indexes.items() for slots in idx}


def test_registration_builds_every_probe_index_and_updates_none():
    rng = random.Random(5)
    g = random_graph(rng, 12, 3, 60)
    engine = Engine(g)
    for _ in range(8):
        try:
            engine.register_query(random_query(g, rng, rng.randrange(3, 5)))
        except QueryError:
            continue
        assert probe_reads(engine) <= indexed(engine)
    assert probe_reads(engine)
    before = indexed(engine)
    nodes, preds = [f"n{i}" for i in range(12)], sorted(g.predicates.names())
    for _ in range(200):
        if rng.random() < 0.4 and g.edges:
            engine.delete_edge(rng.choice(sorted(g.edges)))
        else:
            engine.insert_triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
    assert indexed(engine) == before
    assert engine.index_audit() == []


def test_variable_predicate_rejected(engine):
    q = parse_query("SELECT ?x WHERE { ?x ?p ?y . }")
    with pytest.raises(UnsupportedFeatureError):
        engine.register_query(q)


def test_constant_linked_query_rejected(engine):
    q = parse_query("SELECT ?x ?y WHERE { ?x worksIn MIT . ?y hasDegree MIT . }")
    with pytest.raises(UnsupportedFeatureError):
        engine.register_query(q)


# ---------------------------------------------------------------------------
# Deletion maintenance
# ---------------------------------------------------------------------------


def test_delete_prunes_one_derivation(registered):
    engine, _ = registered
    report = engine.delete_edge(14)
    assert report.removed == {}
    [(row, poly)] = report.pruned[1]
    assert poly == Polynomial.parse("e2*e3*e6*e8*e17")
    assert answer_dict(engine, 1)[row] == poly
    assert engine.index_audit() == []


def test_delete_shared_edge_removes_answer(registered):
    engine, _ = registered
    report = engine.delete_edge(2)
    assert report.pruned == {}
    assert len(report.removed[1]) == 1
    assert answer_dict(engine, 1) == {}
    assert engine.index_audit() == []


def test_delete_irrelevant_edge_changes_nothing(registered):
    engine, _ = registered
    before = answer_dict(engine, 1)
    report = engine.delete_edge(11)  # Godbole worksIn IBM: not in any answer
    assert report.answers_changed == 0
    assert answer_dict(engine, 1) == before


def test_delete_unknown_edge_returns_none(registered):
    engine, _ = registered
    assert engine.delete_edge(999) is None


# ---------------------------------------------------------------------------
# Insertion maintenance
# ---------------------------------------------------------------------------


def test_insert_completes_waiting_match(registered):
    engine, _ = registered
    g = engine.graph
    report = engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    [(row, poly)] = report.added[1]
    assert row == (g.node("Ramakrishnan"), g.node("Ooi"))
    assert poly == Polynomial.parse("e1*e3*e15*e16*e18")
    assert engine.index_audit() == []


def test_insert_shared_edge_completes_two_matches(registered):
    engine, _ = registered
    g = engine.graph
    report = engine.insert_triple("Sarawagi", "worksIn", "IITB")
    added = dict(report.added[1])
    one_to_one = (g.node("Stonebraker"), g.node("Sarawagi"))
    one_to_many = (g.node("Sarawagi"), g.node("Sarawagi"))
    assert set(added) == {one_to_one, one_to_many}
    assert added[one_to_one] == Polynomial.parse("e7*e12*e13*e17*e18")
    # the new edge serves as both workplaces at once: degree two
    assert added[one_to_many] == Polynomial.parse("e7*e9*e10*e18^2")
    assert engine.index_audit() == []


def test_insert_then_delete_round_trip(registered):
    engine, _ = registered
    before = answer_dict(engine, 1)
    eid = engine.graph.next_edge_id
    engine.insert_triple("Sarawagi", "worksIn", "IITB")
    engine.delete_edge(eid)
    assert answer_dict(engine, 1) == before
    assert engine.index_audit() == []


def test_type_ii_insertion_one_answer_per_far_edge(registered):
    engine, _ = registered
    g = engine.graph
    # a second workplace for Ooi: no answers yet (nobody is advised by Ooi)
    r1 = engine.insert_triple("Ooi", "worksIn", "NTU")
    assert 1 not in r1.added
    # now Sarawagi becomes Ooi's student: Ramakrishnan (Sarawagi's
    # co-author with degree + workplace) completes once per workplace
    r2 = engine.insert_triple("Sarawagi", "hadAdvisor", "Ooi")
    [(row, poly)] = r2.added[1]
    assert row == (g.node("Ooi"), g.node("Ramakrishnan"))
    assert poly == Polynomial.parse("e2*e3*e6*e15*e19 + e2*e3*e6*e18*e19")


def test_update_report_timing_split(registered):
    engine, _ = registered
    report = engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    assert report.response_time >= 0.0
    assert report.maintenance_time >= 0.0
    report = engine.delete_edge(2)
    assert report.response_time >= 0.0


def test_failed_insert_leaves_engine_unchanged(registered, running_query, monkeypatch):
    engine, _ = registered
    g = engine.graph
    edges = set(g.edges)

    def boom(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(maintenance, "join_delta", boom)
    with pytest.raises(RuntimeError, match="injected fault"):
        engine.insert_triple("Sarawagi", "worksIn", "IITB")
    assert set(g.edges) == edges
    assert answer_dict(engine, 1) == brute_force_answers(running_query, g)
    for node in engine.plan.nodes.values():
        assert node.table == fresh_node_table(node, g)
    assert engine.index_audit() == []

    monkeypatch.undo()
    report = engine.insert_triple("Sarawagi", "worksIn", "IITB")
    assert len(report.added[1]) == 2
    assert answer_dict(engine, 1) == brute_force_answers(running_query, g)
    assert engine.index_audit() == []


def engine_state(engine):
    """Everything a delete may change, copied: the store's edges and
    indexes, every plan table and answer group, both edge indexes and
    the plan's key indexes."""
    g = engine.graph

    def copied(index):
        return {k: set(b) if b.__class__ is set else b for k, b in index.items()}

    return (
        dict(g.edges),
        {s: copied(inner) for s, inner in g._out.items()},
        {o: copied(inner) for o, inner in g._in.items()},
        copied(g._by_p),
        {node: dict(node.table) for node in engine.plan.nodes.values()},
        {qid: dict(rq.answers) for qid, rq in engine.queries.items()},
        copied(engine.plan.rows.by_edge),
        copied(engine.answers.by_edge),
        {
            node: {slots: copied(idx) for slots, idx in indexes.items()}
            for node, indexes in engine.plan.rows.key_indexes.items()
        },
    )


@pytest.mark.parametrize("phase", ["answer prune", "plan prune"])
def test_failed_delete_leaves_engine_unchanged(registered, running_query, monkeypatch, phase):
    engine, _ = registered
    g = engine.graph
    before = engine_state(engine)

    def boom(*args):
        raise RuntimeError("injected fault")

    if phase == "answer prune":
        # the answer of e14 has two monomials, so its prune runs first
        monkeypatch.setattr(Polynomial, "prune", boom)
    else:
        # after the answers' prune is computed
        monkeypatch.setattr(maintenance, "delta_delete", boom)
    with pytest.raises(RuntimeError, match="injected fault"):
        engine.delete_edge(14)
    assert engine_state(engine) == before
    assert engine.index_audit() == []

    monkeypatch.undo()
    report = engine.delete_edge(14)
    [(row, poly)] = report.pruned[1]
    assert poly == Polynomial.parse("e2*e3*e6*e8*e17")
    assert answer_dict(engine, 1) == brute_force_answers(running_query, g)
    assert engine.index_audit() == []


PRIOR_QUERY = "SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }"


@pytest.mark.parametrize("held_by", ["answers", "plan", "neither"])
def test_delete_looks_up_both_edge_indexes_first(engine, running_query, held_by):
    """A delete reads the answers' and the plan's edge indexes before
    anything else, and returns an empty report at once when neither
    holds the edge."""
    # a two-pattern query joins two leaves, so its answers' edges are in
    # no plan row
    query = parse_query(PRIOR_QUERY) if held_by == "answers" else running_query
    engine.register_query(query)
    g = engine.graph
    answers, rows = set(engine.answers.by_edge), set(engine.plan.rows.by_edge)
    held = {
        "answers": answers - rows,
        "plan": rows - answers,
        "neither": set(g.edges) - answers - rows,
    }
    eid = min(held[held_by])
    before = answer_dict(engine, 1)
    assert engine._stats_cache is not None

    report = engine.delete_edge(eid)
    assert engine._stats_cache is None
    assert answer_dict(engine, 1) == brute_force_answers(query, g)
    for node in engine.plan.nodes.values():
        if not node.is_leaf:
            assert node.table == fresh_node_table(node, g)
    assert engine.index_audit() == []
    if held_by == "answers":
        assert report.answers_changed and answer_dict(engine, 1) != before
    elif held_by == "plan":
        assert report.answers_changed == 0 and answer_dict(engine, 1) == before
    else:
        assert report == maintenance.UpdateReport(op="-", edge_id=eid)


def roots(engine):
    """The root of every registered query's answer join."""
    return [rq.root for rq in engine.queries.values()]


def registration_state(engine):
    """`engine_state`, plus what only a registration changes: the plan's
    nodes in order and its row groups, the answer groups and the next
    query id."""
    plan = engine.plan
    return engine_state(engine) + (
        list(plan.nodes.values()),
        list(plan.rows.groups),
        list(engine.answers.groups),
        engine._next_qid,
    )


@pytest.mark.parametrize("phase", ["merge", "materialize", "answer join", "answer rows"])
def test_failed_registration_leaves_engine_unchanged(engine, running_query, monkeypatch, phase):
    """A fault in any phase of a registration drops the plan nodes it
    created, with their rows and edge entries, and leaves the nodes it
    shares with an earlier query as they were; registering the query
    again then builds the plan that a fresh engine builds."""
    engine.register_query(parse_query(PRIOR_QUERY))
    before = registration_state(engine)

    def fault_on_call(n, real):
        calls = []

        def faulty(*args):
            calls.append(args)
            if len(calls) == n:
                raise RuntimeError("injected fault")
            return real(*args)

        return faulty

    if phase == "merge":
        # the rest's join chain is merged, then k's leaf faults
        monkeypatch.setattr(maintenance, "merge_into_global", fault_on_call(2, merge_into_global))
    elif phase == "materialize":
        # one new join node is filled, then the next one faults
        monkeypatch.setattr(evaluate, "join_tables", fault_on_call(2, evaluate.join_tables))
    elif phase == "answer join":
        monkeypatch.setattr(maintenance, "join_tables", fault_on_call(1, maintenance.join_tables))
    else:
        real_add = engine.answers.add

        def add_then_fault(*args):
            real_add(*args)
            raise RuntimeError("injected fault")

        monkeypatch.setattr(engine.answers, "add", add_then_fault)
    with pytest.raises(RuntimeError, match="injected fault"):
        engine.register_query(running_query)
    monkeypatch.undo()
    assert registration_state(engine) == before
    assert engine.index_audit() == []

    receipt = engine.register_query(running_query)
    assert receipt.query_id == 2
    fresh = Engine(load_ntriples_file(FIXTURE))
    fresh.register_query(parse_query(PRIOR_QUERY))
    fresh.register_query(running_query)
    assert plan_dump(engine.plan, roots(engine)) == plan_dump(fresh.plan, roots(fresh))
    assert answer_dict(engine, 2) == answer_dict(fresh, 2)
    assert engine.index_audit() == []


# ---------------------------------------------------------------------------
# Maintained state equals from-scratch evaluation
# ---------------------------------------------------------------------------


def test_update_stream_tracks_oracle(registered, running_query):
    engine, _ = registered
    ops = [
        ("+", ("Ooi", "coAuthor", "Gehrke")),
        ("+", ("Sarawagi", "worksIn", "IITB")),
        ("-", 14),
        ("-", 2),
        ("+", ("Ramakrishnan", "hasDegree", "PhD")),
        ("-", 17),
        ("+", ("Stonebraker", "worksIn", "Berkeley")),
    ]
    for kind, arg in ops:
        if kind == "+":
            engine.insert_triple(*arg)
        else:
            engine.delete_edge(arg)
        want = brute_force_answers(running_query, engine.graph)
        assert answer_dict(engine, 1) == want
        assert engine.index_audit() == []


def _chain(n):
    body = " . ".join(f"?x{i} c{i} ?x{i + 1}" for i in range(n))
    return parse_query(f"SELECT ?x0 ?x{n} WHERE {{ {body} }}")


def test_registration_generates_no_subquery(academia, monkeypatch):
    """Registration finds k with a connectivity test per pattern: it
    never generates the one-pattern-removed subqueries."""

    def refuse(q):
        raise AssertionError("registration generated subqueries")

    monkeypatch.setattr(inspection, "generate_subqueries", refuse)
    g = academia
    for i in range(11):  # a path for the chain's c0 ... c10
        g.insert_triple(f"n{i}", f"c{i}", f"n{i + 1}")
    g.insert_triple("Ooi", "coAuthor", "Ooi")
    engine = Engine(g)
    queries = [
        parse_query(RUNNING_QUERY),
        parse_query("SELECT ?s ?p WHERE { ?s hadAdvisor ?p . }"),  # single pattern
        parse_query("SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }"),  # constant
        parse_query("SELECT ?x ?w WHERE { ?x coAuthor ?x . ?x worksIn ?w . }"),  # self-loop
        _chain(11),
    ]
    for q in queries:
        receipt = engine.register_query(q)
        want = brute_force_answers(q, g)
        assert want
        assert answer_dict(engine, receipt.query_id) == want
        assert receipt.subquery_count == (q.size if q.size > 1 else 0)
    assert engine.index_audit() == []


def test_answer_join_keeps_the_first_one_component_subquery():
    """k is the removed pattern of the first subquery that keeps one
    component, the rule registration followed while it generated every
    subquery, so every query gets the same leaf and root, and the plan
    stays the same."""
    rng = random.Random(13)
    ks = collections.Counter()
    for _trial in range(12):
        g = random_graph(rng, 10, 3, 30)
        engine = Engine(g)
        for _ in range(6):
            q = random_query(g, rng, rng.randrange(1, 6))
            try:
                rq = engine.queries[engine.register_query(q).query_id]
            except QueryError:
                continue
            subqueries = generate_subqueries(q) if q.size > 1 else []
            sq = next((sq for sq in subqueries if len(sq.components) == 1), None)
            k = 0 if sq is None else sq.removed
            assert rq.leaf.key == canonicalize([q.patterns[k]]).key
            if sq is None:
                assert rq.root is None
            else:
                assert rq.root.key == canonicalize(sq.components[0]).key
            ks[k] += 1
    assert len(ks) > 1  # not only the first pattern


def test_answer_join_tracks_oracle_on_every_shape():
    """Every update on a small graph with duplicate triples, checked
    against the brute-force oracle for queries of every shape that the
    answer join must handle."""
    rng = random.Random(5)
    names = [f"n{i}" for i in range(8)]
    g = KnowledgeGraph()
    # a path for the chains below, which read c0 ... c10, one predicate
    # per pattern, so that the oracle's walk enumeration stays small
    for i in range(11):
        g.insert_triple(f"n{i % 8}", f"c{i}", f"n{(i + 1) % 8}")
    # answers for the self-loop and constant queries
    for s, p, o in (("n5", "p1", "n5"), ("n6", "p0", "n6"), ("n6", "p1", "n7"),
                    ("n3", "p2", "n1"), ("n3", "p0", "n4")):
        g.insert_triple(s, p, o)
    preds = [f"p{i % 3}" for i in range(12)] + [f"c{i}" for i in range(11)]
    for _ in range(18):
        g.insert_triple(rng.choice(names), rng.choice(preds), rng.choice(names))
    for t in list(g.edges.values())[:4]:  # duplicate triples
        g.insert_edge(t.subject, t.predicate, t.object)
    engine = Engine(g)
    queries = [
        parse_query("SELECT ?x ?y WHERE { ?x p0 ?y . }"),  # single pattern
        parse_query("SELECT ?x WHERE { ?x p1 ?x . }"),  # single self-loop
        parse_query("SELECT ?x ?y WHERE { ?x p0 ?x . ?x p1 ?y . }"),  # self-loop
        parse_query("SELECT ?x WHERE { ?x p2 n1 . ?x p0 ?y . }"),  # constant
        # one edge can serve both p0 patterns: degree-2 monomials
        parse_query("SELECT ?x ?z WHERE { ?x p0 ?y . ?z p0 ?y . ?y p1 ?w . }"),
        parse_query("SELECT ?a ?a WHERE { ?a p2 ?b . ?b p2 ?c . }"),
        # a self-join over the self-loop n5 p1 n5: exponents 2 and 3
        parse_query("SELECT ?x ?w WHERE { ?x p1 ?y . ?y p1 ?z . ?z p1 ?w . }"),
        _chain(10),  # heuristic canonical form (more than 8 patterns)
        _chain(11),
    ]
    # components of 10 patterns, a size at which enumerating every
    # connected subset (an AND-OR tree) was too costly to plan with
    assert any(
        len(comp) >= 10
        for sq in generate_subqueries(queries[-1])
        for comp in sq.components
    )
    late = parse_query("SELECT ?x ?w WHERE { ?x p1 ?y . ?y p0 ?z . ?z p1 ?w . }")
    seen = collections.Counter()  # query id -> updates after which it had answers

    def check():
        for qid, rq in engine.queries.items():
            want = brute_force_answers(rq.query, g)
            assert answer_dict(engine, qid) == want
            seen[qid] += bool(want)
        assert engine.index_audit() == []

    for q in queries:
        engine.register_query(q)
    check()
    assert any(
        exp == 2
        for node in engine.plan.nodes.values()
        for poly in node.table.values()
        for mono, _ in poly.terms
        for _, exp in mono
    )
    n5, p1 = g.nodes.get("n5"), g.predicates.get("p1")
    loop = min(g.lookup_ids(n5, p1, n5))
    assert ((loop, 3),) in [m for poly in engine.queries[7].answers.values() for m, _ in poly.terms]
    # a duplicate triple gives a leaf row two monomials; deleting one
    # copy keeps the row with the other
    node, row, poly = next(
        (n, r, p)
        for n in engine.plan.nodes.values() if n.is_leaf
        for r, p in n.table.items() if len(p.terms) > 1
    )
    [(eid, _)] = poly.terms[0][0]
    engine.delete_edge(eid)
    assert node.table[row] == poly.prune(eid) != Polynomial.zero()
    check()
    degree_two = 0
    for step in range(60):
        if step == 30:
            engine.register_query(late)  # registered mid-stream
            check()
        roll = rng.random()
        if roll < 0.5 and g.edges:
            engine.delete_edge(rng.choice(sorted(g.edges)))
        elif roll < 0.65:  # one more copy of a live triple
            t = g.edges[rng.choice(sorted(g.edges))]
            engine.insert_triple(
                g.node_name(t.subject), g.predicate_name(t.predicate), g.node_name(t.object)
            )
        else:
            engine.insert_triple(rng.choice(names), rng.choice(preds), rng.choice(names))
        check()
        degree_two += any(
            exp >= 2
            for poly in engine.queries[5].answers.values()
            for mono, _ in poly.terms
            for _, exp in mono
        )
    assert degree_two > 0
    assert len(seen) == len(queries) + 1 and min(seen.values()) > 0


HUB_QUERY = "SELECT ?y WHERE { ?a p ?y . ?b q ?y . }"


def hub_graph(n, copies=1):
    """n edges `a_i p hub` and n edges `b_i q hub`, those of a0 and b0
    `copies` times each: the hub query's one answer has (n + copies - 1)²
    monomials."""
    g = KnowledgeGraph()
    for i in range(n):
        for _ in range(copies if i == 0 else 1):
            g.insert_triple(f"a{i}", "p", "hub")
            g.insert_triple(f"b{i}", "q", "hub")
    return g


def test_hub_rows_sum_many_products(monkeypatch):
    """On a hub with duplicate triples every place that sums products
    into a row puts three or more on one row: a leaf ⋈ leaf join, the
    delta rule's probes at an insert, into the store and into a join
    node's index, a projection that drops a variable, and a leaf's rows.
    The insert changes both sides of a join, so the ΔL⋈ΔR terms that
    the leaf's store read supplies are checked too.  Answers match the
    oracle and the audit stays clean, through an insert and a delete at
    the hub."""
    g = hub_graph(4, copies=3)
    keep, counts = [], collections.Counter()  # outputs seen; (output, key) -> adds
    most = collections.Counter()  # site -> the most adds onto one key
    both = []  # the (left, right) of every join_delta given two deltas

    def spy(out, key, poly):
        site = sys._getframe(1).f_code.co_name
        keep.append(out)  # so that no output's id is reused
        counts[id(out), key] += 1
        most[site] = max(most[site], counts[id(out), key])
        real_add_to(out, key, poly)

    def delta_spy(left, right, probes, dl, dr, skip):
        if dl and dr:
            both.append((left, right))
        return real_join_delta(left, right, probes, dl, dr, skip)

    real_add_to, real_join_delta = provenance.add_to, evaluate.join_delta
    for module in (evaluate, maintenance, planner):
        monkeypatch.setattr(module, "add_to", spy)
    for module in (evaluate, maintenance):
        monkeypatch.setattr(module, "join_delta", delta_spy)
    engine = Engine(g)
    queries = [
        parse_query(HUB_QUERY),  # leaf ⋈ leaf
        # a join ⋈ leaf whose two sides one inserted p edge both change
        parse_query("SELECT ?y WHERE { ?a p ?y . ?b p ?y . ?c p ?y . }"),
        parse_query("SELECT ?y WHERE { ?a p ?y . }"),  # projects ?a away
    ]

    def check():
        for qid, rq in engine.queries.items():
            assert answer_dict(engine, qid) == brute_force_answers(rq.query, g)
        assert engine.index_audit() == []

    for q in queries:
        engine.register_query(q)
    check()
    assert most["_probe_store"] >= 3 and most["_project"] >= 3
    most.clear()
    engine.insert_triple("a0", "p", "hub")
    check()
    assert most["_probe_store"] >= 3 and most["_probe"] >= 3
    # the three-p query's root joins the p leaf with itself, and its
    # answer join that root with the p leaf: one edge changes both sides
    three_p = engine.queries[2]
    assert (three_p.leaf, three_p.leaf) in both and (three_p.root, three_p.leaf) in both
    a0, p, hub = g.node("a0"), g.predicates.get("p"), g.node("hub")
    engine.delete_edge(min(g.lookup_ids(a0, p, hub)))
    check()
    assert len(engine.queries[1].answers[(hub,)].terms) == 6 * 6

    most.clear()
    view = LeafView(g, TriplePattern(Var("v0"), "p", Var("v1"), ordinal=0))
    want = evaluate_patterns([view.pattern], g, ["v0", "v1"])
    assert view.rows() == want and most["rows"] >= 3
    assert view[(a0, hub)] == want[(a0, hub)] and len(want[(a0, hub)].terms) == 3


def test_hub_registration_builds_linear_terms(monkeypatch):
    """Registering the hub query at n = 30, whose one answer has 900
    monomials, builds polynomials of at most four times as many terms in
    all: each row's products are summed once, not re-sorted per add."""
    g = hub_graph(30)
    built = [0]
    real_init, real_of = Polynomial.__init__, Polynomial._of

    def counting_init(self, terms=None):
        real_init(self, terms)
        built[0] += len(self.terms)

    def counting_of(terms):
        built[0] += len(terms)
        return real_of(terms)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "_of", staticmethod(counting_of))
    engine = Engine(g)
    qid = engine.register_query(parse_query(HUB_QUERY)).query_id
    [answer] = engine.queries[qid].answers.values()
    assert len(answer.terms) == 900
    assert built[0] <= 4 * 900


def oracle_connection_points(engine):
    """Every connection point from the brute-force oracle: the matches of
    each subquery component, one polynomial per distinct binding, each
    waiting at every endpoint of the removed pattern that the component
    mentions, except that Type II's lone far pattern waits nowhere."""
    g = engine.graph
    out = []
    for qid, rq in engine.queries.items():
        q = rq.query
        for sq in generate_subqueries(q) if q.size > 1 else ():
            t = sq.removed_pattern
            for ci, comp in enumerate(sq.components):
                if sq.sq_type is SubqueryType.II and ci == 1:
                    continue
                terms = {x for p in comp for x in (p.subject, p.object)}
                ends = [(x, d) for x, d in ((t.subject, OUT), (t.object, IN)) if x in terms]
                matches = {}
                for env, eids in enumerate_matches(comp, g):
                    key = tuple(sorted(env.items()))
                    mono = Polynomial.monomial(tuple(sorted(collections.Counter(eids).items())))
                    matches[key] = matches.get(key, Polynomial.zero()) + mono
                for key, poly in matches.items():
                    env = dict(key)
                    result = tuple(env[v] for v in q.projection if v in env)
                    for x, d in ends:
                        node = env[x.name] if isinstance(x, Var) else g.node(x)
                        out.append((qid, sq.removed, ci, d, key, node, t.predicate, result, poly))
    return sorted(out)


def test_connection_points_match_oracle():
    rng = random.Random(31)
    compared, constants, types = 0, 0, set()
    for _trial in range(8):
        g = random_graph(rng, 12, 3, 40)
        engine = Engine(g)
        # removing its first pattern leaves a Type IV subquery whose
        # connection points wait at the constant n1
        pinned = engine.register_query(
            parse_query("SELECT ?x WHERE { ?x p0 n1 . ?x p1 ?y . ?y p2 n1 . }")
        ).query_id
        for _ in range(3):
            try:
                engine.register_query(random_query(g, rng, rng.randrange(2, 5)))
            except QueryError:
                continue
        names = [f"n{i}" for i in range(12)]
        preds = sorted(g.predicates.names())
        for _step in range(25):
            if rng.random() < 0.5 and g.edges:
                engine.delete_edge(rng.choice(sorted(g.edges)))
            else:
                engine.insert_triple(
                    rng.choice(names), rng.choice(preds), rng.choice(names)
                )
        want = oracle_connection_points(engine)
        have = sorted(
            (
                a.query_id, a.removed, a.component, a.direction,
                tuple(sorted(a.bindings.items())), a.node, a.exp_rel, a.result, a.prov,
            )
            for a in engine.all_annotations()
        )
        assert have == want
        compared += len(want)
        constants += sum(
            1 for a in engine.all_annotations(pinned) if a.removed == 0 and a.direction == IN
        )
        types |= {
            sq.sq_type for rq in engine.queries.values() for sq in generate_subqueries(rq.query)
        }
    assert compared > 0
    assert constants > 0
    assert types == set(SubqueryType)


def test_statistics_follow_every_update(engine):
    g = engine.graph
    engine._current_stats()
    engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    coauthor = list(g.lookup_ids(p=g.predicates.get("coAuthor")))
    engine.delete_edge(coauthor[0])
    engine.delete_edge(coauthor[1])
    stats = engine._current_stats()
    assert stats.pred_count("coAuthor") == len(coauthor) - 2


def test_update_releases_statistics_catalog(engine, running_query, monkeypatch):
    built = []
    real = maintenance.compute_statistics
    monkeypatch.setattr(
        maintenance, "compute_statistics", lambda g: built.append(g) or real(g)
    )
    g = engine.graph
    engine.register_query(running_query)
    engine.register_query(parse_query("SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }"))
    assert len(built) == 1  # registrations with no update between share one
    assert engine._stats_cache is not None

    engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    assert engine._stats_cache is None
    engine.register_query(parse_query("SELECT ?a WHERE { ?a coAuthor ?b . ?b worksIn ?w . }"))
    assert len(built) == 2
    coauthor = list(g.lookup_ids(p=g.predicates.get("coAuthor")))
    assert engine._current_stats().pred_count("coAuthor") == len(coauthor)

    engine.delete_edge(coauthor[0])
    assert engine._stats_cache is None


# ---------------------------------------------------------------------------
# Plan materialization at registration
# ---------------------------------------------------------------------------


def fresh_node_table(node, g):
    """A plan node's table evaluated from the store by full BGP
    evaluation of its patterns, keyed by var slot."""
    return evaluate_patterns(node.patterns, g, slot_names(node))


def slot_names(node):
    """A plan node's variables v0, v1, ... in slot order."""
    width = len(set().union(*(p.variables() for p in node.patterns)))
    return [f"v{i}" for i in range(width)]


def test_each_plan_node_materialized_once(engine, monkeypatch):
    """Every join node is filled exactly once; no leaf is scanned into a
    table, as joins read it from the store."""
    g = engine.graph
    filled = collections.Counter()  # node -> tables written
    scanned = []  # pattern lists evaluated from scratch
    real_materialize = maintenance.materialize_plan
    real_evaluate = evaluate.evaluate_patterns
    for module in (evaluate, inspection):
        monkeypatch.setattr(
            module, "evaluate_patterns",
            lambda patterns, *a: scanned.append(patterns) or real_evaluate(patterns, *a),
        )

    def counting_materialize(plan, graph, start):
        real_add = plan.rows.add
        plan.rows.add = lambda node, rows: filled.update([node]) or real_add(node, rows)
        try:
            return real_materialize(plan, graph, start)
        finally:
            del plan.rows.add

    monkeypatch.setattr(maintenance, "materialize_plan", counting_materialize)

    # all three share the empty join node ?a hadAdvisor ?b . ?c hasDegree ?b:
    # removing the first pattern leaves it as one component, so it is
    # the root of each answer join
    shared = "?a hadAdvisor ?b . ?c hasDegree ?b ."
    for extra in ("?b worksIn ?d .", "?e coAuthor ?a .", "?a worksIn ?d ."):
        engine.register_query(parse_query(f"SELECT ?a WHERE {{ {extra} {shared} }}"))
    [empty] = [
        n for n in engine.plan.nodes.values()
        if n.label() == "?v0 hadAdvisor ?v1 . ?v2 hasDegree ?v1"
    ]
    assert empty.table == {}
    assert roots(engine).count(empty) == 3
    nodes = engine.plan.nodes.values()
    assert all(isinstance(n.table, LeafView) for n in nodes if n.is_leaf)
    assert filled == collections.Counter(n for n in nodes if not n.is_leaf)
    assert scanned == []

    # every plan node of this query already exists: its registration
    # fills no table, and its answer join reads only its two leaves from
    # the store
    nodes_before = set(engine.plan.nodes)
    lookups = []
    real_lookup = KnowledgeGraph.lookup_ids
    monkeypatch.setattr(
        KnowledgeGraph, "lookup_ids", lambda self, *a: lookups.append(a) or real_lookup(self, *a)
    )
    engine.register_query(parse_query("SELECT ?x WHERE { ?x hadAdvisor ?y . ?z hasDegree ?y . }"))
    assert set(engine.plan.nodes) == nodes_before
    assert lookups
    assert {p for _, p, _ in lookups} == {g.predicates.get("hadAdvisor"), g.predicates.get("hasDegree")}
    assert filled == collections.Counter(n for n in nodes if not n.is_leaf)
    assert scanned == []
    for node in engine.plan.nodes.values():
        assert node.table == fresh_node_table(node, g)
    assert engine.index_audit() == []


def test_registration_after_updates_matches_fresh_evaluation():
    """Queries registered after an update stream build new plan nodes
    from children that were maintained incrementally."""
    rng = random.Random(47)
    reused_children = 0
    for _trial in range(8):
        g = random_graph(rng, 12, 3, 40)
        engine = Engine(g)
        names = [f"n{i}" for i in range(12)]
        preds = sorted(g.predicates.names())

        def stream(steps):
            for _step in range(steps):
                if rng.random() < 0.5 and g.edges:
                    engine.delete_edge(rng.choice(sorted(g.edges)))
                else:
                    engine.insert_triple(
                        rng.choice(names), rng.choice(preds), rng.choice(names)
                    )

        def register(q):
            try:
                engine.register_query(q)
            except QueryError:
                return False
            return True

        early = [q for q in (random_query(g, rng, rng.randrange(2, 5)) for _ in range(3)) if register(q)]
        stream(25)
        maintained = set(engine.plan.nodes)
        for q in early:
            # the earlier query plus one pattern hung off one of its variables
            var = Var(rng.choice(sorted(q.variables())))
            extra = TriplePattern(var, rng.choice(preds), Var("fresh"), ordinal=q.size)
            register(QueryGraph(q.patterns + [extra], q.projection))
        for q in (random_query(g, rng, rng.randrange(2, 5)) for _ in range(2)):
            register(q)
        reused_children += sum(
            1
            for key, node in engine.plan.nodes.items()
            if key not in maintained and not node.is_leaf
            for ck in node.children
            if ck in maintained
        )

        for check in range(2):
            for node in engine.plan.nodes.values():
                assert node.table == fresh_node_table(node, g)
            for qid, rq in engine.queries.items():
                assert answer_dict(engine, qid) == brute_force_answers(rq.query, g)
            assert engine.index_audit() == []
            if check == 0:
                stream(15)
    assert reused_children > 0


# ---------------------------------------------------------------------------
# Degenerate and multi-query setups
# ---------------------------------------------------------------------------


def test_single_pattern_query_maintenance(engine):
    q = parse_query("SELECT ?x ?o WHERE { ?x worksIn ?o . }")
    receipt = engine.register_query(q)
    assert receipt.subquery_count == 0
    assert len(receipt.answers) == 4
    g = engine.graph
    report = engine.insert_triple("Sarawagi", "worksIn", "IITB")
    [(row, poly)] = report.added[receipt.query_id]
    assert row == (g.node("Sarawagi"), g.node("IITB"))
    assert poly == Polynomial.edge(18)
    report = engine.delete_edge(18)
    assert report.removed[receipt.query_id] == [row]
    assert len(answer_dict(engine, receipt.query_id)) == 4


def test_two_queries_share_updates(engine, running_query):
    engine.register_query(running_query)
    q2 = parse_query("SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }")
    r2 = engine.register_query(q2)
    assert len(r2.answers) == 2  # Ramakrishnan and Ooi
    report = engine.insert_triple("Sarawagi", "worksIn", "IITB")
    assert 1 in report.added and r2.query_id in report.added
    g = engine.graph
    q2_added = dict(report.added[r2.query_id])
    assert q2_added == {
        (g.node("Sarawagi"),): Polynomial.parse("e7*e18")
    }
    assert engine.index_audit() == []


# ---------------------------------------------------------------------------
# Index audit
# ---------------------------------------------------------------------------


def test_audit_flags_planted_corruption(registered):
    engine, _ = registered
    assert engine.index_audit() == []
    # plant a stale inverted-index entry for a non-existent edge
    engine.answers.by_edge.setdefault(999, set()).add((1, (0, 0)))
    problems = engine.index_audit()
    assert problems
    assert any("999" in p for p in problems)


def test_audit_flags_wrong_answer_polynomial(registered):
    engine, _ = registered
    assert engine.index_audit() == []
    answers = engine.queries[1].answers
    [row] = answers
    # each derivation counted twice: the same edges, so only the answer
    # join can tell
    answers[row] = answers[row] + answers[row]
    assert engine.index_audit() == [f"answer mismatch in query 1 at {row}"]


def test_audit_flags_orphan_row_groups(registered):
    """A row group of a node that left the plan, or of a query that is
    not registered, is what a half-undone registration would leave."""
    engine, _ = registered
    [node] = roots(engine)
    del engine.plan.nodes[node.key]
    engine.answers.add(99, {(0,): Polynomial.edge(1)})
    problems = engine.index_audit()
    assert f"plan table group of {node!r}, which is not in the plan" in problems
    assert "answers of unregistered query 99" in problems


def test_audit_flags_dead_plan_node(registered):
    engine, _ = registered
    assert engine.index_audit() == []
    # a join that no answer join reads, over two leaves that one does
    q = parse_query("SELECT ?a WHERE { ?a hadAdvisor ?b . ?b worksIn ?c . }")
    stats = engine._current_stats()
    size = len(engine.plan.nodes)
    dead, _ = merge_into_global(engine.plan, select_best_plan(q.patterns, stats), stats)
    materialize_plan(engine.plan, engine.graph, size)
    assert dead.table
    assert engine.index_audit() == [f"plan node {dead!r} feeds no answer join"]


def test_audit_flags_join_without_leaf_on_its_right(registered):
    """Every join probes its right side in the store, so a join node whose
    right child is a join node, or a query whose `leaf` is one, is a fault."""
    engine, _ = registered
    nodes = engine.plan.nodes
    assert engine.index_audit() == []
    join = next(n for n in nodes.values() if n.children and not nodes[n.children[0]].is_leaf)
    join.children = join.children[::-1]
    rq = engine.queries[1]
    rq.leaf = rq.root
    problems = engine.index_audit()
    right = nodes[join.children[1]]
    assert f"plan join {join!r} has a right child {right!r} that is not a leaf" in problems
    assert f"query 1 joins {rq.root!r}, which is not a leaf" in problems


def test_audit_flags_plan_out_of_creation_order(registered):
    """Creation order is topological: a join node whose child comes
    after it in `plan.nodes`, or is missing from it, is a fault."""
    engine, _ = registered
    nodes = engine.plan.nodes
    assert engine.index_audit() == []
    join = next(n for n in nodes.values() if not n.is_leaf)
    keys = list(join.children)
    created = dict(nodes)
    # the parent moved ahead of its children
    reordered = {join.key: join, **{k: n for k, n in created.items() if k != join.key}}
    nodes.clear()
    nodes.update(reordered)
    assert engine.index_audit() == [
        f"plan join {join!r} precedes or lacks its child {key}" for key in keys
    ]
    nodes.clear()  # back in creation order ...
    nodes.update(created)
    assert engine.index_audit() == []
    leaf = nodes.pop(keys[1])  # ... but for a missing child
    assert leaf.is_leaf
    assert engine.index_audit() == [f"plan join {join!r} precedes or lacks its child {keys[1]}"]


PLANTS = ["group", "edge entry", "probe index"]


@pytest.mark.parametrize("plant, label", [
    *((plant, "?v0 hasDegree PhD") for plant in PLANTS),
    *((plant, "?v0 coAuthor ?v0") for plant in PLANTS),
], ids=PLANTS + [f"{plant}-self-loop" for plant in PLANTS])
def test_audit_flags_rows_held_by_plain_leaf(registered, plant, label):
    """No leaf, whatever its shape, may hold rows of its own."""
    engine, _ = registered
    engine.insert_triple("Ooi", "coAuthor", "Ooi")
    engine.register_query(parse_query("SELECT ?x ?w WHERE { ?x coAuthor ?x . ?x worksIn ?w . }"))
    plan = engine.plan
    [leaf] = [n for n in plan.nodes.values() if n.label() == label]
    row, poly = next(iter(leaf.table.items()))
    assert engine.index_audit() == []
    if plant == "group":
        plan.rows.group(leaf)  # an empty group: no rows to mismatch
        want = f"plan leaf {leaf!r} holds a table group"
    elif plant == "edge entry":
        [(eid, _)] = poly.terms[0][0]
        bucket_add(plan.rows.by_edge, eid, (leaf, row))
        want = f"plan leaf {leaf!r} holds edge entries"
    else:
        plan.rows.index(leaf, (0,))  # a leaf has no group: an empty index
        want = f"plan leaf {leaf!r} holds a probe index"
    problems = engine.index_audit()
    assert want in problems
    if plant != "edge entry":  # an entry with no row is also a mismatch
        assert problems == [want]


def test_audit_flags_store_corruption(registered):
    engine, _ = registered
    out = engine.graph._out
    s, p = next((s, p) for s, inner in out.items() for p, b in inner.items() if isinstance(b, int))
    inner, key = out[s], (s, p)
    eid = inner[p]
    inner[p] = eid + 100  # a single-edge bucket naming the wrong edge
    assert f"store sp index mismatch at {key}" in engine.index_audit()
    inner[p] = {eid}  # the right edge, but in a one-element set
    assert engine.index_audit() == [f"store sp set bucket of 1 at {key}"]
    inner[p] = eid
    assert engine.index_audit() == []


def test_audit_flags_misfiled_store_edge(registered):
    """An edge filed under the wrong predicate of its subject, and an
    endpoint left holding no predicate, are both faults."""
    engine, _ = registered
    g = engine.graph
    s, inner, p = next((s, inner, p) for s, inner in g._out.items() for p in inner)
    q = next(q for q in range(len(g.predicates)) if q not in inner)
    inner[q] = inner.pop(p)
    assert engine.index_audit() == [
        f"store sp index mismatch at {key}" for key in sorted([(s, p), (s, q)])
    ]
    inner[p] = inner.pop(q)
    assert engine.index_audit() == []
    v = next(v for v in g._out if v not in g._in)  # a vertex no edge enters
    g._in[v] = {}  # as if its last in-edge left without its key
    assert engine.index_audit() == [f"store po endpoint {v} with no edges"]
    del g._in[v]
    assert engine.index_audit() == []


def test_audit_flags_stale_probe_index(registered):
    engine, _ = registered
    # the hasDegree delta probes the join node of ?collab's coAuthor and
    # worksIn edges, building its index on ?collab
    engine.insert_triple("Carey", "hasDegree", "PhD")
    node, slots = next((n, s) for n in engine.plan.nodes.values() for s in n.indexes)
    assert not node.is_leaf
    assert engine.index_audit() == []
    stale = (999,) * len(slot_names(node))  # a row the node's table does not hold
    node.indexes[slots][tuple(stale[s] for s in slots)] = stale  # a one-row bucket
    assert engine.index_audit() == [f"plan probe index mismatch at {node!r} slots {slots}"]


def test_audit_flags_one_row_set_in_probe_index(registered):
    engine, _ = registered
    engine.insert_triple("Carey", "hasDegree", "PhD")  # builds a join node's probe index
    node, idx, slots, key = next(
        (n, idx, s, k)
        for n in engine.plan.nodes.values()
        for s, idx in n.indexes.items()
        for k, bucket in idx.items() if bucket.__class__ is tuple
    )
    row = idx[key]
    idx[key] = {row}  # the right row, but in a one-element set
    assert engine.index_audit() == [
        f"plan probe set bucket of 1 at {node!r} slots {slots} key {key}"
    ]
    idx[key] = row
    assert engine.index_audit() == []


@pytest.mark.parametrize("table", ["edge-to-result", "plan"])
def test_audit_flags_one_entry_set_in_edge_index(registered, table):
    engine, _ = registered
    index = engine.answers.by_edge if table == "edge-to-result" else engine.plan.rows.by_edge
    eid, entry = next((e, b) for e, b in index.items() if b.__class__ is tuple)
    index[eid] = {entry}  # the right (group, row) pair, but in a one-element set
    assert engine.index_audit() == [f"{table} set bucket of 1 at e{eid}"]
    index[eid] = entry
    assert engine.index_audit() == []


def _unsorted_monomial(m, c):
    return ((tuple(reversed(m)), c),)


def _unsorted_terms(m, c):
    (eid, exp), *rest = m
    return (((eid, exp + 1), *rest), c), (m, c)


@pytest.mark.parametrize("plant", [
    _unsorted_monomial,
    lambda m, c: ((tuple((eid, 0) for eid, _ in m), c),),  # exponent 0
    _unsorted_terms,
    lambda m, c: ((m, 0),),  # zero coefficient
    None,  # a stale hash
], ids=["monomial-order", "exponent", "term-order", "coefficient", "hash"])
def test_audit_flags_noncanonical_polynomial(registered, plant):
    engine, _ = registered
    node, row, poly = next(
        (n, r, p)
        for n in engine.plan.nodes.values()
        for r, p in n.table.items() if len(p.terms[0][0]) > 1
    )
    [(m, c)] = poly.terms
    if plant is None:
        bad = Polynomial._of(poly.terms)
        bad._hash += 1
    else:
        bad = Polynomial._of(plant(m, c))
    assert bad.edges() == poly.edges()  # the edge index stays right
    node.table[row] = bad
    problems = engine.index_audit()
    assert any(p.startswith(f"plan non-canonical polynomial at {node!r} {row}") for p in problems)


def test_audit_flags_missing_entry(registered):
    engine, _ = registered
    eid, entries = next(iter(engine.answers.by_edge.items()))
    engine.answers.by_edge[eid] = set()
    assert engine.index_audit()
