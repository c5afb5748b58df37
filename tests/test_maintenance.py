"""Standing-query engine: registration, connection-point annotations,
and incremental answer maintenance under single-edge updates."""

from __future__ import annotations

import collections
import copy
import random

import pytest

from kgprov import maintenance
from kgprov.evaluate import evaluate_patterns
from kgprov.maintenance import IN, OUT, Engine
from kgprov.provenance import Polynomial
from kgprov.query import (
    QueryError,
    QueryGraph,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    parse_query,
)
from kgprov.store import KnowledgeGraph
from kgprov.subquery import generate_subqueries
from kgprov.workload import random_graph, random_query

from conftest import RUNNING_QUERY, brute_force_answers


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
    assert receipt.annotation_count == 16
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


def _connection_points(engine):
    return {(a.key, a.node, a.exp_rel, a.prov) for a in engine.all_annotations()}


def test_connection_points_match_fresh_registration():
    rng = random.Random(31)
    compared = 0
    for _trial in range(8):
        g = random_graph(rng, 12, 3, 40)
        engine = Engine(g)
        queries = []
        for _ in range(3):
            q = random_query(g, rng, rng.randrange(2, 5))
            try:
                engine.register_query(q)
            except QueryError:
                continue
            queries.append(q)
        names = [f"n{i}" for i in range(12)]
        preds = sorted(g.predicates.names())
        for _step in range(25):
            if rng.random() < 0.5 and g.edges:
                engine.delete_edge(rng.choice(sorted(g.edges)))
            else:
                engine.insert_triple(
                    rng.choice(names), rng.choice(preds), rng.choice(names)
                )
        fresh = Engine(copy.deepcopy(g))
        for q in queries:
            fresh.register_query(q)
        want = _connection_points(fresh)
        assert _connection_points(engine) == want
        compared += len(want)
    assert compared > 0


def test_statistics_follow_every_update(engine):
    g = engine.graph
    engine._current_stats()
    engine.insert_triple("Ooi", "coAuthor", "Gehrke")
    coauthor = [e.id for e in g.lookup(p=g.predicates.get("coAuthor"))]
    engine.delete_edge(coauthor[0])
    engine.delete_edge(coauthor[1])
    stats = engine._current_stats()
    assert stats.pred_counts["coAuthor"] == len(coauthor) - 2


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
    coauthor = [e.id for e in g.lookup(p=g.predicates.get("coAuthor"))]
    assert engine._current_stats().pred_counts["coAuthor"] == len(coauthor)

    engine.delete_edge(coauthor[0])
    assert engine._stats_cache is None


# ---------------------------------------------------------------------------
# Plan materialization at registration
# ---------------------------------------------------------------------------


def fresh_node_table(node, g):
    """A plan node's table evaluated from the store by full BGP
    evaluation of its patterns, keyed by var slot."""
    table = evaluate_patterns(node.patterns, g)
    order = sorted(range(len(table.vars)), key=lambda i: int(table.vars[i][1:]))
    return {tuple(row[i] for i in order): poly for row, poly in table.rows.items()}


def test_each_plan_node_materialized_once(engine, monkeypatch):
    g = engine.graph
    filled = collections.Counter()  # node -> tables written
    store_reads = []  # store lookups per materialization
    real_materialize = maintenance.materialize_plan

    def counting_materialize(plan, graph):
        reads = []
        real_add, real_lookup = plan.rows.add, graph.lookup_ids
        plan.rows.add = lambda node, rows: filled.update([node]) or real_add(node, rows)
        graph.lookup_ids = lambda *a: reads.append(a) or real_lookup(*a)
        try:
            return real_materialize(plan, graph)
        finally:
            del plan.rows.add, graph.lookup_ids
            store_reads.append(len(reads))

    monkeypatch.setattr(maintenance, "materialize_plan", counting_materialize)

    # all three share the empty join node ?a hadAdvisor ?b . ?c hasDegree ?b
    shared = "?a hadAdvisor ?b . ?c hasDegree ?b ."
    for extra in ("?b worksIn ?d .", "?e coAuthor ?a .", "?a worksIn ?d ."):
        engine.register_query(parse_query(f"SELECT ?a WHERE {{ {shared} {extra} }}"))
    [empty] = [
        n for n in engine.plan.nodes.values()
        if n.label() == "?v0 hadAdvisor ?v1 . ?v2 hasDegree ?v1"
    ]
    assert empty.table == {}
    assert filled == collections.Counter(engine.plan.nodes.values())
    leaves = sum(1 for n in engine.plan.nodes.values() if n.is_leaf)
    assert sum(store_reads) == leaves  # one scan per leaf, none per join

    # every plan node of this query already exists: its registration
    # reads nothing from the store, answers included
    nodes_before = set(engine.plan.nodes)
    lookups = []
    real_lookup = KnowledgeGraph.lookup_ids
    monkeypatch.setattr(
        KnowledgeGraph, "lookup_ids", lambda self, *a: lookups.append(a) or real_lookup(self, *a)
    )
    engine.register_query(parse_query("SELECT ?x WHERE { ?x hadAdvisor ?y . ?z hasDegree ?y . }"))
    assert set(engine.plan.nodes) == nodes_before
    assert store_reads[-1] == 0
    assert lookups == []
    assert filled == collections.Counter(engine.plan.nodes.values())
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
            for ck, _ in node.children
            if ck in maintained
        )

        for check in range(2):
            assert engine.plan.pending == []
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
    engine.edge_to_result.setdefault(999, set()).add((1, (0, 0)))
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


def test_audit_flags_store_corruption(registered):
    engine, _ = registered
    by_sp = engine.graph._by_sp
    key = next(k for k, bucket in by_sp.items() if isinstance(bucket, int))
    eid = by_sp[key]
    by_sp[key] = eid + 100  # a single-edge bucket naming the wrong edge
    assert f"store sp index mismatch at {key}" in engine.index_audit()
    by_sp[key] = {eid}  # the right edge, but in a one-element set
    assert engine.index_audit() == [f"store sp set bucket of 1 at {key}"]
    by_sp[key] = eid
    assert engine.index_audit() == []


def test_audit_flags_stale_probe_index(registered):
    engine, _ = registered
    engine.insert_triple("Ooi", "coAuthor", "Gehrke")  # builds probe indexes
    node, slots = next((n, s) for n in engine.plan.nodes.values() for s in n.indexes)
    assert engine.index_audit() == []
    stale = (999,) * node.num_vars  # a row the node's table does not hold
    node.indexes[slots][tuple(stale[s] for s in slots)] = stale  # a one-row bucket
    assert engine.index_audit() == [f"plan probe index mismatch at {node!r} slots {slots}"]


def test_audit_flags_one_row_set_in_probe_index(registered):
    engine, _ = registered
    engine.insert_triple("Ooi", "coAuthor", "Gehrke")  # builds probe indexes
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
    index = engine.edge_to_result if table == "edge-to-result" else engine.plan.edge_rows
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
    eid, entries = next(iter(engine.edge_to_result.items()))
    engine.edge_to_result[eid] = set()
    assert engine.index_audit()
