"""Graph store: edge identity, index lookups, and the triple loader."""

from __future__ import annotations

import random

import pytest

from kgprov.store import KnowledgeGraph, LoadError, load_ntriples

from conftest import FIXTURE, has_edge_between
from kgprov.store import load_ntriples_file


def random_store(seed: int, n_edges: int = 200) -> KnowledgeGraph:
    rng = random.Random(seed)
    g = KnowledgeGraph()
    for _ in range(n_edges):
        g.insert_triple(
            f"n{rng.randrange(25)}", f"p{rng.randrange(5)}", f"n{rng.randrange(25)}"
        )
    return g


# ---------------------------------------------------------------------------
# Edge identity
# ---------------------------------------------------------------------------


def test_edge_ids_monotone_and_never_reused():
    g = KnowledgeGraph()
    a = g.insert_triple("x", "p", "y")
    b = g.insert_triple("y", "p", "z")
    assert b == a + 1
    g.delete_edge(a)
    c = g.insert_triple("x", "p", "y")
    assert c > b  # the freed id is not recycled
    assert g.next_edge_id == c + 1


def test_parallel_edges_are_distinct():
    g = KnowledgeGraph()
    a = g.insert_triple("x", "p", "y")
    b = g.insert_triple("x", "p", "y")
    assert a != b
    assert len(g.lookup_ids(g.node("x"), g.predicate("p"), g.node("y"))) == 2


def test_delete_unknown_edge_is_none():
    g = KnowledgeGraph()
    assert g.delete_edge(7) is None


# ---------------------------------------------------------------------------
# Index lookups against a linear-scan oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lookup_matches_linear_scan(seed):
    g = random_store(seed)
    rng = random.Random(seed + 100)
    # delete a third of the edges to exercise index removal
    for eid in rng.sample(sorted(g.edges), len(g.edges) // 3):
        g.delete_edge(eid)

    nodes = [g.node(f"n{i}") for i in range(25)]
    preds = [g.predicate(f"p{i}") for i in range(5)]
    for _ in range(300):
        s = rng.choice(nodes + [None])
        p = rng.choice(preds + [None])
        o = rng.choice(nodes + [None])
        want = {
            e.id
            for e in g.edges.values()
            if (s is None or e.subject == s)
            and (p is None or e.predicate == p)
            and (o is None or e.object == o)
        }
        assert set(g.lookup_ids(s, p, o)) == want
        assert {e.id for e in g.lookup(s, p, o)} == want
        assert g.count(s, p, o) == len(want)


def test_access_paths_follow_interleaved_updates():
    """Inserts and deletes, duplicate triples included, move buckets
    through 0 -> 1 -> 2 -> 1 -> 0 ids; after every operation each access
    path agrees with a linear scan and the store audit is clean."""
    rng = random.Random(7)
    g = KnowledgeGraph()
    nodes = [g.node(f"n{i}") for i in range(3)]
    preds = [g.predicate(f"p{i}") for i in range(2)]
    moves = set()  # (ids before, ids after) of the touched (s, p, o) bucket
    for _ in range(400):
        if len(g.edges) > rng.randrange(12):
            e = g.edges[rng.choice(sorted(g.edges))]
            triple, step = (e.subject, e.predicate, e.object), -1
            before = g.count(*triple)
            g.delete_edge(e.id)
        else:
            triple, step = (rng.choice(nodes), rng.choice(preds), rng.choice(nodes)), 1
            before = g.count(*triple)
            g.insert_edge(*triple)
        assert g.count(*triple) == before + step
        moves.add((before, before + step))

        for s in nodes + [None]:
            for p in preds + [None]:
                for o in nodes + [None]:
                    want = {
                        e.id
                        for e in g.edges.values()
                        if (s is None or e.subject == s)
                        and (p is None or e.predicate == p)
                        and (o is None or e.object == o)
                    }
                    ids = g.lookup_ids(s, p, o)
                    assert sorted(ids) == sorted(want)
                    assert bool(ids) == bool(want)
                    assert {e.id for e in g.lookup(s, p, o)} == want
                    assert g.count(s, p, o) == len(want)
        for s in nodes:
            for o in nodes:
                assert has_edge_between(g, s, o) == any(
                    e.subject == s and e.object == o for e in g.edges.values()
                )
        assert g.audit() == []
    assert {(0, 1), (1, 2), (2, 1), (1, 0)} <= moves


def test_lookup_results_cannot_change_the_store():
    g = KnowledgeGraph()
    x, y, z, p = g.node("x"), g.node("y"), g.node("z"), g.predicate("p")
    eid = g.insert_edge(x, p, y)
    # a duplicate-triple (s, p, o) bucket of two, beside a third edge
    # that shares the (s, p) and s buckets but not the object
    dups = {g.insert_edge(y, p, z), g.insert_edge(y, p, z)}
    g.insert_edge(y, p, y)
    empty, single = g.lookup_ids(y, p, x), g.lookup_ids(x, p, y)
    filtered = [g.lookup_ids(y, p, z), g.lookup_ids(y, None, z)]
    for result in (empty, single, *filtered):
        assert isinstance(result, tuple)
        with pytest.raises(AttributeError):
            result.add(99)
    assert list(g.lookup_ids(y, p, x)) == []
    assert list(g.lookup_ids(x, p, y)) == [eid]
    assert [set(ids) for ids in filtered] == [dups, dups]
    assert g.audit() == []


def test_has_edge_between(academia):
    g = academia
    assert has_edge_between(g, g.node("Ooi"), g.node("Ramakrishnan"))
    assert not has_edge_between(g, g.node("Ooi"), g.node("IBM"))


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


def test_load_fixture_summary(academia):
    assert academia.num_vertices == 12
    assert academia.num_edges == 17
    assert academia.num_predicates == 4


def test_fixture_edge_ids_follow_file_order(academia):
    g = academia
    e1 = g.edges[1]
    assert (g.node_name(e1.subject), g.predicate_name(e1.predicate),
            g.node_name(e1.object)) == ("Gehrke", "hadAdvisor", "Ramakrishnan")
    e17 = g.edges[17]
    assert g.node_name(e17.subject) == "Stonebraker"


def test_loader_accepts_glued_dot_and_comments():
    g = load_ntriples(
        [
            "# a comment",
            "",
            "<a> <p> <b> .",
            "<b> <p> <c>.",
        ]
    )
    assert g.num_edges == 2
    assert g.node_name(g.edges[2].object) == "c"


def test_loader_reports_line_numbers():
    with pytest.raises(LoadError) as exc:
        load_ntriples(["<a> <p> <b> .", "<broken line here now> ."])
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_loader_appends_into_existing_graph():
    g = load_ntriples_file(FIXTURE)
    load_ntriples(["<Ooi> <coAuthor> <Gehrke> ."], g)
    assert g.num_edges == 18
    assert 18 in g.edges
