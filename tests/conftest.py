"""Shared fixtures and the independent brute-force evaluation oracle.

The oracle enumerates homomorphisms by plain backtracking over the edge
list -- no joins, no indexes, no shared code with the engine -- so it can
serve as ground truth for answers and provenance polynomials alike.
"""

from __future__ import annotations

import os

import pytest

from kgprov.provenance import Polynomial
from kgprov.query import QueryGraph, Var, parse_query
from kgprov.store import KnowledgeGraph, load_ntriples_file

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "academia.nt")

RUNNING_QUERY = """
SELECT ?prof ?collab WHERE {
  ?stud hadAdvisor ?prof .
  ?prof worksIn ?org2 .
  ?collab coAuthor ?stud .
  ?collab hasDegree PhD .
  ?collab worksIn ?org1 .
}
"""


@pytest.fixture
def academia() -> KnowledgeGraph:
    return load_ntriples_file(FIXTURE)


@pytest.fixture
def running_query() -> QueryGraph:
    return parse_query(RUNNING_QUERY)


def _edge_matches(g: KnowledgeGraph, pattern, edge, env):
    """Try to extend `env` so `pattern` maps onto `edge`; None if impossible."""
    out = dict(env)
    pairs = [
        (pattern.subject, edge.subject, False),
        (pattern.predicate, edge.predicate, True),
        (pattern.object, edge.object, False),
    ]
    for term, value, is_pred in pairs:
        if isinstance(term, Var):
            if out.get(term.name, value) != value:
                return None
            out[term.name] = value
        else:
            interner = g.predicates if is_pred else g.nodes
            if interner.get(term) != value:
                return None
    return out


def enumerate_matches(patterns, g: KnowledgeGraph):
    """Yield (env, edge_ids) for every homomorphism of `patterns` into `g`.

    `edge_ids` lists one edge per pattern in pattern order; the same edge
    may appear several times (a 1:m use of that edge).
    """
    edges = list(g.edges.values())

    def extend(i, env, used):
        if i == len(patterns):
            yield dict(env), list(used)
            return
        for e in edges:
            nxt = _edge_matches(g, patterns[i], e, env)
            if nxt is not None:
                used.append(e.id)
                yield from extend(i + 1, nxt, used)
                used.pop()

    yield from extend(0, {}, [])


def brute_force_answers(q: QueryGraph, g: KnowledgeGraph):
    """Ground-truth result: projected row -> provenance polynomial."""
    answers: dict[tuple[int, ...], Polynomial] = {}
    for env, edge_ids in enumerate_matches(q.patterns, g):
        row = tuple(env[v] for v in q.projection)
        counts: dict[int, int] = {}
        for eid in edge_ids:
            counts[eid] = counts.get(eid, 0) + 1
        mono = tuple(sorted(counts.items()))
        answers[row] = answers.get(row, Polynomial.zero()) + Polynomial.monomial(mono)
    return answers


def named_answers(answers, g: KnowledgeGraph):
    """Render an answer dict with vertex names and polynomial text."""
    return {
        tuple(g.node_name(v) for v in row): poly.to_text()
        for row, poly in answers.items()
    }


def has_edge_between(g: KnowledgeGraph, s: int, o: int) -> bool:
    """Some live edge runs from s to o, whatever its predicate."""
    return bool(g.lookup_ids(s, None, o))
