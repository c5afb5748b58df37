"""Stateful property test of the engine: random interleavings of query
registrations, edge inserts (duplicate triples included) and edge
deletes.  After every step each registered query's answers must equal
the brute-force oracle's and the index audit must be empty."""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from kgprov.maintenance import Engine
from kgprov.query import EXACT_CANONICAL_LIMIT, QueryError, canonicalize, parse_query
from kgprov.subquery import generate_subqueries

from conftest import brute_force_answers

NODES = ("n0", "n1", "n2", "n3")
PREDS = ("p0", "p1", "p2")
# one predicate per pattern of the long chain, so that the oracle's walk
# over it stays small; updates touch two of them
CHAIN_PREDS = tuple(f"c{i}" for i in range(EXACT_CANONICAL_LIMIT + 2))
CHAIN_QUERY = "SELECT ?x0 ?x{n} WHERE {{ {body} }}".format(
    n=len(CHAIN_PREDS),
    body=" . ".join(f"?x{i} {p} ?x{i + 1}" for i, p in enumerate(CHAIN_PREDS)),
)

# registered queries per run, which bounds the oracle's work per step
MAX_QUERIES = 6
# code paths a run must have reached (see test_engine_tracks_oracle_...)
REACHED: set[str] = set()

triples = st.tuples(
    st.sampled_from(NODES), st.sampled_from(PREDS + CHAIN_PREDS[:2]), st.sampled_from(NODES)
)


@st.composite
def queries(draw):
    """A variable-connected BGP of 2-4 patterns over few predicates and
    variables, so that queries repeat predicates, close self-loops and
    share plan nodes; an endpoint may be a constant."""
    names = ["x", "y", "z", "w"]
    used = [draw(st.sampled_from(names))]
    patterns = []
    for _ in range(draw(st.integers(2, 4))):
        anchor = draw(st.sampled_from(used))
        if draw(st.integers(0, 5)) == 0:
            other = draw(st.sampled_from(NODES))
        else:
            var = draw(st.sampled_from(names))  # the anchor itself: a self-loop
            used += [var] * (var not in used)
            other = f"?{var}"
        ends = (f"?{anchor}", other)
        s, o = ends if draw(st.booleans()) else ends[::-1]
        patterns.append(f"{s} {draw(st.sampled_from(PREDS))} {o}")
    projection = draw(st.lists(st.sampled_from(used), min_size=1, max_size=3))
    return parse_query(
        f"SELECT {' '.join('?' + v for v in projection)} WHERE {{ {' . '.join(patterns)} }}"
    )


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.updated = False

    @initialize(base=st.lists(triples, max_size=8))
    def load(self, base):
        g = self.engine.graph
        # a path that the long chain query matches
        for i, p in enumerate(CHAIN_PREDS):
            g.insert_triple(NODES[i % 4], p, NODES[(i + 1) % 4])
        for t in base:
            g.insert_triple(*t)

    def _register(self, q):
        plan = self.engine.plan
        before = set(plan.nodes.values())
        try:
            qid = self.engine.register_query(q).query_id
        except QueryError:  # already registered: the engine is unchanged
            return None
        rq = self.engine.queries[qid]
        if rq.leaf in before or any(root in before for root in rq.roots.values()):
            REACHED.add("shared plan node")
        if self.updated:
            REACHED.add("registration after updates")
        return rq

    @precondition(lambda self: len(self.engine.queries) < MAX_QUERIES)
    @rule(q=queries())
    def register(self, q):
        if self._register(q) is None:
            return
        if any(p.subject == p.object for p in q.patterns):
            REACHED.add("self-loop")
        preds = [p.predicate for p in q.patterns]
        if len(set(preds)) < len(preds):
            REACHED.add("repeated predicate")

    @precondition(lambda self: len(self.engine.queries) < MAX_QUERIES)
    @rule()
    def register_chain(self):
        q = parse_query(CHAIN_QUERY)
        if self._register(q) is not None and any(
            not canonicalize(comp).exact
            for sq in generate_subqueries(q)
            for comp in sq.components
        ):
            REACHED.add("heuristic canonical form")

    @rule(t=triples)
    def insert(self, t):
        self.engine.insert_triple(*t)
        self.updated = True

    @precondition(lambda self: self.engine.graph.edges)
    @rule(data=st.data())
    def insert_duplicate(self, data):
        g = self.engine.graph
        e = g.edges[data.draw(st.sampled_from(sorted(g.edges)))]
        self.engine.insert_triple(
            g.node_name(e.subject), g.predicate_name(e.predicate), g.node_name(e.object)
        )
        if self.engine.queries:
            REACHED.add("duplicate triple")
        self.updated = True

    @precondition(lambda self: self.engine.graph.edges)
    @rule(data=st.data())
    def delete(self, data):
        g = self.engine.graph
        self.engine.delete_edge(data.draw(st.sampled_from(sorted(g.edges))))
        self.updated = True

    @invariant()
    def matches_oracle(self):
        engine = self.engine
        for qid, rq in engine.queries.items():
            have = {
                tuple(row.bindings[v] for v in rq.query.projection): row.provenance
                for row in engine.answers_of(qid)
            }
            assert have == brute_force_answers(rq.query, engine.graph)
        assert engine.index_audit() == []


def test_engine_tracks_oracle_under_random_operations():
    REACHED.clear()
    run_state_machine_as_test(
        EngineMachine,
        settings=settings(
            max_examples=50,
            stateful_step_count=30,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
    assert REACHED == {
        "self-loop",
        "duplicate triple",
        "repeated predicate",
        "shared plan node",
        "registration after updates",
        "heuristic canonical form",
    }
