"""Statistics, cardinality estimates, greedy join order selection, and
global plan sharing."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from kgprov.inspection import coverage, plan_dump
from kgprov.maintenance import Engine
from kgprov.planner import (
    GlobalPlan,
    StatsCatalog,
    compute_statistics,
    estimate_cardinality,
    merge_into_global,
    patterns_from_key,
    select_best_plan,
)
from kgprov.query import TriplePattern, Var, canonicalize, parse_query
from kgprov.store import KnowledgeGraph

from conftest import brute_force_answers


def make(patterns):
    return [
        TriplePattern(s, p, o, ordinal=i) for i, (s, p, o) in enumerate(patterns)
    ]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def pair_class_counts(
    stats: StatsCatalog, pred: str
) -> dict[tuple[frozenset[str], frozenset[str]], int]:
    """Exact grouping of a predicate's (s, o) pairs by their
    characteristic-set pair; the raw statistic behind pair_count."""
    out: dict[tuple[frozenset[str], frozenset[str]], int] = {}
    for s, o in stats.pairs(pred):
        k = (stats.char_set(s), stats.char_set(o))
        out[k] = out.get(k, 0) + 1
    return out


def test_statistics_against_grouping_oracle(academia):
    g = academia
    stats = compute_statistics(g)
    edges = list(g.edges.values())

    by_pred = {}
    for e in edges:
        by_pred.setdefault(g.predicate_name(e.predicate), []).append(e)
    for pred, es in by_pred.items():
        assert stats.pred_count(pred) == len(es)
        assert stats.subjects(pred) == {e.subject for e in es}
        assert stats.pairs(pred) == {(e.subject, e.object) for e in es}

    # characteristic set = outgoing predicate labels
    for v in range(g.num_vertices):
        out_preds = {
            g.predicate_name(e.predicate) for e in edges if e.subject == v
        }
        assert stats.char_set(v) == frozenset(out_preds)

    # star counts = subjects whose characteristic set covers the star
    for k in (1, 2):
        for preds in combinations(sorted(by_pred), k):
            want = sum(
                1
                for v in range(g.num_vertices)
                if frozenset(preds) <= stats.char_set(v)
            )
            assert stats.star_count(frozenset(preds)) == want

    # pair counts against the exact grouped statistic
    for pred in by_pred:
        classes = pair_class_counts(stats, pred)
        assert sum(classes.values()) == len(stats.pairs(pred))
        for (s_cs, o_cs), n in classes.items():
            assert stats.pair_count(s_cs, o_cs, pred) >= n


def test_star_count_of_unknown_predicate_is_zero(academia):
    stats = compute_statistics(academia)
    assert stats.star_count(frozenset({"nosuch"})) == 0
    assert stats.star_count(frozenset()) == 0


def eager_statistics(g: KnowledgeGraph):
    """Reference statistics from one pass over every edge: per predicate
    its edge count, subjects and distinct (s, o) pairs, and every
    subject's characteristic set."""
    counts, subjects, pairs, char = {}, {}, {}, {}
    for e in g.edges.values():
        pname = g.predicate_name(e.predicate)
        counts[pname] = counts.get(pname, 0) + 1
        subjects.setdefault(pname, set()).add(e.subject)
        pairs.setdefault(pname, set()).add((e.subject, e.object))
        char.setdefault(e.subject, set()).add(pname)
    return counts, subjects, pairs, {v: frozenset(c) for v, c in char.items()}


def test_statistics_oracle_under_updates():
    """After random inserts, deletes and put-backs, a fresh catalog
    agrees with brute-force counts over `g.edges` on every predicate and
    on every one- and two-predicate star and pair; a catalog read after
    the next update raises."""
    rng = random.Random(12)
    g = KnowledgeGraph()
    names = ["p0", "p1", "p2", "p3"]
    nodes = [f"n{i}" for i in range(8)]

    def insert():
        g.insert_triple(rng.choice(nodes), rng.choice(names), rng.choice(nodes))

    for _ in range(40):
        insert()
    deleted = []
    for step in range(6):
        for _ in range(30):
            r = rng.random()
            if r < 0.4 and g.edges:
                deleted.append(g.delete_edge(rng.choice(sorted(g.edges))))
            elif r < 0.5 and deleted:
                g.put_edge(deleted.pop(rng.randrange(len(deleted))))
            else:
                insert()
        if step == 3:  # p3 stays interned with no edge left
            for eid in list(g.lookup_ids(p=g.predicates.get("p3"))):
                deleted.append(g.delete_edge(eid))
        counts, subjects, pairs, char = eager_statistics(g)
        stats = compute_statistics(g)
        assert stats.predicates() == sorted(counts)
        for pred in names + ["nosuch"]:
            assert stats.pred_count(pred) == counts.get(pred, 0)
            assert stats.subjects(pred) == subjects.get(pred, set())
            assert stats.pairs(pred) == pairs.get(pred, set())
        assert stats.pred_count(None) == len(g.edges)
        for v in range(g.num_vertices):
            assert stats.char_set(v) == char.get(v, frozenset())
        preds = [frozenset(c) for k in (0, 1, 2) for c in combinations(names + ["nosuch"], k)]
        for star in preds:
            want = sum(1 for cs in char.values() if star <= cs) if star else 0
            assert stats.star_count(star) == want
        for s_preds in preds:
            for o_preds in preds:
                for pred in names:
                    want = sum(
                        1 for s, o in pairs.get(pred, ())
                        if s_preds <= char.get(s, frozenset()) and o_preds <= char.get(o, frozenset())
                    )
                    assert stats.pair_count(s_preds, o_preds, pred) == want

        insert()
        one = frozenset({"p0"})
        for read in (
            stats.predicates,
            lambda: stats.pred_count("p0"),
            lambda: stats.pairs("p0"),
            lambda: stats.subjects("p0"),
            lambda: stats.char_set(0),
            lambda: stats.star_count(one),  # cached above, stale now
            lambda: stats.pair_count(one, one, "p0"),
        ):
            with pytest.raises(RuntimeError, match="statistics of graph version"):
                read()


def test_registration_reads_only_the_planned_predicates(monkeypatch):
    """Planning a query over two predicates reads only their edges and
    buckets, however many predicates the graph holds."""
    rng = random.Random(3)
    g = KnowledgeGraph()
    for _ in range(600):
        g.insert_triple(f"n{rng.randrange(40)}", f"p{rng.randrange(30)}", f"n{rng.randrange(40)}")
    planned = {g.predicates.get("p0"), g.predicates.get("p1")}
    read: set = set()

    class EdgeSpy(dict):
        """`g.edges` that records the predicate of every edge read."""

        def __getitem__(self, eid):
            edge = dict.__getitem__(self, eid)
            read.add(edge.predicate)
            return edge

        def get(self, eid, default=None):
            return self[eid] if eid in self else default

        def _scan(self):
            read.add("every edge")
            return self

        def __iter__(self):
            return dict.__iter__(self._scan())

        def values(self):
            return dict.values(self._scan())

        def items(self):
            return dict.items(self._scan())

    real_lookup = KnowledgeGraph.lookup_ids

    def spying_lookup(graph, s=None, p=None, o=None):
        read.add(p)
        return real_lookup(graph, s, p, o)

    engine = Engine(g)
    g.edges = EdgeSpy(g.edges)
    monkeypatch.setattr(KnowledgeGraph, "lookup_ids", spying_lookup)
    receipt = engine.register_query(parse_query("SELECT ?x ?z WHERE { ?x p0 ?y . ?y p1 ?z . }"))
    assert read and read <= planned
    g.edges = dict(g.edges)
    monkeypatch.undo()
    q = parse_query("SELECT ?x ?z WHERE { ?x p0 ?y . ?y p1 ?z . }")
    assert len(receipt.answers) == len(brute_force_answers(q, g))


# ---------------------------------------------------------------------------
# Cardinality estimates
# ---------------------------------------------------------------------------


def test_single_pattern_estimate_is_exact(academia):
    stats = compute_statistics(academia)
    pats = make([(Var("x"), "hadAdvisor", Var("y"))])
    assert estimate_cardinality(pats, stats) == 5.0
    assert estimate_cardinality(
        make([(Var("x"), "coAuthor", Var("y"))]), stats
    ) == 5.0


def test_estimate_empty_and_unknown():
    stats = StatsCatalog(KnowledgeGraph())
    assert estimate_cardinality([], stats) == 0.0
    pats = make([(Var("x"), "p", Var("y")), (Var("x"), "q", Var("z"))])
    assert estimate_cardinality(pats, stats) == 0.0


def test_star_estimate_counts_matching_subjects(academia):
    stats = compute_statistics(academia)
    pats = make(
        [(Var("x"), "hasDegree", Var("d")), (Var("x"), "worksIn", Var("o"))]
    )
    # subjects with both hasDegree and worksIn outgoing: Ramakrishnan, Ooi
    assert estimate_cardinality(pats, stats) == 2.0


def test_cycle_closing_selectivity(academia):
    stats = compute_statistics(academia)
    open_pair = make(
        [(Var("x"), "coAuthor", Var("y")), (Var("y"), "coAuthor", Var("z"))]
    )
    closed = make(
        [(Var("x"), "coAuthor", Var("y")), (Var("y"), "coAuthor", Var("x"))]
    )
    assert estimate_cardinality(closed, stats) == (
        0.5 * estimate_cardinality(open_pair, stats)
    )


# ---------------------------------------------------------------------------
# Join order selection
# ---------------------------------------------------------------------------


def stats_with_counts(counts):
    """A StatsCatalog over a tiny synthetic graph realizing edge counts."""
    g = KnowledgeGraph()
    n = 0
    for pred, count in counts.items():
        for _ in range(count):
            g.insert_triple(f"s{n}", pred, f"o{n}")
            n += 1
    return StatsCatalog(g)


def rank(prefix, added, stats):
    """The planner's rank of growing `prefix` by `added`."""
    grown = sorted(prefix + [added], key=lambda p: p.ordinal)
    return (
        estimate_cardinality(grown, stats),
        canonicalize(grown).key,
        canonicalize([added]).key,
    )


def shares_var(prefix, p):
    return bool(set().union(*(q.variables() for q in prefix)) & p.variables())


def expected_order(pats, stats):
    """Each step's winner by exhaustive scan: the minimum (rank,
    ordinals) over every variable-sharing pair, then over every pattern
    that shares a variable with the prefix chosen so far."""
    pats = sorted(pats, key=lambda p: p.ordinal)
    pairs = [
        (rank([a], b, stats), a.ordinal, b.ordinal, a, b)
        for a in pats for b in pats
        if a.ordinal < b.ordinal and a.variables() & b.variables()
    ]
    *_, a, b = min(pairs, key=lambda c: c[:3])
    order = [a, b]
    while len(order) < len(pats):
        cands = [
            (rank(order, p, stats), p.ordinal, p)
            for p in pats
            if p not in order and shares_var(order, p)
        ]
        order.append(min(cands, key=lambda c: c[:2])[2])
    return order


def random_component(rng, n, preds):
    """A variable-connected component of n patterns: each new pattern
    touches a variable already used (sometimes twice, closing a cycle)."""
    used = ["v0"]
    out = []
    for i in range(n):
        anchor = Var(rng.choice(used))
        if rng.random() < 0.25 and len(used) > 1:
            other = Var(rng.choice(used))
        else:
            other = Var(f"v{len(used)}")
            used.append(other.name)
        s, o = (anchor, other) if rng.random() < 0.5 else (other, anchor)
        out.append(TriplePattern(s, rng.choice(preds), o, ordinal=i))
    return out


def test_order_is_the_greedy_minimum_rank_chain(academia):
    stats = compute_statistics(academia)
    preds = ["hadAdvisor", "worksIn", "coAuthor", "hasDegree"]
    rng = random.Random(8)
    for _ in range(150):
        pats = random_component(rng, rng.randrange(2, 8), preds)
        order = select_best_plan(pats, stats)
        assert order == expected_order(pats, stats)
        # the input's order does not matter
        shuffled = list(pats)
        rng.shuffle(shuffled)
        assert select_best_plan(shuffled, stats) == order


def test_exact_tie_goes_to_lowest_ordinals():
    # the two p5 patterns, like the two p0 ones, are isomorphic, so the
    # four mixed pairs {0,1} {0,2} {3,1} {3,2} rank exactly alike
    pats = make(
        [
            (Var("a"), "p5", Var("b")),
            (Var("c"), "p0", Var("a")),
            (Var("d"), "p0", Var("a")),
            (Var("a"), "p5", Var("e")),
        ]
    )
    stats = stats_with_counts({"p5": 3, "p0": 5})
    ranks = {(i, j): rank([pats[i]], pats[j], stats) for i, j in combinations(range(4), 2)}
    best = min(ranks.values())
    tied = sorted(ij for ij, r in ranks.items() if r == best)
    assert len(tied) > 1
    order = select_best_plan(pats, stats)
    assert [p.ordinal for p in order[:2]] == list(tied[0])
    assert select_best_plan(pats[::-1], stats) == order
    assert order == expected_order(pats, stats)


def test_long_chain_is_planned_whole():
    chain = make(
        [(Var(f"x{i}"), f"p{i}", Var(f"x{i + 1}")) for i in range(12)]
    )
    stats = StatsCatalog(KnowledgeGraph())
    order = select_best_plan(chain, stats)
    assert sorted(p.ordinal for p in order) == list(range(12))
    for i in range(1, len(order)):
        assert shares_var(order[:i], order[i])
    plan = GlobalPlan()
    root, varmap = merge_into_global(plan, order, stats)
    assert len(plan.nodes) == 2 * 12 - 1
    assert set(varmap) == {f"x{i}" for i in range(13)}
    assert root.key == canonicalize(chain).key


def test_greedy_selection_prefers_cheap_pairs(academia):
    stats = compute_statistics(academia)
    pats = make(
        [
            (Var("x"), "hadAdvisor", Var("y")),
            (Var("y"), "worksIn", Var("o")),
            (Var("x"), "hasDegree", Var("d")),
        ]
    )
    order = select_best_plan(pats, stats)
    assert sorted(p.ordinal for p in order) == [0, 1, 2]
    # the chosen pair is the cheapest connected pair: the degree +
    # advisor subject star (2 estimated rows) beats the advisor ->
    # workplace chain (4 estimated rows)
    assert [p.ordinal for p in order[:2]] == [0, 2]


def test_selection_deterministic(academia):
    stats = compute_statistics(academia)
    pats = make(
        [
            (Var("x"), "coAuthor", Var("y")),
            (Var("y"), "hasDegree", Var("d")),
            (Var("y"), "worksIn", Var("o")),
        ]
    )
    first = select_best_plan(pats, stats)
    for _ in range(5):
        assert select_best_plan(pats, stats) == first


# ---------------------------------------------------------------------------
# Global plan merging
# ---------------------------------------------------------------------------


def install(plan, pats, stats):
    """Plan a component and count the registration on its root, as
    `Engine.register_query` does."""
    root, varmap = merge_into_global(plan, select_best_plan(pats, stats), stats)
    root.roots += 1
    return root, varmap


def test_merge_shares_canonical_subexpressions(academia):
    stats = compute_statistics(academia)
    plan = GlobalPlan()

    # `a` is exactly the star that planning `b` also selects as its
    # cheapest pair, so all three of `a`'s nodes are reused
    a = make([(Var("x"), "hadAdvisor", Var("y")), (Var("x"), "hasDegree", Var("d"))])
    b = make(
        [
            (Var("s"), "hadAdvisor", Var("t")),
            (Var("t"), "worksIn", Var("w")),
            (Var("s"), "hasDegree", Var("d")),
        ]
    )
    install(plan, a, stats)
    n_after_first = len(plan.nodes)
    assert n_after_first == 3  # two leaves + the join
    b_root, _ = install(plan, b, stats)

    # only the workplace leaf and b's root are new
    assert len(plan.nodes) == n_after_first + 2
    shared = plan.nodes[canonicalize(a).key]
    assert shared.roots == 1
    assert b_root.roots == 1
    assert shared.key in {c[0] for c in b_root.children}


def test_merge_is_idempotent_per_canonical_form(academia):
    stats = compute_statistics(academia)
    plan = GlobalPlan()
    a = make([(Var("x"), "hadAdvisor", Var("y")), (Var("y"), "worksIn", Var("o"))])
    first, a_vm = install(plan, a, stats)
    n = len(plan.nodes)
    renamed = make(
        [(Var("u"), "hadAdvisor", Var("v")), (Var("v"), "worksIn", Var("w"))]
    )
    root, varmap = install(plan, renamed, stats)
    assert len(plan.nodes) == n  # same canonical form: nothing new
    assert root is first is plan.nodes[canonicalize(a).key]
    assert root.roots == 2
    # both varmaps send corresponding variables to the same slot
    assert [varmap[v] for v in "uvw"] == [a_vm[v] for v in "xyo"]


def test_no_duplicate_canonical_keys_and_topo_order(academia):
    stats = compute_statistics(academia)
    plan = GlobalPlan()
    rng = random.Random(3)
    preds = ["hadAdvisor", "worksIn", "coAuthor", "hasDegree"]
    for qid in range(1, 9):
        k = rng.randrange(2, 4)
        pats = make(
            [
                (Var(f"x{i}"), preds[rng.randrange(4)], Var(f"x{i + 1}"))
                for i in range(k)
            ]
        )
        install(plan, pats, stats)
    keys = [n.key for n in plan.nodes.values()]
    assert len(keys) == len(set(keys))
    order = plan.topo_order()
    seen = set()
    for node in order:
        for child_key, _ in node.children or ():
            assert child_key in seen
        seen.add(node.key)
    # the dump lists the nodes in creation order, which is topological
    assert [entry["expr"] for entry in plan_dump(plan)] == [n.label() for n in order]


def test_patterns_from_key_round_trip():
    pats = make([(Var("x"), "p", Var("y")), (Var("y"), "q", "C")])
    key = canonicalize(pats).key
    back = patterns_from_key(key)
    assert canonicalize(back).key == key


def test_coverage_arithmetic(academia):
    stats = compute_statistics(academia)
    plan = GlobalPlan()
    assert coverage(plan) is None
    a = make([(Var("x"), "hadAdvisor", Var("y")), (Var("y"), "worksIn", Var("o"))])
    install(plan, a, stats)
    non_leaf = sum(1 for n in plan.nodes.values() if not n.is_leaf)
    uniq_preds = len({p for n in plan.nodes.values() for p in n.predicates})
    assert coverage(plan) == non_leaf / uniq_preds
