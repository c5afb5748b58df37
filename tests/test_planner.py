"""Statistics, cardinality estimates, AND-OR enumeration, greedy plan
selection, and global plan sharing."""

from __future__ import annotations

import random
from itertools import combinations

from kgprov.planner import (
    AndOrTree,
    GlobalPlan,
    RootRef,
    StatsCatalog,
    build_and_or_tree,
    compute_statistics,
    coverage,
    estimate_cardinality,
    merge_into_global,
    patterns_from_key,
    select_best_plan,
)
from kgprov.query import TriplePattern, Var, canonicalize
from kgprov.store import KnowledgeGraph


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
    for s, o in stats.pred_pairs.get(pred, ()):
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
        assert stats.pred_counts[pred] == len(es)
        assert stats.pred_subjects[pred] == {e.subject for e in es}
        assert stats.pred_pairs[pred] == {(e.subject, e.object) for e in es}

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
        assert sum(classes.values()) == len(stats.pred_pairs[pred])
        for (s_cs, o_cs), n in classes.items():
            assert stats.pair_count(s_cs, o_cs, pred) >= n


def test_star_count_of_unknown_predicate_is_zero(academia):
    stats = compute_statistics(academia)
    assert stats.star_count(frozenset({"nosuch"})) == 0
    assert stats.star_count(frozenset()) == 0


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
# AND-OR trees
# ---------------------------------------------------------------------------


def connected_subsets_brute(patterns):
    """All variable-connected pattern subsets, by exhaustive check."""
    out = set()
    n = len(patterns)
    for r in range(1, n + 1):
        for combo in combinations(patterns, r):
            reached = {combo[0].ordinal}
            changed = True
            while changed:
                changed = False
                for p in combo:
                    if p.ordinal in reached:
                        continue
                    pv = p.variables()
                    linked = any(
                        q.variables() & pv
                        for q in combo
                        if q.ordinal in reached
                    )
                    if linked:
                        reached.add(p.ordinal)
                        changed = True
            if len(reached) == r:
                out.add(frozenset(p.ordinal for p in combo))
    return out


def test_or_nodes_are_exactly_the_connected_subsets():
    star = make(
        [
            (Var("x"), "a", Var("y")),
            (Var("x"), "b", Var("z")),
            (Var("x"), "c", Var("w")),
            (Var("x"), "d", Var("v")),
        ]
    )
    tree = build_and_or_tree(star)
    assert tree.exhaustive
    assert set(tree.or_nodes()) == connected_subsets_brute(star)
    # a 4-star is fully connected: every subset appears
    assert len(tree.or_nodes()) == 2**4 - 1


def test_chain_splits():
    chain = make(
        [
            (Var("x"), "a", Var("y")),
            (Var("y"), "b", Var("z")),
            (Var("z"), "c", Var("w")),
        ]
    )
    tree = build_and_or_tree(chain)
    assert set(tree.or_nodes()) == connected_subsets_brute(chain)
    # the root of a 3-chain has exactly two connected binary splits
    root_splits = tree.splits[tree.root]
    assert sorted(
        (sorted(a), sorted(b)) for a, b in root_splits
    ) == [([0], [1, 2]), ([0, 1], [2])]


def test_oversized_query_falls_back_to_left_deep():
    chain = make(
        [(Var(f"x{i}"), f"p{i}", Var(f"x{i + 1}")) for i in range(10)]
    )
    tree = build_and_or_tree(chain)
    assert not tree.exhaustive
    plan = select_best_plan(tree, StatsCatalog(KnowledgeGraph()))
    # left-deep: every join has a single-pattern right child
    for subset, d in plan.derivations.items():
        if d is not None:
            assert len(d[1]) == 1


# ---------------------------------------------------------------------------
# Plan selection
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


def test_greedy_selection_prefers_cheap_pairs(academia):
    stats = compute_statistics(academia)
    pats = make(
        [
            (Var("x"), "hadAdvisor", Var("y")),
            (Var("y"), "worksIn", Var("o")),
            (Var("x"), "hasDegree", Var("d")),
        ]
    )
    plan = select_best_plan(build_and_or_tree(pats), stats)
    assert plan.root == frozenset({0, 1, 2})
    # the chain is grown level by level: three leaves, one 2-subset, root
    sizes = sorted(len(s) for s in plan.nodes_top_down())
    assert sizes == [1, 1, 1, 2, 3]
    # the chosen pair is the cheapest connected 2-subset: the degree +
    # advisor subject star (2 estimated rows) beats the advisor ->
    # workplace chain (4 estimated rows)
    assert frozenset({0, 2}) in plan.derivations


def test_selection_deterministic(academia):
    stats = compute_statistics(academia)
    pats = make(
        [
            (Var("x"), "coAuthor", Var("y")),
            (Var("y"), "hasDegree", Var("d")),
            (Var("y"), "worksIn", Var("o")),
        ]
    )
    tree = build_and_or_tree(pats)
    first = select_best_plan(tree, stats).derivations
    for _ in range(5):
        assert select_best_plan(tree, stats).derivations == first


# ---------------------------------------------------------------------------
# Global plan merging
# ---------------------------------------------------------------------------


def ref(qid, removed=0, comp=0):
    return RootRef(qid, removed, comp, ())


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
    la = select_best_plan(build_and_or_tree(a), stats)
    merge_into_global(plan, la, stats, ref(1))
    n_after_first = len(plan.nodes)
    assert n_after_first == 3  # two leaves + the join
    lb = select_best_plan(build_and_or_tree(b), stats)
    merge_into_global(plan, lb, stats, ref(2))

    # only the workplace leaf and b's root are new
    assert len(plan.nodes) == n_after_first + 2
    shared = plan.nodes[canonicalize(a).key]
    assert {r.query_id for r in shared.roots} == {1}
    assert any(
        shared.key in {c[0] for c in (node.children or ())}
        for node in plan.nodes.values()
    )


def test_merge_is_idempotent_per_canonical_form(academia):
    stats = compute_statistics(academia)
    plan = GlobalPlan()
    a = make([(Var("x"), "hadAdvisor", Var("y")), (Var("y"), "worksIn", Var("o"))])
    la = select_best_plan(build_and_or_tree(a), stats)
    merge_into_global(plan, la, stats, ref(1))
    n = len(plan.nodes)
    renamed = make(
        [(Var("u"), "hadAdvisor", Var("v")), (Var("v"), "worksIn", Var("w"))]
    )
    lb = select_best_plan(build_and_or_tree(renamed), stats)
    merge_into_global(plan, lb, stats, ref(2))
    assert len(plan.nodes) == n  # same canonical form: nothing new
    root = plan.nodes[canonicalize(a).key]
    assert {r.query_id for r in root.roots} == {1, 2}


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
        local = select_best_plan(build_and_or_tree(pats), stats)
        merge_into_global(plan, local, stats, ref(qid))
    keys = [n.key for n in plan.nodes.values()]
    assert len(keys) == len(set(keys))
    order = plan.topo_order()
    seen = set()
    for node in order:
        for child_key, _ in node.children or ():
            assert child_key in seen
        seen.add(node.key)


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
    merge_into_global(
        plan, select_best_plan(build_and_or_tree(a), stats), stats, ref(1)
    )
    non_leaf = sum(1 for n in plan.nodes.values() if not n.is_leaf)
    uniq_preds = len({p for n in plan.nodes.values() for p in n.predicates})
    assert coverage(plan) == non_leaf / uniq_preds
