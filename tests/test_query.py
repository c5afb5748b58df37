"""Query parsing, canonical forms, and edge-sharing classification."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgprov import query
from kgprov.maintenance import Engine
from kgprov.query import (
    DisconnectedQueryError,
    ParseError,
    QueryGraph,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    canonicalize,
    classify_query,
    may_share_edge,
    parse_query,
    pattern_components,
    variable_connected,
)

from conftest import RUNNING_QUERY


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_running_example(running_query):
    q = running_query
    assert q.size == 5
    assert q.projection == ["prof", "collab"]
    p0 = q.patterns[0]
    assert p0.subject == Var("stud")
    assert p0.predicate == "hadAdvisor"
    assert p0.object == Var("prof")
    assert q.patterns[3].object == "PhD"
    assert [p.ordinal for p in q.patterns] == [0, 1, 2, 3, 4]


def test_parse_angle_brackets_and_glued_dot():
    q = parse_query("SELECT ?x WHERE { ?x <knows> <Alice>. }")
    assert q.patterns[0].predicate == "knows"
    assert q.patterns[0].object == "Alice"


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x\nWHERE x { ?x p ?y . }")
    assert exc.value.line == 2
    assert exc.value.column == 7
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?x WHERE { ?x p ?y . } trailing")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_query("SELECT ?x WHERE { ?x p }")  # truncated pattern
    with pytest.raises(ParseError):
        parse_query("SELECT WHERE { ?x p ?y . }")  # empty projection
    with pytest.raises(ParseError):
        parse_query("ASK { ?x p ?y }")
    with pytest.raises(ParseError):
        parse_query("SELECT ?z WHERE { ?x p ?y . }")  # unbound projection


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x WHERE { ?x p ?y . OPTIONAL { ?y q ?z } }",
        "SELECT ?x WHERE { ?x p ?y . FILTER (?x > 3) }",
        "SELECT ?x WHERE { ?x p ?y } ORDER BY ?x",
    ],
)
def test_unsupported_keywords_rejected(text):
    with pytest.raises(UnsupportedFeatureError):
        parse_query(text)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def make(patterns):
    return [
        TriplePattern(s, p, o, ordinal=i) for i, (s, p, o) in enumerate(patterns)
    ]


def test_variable_connectivity():
    joined = make([(Var("x"), "p", Var("y")), (Var("y"), "q", Var("z"))])
    assert variable_connected(joined)
    split = make([(Var("x"), "p", "C"), ("C", "q", Var("z"))])
    assert not variable_connected(split)  # constants never link components
    comps = pattern_components(split)
    assert sorted(len(c) for c in comps) == [1, 1]
    assert len(pattern_components(split, by_constants=True)) == 1
    # a shared predicate variable links neither test
    shared_p = make([(Var("x"), Var("p"), Var("y")), (Var("a"), Var("p"), Var("b"))])
    assert not variable_connected(shared_p)
    assert len(pattern_components(shared_p)) == 2


def test_parse_rejects_disconnected_where_clause():
    with pytest.raises(DisconnectedQueryError):
        parse_query("SELECT ?x ?z WHERE { ?x p ?y . ?z q ?w . }")


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def shuffle_and_rename(patterns, rng):
    """α-rename the variables and shuffle pattern order (fresh ordinals)."""
    names = sorted({v for p in patterns for v in p.variables()})
    renamed = {v: f"r{rng.randrange(1000)}_{i}" for i, v in enumerate(names)}

    def t(term):
        return Var(renamed[term.name]) if isinstance(term, Var) else term

    out = [TriplePattern(t(p.subject), p.predicate, t(p.object)) for p in patterns]
    rng.shuffle(out)
    return [
        TriplePattern(p.subject, p.predicate, p.object, ordinal=i)
        for i, p in enumerate(out)
    ]


def test_canonicalize_invariant_under_renaming(running_query):
    base = canonicalize(running_query.patterns)
    assert base.exact
    rng = random.Random(5)
    for _ in range(25):
        variant = shuffle_and_rename(running_query.patterns, rng)
        assert canonicalize(variant).key == base.key


def test_canonicalize_distinguishes_shapes():
    chain = make([(Var("x"), "p", Var("y")), (Var("y"), "p", Var("z"))])
    star = make([(Var("x"), "p", Var("y")), (Var("x"), "p", Var("z"))])
    assert canonicalize(chain).key != canonicalize(star).key


def test_canonical_varmap_is_consistent():
    form = canonicalize(
        make([(Var("a"), "p", Var("b")), (Var("b"), "q", Var("c"))])
    )
    assert set(form.varmap) == {"a", "b", "c"}
    assert sorted(form.varmap.values()) == sorted(set(form.varmap.values()))


def test_canonicalize_searches_one_of_interchangeable_patterns(monkeypatch):
    """Swapping two leaves of a one-predicate star is a symmetry, so of
    the star's 8! orderings, all rendering its key, the search follows
    one: k + (k - 1) + ... + 1 candidate prefixes and one full key."""
    real, calls = query._render, []
    monkeypatch.setattr(query, "_render", lambda order: calls.append(order) or real(order))
    k = 8
    form = canonicalize(make([(Var("x"), "p", Var(f"a{i}")) for i in range(k)]), ["x"])
    assert len(calls) <= k * (k + 1) // 2 + 1
    assert form.key == tuple((("v", 0), ("c", "p"), ("v", i + 1)) for i in range(k))
    assert form.projection == (0,)
    monkeypatch.undo()
    star = " ".join(f"?x p ?a{i} ." for i in range(k))
    engine = Engine()
    receipt = engine.register_query(parse_query(f"SELECT ?x WHERE {{ {star} }}"))
    assert receipt.answers == []
    engine.insert_triple("hub", "p", "spoke")
    assert [row.bindings for row in engine.answers_of(receipt.query_id)] == [{"x": 0}]


def brute_force_form(patterns, projection):
    """(least rendering over every ordering of `patterns`, least
    projection over the orderings that render it), where a rendering
    numbers the variables by first appearance."""
    best = None
    for order in permutations(patterns):
        varmap = {}
        key = tuple(
            tuple(
                ("v", varmap.setdefault(t.name, len(varmap))) if isinstance(t, Var) else ("c", t)
                for t in p.terms()
            )
            for p in order
        )
        form = (key, tuple(varmap[v] for v in projection))
        best = form if best is None else min(best, form)
    return best


_terms = st.sampled_from([Var("x"), Var("y"), Var("z"), Var("w"), "A", "B"])
_free = st.lists(st.tuples(_terms, st.sampled_from(["p", "q"]), _terms), min_size=1, max_size=6)
# `?x p ?a_i` stars and `?x p ?y_i . ?y_i q ?z_i` combs, alone or with
# other patterns, to exercise the interchangeable-pattern rule
_star = st.integers(1, 6).map(lambda k: [(Var("x"), "p", Var(f"a{i}")) for i in range(k)])
_comb = st.integers(1, 3).map(lambda k: [
    t for i in range(k) for t in ((Var("x"), "p", Var(f"y{i}")), (Var(f"y{i}"), "q", Var(f"z{i}")))
])
_pattern_sets = st.one_of(_free, _star, _comb, st.tuples(st.one_of(_star, _comb), _free).map(
    lambda parts: (parts[0] + parts[1])[:6]
))


@settings(max_examples=150, deadline=None)
@given(_pattern_sets, st.data())
def test_canonicalize_matches_brute_force(triples, data):
    """The key is the least rendering over all orderings, the projection
    the least over the orderings that render the key, and both survive
    a shuffle of the patterns and a renaming of the variables."""
    patterns = make(triples)
    names = sorted({v for p in patterns for v in p.variables()})
    projection = data.draw(st.lists(st.sampled_from(names), max_size=3)) if names else []
    form = canonicalize(patterns, projection)
    assert (form.key, form.projection) == brute_force_form(patterns, projection)

    fresh = dict(zip(names, data.draw(st.permutations([f"r{i}" for i in range(len(names))]))))

    def rename(t):
        return Var(fresh[t.name]) if isinstance(t, Var) else t

    shuffled = data.draw(st.permutations(triples))
    moved = make([(rename(s), p, rename(o)) for s, p, o in shuffled])
    other = canonicalize(moved, [fresh[v] for v in projection])
    assert (other.key, other.projection) == (form.key, form.projection)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def shared_groups(q: QueryGraph) -> dict:
    """Predicate name -> ordinals of the patterns that may co-bind one edge."""
    groups: dict[str, set[int]] = {}
    for a, b in combinations(q.patterns, 2):
        if a.predicate == b.predicate and may_share_edge(a, b):
            groups.setdefault(a.predicate, set()).update((a.ordinal, b.ordinal))
    return {pred: tuple(sorted(ords)) for pred, ords in groups.items()}


def test_distinct_predicates_is_regular(running_query):
    q = QueryGraph(running_query.patterns[:3], ["prof"])
    assert not classify_query(q).multimap
    assert not shared_groups(q)


def test_repeated_predicate_is_multimap(running_query):
    assert classify_query(running_query).multimap
    assert shared_groups(running_query) == {"worksIn": (1, 4)}


def test_distinct_constants_stay_regular():
    q = QueryGraph(
        make([(Var("x"), "worksIn", "NUS"), (Var("y"), "worksIn", "MIT")]),
        ["x", "y"],
    )
    assert not classify_query(q).multimap


def test_one_to_one_chain_excludes_sharing():
    # the `cites` chain leads to distinct ISBN constants, but without
    # predicate semantics the two `cites` patterns may still share an edge
    q = QueryGraph(
        make(
            [
                (Var("x"), "cites", Var("y")),
                (Var("z"), "cites", Var("w")),
                (Var("y"), "hasISBN", "111"),
                (Var("w"), "hasISBN", "222"),
            ]
        ),
        ["x", "z"],
    )
    assert classify_query(q).multimap
    assert shared_groups(q) == {"cites": (0, 1)}


def test_asymmetric_path_excludes_sharing():
    # x -> y -> z over one predicate: both patterns bind the same edge
    # when it is a self-loop x == y == z
    q = QueryGraph(
        make([(Var("x"), "partOf", Var("y")), (Var("y"), "partOf", Var("z"))]),
        ["x", "z"],
    )
    assert classify_query(q).multimap
