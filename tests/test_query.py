"""Query parsing, canonical forms, and edge-sharing classification."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from kgprov.query import (
    DisconnectedQueryError,
    ParseError,
    PredicateMetadata,
    QueryGraph,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    canonicalize,
    classify_query,
    may_share_edge,
    parse_query,
    pretty_print,
    variable_components,
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


def test_pretty_print_round_trips(running_query):
    again = parse_query(pretty_print(running_query))
    assert canonicalize(again.patterns).key == canonicalize(
        running_query.patterns
    ).key


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
    comps = variable_components(split)
    assert sorted(len(c) for c in comps) == [1, 1]


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


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def shared_groups(q: QueryGraph, meta: PredicateMetadata | None = None) -> dict:
    """Predicate name -> ordinals of the patterns that may co-bind one edge."""
    meta = meta or PredicateMetadata()
    groups: dict[str, set[int]] = {}
    for a, b in combinations(q.patterns, 2):
        if a.predicate == b.predicate and may_share_edge(a, b, q.patterns, meta):
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
    # subjects x and z are distinct because the one-to-one `cites` chain
    # leads to provably distinct ISBN constants
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
    meta = PredicateMetadata()
    meta.set("cites", one_to_one=True)
    meta.set("hasISBN", one_to_one=True)
    assert not classify_query(q, meta).multimap


def test_asymmetric_path_excludes_sharing():
    # x -> y -> z over one asymmetric predicate: both patterns can never
    # bind the same edge, since that would need x == y == z, a cycle
    q = QueryGraph(
        make([(Var("x"), "partOf", Var("y")), (Var("y"), "partOf", Var("z"))]),
        ["x", "z"],
    )
    assert classify_query(q).multimap
    meta = PredicateMetadata()
    meta.set("partOf", asymmetric=True)
    assert not classify_query(q, meta).multimap
