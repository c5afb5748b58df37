"""Subquery generation: one per removed pattern, component split, the
four structural types, and connection-point bounds."""

from __future__ import annotations

import pytest

from kgprov.inspection import (
    DegenerateQueryError,
    Subquery,
    SubqueryType,
    generate_subqueries,
)
from kgprov.query import QueryGraph, TriplePattern, Var, parse_query


def ordinals(component):
    return sorted(p.ordinal for p in component)


def free_endpoint_vars(sq: Subquery) -> list[str]:
    """Variables of the removed pattern's endpoints that no component
    keeps, subject first."""
    out = []
    t = sq.removed_pattern
    if isinstance(t.subject, Var) and sq.subject_comp is None:
        out.append(t.subject.name)
    if isinstance(t.object, Var) and sq.object_comp is None and t.object.name not in out:
        out.append(t.object.name)
    return out


def test_one_subquery_per_pattern(running_query):
    sqs = generate_subqueries(running_query)
    assert [sq.removed for sq in sqs] == [0, 1, 2, 3, 4]
    for sq in sqs:
        assert sq.removed_pattern.ordinal == sq.removed


def test_running_example_types(running_query):
    sqs = generate_subqueries(running_query)
    assert [sq.sq_type for sq in sqs] == [
        SubqueryType.II,
        SubqueryType.I,
        SubqueryType.III,
        SubqueryType.I,
        SubqueryType.I,
    ]


def test_type_ii_component_ordering(running_query):
    # removing the advisor pattern isolates the professor's workplace
    # pattern; the multi-pattern side must come first (it is SQ1)
    sq = generate_subqueries(running_query)[0]
    assert [ordinals(c) for c in sq.components] == [[2, 3, 4], [1]]
    assert sq.subject_comp == 0  # ?stud lives in the collaborator side
    assert sq.object_comp == 1  # ?prof anchors the lone workplace pattern


def test_type_iii_subject_component_first(running_query):
    sq = generate_subqueries(running_query)[2]
    # removed: ?collab coAuthor ?stud -- subject side is the collaborator
    # component {3, 4}, which must be ordered first
    assert [ordinals(c) for c in sq.components] == [[3, 4], [0, 1]]
    assert sq.subject_comp == 0
    assert sq.object_comp == 1


def test_type_i_free_endpoints(running_query):
    sqs = generate_subqueries(running_query)
    # removing the workplace pattern frees ?org2 (a fresh variable)
    assert free_endpoint_vars(sqs[1]) == ["org2"]
    # removing the degree pattern frees the constant PhD: no variable,
    # but the endpoint still does not survive, hence Type I
    assert free_endpoint_vars(sqs[3]) == []
    assert free_endpoint_vars(sqs[4]) == ["org1"]


def test_union_reconstructs_parent(running_query):
    all_ordinals = {p.ordinal for p in running_query.patterns}
    for sq in generate_subqueries(running_query):
        kept = {p.ordinal for c in sq.components for p in c}
        assert kept | {sq.removed} == all_ordinals
        assert sq.removed not in kept


def test_triangle_is_all_type_iv():
    q = QueryGraph(
        [
            TriplePattern(Var("x"), "p", Var("y"), ordinal=0),
            TriplePattern(Var("y"), "q", Var("z"), ordinal=1),
            TriplePattern(Var("z"), "r", Var("x"), ordinal=2),
        ],
        ["x"],
    )
    sqs = generate_subqueries(q)
    assert all(sq.sq_type is SubqueryType.IV for sq in sqs)
    for sq in sqs:
        assert sq.subject_comp == 0 and sq.object_comp == 0


def test_surviving_constant_endpoint_is_type_iv():
    # both patterns end at the same constant; removing either leaves the
    # constant visible in the kept pattern, so both endpoints survive
    q = QueryGraph(
        [
            TriplePattern(Var("x"), "hasDegree", "PhD", ordinal=0),
            TriplePattern(Var("x"), "reviewedFor", "PhD", ordinal=1),
        ],
        ["x"],
    )
    sqs = generate_subqueries(q)
    assert all(sq.sq_type is SubqueryType.IV for sq in sqs)


def test_middle_removal_of_path_is_type_iii():
    q = parse_query("SELECT ?x WHERE { ?a p ?x . ?x q ?y . ?y r ?b . }")
    sq = generate_subqueries(q)[1]
    assert sq.sq_type is SubqueryType.III
    assert [ordinals(c) for c in sq.components] == [[0], [2]]


def test_single_pattern_query_is_degenerate():
    q = QueryGraph([TriplePattern(Var("x"), "p", Var("y"), ordinal=0)], ["x"])
    with pytest.raises(DegenerateQueryError):
        generate_subqueries(q)


def test_disconnected_parent_rejected():
    q = QueryGraph(
        [
            TriplePattern(Var("x"), "p", Var("y"), ordinal=0),
            TriplePattern(Var("a"), "q", Var("b"), ordinal=1),
            TriplePattern(Var("c"), "r", Var("d"), ordinal=2),
        ],
        ["x"],
    )
    with pytest.raises(ValueError):
        generate_subqueries(q)


def expected_connection_point_bound(sq: Subquery, a1: int, a2: int = 0) -> int:
    """Per-type upper bound on annotations created from component result
    counts a1 = |A(SQ1)| and a2 = |A(SQ2)|."""
    if a1 < 0 or a2 < 0:
        raise ValueError("result counts must be non-negative")
    if sq.sq_type in (SubqueryType.I, SubqueryType.II):
        return a1
    if sq.sq_type is SubqueryType.III:
        return a1 + a2
    return 2 * a1


def test_connection_point_bounds(running_query):
    sqs = generate_subqueries(running_query)
    assert expected_connection_point_bound(sqs[0], 7) == 7  # II
    assert expected_connection_point_bound(sqs[1], 4) == 4  # I
    assert expected_connection_point_bound(sqs[2], 3, 5) == 8  # III
    triangle = QueryGraph(
        [
            TriplePattern(Var("x"), "p", Var("y"), ordinal=0),
            TriplePattern(Var("y"), "q", Var("z"), ordinal=1),
            TriplePattern(Var("z"), "r", Var("x"), ordinal=2),
        ],
        ["x"],
    )
    iv = generate_subqueries(triangle)[0]
    assert expected_connection_point_bound(iv, 6) == 12
    with pytest.raises(ValueError):
        expected_connection_point_bound(sqs[0], -1)
