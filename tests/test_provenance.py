"""Provenance polynomial algebra: semiring laws, canonical text form,
deletion pruning, and projections."""

from __future__ import annotations

import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgprov.provenance import Polynomial, ProvTable, mono_degree, mono_edges, mono_mul
from kgprov.store import bucket_add


def poly_add(*polys: Polynomial) -> Polynomial:
    return reduce(lambda a, b: a + b, polys, Polynomial.zero())


def poly_mul(*polys: Polynomial) -> Polynomial:
    return reduce(lambda a, b: a * b, polys, Polynomial.one())


monomials = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 3)), min_size=0, max_size=3
).map(lambda pairs: tuple(sorted(dict(pairs).items())))

polynomials = st.lists(
    st.tuples(monomials, st.integers(1, 4)), min_size=0, max_size=4
).map(lambda terms: sum(
    (Polynomial.monomial(m, c) for m, c in terms), Polynomial.zero()
))


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------


def test_mono_mul_merges_exponents():
    assert mono_mul(((1, 1), (2, 1)), ((2, 2), (5, 1))) == ((1, 1), (2, 3), (5, 1))
    assert mono_mul((), ((3, 1),)) == ((3, 1),)


def test_mono_degree_and_edges():
    m = ((2, 1), (7, 3))
    assert mono_degree(m, 7) == 3
    assert mono_degree(m, 4) == 0
    assert mono_edges(m) == frozenset({2, 7})


# ---------------------------------------------------------------------------
# Semiring laws
# ---------------------------------------------------------------------------


@given(polynomials, polynomials)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polynomials, polynomials)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polynomials, polynomials, polynomials)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polynomials, polynomials, polynomials)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polynomials, polynomials, polynomials)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polynomials)
def test_identities_and_annihilator(a):
    zero, one = Polynomial.zero(), Polynomial.one()
    assert a + zero == a
    assert a * one == a
    assert a * zero == zero


def test_variadic_helpers():
    a, b, c = Polynomial.edge(1), Polynomial.edge(2), Polynomial.edge(3)
    assert poly_add(a, b, c) == a + b + c
    assert poly_mul(a, b, c) == a * b * c
    assert poly_add() == Polynomial.zero()
    assert poly_mul() == Polynomial.one()


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


@given(polynomials)
def test_text_round_trip(a):
    assert Polynomial.parse(a.to_text()) == a


def test_text_specials():
    assert Polynomial.zero().to_text() == "0"
    assert Polynomial.one().to_text() == "1"
    e = Polynomial.edge(5)
    assert (e + e).to_text() == "2*e5"
    squared = Polynomial.monomial(((3, 2), (5, 1)))
    assert squared.to_text() == "e3^2*e5"
    assert Polynomial.parse("e2*e3^2 + 2*e5") == (
        Polynomial.monomial(((2, 1), (3, 2))) + Polynomial.monomial(((5, 1),), 2)
    )


def test_parse_rejects_garbage():
    for bad in ("", "e", "x2", "e2 +", "e2**e3", "e2^"):
        with pytest.raises(ValueError):
            Polynomial.parse(bad)


# ---------------------------------------------------------------------------
# Deletion semantics and projections
# ---------------------------------------------------------------------------


@given(polynomials, st.integers(1, 12))
def test_prune_survive_consistency(a, eid):
    pruned = a.prune(eid)
    assert eid not in pruned.edges()
    # pruning is exactly the eid -> 0 evaluation over the monomial basis
    expected = sum(
        (
            Polynomial.monomial(m, c)
            for m, c in a.terms
            if mono_degree(m, eid) == 0
        ),
        Polynomial.zero(),
    )
    assert pruned == expected


@given(polynomials)
def test_why_projection(a):
    assert a.why() == frozenset(mono_edges(m) for m, _ in a.terms)


@given(polynomials)
def test_idempotent_collapse(a):
    collapsed = a.idempotent()
    assert all(c == 1 for _, c in collapsed.terms)
    assert all(all(k == 1 for _, k in m) for m, _ in collapsed.terms)
    assert collapsed.why() == a.why()


# ---------------------------------------------------------------------------
# Golden values from the collaboration example
# ---------------------------------------------------------------------------

ANSWER = Polynomial.parse("e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17")


def test_collaboration_answer_polynomial():
    assert len(ANSWER.terms) == 2
    assert ANSWER.edges() == frozenset({2, 3, 5, 6, 8, 14, 17})


def test_collaboration_deletion_outcomes():
    assert ANSWER.prune(14) == Polynomial.parse("e2*e3*e6*e8*e17")
    assert ANSWER.prune(2) == Polynomial.zero()


# ---------------------------------------------------------------------------
# Fast paths against a dict-based reference model
# ---------------------------------------------------------------------------

# A reference polynomial is {monomial: coefficient}; a monomial is a
# {edge id: exponent} dict frozen as a sorted tuple of pairs.


def ref_canonical(ref: dict) -> tuple:
    return tuple(sorted((m, c) for m, c in ref.items() if c))


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return out


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            factors = dict(m1)
            for eid, exp in m2:
                factors[eid] = factors.get(eid, 0) + exp
            m = tuple(sorted(factors.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def ref_prune(a: dict, eid: int) -> dict:
    return {m: c for m, c in a.items() if eid not in dict(m)}


def ref_edges(a: dict) -> set:
    return {eid for m in a for eid, _ in m}


def assert_matches(poly: Polynomial, ref: dict):
    assert poly.terms == ref_canonical(ref)
    assert hash(poly) == hash(poly.terms)


# few edge ids, so that one-term operands often share one (e3*e3 = e3^2)
ref_monomials = st.dictionaries(
    st.integers(1, 4), st.integers(1, 3), min_size=1, max_size=3
).map(lambda f: tuple(sorted(f.items())))
ref_one_term = st.tuples(ref_monomials, st.integers(1, 5)).map(lambda mc: {mc[0]: mc[1]})
ref_polys = st.one_of(
    ref_one_term,
    st.dictionaries(ref_monomials, st.integers(1, 5), max_size=4),
)


def from_ref(ref: dict) -> Polynomial:
    return poly_add(*(Polynomial.monomial(m, c) for m, c in ref.items()))


@given(ref_polys, ref_polys, st.integers(1, 6))
@example({((3, 1),): 1}, {((3, 1),): 1}, 3)  # e3*e3 = e3^2, e3+e3 = 2*e3
@example({((1, 1), (3, 2)): 4}, {((2, 1),): 3}, 5)  # prune of an absent edge
@example({((1, 1),): 1, ((2, 1),): 1}, {((1, 1),): 1}, 1)  # e1 * (e1 + e2) reorders terms
def test_fast_paths_match_reference(a, b, eid):
    pa, pb = from_ref(a), from_ref(b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(pa.times_edge(eid), ref_mul(a, {((eid, 1),): 1}))
    assert_matches(pa.prune(eid), ref_prune(a, eid))
    assert pa.edges() == ref_edges(a)
    if eid not in ref_edges(a):
        assert pa.prune(eid) is pa
    assert_matches(Polynomial.edge(eid), {((eid, 1),): 1})
    assert_matches(Polynomial.edge(eid) * Polynomial.edge(eid), {((eid, 2),): 1})


def test_randomized_law_sweep():
    """Cheap seed-pinned complement to the hypothesis suites."""
    rng = random.Random(99)

    def rand_poly():
        out = Polynomial.zero()
        for _ in range(rng.randrange(0, 4)):
            mono = tuple(
                sorted(
                    {rng.randrange(1, 9): rng.randrange(1, 3) for _ in range(2)}.items()
                )
            )
            out = out + Polynomial.monomial(mono, rng.randrange(1, 4))
        return out

    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == c * a + c * b


# ---------------------------------------------------------------------------
# ProvTable: rows, the edge index and the key indexes kept together
# ---------------------------------------------------------------------------

GROUPS = ("a", "b", "c")
row_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
# row polynomials over six edges with no constant term, so that a prune
# often removes a row
row_polys = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)), max_size=2
).map(lambda terms: poly_add(*(
    Polynomial.monomial(mono_mul(((a, 1),), ((b, 1),)), c) for a, b, c in terms
)))
table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(GROUPS), st.dictionaries(row_keys, row_polys, max_size=4)),
        st.tuples(st.just("prune"), st.integers(1, 6)),
        st.tuples(st.just("drop"), st.sampled_from(GROUPS)),
        st.tuples(st.just("index"), st.sampled_from(GROUPS), st.sampled_from([(0,), (1,), (0, 1), (1, 0)])),
    ),
    max_size=25,
)


def rebuilt_index(rows, slots):
    idx = {}
    for row in rows:
        bucket_add(idx, tuple(row[s] for s in slots), row)
    return idx


@given(table_ops)
@settings(max_examples=200, derandomize=True, database=None)
def test_prov_table_keeps_its_indexes_current(ops):
    """After each add, prune, drop or index, the rows equal a plain
    model's, the audit is empty, and every key index equals one rebuilt
    from its group's rows."""
    table = ProvTable()
    model: dict = {}
    for op, *args in ops:
        if op == "add":
            name, delta = args
            table.add(name, delta)
            group = model.setdefault(name, {})
            for row, poly in delta.items():
                if poly:
                    group[row] = group.get(row, Polynomial.zero()) + poly
        elif op == "prune":
            (eid,) = args
            table.prune(eid)
            for group in model.values():
                for row, poly in list(group.items()):
                    group[row] = poly.prune(eid)
                    if not group[row]:
                        del group[row]
        elif op == "drop":
            table.drop(args[0])
            model.pop(args[0], None)
        else:
            name, slots = args
            assert table.index(name, slots) is table.indexes(name)[slots]
        assert table.groups == model
        assert table.audit() == []
        for name, indexes in table.key_indexes.items():
            for slots, idx in indexes.items():
                assert idx == rebuilt_index(table.groups.get(name, {}), slots)
