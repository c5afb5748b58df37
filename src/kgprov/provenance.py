"""Provenance polynomials over edge-identifier symbols.

A polynomial is a sum of monomials with positive integer coefficients;
each monomial is a product of edge symbols with positive integer
exponents.  Addition models alternative derivations of an answer,
multiplication models joint use of edges within one derivation.
"""

from __future__ import annotations

import re
from collections.abc import Hashable
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .store import bucket_add, bucket_discard, bucket_entries, bucket_faults

# A monomial is a tuple of (edge_id, exponent) pairs sorted by edge_id.
Monomial = tuple[tuple[int, int], ...]
Row = tuple[int, ...]
# a ProvTable index entry: (group name, row)
Entry = tuple[Hashable, Row]

MONO_ONE: Monomial = ()

_FACTOR_RE = re.compile(r"^e(\d+)(?:\^(\d+))?$")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials (exponents add)."""
    if not a:
        return b
    if not b:
        return a
    # disjoint, ordered edge ranges (one-factor operands included)
    # concatenate without re-sorting
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    if len(a) == 1 and len(b) == 1:
        return ((a[0][0], a[0][1] + b[0][1]),)
    factors: dict[int, int] = dict(a)
    for eid, exp in b:
        factors[eid] = factors.get(eid, 0) + exp
    return tuple(sorted(factors.items()))


def mono_degree(m: Monomial, edge_id: int) -> int:
    for eid, exp in m:
        if eid == edge_id:
            return exp
    return 0


def mono_edges(m: Monomial) -> frozenset[int]:
    return frozenset(eid for eid, _ in m)


class Polynomial:
    """Immutable, canonical provenance polynomial.

    Internally a sorted tuple of (monomial, coefficient) pairs; the empty
    tuple is the additive identity 0 and the single empty monomial is the
    multiplicative identity 1.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Monomial, int] | None = None):
        if terms:
            self.terms: tuple[tuple[Monomial, int], ...] = tuple(
                sorted((m, c) for m, c in terms.items() if c != 0)
            )
        else:
            self.terms = ()
        self._hash = hash(self.terms)

    @classmethod
    def _of(cls, terms: tuple[tuple[Monomial, int], ...]) -> Polynomial:
        """Trusted constructor for terms already in canonical form:
        sorted, each monomial sorted by edge id with positive exponents,
        every coefficient nonzero."""
        poly = object.__new__(cls)
        poly.terms = terms
        poly._hash = hash(terms)
        return poly

    # --- constructors ---

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def edge(cls, edge_id: int) -> Polynomial:
        return cls._of(((((edge_id, 1),), 1),))

    @classmethod
    def monomial(cls, m: Monomial, coeff: int = 1) -> Polynomial:
        return cls({m: coeff})

    # --- semiring operations ---

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) == 1 and len(b) == 1:
            (ma, ca), (mb, cb) = a[0], b[0]
            if ma == mb:
                return Polynomial._of(((ma, ca + cb),))
            return Polynomial._of(a + b if ma < mb else b + a)
        acc = dict(a)
        for m, c in b:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc)

    def __mul__(self, other: Polynomial) -> Polynomial:
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        if len(a) == 1 and len(b) == 1:
            (ma, ca), (mb, cb) = a[0], b[0]
            return Polynomial._of(((mono_mul(ma, mb), ca * cb),))
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(acc)

    def times_edge(self, edge_id: int) -> Polynomial:
        """self * Polynomial.edge(edge_id), without building the latter."""
        factor = ((edge_id, 1),)
        terms = self.terms
        if len(terms) == 1:
            m, c = terms[0]
            return Polynomial._of(((mono_mul(m, factor), c),))
        return Polynomial({mono_mul(m, factor): c for m, c in terms})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # --- deletion support ---

    def prune(self, deleted: int) -> Polynomial:
        """Drop every monomial that contains the deleted edge."""
        terms = self.terms
        if len(terms) == 1:
            return _ZERO if mono_degree(terms[0][0], deleted) else self
        kept = tuple(t for t in terms if not mono_degree(t[0], deleted))
        if len(kept) == len(terms):
            return self
        return Polynomial._of(kept) if kept else _ZERO

    # --- projections ---

    def edges(self) -> frozenset[int]:
        """All edge symbols occurring in the polynomial."""
        return frozenset(eid for m, _ in self.terms for eid, _ in m)

    def why(self) -> frozenset[frozenset[int]]:
        """Why-provenance: the set of witness edge-sets."""
        return frozenset(mono_edges(m) for m, _ in self.terms)

    def idempotent(self) -> Polynomial:
        """Collapse to B[X]: coefficients and exponents forced to 1."""
        acc: dict[Monomial, int] = {}
        for m, _ in self.terms:
            acc[tuple((eid, 1) for eid, _ in m)] = 1
        return Polynomial(acc)

    # --- text form ---

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = [
                f"e{eid}" if exp == 1 else f"e{eid}^{exp}" for eid, exp in m
            ]
            if c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> Polynomial:
        text = text.strip()
        if text == "0":
            return _ZERO
        acc: dict[Monomial, int] = {}
        for part in text.split("+"):
            coeff = 1
            factors: dict[int, int] = {}
            tokens = [t.strip() for t in part.strip().split("*")]
            for tok in tokens:
                if tok.isdigit():
                    coeff *= int(tok)
                    continue
                m = _FACTOR_RE.match(tok)
                if not m:
                    raise ValueError(f"bad polynomial factor: {tok!r}")
                eid = int(m.group(1))
                exp = int(m.group(2) or 1)
                factors[eid] = factors.get(eid, 0) + exp
            mono = tuple(sorted(factors.items()))
            acc[mono] = acc.get(mono, 0) + coeff
        return cls(acc)


_ZERO = Polynomial()
_ONE = Polynomial({MONO_ONE: 1})


# --------------------------------------------------------------------------
# Summing products into rows
# --------------------------------------------------------------------------


def add_to(out: dict, key: Hashable, poly: Polynomial) -> None:
    """Add `poly` onto `out[key]`: a key's first polynomial is kept as it
    is, and its second opens a monomial -> coefficient dict that later
    ones add into.  `summed` must follow before the entries are read."""
    acc = out.get(key)
    if acc is None:
        out[key] = poly
        return
    if acc.__class__ is Polynomial:
        acc = out[key] = dict(acc.terms)
    for m, c in poly.terms:
        acc[m] = acc.get(m, 0) + c


def summed(out: dict) -> dict:
    """Make each term dict that `add_to` opened in `out` a canonical
    polynomial, with one sort, in place; returns `out`."""
    for key, acc in out.items():
        if acc.__class__ is dict:
            out[key] = Polynomial._of(tuple(sorted(acc.items())))
    return out


# --------------------------------------------------------------------------
# Provenance-indexed tables
# --------------------------------------------------------------------------


def tuple_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """row -> tuple(row[i] for i in positions), also for one position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return itemgetter(*positions)


@dataclass
class ResultDelta:
    """One group's change from pruning a deleted edge."""

    # row -> surviving (pruned) polynomial
    pruned: dict[Row, Polynomial] = field(default_factory=dict)
    # row -> former polynomial, row dropped entirely
    removed: dict[Row, Polynomial] = field(default_factory=dict)


class ProvTable:
    """Rows annotated with polynomials, kept in named groups, and the
    indexes kept current with them: from each edge id to the (group, row)
    pairs whose polynomial mentions it, and a group's key indexes, from
    a row's values at a slot subset to the rows holding them, which
    joins probe.  A bucket holds one entry bare and two or more in a set
    (the store's bucket invariant).  Every row is nonzero."""

    def __init__(self):
        self.groups: dict[Hashable, dict[Row, Polynomial]] = {}
        self.by_edge: dict[int, Entry | set[Entry]] = {}
        # group name -> slot subset -> key -> bucket of rows
        self.key_indexes: dict[Hashable, dict[Row, dict]] = {}

    def group(self, name: Hashable) -> dict[Row, Polynomial]:
        """The live row dict of a group, created empty on first use."""
        return self.groups.setdefault(name, {})

    def indexes(self, name: Hashable) -> dict[Row, dict]:
        """The live key indexes of a group, slot subset -> index, created
        empty on first use."""
        return self.key_indexes.setdefault(name, {})

    def index(self, name: Hashable, slots: Row) -> dict:
        """The group's key index on `slots`, built from its rows on first
        request: a row's values at `slots` -> the bucket of rows."""
        indexes = self.indexes(name)
        idx = indexes.get(slots)
        if idx is None:
            idx = indexes[slots] = {}
            key = tuple_getter(slots)
            for row in self.groups.get(name, ()):
                bucket_add(idx, key(row), row)
        return idx

    def drop(self, name: Hashable) -> None:
        """Remove a group, if any, with its key indexes; unindex its rows."""
        self.key_indexes.pop(name, None)
        for row, poly in self.groups.pop(name, {}).items():
            for eid in poly.edges():
                bucket_discard(self.by_edge, eid, (name, row))

    def add(self, name: Hashable, delta: dict[Row, Polynomial]) -> None:
        """Add each polynomial onto its row of the group, creating rows."""
        rows = self.group(name)
        by_edge = self.by_edge
        indexes = self.key_indexes.get(name)
        for row, poly in delta.items():
            if not poly:
                continue
            old = rows.get(row)
            if old is None:
                rows[row] = poly
                if indexes:
                    for slots, idx in indexes.items():
                        bucket_add(idx, tuple_getter(slots)(row), row)
            else:
                rows[row] = old + poly
            entry = (name, row)
            for mono, _ in poly.terms:
                for eid, _ in mono:
                    bucket_add(by_edge, eid, entry)

    def cut(self, edge_id: int) -> dict[Hashable, ResultDelta]:
        """What pruning the edge does to each row indexed under it: the
        surviving polynomial, or the row's removal.  Changes nothing."""
        report: dict[Hashable, ResultDelta] = {}
        bucket = self.by_edge.get(edge_id)
        if bucket is None:
            return report
        groups = self.groups
        for name, row in bucket_entries(bucket):
            old = groups[name][row]
            delta = report.get(name)
            if delta is None:
                delta = report[name] = ResultDelta()
            # a one-term row is indexed here only if its monomial uses
            # the edge, so it goes without a prune
            new = old.prune(edge_id) if len(old.terms) > 1 else _ZERO
            if new:
                delta.pruned[row] = new
            else:
                delta.removed[row] = old
        return report

    def commit(self, edge_id: int, report: dict[Hashable, ResultDelta]) -> None:
        """Apply a `cut` of the edge: store each surviving polynomial,
        delete each removed row, and unindex what is gone."""
        by_edge = self.by_edge
        by_edge.pop(edge_id, None)
        for name, delta in report.items():
            rows = self.groups[name]
            for row, new in delta.pruned.items():
                gone = rows[row].edges() - new.edges()
                rows[row] = new
                for eid in gone:  # edge_id itself is unindexed already
                    bucket_discard(by_edge, eid, (name, row))
            indexes = self.key_indexes.get(name)
            for row, old in delta.removed.items():
                del rows[row]
                for mono, _ in old.terms:
                    for eid, _ in mono:
                        bucket_discard(by_edge, eid, (name, row))
                if indexes:
                    for slots, idx in indexes.items():
                        bucket_discard(idx, tuple_getter(slots)(row), row)

    def prune(self, edge_id: int) -> dict[Hashable, ResultDelta]:
        """Drop the monomials that use the edge from every row indexed
        under it, delete rows left at zero, and unindex what is gone:
        the whole `cut` is computed before the table changes."""
        report = self.cut(edge_id)
        if report:
            self.commit(edge_id, report)
        return report

    def audit(self) -> list[str]:
        """Stored polynomials not in canonical form, index buckets that
        break the bucket invariant, and edge ids and key indexes whose
        entries differ from those rebuilt from the rows."""
        problems = []
        want: dict[int, set] = {}
        for name, rows in self.groups.items():
            for row, poly in rows.items():
                fault = _canonical_fault(poly)
                if fault:
                    problems.append(f"non-canonical polynomial at {name!r} {row}: {fault}")
                for eid in poly.edges():
                    want.setdefault(eid, set()).add((name, row))
        small, mismatched = bucket_faults(self.by_edge, want)
        problems += [f"set bucket of {n} at e{e}" for e, n in small]
        problems += [f"index mismatch at e{e}" for e in mismatched]
        for name, indexes in self.key_indexes.items():
            for slots, idx in indexes.items():
                key, keyed = tuple_getter(slots), {}
                for row in self.groups.get(name, ()):
                    keyed.setdefault(key(row), set()).add(row)
                small, mismatched = bucket_faults(idx, keyed)
                at = f"at {name!r} slots {slots}"
                problems += [f"probe set bucket of {n} {at} key {k}" for k, n in small]
                if mismatched:
                    problems.append(f"probe index mismatch {at}")
        return problems


def _canonical_fault(poly: Polynomial) -> str | None:
    """Why a stored (nonzero) polynomial breaks canonical form, or None."""
    terms = poly.terms
    if not terms:
        return "zero"
    if poly._hash != hash(terms):
        return "stale hash"
    if any(a[0] >= b[0] for a, b in zip(terms, terms[1:])):
        return "terms not sorted"
    for mono, coeff in terms:
        if coeff < 1:
            return f"coefficient {coeff}"
        if any(exp < 1 for _, exp in mono):
            return "exponent below 1"
        if any(a[0] >= b[0] for a, b in zip(mono, mono[1:])):
            return "monomial not sorted by edge id"
    return None
