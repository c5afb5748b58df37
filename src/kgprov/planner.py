"""Join planning for the root of each standing query's answer join.

Registration plans one component, the patterns of root(k) (the query
less its pattern k), with one greedy left-deep join order scored with
characteristic-pair statistics: it starts from the cheapest pair of
patterns and adds the cheapest connected pattern at each step.  The
order's prefixes, each the prefix before it joined with the leaf of its
last pattern, are merged into a single global DAG shared by canonical
form, so an expression common to several queries is materialized once.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .provenance import Polynomial, ProvTable, add_to, summed, tuple_getter
from .query import CanonicalForm, CanonicalKey, TriplePattern, Var, canonicalize
from .store import Edge, KnowledgeGraph, bucket_entries

# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


class StatsCatalog:
    """Characteristic-set statistics of a graph, read from the store's
    own indexes when planning first asks for them.

    S_c(v) is the set of predicate labels on v's outgoing edges; counts of
    (subject, object) pairs grouped by (S_c(s), S_c(o), predicate) drive
    the cardinality estimates.  A predicate's edge count is its bucket's
    size; its subjects and distinct (s, o) pairs come from one scan of
    that bucket, kept for later reads; S_c(v) comes from v's subject
    bucket.  So planning reads only the predicates it plans.  A catalog
    describes the graph as it was when built: any read after the graph
    changes raises RuntimeError, so estimates never mix two versions.
    """

    def __init__(self, g: KnowledgeGraph):
        self.graph = g
        self.version = g.mutations
        # predicate -> (its distinct (s, o) pairs, its subjects)
        self._scans: dict[str, tuple[set[tuple[int, int]], set[int]]] = {}
        # star predicates -> the subjects whose S_c covers them
        self._covers: dict[frozenset[str], set[int]] = {}
        self._pair_cache: dict[tuple, int] = {}

    def _check(self) -> None:
        if self.graph.mutations != self.version:
            raise RuntimeError(
                f"statistics of graph version {self.version} read at "
                f"version {self.graph.mutations}"
            )

    def _ids(self, pred: str):
        p = self.graph.predicates.get(pred)
        return () if p is None else self.graph.lookup_ids(p=p)

    def _scan(self, pred: str) -> tuple[set[tuple[int, int]], set[int]]:
        got = self._scans.get(pred)
        if got is None:
            edges = self.graph.edges
            pairs = {(e.subject, e.object) for e in map(edges.__getitem__, self._ids(pred))}
            got = self._scans[pred] = (pairs, {s for s, _ in pairs})
        return got

    def predicates(self) -> list[str]:
        """Names of the predicates with at least one edge, sorted."""
        self._check()
        return sorted(name for name in self.graph.predicates.names() if self._ids(name))

    def pred_count(self, pred: str | None) -> int:
        """Edges labelled `pred`, or every edge when it is None."""
        self._check()
        return self.graph.num_edges if pred is None else len(self._ids(pred))

    def pairs(self, pred: str) -> set[tuple[int, int]]:
        """Distinct (s, o) pairs joined by `pred`."""
        self._check()
        return self._scan(pred)[0]

    def subjects(self, pred: str) -> set[int]:
        """Subjects of `pred`'s edges."""
        self._check()
        return self._scan(pred)[1]

    def char_set(self, node: int) -> frozenset[str]:
        """S_c(node)."""
        self._check()
        g = self.graph
        return frozenset(map(g.predicate_name, g.endpoint_index(True).get(node, ())))

    def _cover(self, preds: frozenset[str]) -> set[int]:
        """Subjects whose characteristic set contains the non-empty `preds`."""
        cover = self._covers.get(preds)
        if cover is None:
            sets = sorted((self._scan(p)[1] for p in preds), key=len)
            cover = sets[0]
            for s in sets[1:]:
                if not cover:
                    break
                cover = cover & s
            self._covers[preds] = cover
        return cover

    def star_count(self, preds: frozenset[str]) -> int:
        """Number of subjects whose characteristic set contains `preds`."""
        self._check()
        return len(self._cover(preds)) if preds else 0

    def pair_count(
        self, s_preds: frozenset[str], o_preds: frozenset[str], pred: str
    ) -> int:
        """Distinct (s, o) pairs joined by `pred` with S_c(s) ⊇ s_preds
        and S_c(o) ⊇ o_preds."""
        self._check()
        key = (s_preds, o_preds, pred)
        cached = self._pair_cache.get(key)
        if cached is None:
            pairs = self._scan(pred)[0]
            subj = self._cover(s_preds) if s_preds else None
            obj = self._cover(o_preds) if o_preds else None
            cached = self._pair_cache[key] = sum(
                1 for s, o in pairs
                if (subj is None or s in subj) and (obj is None or o in obj)
            )
        return cached


def compute_statistics(g: KnowledgeGraph) -> StatsCatalog:
    return StatsCatalog(g)


def _term_key(t) -> tuple:
    return ("v", t.name) if isinstance(t, Var) else ("c", t)


def _star_fragments(patterns: Sequence[TriplePattern]) -> list[list[TriplePattern]]:
    """Maximal subject-star fragments in ordinal traversal order."""
    frags: list[list[TriplePattern]] = []
    index: dict[tuple, int] = {}
    for p in sorted(patterns, key=lambda p: p.ordinal):
        k = _term_key(p.subject)
        if k in index:
            frags[index[k]].append(p)
        else:
            index[k] = len(frags)
            frags.append([p])
    return frags


def _frag_preds(frag: list[TriplePattern]) -> frozenset[str]:
    return frozenset(p.predicate for p in frag if isinstance(p.predicate, str))


def estimate_cardinality(
    patterns: Sequence[TriplePattern], stats: StatsCatalog
) -> float:
    """Estimate the result size of a connected pattern set.

    A single pattern uses the exact predicate edge count; one subject
    star counts superset-matching subjects; longer shapes decompose into
    a chain of star fragments and sum adjacent characteristic-pair
    counts.  Each cycle-closing pattern applies a flat 0.5 selectivity.
    """
    if not patterns:
        return 0.0
    if len(patterns) == 1:
        p = patterns[0].predicate
        return float(stats.pred_count(p if isinstance(p, str) else None))
    frags = _star_fragments(patterns)
    if len(frags) == 1:
        est = float(stats.star_count(_frag_preds(frags[0])))
    else:
        est = 0.0
        for cur, nxt in zip(frags, frags[1:]):
            head = _term_key(nxt[0].subject)
            link = next(
                (p for p in cur if _term_key(p.object) == head), None
            )
            if link is not None and isinstance(link.predicate, str):
                est += stats.pair_count(
                    _frag_preds(cur), _frag_preds(nxt), link.predicate
                )
            else:
                est += min(
                    stats.star_count(_frag_preds(cur)),
                    stats.star_count(_frag_preds(nxt)),
                )
    terms = {_term_key(t) for p in patterns for t in (p.subject, p.object)}
    closing = len(patterns) - (len(terms) - 1)
    if closing > 0:
        est *= 0.5**closing
    return est


# --------------------------------------------------------------------------
# Join order selection
# --------------------------------------------------------------------------


def _by_ordinal(patterns: Iterable[TriplePattern]) -> list[TriplePattern]:
    return sorted(patterns, key=lambda p: p.ordinal)


def select_best_plan(
    patterns: Sequence[TriplePattern], stats: StatsCatalog
) -> list[TriplePattern]:
    """Greedy left-deep join order of a connected component.

    The first two patterns are the cheapest pair that shares a variable,
    lower ordinal first; each later one is the cheapest pattern that
    shares a variable with the prefix before it.  A candidate ranks by
    (estimate of the grown prefix, its canonical key, the canonical key
    of the added pattern); an exact tie goes to the lowest ordinals.
    The keys are computed only for candidates tied at the least
    estimate.  Takes O(n^2) estimates and is deterministic given
    (patterns, stats).
    """
    pats = _by_ordinal(patterns)
    if len(pats) < 2:
        return pats

    def cheapest(cands: list[tuple[list[TriplePattern], TriplePattern]]):
        grown = [_by_ordinal(prefix + [added]) for prefix, added in cands]
        ests = [estimate_cardinality(g, stats) for g in grown]
        low = min(ests)
        tied = [i for i, est in enumerate(ests) if est == low]
        # min keeps the first of equal keys, so candidates go in ordinal order
        best = tied[0] if len(tied) == 1 else min(tied, key=lambda i: (
            canonicalize(grown[i]).key, canonicalize([cands[i][1]]).key
        ))
        return cands[best]

    prefix, added = cheapest([
        ([a], b) for a, b in combinations(pats, 2) if a.variables() & b.variables()
    ])
    order = prefix + [added]
    joined = order[0].variables() | added.variables()
    rest = [p for p in pats if p not in order]
    while rest:
        _, nxt = cheapest([(order, p) for p in rest if p.variables() & joined])
        order.append(nxt)
        rest.remove(nxt)
        joined |= nxt.variables()
    return order


# --------------------------------------------------------------------------
# Global plan DAG
# --------------------------------------------------------------------------


def patterns_from_key(key: CanonicalKey) -> list[TriplePattern]:
    """Rebuild representative patterns (variables named v0, v1, ...)"""
    out = []
    for i, row in enumerate(key):
        terms = [
            Var(f"v{k}") if tag == "v" else k for tag, k in row
        ]
        out.append(TriplePattern(terms[0], terms[1], terms[2], ordinal=i))
    return out


@dataclass(frozen=True)
class JoinProbe:
    """One direction of a join node's delta rule, laid out when the node
    is created: rows of one child (the delta side) probe the other child
    on their shared slots, and each match's parent row is read out of
    `delta_row + other_row`."""

    o_slots: tuple[int, ...]  # the other child's shared slots (its index key)
    d_key: Callable[[tuple], tuple]
    parent_row: Callable[[tuple], tuple]


def join_probe(dmap: dict[int, int], omap: dict[int, int], num_vars: int) -> JoinProbe:
    """Probe layout for delta rows of the child with slot map `dmap`
    against the child with `omap` (child slot -> parent slot)."""
    d_of = {ps: s for s, ps in dmap.items()}
    o_of = {ps: s for s, ps in omap.items()}
    shared = sorted(d_of.keys() & o_of.keys())
    d_slots = tuple(d_of[ps] for ps in shared)
    o_slots = tuple(o_of[ps] for ps in shared)
    width = len(dmap)
    gather = tuple(
        d_of[ps] if ps in d_of else width + o_of[ps] for ps in range(num_vars)
    )
    return JoinProbe(o_slots, tuple_getter(d_slots), tuple_getter(gather))


def pattern_ids(g: KnowledgeGraph, p: TriplePattern) -> tuple[int | None, int | None, int | None] | None:
    """The store ids of a pattern's subject, predicate and object, None
    at a variable; None instead when a constant is not in the store, as
    then the pattern matches no edge."""
    ids = []
    for term, names in zip(p.terms(), (g.nodes, g.predicates, g.nodes)):
        i = None if isinstance(term, Var) else names.get(term)
        if i is None and not isinstance(term, Var):
            return None
        ids.append(i)
    return tuple(ids)


class LeafView(Mapping):
    """The table of a plan leaf `?v0 p ?v1`, `?v0 p ?v0`, `?v0 p c` or
    `c p ?v0`, read from the store on every access instead of copied: an
    edge that matches the pattern binds its variables to the edge's
    endpoints, and each row maps to the sum of the symbols of the edges
    that bind it, so duplicate triples add up in one row.  The constants
    are resolved by name on each read until all are in the store,
    because they may enter it only after the leaf is planned.
    Read-only."""

    __slots__ = ("graph", "pattern", "pairs", "loop", "row_of", "_ids")

    def __init__(self, graph: KnowledgeGraph, pattern: TriplePattern):
        self.graph = graph
        self.pattern = pattern
        s, o = pattern.subject, pattern.object
        # `?v0 p ?v1`: the rows are the (subject, object) pairs of p's edges
        self.pairs = isinstance(s, Var) and isinstance(o, Var) and s != o
        self.loop = isinstance(s, Var) and s == o
        # an Edge is (id, subject, predicate, object)
        self.row_of = tuple_getter((1, 3) if self.pairs else (1,) if isinstance(s, Var) else (3,))
        self._ids = None

    def ids(self) -> tuple[int | None, int | None, int | None] | None:
        """`pattern_ids` of the leaf's pattern, kept once found: the store
        never drops a name it has interned."""
        if self._ids is None:
            self._ids = pattern_ids(self.graph, self.pattern)
        return self._ids

    def edge_ids(self, slots: Sequence[int] = (), key: tuple[int, ...] = ()) -> Collection[int]:
        """Ids of the edges whose rows hold `key` at the leaf's `slots`; a
        bucket may come live, as `KnowledgeGraph.lookup_ids` gives it."""
        ids = self.ids()
        if ids is None:
            return ()
        s, p, o = ids
        if s is None and 0 in slots:
            s = key[slots.index(0)]
        o_slot = 1 if self.pairs else 0
        if o is None and o_slot in slots:
            o = key[slots.index(o_slot)]
        found = self.graph.lookup_ids(s, p, o)
        if self.loop and s is None:  # only the self-loops of p bind `?v0 p ?v0`
            edges = self.graph.edges
            found = [i for i in found if edges[i].subject == edges[i].object]
        return found

    def count(self) -> int:
        """The edges of the leaf's predicate and constants, read without
        a scan; no fewer than the rows."""
        ids = self.ids()
        return 0 if ids is None else len(self.graph.lookup_ids(*ids))

    def delta(self, e: Edge) -> dict[tuple[int, ...], Polynomial]:
        """The row that inserting the edge `e` adds, with e's symbol, or
        nothing when e does not match the pattern."""
        ids = self.ids()
        if ids is None:
            return {}
        s, p, o = ids
        if (
            e.predicate != p
            or s is not None and e.subject != s
            or o is not None and e.object != o
            or self.loop and e.subject != e.object
        ):
            return {}
        return {self.row_of(e): Polynomial.edge(e.id)}

    def symbols(self) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
        """(row, edge symbol) of every matching edge, from one read of
        the store; a row bound by duplicate triples comes once per edge."""
        edges, row_of = self.graph.edges, self.row_of
        return ((row_of(edges[eid]), Polynomial.edge(eid)) for eid in self.edge_ids())

    def rows(self) -> dict[tuple[int, ...], Polynomial]:
        """Every row, from one read of the store."""
        out: dict[tuple[int, ...], Polynomial] = {}
        for key, poly in self.symbols():
            add_to(out, key, poly)
        return summed(out)

    def __getitem__(self, row: tuple[int, ...]) -> Polynomial:
        poly = Polynomial({((eid, 1),): 1 for eid in self.edge_ids(range(len(row)), row)})
        if not poly:
            raise KeyError(row)
        return poly

    def __iter__(self):
        return iter(self.rows())

    def __len__(self) -> int:
        return len(self.rows())

    def items(self):
        return self.rows().items()

    def values(self):
        return self.rows().values()


@dataclass(eq=False, repr=False)
class PlanNode:
    """A shared plan expression; compared and hashed by identity, so the
    node itself names its group of the plan's ProvTable."""

    key: CanonicalKey
    patterns: list[TriplePattern]
    predicates: frozenset[str]
    estimate: float
    # (left child's key, right child's key)
    children: tuple[CanonicalKey, CanonicalKey] | None
    # bindings over the var slots -> provenance; a join node's group of
    # the plan's ProvTable, keyed by the node, or a leaf's LeafView,
    # which holds no rows, edge entries or probe indexes
    table: Mapping[tuple[int, ...], Polynomial] = field(default_factory=dict)
    # join nodes: (left child's rows probing the right, right's probing
    # the left)
    probes: tuple[JoinProbe, JoinProbe] | None = None
    # a join node's key indexes in the plan's ProvTable, slot subset ->
    # key -> bucket of rows, which registration builds for the probes
    indexes: dict[tuple[int, ...], dict] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __repr__(self) -> str:
        return f"PlanNode({self.label()!r})"

    def label(self) -> str:
        def t(term):
            return f"?{term.name}" if isinstance(term, Var) else term

        return " . ".join(
            f"{t(p.subject)} {t(p.predicate)} {t(p.object)}"
            for p in self.patterns
        )


class GlobalPlan:
    """Shared DAG of expression nodes keyed by canonical form; one
    derivation per node, possibly many roots and parents."""

    def __init__(self):
        self.nodes: dict[CanonicalKey, PlanNode] = {}
        # every node table, grouped by node
        self.rows = ProvTable()

    def truncate(self, size: int) -> None:
        """Drop every node created after the first `size`, with its rows
        and edge entries."""
        for node in list(self.nodes.values())[size:]:
            del self.nodes[node.key]
            self.rows.drop(node)

    def index_probes(self, size: int) -> None:
        """Build the key index through which each node created after the
        first `size` probes its left child, if that is a join node."""
        for node in islice(self.nodes.values(), size, None):
            left = node.children and self.nodes[node.children[0]]
            if left and not left.is_leaf:
                self.rows.index(left, node.probes[1].o_slots)

    def audit(self) -> list[str]:
        """The row table's audit, which covers the probe indexes, plus
        every group of a node not in the plan, every leaf that holds a
        group, an edge entry or a probe index, every join node whose
        child is missing from `nodes` or comes after it there (creation
        order is topological), and every join node whose right child is
        not a leaf."""
        problems = self.rows.audit()
        position = {key: i for i, key in enumerate(self.nodes)}
        problems += [
            f"join {node!r} precedes or lacks its child {key}"
            for i, node in enumerate(self.nodes.values())
            for key in node.children or () if position.get(key, i) >= i
        ]
        for node in self.rows.groups:
            if node.is_leaf:
                problems.append(f"leaf {node!r} holds a table group")
            if self.nodes.get(node.key) is not node:
                problems.append(f"table group of {node!r}, which is not in the plan")
        problems += sorted({
            f"leaf {node!r} holds edge entries"
            for bucket in self.rows.by_edge.values()
            for node, _ in bucket_entries(bucket) if node.is_leaf
        })
        problems += [
            f"leaf {node!r} holds a probe index"
            for node, indexes in self.rows.key_indexes.items() if indexes and node.is_leaf
        ]
        for node in self.nodes.values():
            right = node.children and self.nodes.get(node.children[1])
            if right and not right.is_leaf:  # joins probe their right side in the store
                problems.append(f"join {node!r} has a right child {right!r} that is not a leaf")
        return problems

    def topo_order(self) -> list[PlanNode]:
        """Children strictly before parents."""
        out: list[PlanNode] = []
        done: set[CanonicalKey] = set()

        def visit(key: CanonicalKey):
            if key in done:
                return
            node = self.nodes[key]
            if node.children is not None:
                for ck in node.children:
                    visit(ck)
            done.add(key)
            out.append(node)

        for key in self.nodes:
            visit(key)
        return out


def merge_into_global(
    plan: GlobalPlan, order: Sequence[TriplePattern], stats: StatsCatalog
) -> tuple[PlanNode, dict[str, int]]:
    """Install the left-deep chain of `order`'s prefixes, each joining
    the prefix before it with the leaf of its last pattern.  The longest
    prefix whose canonical form is already present is reused with its
    existing derivation; above it, each missing leaf is created before
    the prefix that joins it, so creation order puts children first.
    Returns the root node and the component's variable -> slot map."""

    def create(cf: CanonicalForm, pats: list[TriplePattern], sides) -> None:
        children = probes = None
        if sides is not None:
            left, right = sides
            lmap = {slot: cf.varmap[name] for name, slot in left.varmap.items()}
            rmap = {slot: cf.varmap[name] for name, slot in right.varmap.items()}
            children = (left.key, right.key)
            probes = (join_probe(lmap, rmap, len(cf.varmap)), join_probe(rmap, lmap, len(cf.varmap)))
        node = PlanNode(
            key=cf.key,
            patterns=patterns_from_key(cf.key),
            predicates=frozenset(
                p.predicate for p in pats if isinstance(p.predicate, str)
            ),
            estimate=estimate_cardinality(pats, stats),
            children=children,
            probes=probes,
        )
        if sides is not None:  # a leaf gets its view when materialized
            node.table = plan.rows.group(node)
            node.indexes = plan.rows.indexes(node)
        plan.nodes[cf.key] = node

    n = len(order)
    forms: dict[int, CanonicalForm] = {}  # prefix length -> its form
    present = 0
    for size in range(n, 0, -1):
        forms[size] = canonicalize(_by_ordinal(order[:size]))
        if forms[size].key in plan.nodes:
            present = size
            break
    for size in range(present + 1, n + 1):
        sides = None
        if size > 1:
            added = [order[size - 1]]
            leaf = canonicalize(added)
            if leaf.key not in plan.nodes:
                create(leaf, added, None)
            sides = (forms[size - 1], leaf)
        create(forms[size], _by_ordinal(order[:size]), sides)
    return plan.nodes[forms[n].key], forms[n].varmap

