"""Join planning for standing-query subqueries.

Each subquery component gets one greedy left-deep join order, scored
with characteristic-pair statistics: it starts from the cheapest pair
of patterns and adds the cheapest connected pattern at each step.  The
order's prefixes are merged into a single global DAG shared by
canonical form, so an expression common to several subqueries is
materialized once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .provenance import Polynomial, ProvTable
from .query import CanonicalForm, CanonicalKey, TriplePattern, Var, canonicalize
from .store import KnowledgeGraph, bucket_add, bucket_faults

# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


class StatsCatalog:
    """Characteristic-set statistics snapshot of a graph.

    S_c(v) is the set of predicate labels on v's outgoing edges; counts of
    (subject, object) pairs grouped by (S_c(s), S_c(o), predicate) drive
    the cardinality estimates.  Built once; never refreshed per update.
    """

    def __init__(self, g: KnowledgeGraph):
        self.pred_counts: dict[str, int] = {}
        self.pred_subjects: dict[str, set[int]] = {}
        self.pred_pairs: dict[str, set[tuple[int, int]]] = {}
        char: dict[int, set[str]] = {}
        for e in g.edges.values():
            pname = g.predicate_name(e.predicate)
            self.pred_counts[pname] = self.pred_counts.get(pname, 0) + 1
            self.pred_subjects.setdefault(pname, set()).add(e.subject)
            self.pred_pairs.setdefault(pname, set()).add((e.subject, e.object))
            char.setdefault(e.subject, set()).add(pname)
        self.char_sets: dict[int, frozenset[str]] = {
            v: frozenset(s) for v, s in char.items()
        }
        self._star_cache: dict[frozenset[str], int] = {}
        self._pair_cache: dict[tuple, int] = {}

    def char_set(self, node: int) -> frozenset[str]:
        return self.char_sets.get(node, frozenset())

    def star_count(self, preds: frozenset[str]) -> int:
        """Number of subjects whose characteristic set contains `preds`."""
        if not preds:
            return 0
        cached = self._star_cache.get(preds)
        if cached is not None:
            return cached
        sets = [self.pred_subjects.get(p) for p in preds]
        if any(s is None for s in sets):
            count = 0
        else:
            sets.sort(key=len)
            acc = sets[0]
            for s in sets[1:]:
                acc = acc & s
                if not acc:
                    break
            count = len(acc)
        self._star_cache[preds] = count
        return count

    def pair_count(
        self, s_preds: frozenset[str], o_preds: frozenset[str], pred: str
    ) -> int:
        """Distinct (s, o) pairs joined by `pred` with S_c(s) ⊇ s_preds
        and S_c(o) ⊇ o_preds."""
        key = (s_preds, o_preds, pred)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        count = 0
        for s, o in self.pred_pairs.get(pred, ()):
            if s_preds <= self.char_set(s) and o_preds <= self.char_set(o):
                count += 1
        self._pair_cache[key] = count
        return count


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
        return float(stats.pred_counts.get(p, 0)) if isinstance(p, str) else float(
            sum(stats.pred_counts.values())
        )
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
    Takes O(n^2) estimates and is deterministic given (patterns, stats).
    """
    pats = _by_ordinal(patterns)
    if len(pats) < 2:
        return pats
    leaf_keys = {p.ordinal: canonicalize([p]).key for p in pats}

    def rank(prefix: list[TriplePattern], added: TriplePattern) -> tuple:
        grown = _by_ordinal(prefix + [added])
        return (
            estimate_cardinality(grown, stats),
            canonicalize(grown).key,
            leaf_keys[added.ordinal],
        )

    # min keeps the first of equal ranks, so candidates go in ordinal order
    order = list(min(
        ((a, b) for a, b in combinations(pats, 2) if a.variables() & b.variables()),
        key=lambda ab: rank([ab[0]], ab[1]),
    ))
    joined = order[0].variables() | order[1].variables()
    rest = [p for p in pats if p not in order]
    while rest:
        nxt = min(
            (p for p in rest if p.variables() & joined),
            key=lambda p: rank(order, p),
        )
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


def tuple_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """row -> tuple(row[i] for i in positions), also for one position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return itemgetter(*positions)


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


def slot_index(rows: Iterable[tuple[int, ...]], slots: tuple[int, ...]) -> dict:
    """Hash index of rows on a slot subset: key tuple -> the
    bucket of rows with that key (one row bare, more in a set)."""
    idx: dict = {}
    key_of = tuple_getter(slots)
    for row in rows:
        bucket_add(idx, key_of(row), row)
    return idx


@dataclass(eq=False, repr=False)
class PlanNode:
    """A shared plan expression; compared and hashed by identity, so the
    node itself names its group of the plan's ProvTable."""

    key: CanonicalKey
    patterns: list[TriplePattern]
    num_vars: int
    predicates: frozenset[str]
    estimate: float
    # (child key, map child-var-slot -> this node's var slot) per side
    children: tuple[tuple[CanonicalKey, dict[int, int]], tuple[CanonicalKey, dict[int, int]]] | None
    # bindings over var slots 0..num_vars-1 -> provenance; the plan's
    # ProvTable group keyed by this node
    table: dict[tuple[int, ...], Polynomial] = field(default_factory=dict)
    # how many registered subquery components this node roots
    roots: int = 0
    # join nodes: (left child's rows probing the right, right's probing
    # the left)
    probes: tuple[JoinProbe, JoinProbe] | None = None
    # lazily built hash indexes: slot subset -> `slot_index` of the table
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
        self.pred_index: dict[str, set[CanonicalKey]] = {}
        # every node table, grouped by node
        self.rows = ProvTable()
        # nodes created since the last materialization, children first
        self.pending: list[PlanNode] = []

    @property
    def edge_rows(self) -> dict:
        """Edge id -> the (node, row) pairs whose polynomial mentions it,
        one pair bare and more in a set."""
        return self.rows.by_edge

    def audit(self) -> list[str]:
        """The row table's audit, plus every join-probe index bucket that
        breaks the bucket invariant and every index that differs from one
        rebuilt from its node's table."""
        problems = self.rows.audit()
        for node in self.nodes.values():
            for slots, idx in node.indexes.items():
                key = tuple_getter(slots)
                want: dict = {}
                for row in node.table:
                    want.setdefault(key(row), set()).add(row)
                small, mismatched = bucket_faults(idx, want)
                problems += [
                    f"probe set bucket of {n} at {node!r} slots {slots} key {k}"
                    for k, n in small
                ]
                if mismatched:
                    problems.append(f"probe index mismatch at {node!r} slots {slots}")
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
                for ck, _ in node.children:
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
    the prefix that joins it, and every new node is queued on
    `plan.pending`.  Returns the root node and the component's variable
    -> slot map."""

    def create(cf: CanonicalForm, pats: list[TriplePattern], sides) -> None:
        num_vars = len(set(cf.varmap.values()))
        children = probes = None
        if sides is not None:
            left, right = sides
            lmap = {slot: cf.varmap[name] for name, slot in left.varmap.items()}
            rmap = {slot: cf.varmap[name] for name, slot in right.varmap.items()}
            children = ((left.key, lmap), (right.key, rmap))
            probes = (join_probe(lmap, rmap, num_vars), join_probe(rmap, lmap, num_vars))
        node = PlanNode(
            key=cf.key,
            patterns=patterns_from_key(cf.key),
            num_vars=num_vars,
            predicates=frozenset(
                p.predicate for p in pats if isinstance(p.predicate, str)
            ),
            estimate=estimate_cardinality(pats, stats),
            children=children,
            probes=probes,
        )
        node.table = plan.rows.group(node)
        plan.nodes[cf.key] = node
        plan.pending.append(node)
        for pred in node.predicates:
            plan.pred_index.setdefault(pred, set()).add(cf.key)

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


def coverage(plan: GlobalPlan) -> float | None:
    """Non-leaf node count per unique predicate; None when no predicates
    are planned (the metric is undefined on an empty plan)."""
    preds = set().union(*(n.predicates for n in plan.nodes.values())) if plan.nodes else set()
    if not preds:
        return None
    non_leaf = sum(1 for n in plan.nodes.values() if not n.is_leaf)
    return non_leaf / len(preds)


def plan_dump(plan: GlobalPlan) -> list[dict]:
    """Topologically sorted JSON-ready description of every node."""
    out = []
    for node in plan.topo_order():
        out.append(
            {
                "expr": node.label(),
                "estimate": node.estimate,
                "children": [
                    plan.nodes[ck].label() for ck, _ in (node.children or ())
                ],
                "rows": len(node.table),
                "roots": node.roots,
            }
        )
    return out
