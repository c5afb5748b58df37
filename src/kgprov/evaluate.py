"""Provenance-aware evaluation: from-scratch query evaluation, plan-table
materialization, and single-edge delta propagation through the shared
plan DAG.

`evaluate_patterns` is the one from-scratch evaluator: it enumerates a
conjunction's matches by index nested loops over the store's edge ids
and is the reference the maintained answers are checked against.  The
plan has its own join (`join_tables`) and delta rule (`join_delta`),
which serve both the plan's join nodes and the engine's answer joins.
Every such join is node ⋈ leaf, so an insert's delta takes two probes,
ΔL⋈R_new + L_old⋈ΔR: the leaf, read from the store, already holds the
edge and so supplies the terms of ΔL⋈ΔR.

Every produced row carries a polynomial whose monomials are exactly the
edge multisets of its derivations, so deletion reduces to monomial
pruning and insertion to join deltas.  A plan leaf keeps no rows: a join
reads it from the store's buckets, one edge symbol per edge, so it has
nothing to apply on insert and nothing to prune on delete.

Sum rule: a join adds each product into its row with `provenance.add_to`,
and `join_tables` and `join_delta` end with one `provenance.summed`, so an
N-term row costs one sort; `evaluate_patterns`, the reference, keeps its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .planner import GlobalPlan, JoinProbe, LeafView, PlanNode, pattern_ids, tuple_getter
from .provenance import MONO_ONE, Monomial, Polynomial, ResultDelta, add_to, mono_mul, summed
from .query import QueryGraph, TriplePattern, Var
from .store import Edge, KnowledgeGraph, bucket_add, bucket_discard, bucket_entries


@dataclass
class BindingRow:
    bindings: dict[str, int]
    provenance: Polynomial


# --------------------------------------------------------------------------
# Direct BGP evaluation
# --------------------------------------------------------------------------


def evaluate_patterns(
    patterns: Sequence[TriplePattern], g: KnowledgeGraph, variables: Sequence[str]
) -> dict[tuple[int, ...], Polynomial]:
    """Every match of a pattern conjunction, found by index nested loops
    over edge ids: each complete match adds one monomial, the product of
    its edges, under its values at `variables`.

    Greedy order: patterns sorted by (matching edges, ordinal), each step
    taking the first one variable-connected to the variables bound so
    far, or else the first one left.  A step reads its edges through
    `lookup_ids` with its constants and bound endpoints, and drops those
    that bind a repeated variable two ways.
    """
    ids = [pattern_ids(g, p) for p in patterns]
    if None in ids:  # a constant absent from the store matches nothing
        return {}
    left = sorted(zip(patterns, ids), key=lambda t: (len(g.lookup_ids(*t[1])), t[0].ordinal))
    # per step: its (s, p, o) ids, the positions of the variables bound
    # before it, the Edge field (id, subject, predicate, object) that
    # binds each new variable, and the field pairs a repeated new
    # variable needs equal
    steps, bound = [], set()
    while left:
        p, pids = left.pop(next((i for i, (q, _) in enumerate(left) if q.variables() & bound), 0))
        names = [t.name if isinstance(t, Var) else None for t in p.terms()]
        known = [(i, n) for i, n in enumerate(names) if n in bound]
        new = [(n, i + 1) for i, n in enumerate(names) if n is not None and n not in bound]
        binds = dict(reversed(new))  # the first field of each
        same = [(binds[n], at) for n, at in new if binds[n] != at]
        steps.append((pids, known, list(binds.items()), same))
        bound |= p.variables()

    edges, lookup = g.edges, g.lookup_ids
    env: dict[str, int] = {}
    found: dict[tuple[int, ...], dict[Monomial, int]] = {}

    def extend(depth: int, mono: Monomial) -> None:
        if depth == len(steps):
            terms = found.setdefault(tuple(env[v] for v in variables), {})
            terms[mono] = terms.get(mono, 0) + 1
            return
        pids, known, binds, same = steps[depth]
        key = list(pids)
        for i, n in known:
            key[i] = env[n]
        for eid in lookup(*key):
            e = edges[eid]
            if same and any(e[a] != e[b] for a, b in same):
                continue
            for n, at in binds:
                env[n] = e[at]
            extend(depth + 1, mono_mul(mono, ((eid, 1),)))

    extend(0, MONO_ONE)
    return {row: Polynomial(terms) for row, terms in found.items()}


def evaluate_bgp(q: QueryGraph, g: KnowledgeGraph) -> list[BindingRow]:
    """All answers of q, projected, with merged provenance polynomials."""
    return [
        BindingRow(dict(zip(q.projection, row)), poly)
        for row, poly in evaluate_patterns(q.patterns, g, q.projection).items()
    ]


# --------------------------------------------------------------------------
# Plan materialization
# --------------------------------------------------------------------------


def join_tables(
    left: PlanNode, right: PlanNode, probes: tuple[JoinProbe, JoinProbe]
) -> dict[tuple[int, ...], Polynomial]:
    """left ⋈ right from the two nodes' current tables, where `right` is a
    plan leaf, as every plan chain step and answer join is; `probes` lays
    out left rows probing right and right rows probing left.

    Both sides hold full bindings, so summing the products over matching
    row pairs yields every derivation exactly once.  The leaf is probed
    in the store's buckets: the left side is scanned, or, when it is a
    leaf too, the one with fewer edges, edge by edge, so that a product
    is formed only for a matching pair of edges (a row's polynomial is
    the sum of its edge symbols, over which the product distributes)."""
    out: dict[tuple[int, ...], Polynomial] = {}
    probe, scan, other = probes[0], left, right
    if left.is_leaf and right.table.count() < left.table.count():
        probe, scan, other = probes[1], right, left
    rows = scan.table.symbols() if scan.is_leaf else scan.table.items()
    _probe_store(rows, probe, other.table, out, None)
    return summed(out)


def materialize_plan(plan: GlobalPlan, g: KnowledgeGraph) -> GlobalPlan:
    """Give every node created since the last call its table, children
    first: a join node joins its children's current tables into its
    group (and the edge->row index), and a leaf, which is not scanned,
    gets a `LeafView` of the store."""
    for node in plan.pending:
        if node.is_leaf:
            node.table = LeafView(g, node.patterns[0])
        else:
            left, right = (plan.nodes[key] for key, _ in node.children)
            plan.rows.add(node, join_tables(left, right, node.probes))
    plan.pending.clear()
    return plan


# --------------------------------------------------------------------------
# Node table indexes
# --------------------------------------------------------------------------


def slot_index(rows: Iterable[tuple[int, ...]], slots: tuple[int, ...]) -> dict:
    """Hash index of rows on a slot subset: key tuple -> the
    bucket of rows with that key (one row bare, more in a set)."""
    idx: dict = {}
    key_of = tuple_getter(slots)
    for row in rows:
        bucket_add(idx, key_of(row), row)
    return idx


def node_index(node: PlanNode, slots: tuple[int, ...]):
    idx = node.indexes.get(slots)
    if idx is None:
        idx = node.indexes[slots] = slot_index(node.table, slots)
    return idx


def _index_add(node: PlanNode, row: tuple[int, ...]):
    for slots, idx in node.indexes.items():
        bucket_add(idx, tuple(row[s] for s in slots), row)


def _index_remove(node: PlanNode, row: tuple[int, ...]):
    for slots, idx in node.indexes.items():
        bucket_discard(idx, tuple(row[s] for s in slots), row)


# --------------------------------------------------------------------------
# Insertion deltas
# --------------------------------------------------------------------------


def _probe(
    delta: Mapping[tuple[int, ...], Polynomial],
    probe: JoinProbe,
    other: PlanNode,
    out: dict[tuple[int, ...], Polynomial],
    skip: int,
):
    """Join delta rows against the full table of one input side into
    `out`, by `add_to`: a leaf's in the store, leaving out edge `skip`,
    a join node's through its cached index."""
    if other.is_leaf:
        _probe_store(delta.items(), probe, other.table, out, skip)
        return
    idx, table = node_index(other, probe.o_slots), other.table
    d_key, parent_row = probe.d_key, probe.parent_row
    for drow, dpoly in delta.items():
        bucket = idx.get(d_key(drow))
        if bucket is None:
            continue
        for orow in bucket_entries(bucket):
            add_to(out, parent_row(drow + orow), dpoly * table[orow])


def _probe_store(
    delta: Iterable[tuple[tuple[int, ...], Polynomial]],
    probe: JoinProbe,
    leaf: LeafView,
    out: dict[tuple[int, ...], Polynomial],
    skip: int | None,
):
    """`_probe` into a leaf: each delta (row, polynomial) pair reads the
    edges that bind the leaf's shared slots as the row does, and every
    one of them but `skip` joins the row with its own symbol, so that
    duplicate triples sum in `out`."""
    ids = leaf.ids()
    if ids is None:
        return
    g, p, o_slots = leaf.graph, ids[1], probe.o_slots
    # `?v0 p ?v1` probed on one endpoint, the usual probe, reads the
    # endpoint's p bucket directly; any other goes through the lookup
    index = g.endpoint_index(o_slots == (0,)) if leaf.pairs and len(o_slots) == 1 else None
    edges, d_key, parent_row, row_of = g.edges, probe.d_key, probe.parent_row, leaf.row_of
    for drow, dpoly in delta:
        k = d_key(drow)
        if index is None:
            found = leaf.edge_ids(o_slots, k)
        else:
            inner = index.get(k[0])
            bucket = None if inner is None else inner.get(p)
            if bucket is None:
                continue
            found = bucket_entries(bucket)
        for eid in found:
            if eid != skip:
                add_to(out, parent_row(drow + row_of(edges[eid])), dpoly.times_edge(eid))


def join_delta(
    left: PlanNode,
    right: PlanNode,
    probes: tuple[JoinProbe, JoinProbe],
    dl: dict[tuple[int, ...], Polynomial] | None,
    dr: dict[tuple[int, ...], Polynomial] | None,
    skip: int,
) -> dict[tuple[int, ...], Polynomial]:
    """The delta of left ⋈ right for the inserted edge `skip`, given each
    side's delta (None or empty for none) against its pre-apply table;
    `right` is a plan leaf and `probes` is laid out as for `join_tables`.

    The store already holds the edge, so the leaf read there is R_new,
    and ΔL⋈R + L⋈ΔR + ΔL⋈ΔR is computed as ΔL⋈R_new + L_old⋈ΔR: ΔL
    probes the leaf in full, and ΔR probes the left side as it was
    before the edge, a leaf leaving `skip` out."""
    lprobe, rprobe = probes
    d: dict[tuple[int, ...], Polynomial] = {}
    if dl:
        _probe_store(dl.items(), lprobe, right.table, d, None)
    if dr:
        _probe(dr, rprobe, left, d, skip)
    return summed(d) if d else d  # most deltas are empty: skip the call


def compute_insert_deltas(
    plan: GlobalPlan, g: KnowledgeGraph, e: Edge
) -> dict[PlanNode, dict[tuple[int, ...], Polynomial]]:
    """Bottom-up delta of every plan node for one inserted edge,
    computed against the current (pre-apply) tables; nothing is applied.
    The edge must already be present in the store: leaves are read from
    it without the edge, and `LeafView.delta` gives their delta."""
    pred = g.predicate_name(e.predicate)
    deltas: dict = {}
    for node in plan.topo_order():
        if pred not in node.predicates:
            continue
        if node.is_leaf:
            d = node.table.delta(e)
        else:
            (lkey, _), (rkey, _) = node.children
            left, right = plan.nodes[lkey], plan.nodes[rkey]
            d = join_delta(left, right, node.probes, deltas.get(left), deltas.get(right), e.id)
        if d:
            deltas[node] = d
    return deltas


def apply_insert_deltas(plan: GlobalPlan, deltas: dict):
    """Merge computed insert deltas into the join nodes' tables and
    indexes; a leaf's delta is in the store already."""
    for node, d in deltas.items():
        if node.is_leaf:
            continue
        for row in plan.rows.add(node, d):
            _index_add(node, row)


# --------------------------------------------------------------------------
# Deletion
# --------------------------------------------------------------------------


def delta_delete(plan: GlobalPlan, edge_id: int) -> dict[PlanNode, ResultDelta]:
    """Prune the deleted edge's monomials from every indexed plan row;
    returns {node: ResultDelta}.  Leaves hold no rows, so the store's
    own delete has already updated them.

    Monomials are exact derivation edge-multisets, so pruning each node
    independently keeps all tables consistent; no re-join is needed.
    Every prune is computed before any row or index changes.
    """
    report = plan.rows.prune(edge_id)
    for node, d in report.items():
        if node.indexes:
            for row in d.removed:
                _index_remove(node, row)
    return report
