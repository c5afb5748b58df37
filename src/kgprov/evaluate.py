"""Provenance-aware evaluation: full query evaluation, plan-table
materialization, and single-edge delta propagation through the shared
plan DAG.  One join (`join_tables`) and one delta rule (`join_delta`)
serve both the plan's join nodes and the engine's answer joins.

Every produced row carries a polynomial whose monomials are exactly the
edge multisets of its derivations, so deletion reduces to monomial
pruning and insertion to join deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .planner import GlobalPlan, JoinProbe, PlanNode, slot_index
from .provenance import Polynomial, ResultDelta
from .query import QueryGraph, TriplePattern, Var
from .store import Edge, KnowledgeGraph, bucket_add, bucket_discard, bucket_entries


@dataclass
class BindingRow:
    bindings: dict[str, int]
    provenance: Polynomial


# --------------------------------------------------------------------------
# Direct BGP evaluation
# --------------------------------------------------------------------------


@dataclass
class Table:
    vars: tuple[str, ...]
    rows: dict[tuple[int, ...], Polynomial]


def _resolve(g: KnowledgeGraph, term, predicate: bool) -> int | None:
    """Intern lookup for a constant; None means 'not in the graph'."""
    interner = g.predicates if predicate else g.nodes
    return interner.get(term)


def scan_pattern(p: TriplePattern, g: KnowledgeGraph) -> Table:
    """Single-pattern scan; each row's polynomial is the edge symbol."""
    s = None if isinstance(p.subject, Var) else _resolve(g, p.subject, False)
    pr = None if isinstance(p.predicate, Var) else _resolve(g, p.predicate, True)
    o = None if isinstance(p.object, Var) else _resolve(g, p.object, False)
    for const, term in ((s, p.subject), (pr, p.predicate), (o, p.object)):
        if const is None and not isinstance(term, Var):
            return Table((), {})  # constant absent from the graph

    var_order: list[str] = []
    for t in (p.subject, p.predicate, p.object):
        if isinstance(t, Var) and t.name not in var_order:
            var_order.append(t.name)

    rows: dict[tuple[int, ...], Polynomial] = {}
    for e in g.lookup(s, pr, o):
        binding: dict[str, int] = {}
        ok = True
        for t, value in ((p.subject, e.subject), (p.predicate, e.predicate), (p.object, e.object)):
            if isinstance(t, Var):
                if t.name in binding and binding[t.name] != value:
                    ok = False
                    break
                binding[t.name] = value
        if not ok:
            continue
        key = tuple(binding[v] for v in var_order)
        poly = Polynomial.edge(e.id)
        rows[key] = rows[key] + poly if key in rows else poly
    return Table(tuple(var_order), rows)


def hash_join(a: Table, b: Table) -> Table:
    """Join on shared variables (cross product when none); polynomials
    multiply across the join and add on duplicate output bindings."""
    if len(b.rows) < len(a.rows):
        a, b = b, a  # build on the smaller input
    shared = [v for v in a.vars if v in b.vars]
    a_pos = [a.vars.index(v) for v in shared]
    b_pos = [b.vars.index(v) for v in shared]
    b_extra = [i for i, v in enumerate(b.vars) if v not in a.vars]
    out_vars = a.vars + tuple(b.vars[i] for i in b_extra)

    build: dict[tuple[int, ...], list[tuple[tuple[int, ...], Polynomial]]] = {}
    for row, poly in a.rows.items():
        build.setdefault(tuple(row[i] for i in a_pos), []).append((row, poly))

    rows: dict[tuple[int, ...], Polynomial] = {}
    for brow, bpoly in b.rows.items():
        for arow, apoly in build.get(tuple(brow[i] for i in b_pos), ()):
            key = arow + tuple(brow[i] for i in b_extra)
            poly = apoly * bpoly
            rows[key] = rows[key] + poly if key in rows else poly
    return Table(out_vars, rows)


def _pattern_selectivity(p: TriplePattern, g: KnowledgeGraph) -> int:
    s = None if isinstance(p.subject, Var) else _resolve(g, p.subject, False)
    pr = None if isinstance(p.predicate, Var) else _resolve(g, p.predicate, True)
    o = None if isinstance(p.object, Var) else _resolve(g, p.object, False)
    for const, term in ((s, p.subject), (pr, p.predicate), (o, p.object)):
        if const is None and not isinstance(term, Var):
            return 0
    return g.count(s, pr, o)


def evaluate_patterns(patterns: list[TriplePattern], g: KnowledgeGraph) -> Table:
    """Full-binding evaluation of a pattern conjunction.

    Greedy join order: start from the most selective scan, then always
    extend with a variable-connected pattern of minimal match count.
    """
    if not patterns:
        return Table((), {(): Polynomial.one()})
    remaining = sorted(patterns, key=lambda p: (_pattern_selectivity(p, g), p.ordinal))
    first = remaining.pop(0)
    table = scan_pattern(first, g)
    bound = set(first.variables())
    while remaining:
        connected = [p for p in remaining if p.variables() & bound] or remaining
        nxt = min(connected, key=lambda p: (_pattern_selectivity(p, g), p.ordinal))
        remaining.remove(nxt)
        table = hash_join(table, scan_pattern(nxt, g))
        bound |= nxt.variables()
        if not table.rows:
            break
    return table


def project(table: Table, variables: list[str]) -> Table:
    """Project to the given variables, adding polynomials of merged rows."""
    if not table.rows:
        # empty tables may carry a truncated var list (early-out joins)
        return Table(tuple(variables), {})
    pos = [table.vars.index(v) for v in variables]
    rows: dict[tuple[int, ...], Polynomial] = {}
    for row, poly in table.rows.items():
        key = tuple(row[i] for i in pos)
        rows[key] = rows[key] + poly if key in rows else poly
    return Table(tuple(variables), rows)


def evaluate_bgp(q: QueryGraph, g: KnowledgeGraph) -> list[BindingRow]:
    """All answers of q, projected, with merged provenance polynomials."""
    table = project(evaluate_patterns(q.patterns, g), q.projection)
    return [
        BindingRow(dict(zip(table.vars, row)), poly)
        for row, poly in table.rows.items()
    ]


# --------------------------------------------------------------------------
# Plan materialization
# --------------------------------------------------------------------------


def _slot_of(var: Var) -> int:
    # plan-node patterns use canonical variable names v0, v1, ...
    return int(var.name[1:])


def materialize_node(node: PlanNode, g: KnowledgeGraph) -> dict[tuple[int, ...], Polynomial]:
    """Scan a leaf's single pattern from the store, keyed by var slot."""
    table = scan_pattern(node.patterns[0], g)
    order = sorted(range(len(table.vars)), key=lambda i: int(table.vars[i][1:]))
    return {
        tuple(row[i] for i in order): poly for row, poly in table.rows.items()
    }


def join_tables(
    left: PlanNode, right: PlanNode, probes: tuple[JoinProbe, JoinProbe]
) -> dict[tuple[int, ...], Polynomial]:
    """left ⋈ right from the two nodes' current tables; `probes` lays out
    left rows probing right and right rows probing left.

    Both sides hold full bindings, so summing the products over matching
    row pairs yields every derivation exactly once.  The smaller side is
    hashed for this join only, so the call leaves no index behind that
    the update path did not ask for."""
    probe, big, small = probes[0], left, right
    if len(left.table) < len(right.table):
        probe, big, small = probes[1], right, left
    out: dict[tuple[int, ...], Polynomial] = {}
    if small.table:  # an empty side leaves the join empty
        _probe(big.table, probe, small, small.table, out)
    return out


def materialize_plan(plan: GlobalPlan, g: KnowledgeGraph) -> GlobalPlan:
    """Fill the table (and the edge->row index) of every node created
    since the last call, children first; only leaves read the store."""
    for node in plan.pending:
        if node.is_leaf:
            rows = materialize_node(node, g)
        else:
            left, right = (plan.nodes[key] for key, _ in node.children)
            rows = join_tables(left, right, node.probes)
        plan.rows.add(node, rows)
    plan.pending.clear()
    return plan


# --------------------------------------------------------------------------
# Node table indexes
# --------------------------------------------------------------------------


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


def _leaf_delta(node: PlanNode, e: Edge, g: KnowledgeGraph) -> dict[tuple[int, ...], Polynomial]:
    p = node.patterns[0]
    binding: dict[int, int] = {}
    for t, value in ((p.subject, e.subject), (p.predicate, e.predicate), (p.object, e.object)):
        if isinstance(t, Var):
            slot = _slot_of(t)
            if slot in binding and binding[slot] != value:
                return {}
            binding[slot] = value
        else:
            interner = g.predicates if t is p.predicate else g.nodes
            if interner.get(t) != value:
                return {}
    row = tuple(binding[s] for s in range(node.num_vars))
    return {row: Polynomial.edge(e.id)}


def _probe(
    delta: dict[tuple[int, ...], Polynomial],
    probe: JoinProbe,
    other: PlanNode,
    other_rows: dict[tuple[int, ...], Polynomial] | None,
    out: dict[tuple[int, ...], Polynomial],
):
    """Join delta rows against one input side into `out`.

    `other_rows=None` probes the side's full table through its cached
    index; otherwise the given rows are hashed for this call only.
    """
    if other_rows is None:
        idx, other_rows = node_index(other, probe.o_slots), other.table
    else:
        idx = slot_index(other_rows, probe.o_slots)
    d_key, parent_row = probe.d_key, probe.parent_row
    for drow, dpoly in delta.items():
        bucket = idx.get(d_key(drow))
        if bucket is None:
            continue
        for orow in bucket_entries(bucket):
            key = parent_row(drow + orow)
            poly = dpoly * other_rows[orow]
            out[key] = out[key] + poly if key in out else poly


def join_delta(
    left: PlanNode,
    right: PlanNode,
    probes: tuple[JoinProbe, JoinProbe],
    dl: dict[tuple[int, ...], Polynomial] | None,
    dr: dict[tuple[int, ...], Polynomial] | None,
) -> dict[tuple[int, ...], Polynomial]:
    """The delta rule ΔL⋈R + L⋈ΔR + ΔL⋈ΔR of left ⋈ right, given each
    side's delta (None or empty for none) against its current, pre-apply
    table; `probes` is laid out as for `join_tables`."""
    lprobe, rprobe = probes
    d: dict[tuple[int, ...], Polynomial] = {}
    if dl:
        _probe(dl, lprobe, right, None, d)
    if dr:
        _probe(dr, rprobe, left, None, d)
    if dl and dr:
        _probe(dl, lprobe, right, dr, d)
    return d


def compute_insert_deltas(
    plan: GlobalPlan, g: KnowledgeGraph, e: Edge
) -> dict[PlanNode, dict[tuple[int, ...], Polynomial]]:
    """Bottom-up delta of every plan node for one inserted edge,
    computed against the current (pre-apply) tables; nothing is applied.
    The edge must already be present in the store."""
    pred = g.predicate_name(e.predicate)
    if not plan.pred_index.get(pred):
        return {}
    deltas: dict = {}
    for node in plan.topo_order():
        if pred not in node.predicates:
            continue
        if node.is_leaf:
            d = _leaf_delta(node, e, g)
        else:
            (lkey, _), (rkey, _) = node.children
            left, right = plan.nodes[lkey], plan.nodes[rkey]
            d = join_delta(left, right, node.probes, deltas.get(left), deltas.get(right))
        if d:
            deltas[node] = d
    return deltas


def apply_insert_deltas(plan: GlobalPlan, deltas: dict):
    """Merge computed insert deltas into the node tables and indexes."""
    for node, d in deltas.items():
        for row in plan.rows.add(node, d):
            _index_add(node, row)


# --------------------------------------------------------------------------
# Deletion
# --------------------------------------------------------------------------


def delta_delete(plan: GlobalPlan, edge_id: int) -> dict[PlanNode, ResultDelta]:
    """Prune the deleted edge's monomials from every indexed plan row;
    returns {node: ResultDelta}.

    Monomials are exact derivation edge-multisets, so pruning each node
    independently keeps all tables consistent; no re-join is needed.
    """
    report = plan.rows.prune(edge_id)
    for node, d in report.items():
        if node.indexes:
            for row in d.removed:
                _index_remove(node, row)
    return report
