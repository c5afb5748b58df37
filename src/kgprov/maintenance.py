"""Standing-query maintenance engine.

Registration evaluates a query once, plans and materializes all its
one-pattern-removed subqueries through the shared global plan, and
indexes every potential match's connection points.  After that each
edge insertion is answered from the connection points (plus a delta path
for queries where one edge can satisfy several patterns) and each
deletion by pruning the polynomials of the answers and the plan tables,
two provenance-indexed tables — no query is ever re-executed from scratch.

A connection point holds no polynomial of its own: it is an index entry
from a graph vertex to a subquery root's plan row, and reads that row's
polynomial from the plan table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .evaluate import (
    BindingRow,
    apply_insert_deltas,
    compute_insert_deltas,
    delta_delete,
    evaluate_bgp,
    materialize_plan,
    node_index,
)
from .planner import (
    GlobalPlan,
    PlanNode,
    RootRef,
    build_and_or_tree,
    compute_statistics,
    merge_into_global,
    select_best_plan,
)
from .provenance import Polynomial, ProvTable, Row, mono_degree
from .query import (
    Classification,
    PredicateMetadata,
    QueryError,
    QueryGraph,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    canonicalize,
    classify_query,
    variable_connected,
)
from .store import Edge, KnowledgeGraph
from .subquery import Subquery, SubqueryType, generate_subqueries

OUT = "out"
IN = "in"


@dataclass
class Annotation:
    """A connection point, read out of the index for inspection.

    A potential match waits at `node` for an edge with label `exp_rel`
    leaving (`out`) or arriving (`in`); `bindings` are the full variable
    bindings of the matched component, `result` the fragment of the
    answer it contributes, and `prov` its provenance polynomial (the
    subquery root's plan row).
    """

    node: int
    exp_rel: str
    direction: str
    query_id: int
    removed: int
    component: int
    result: tuple[int, ...]
    bindings: dict[str, int]
    prov: Polynomial

    @property
    def key(self) -> tuple:
        """Sort key, unique per connection point."""
        bindings = tuple(sorted(self.bindings.items()))
        return (self.query_id, self.removed, self.component, self.direction, bindings)


@dataclass
class RegistrationReceipt:
    query_id: int
    answers: list[BindingRow]
    subquery_count: int
    annotation_count: int
    root_keys: list


@dataclass
class UpdateReport:
    op: str
    edge_id: int
    # query id -> [(projected row, current polynomial)]
    added: dict[int, list] = field(default_factory=dict)
    # query id -> [projected row]
    removed: dict[int, list] = field(default_factory=dict)
    # query id -> [(projected row, surviving polynomial)]
    pruned: dict[int, list] = field(default_factory=dict)
    response_time: float = 0.0
    maintenance_time: float = 0.0

    @property
    def answers_changed(self) -> int:
        return sum(
            len(v) for m in (self.added, self.removed, self.pruned) for v in m.values()
        )


@dataclass
class RegisteredQuery:
    qid: int
    query: QueryGraph
    subqueries: list[Subquery]
    # (removed ordinal, component index) -> global plan root node
    roots: dict[tuple[int, int], PlanNode]
    # (removed ordinal, component index) -> {component var -> slot}
    root_varmaps: dict[tuple[int, int], dict[str, int]]
    # (removed ordinal, component index) -> the connection points each
    # root row carries: (endpoint slot, or None for a constant endpoint,
    # the constant, expected predicate, direction)
    anchors: dict[tuple[int, int], list[tuple[int | None, str | None, str, str]]]
    # projected row -> polynomial; this query's group of Engine.answers
    answers: dict[tuple[int, ...], Polynomial]


def _anchor_sides(sq: Subquery) -> list[tuple[int, str]]:
    """Which (component, endpoint) pairs of a subquery get annotations."""
    t = sq.removed_pattern
    if sq.sq_type is SubqueryType.III:
        return [(0, "subject"), (1, "object")]
    if sq.sq_type is SubqueryType.IV:
        return [(0, "subject"), (0, "object")]
    # I and II: the single anchored endpoint, always on component 0
    if sq.subject_comp == 0:
        return [(0, "subject")]
    if sq.object_comp == 0:
        return [(0, "object")]
    # endpoint anchored by a constant only (no variable link survives)
    return [(0, "subject")] if not isinstance(t.subject, Var) else [(0, "object")]


def _anchors(
    sq: Subquery, ci: int, varmap: dict[str, int]
) -> list[tuple[int | None, str | None, str, str]]:
    """The connection points each row of component ci's root carries."""
    t = sq.removed_pattern
    out = []
    for comp, side in _anchor_sides(sq):
        if comp != ci:
            continue
        term = t.subject if side == "subject" else t.object
        direction = OUT if side == "subject" else IN
        if isinstance(term, Var):
            out.append((varmap[term.name], None, t.predicate, direction))
        else:
            out.append((None, term, t.predicate, direction))
    return out


def _keep_min_degree(poly: Polynomial, edge_id: int, k: int) -> Polynomial:
    """Restrict a polynomial to monomials with degree >= k in edge_id."""
    return Polynomial(
        {m: c for m, c in poly.terms if mono_degree(m, edge_id) >= k}
    )


class Engine:
    """One graph, many standing queries; all updates flow through here."""

    def __init__(
        self,
        graph: KnowledgeGraph | None = None,
        metadata: PredicateMetadata | None = None,
    ):
        self.graph = graph if graph is not None else KnowledgeGraph()
        self.metadata = metadata or PredicateMetadata()
        self.plan = GlobalPlan()
        self.queries: dict[int, RegisteredQuery] = {}
        self._next_qid = 1
        self._registered_forms: set = set()
        self._stats_cache: tuple[int, object] | None = None
        # every query's answers, grouped by query id
        self.answers = ProvTable()
        # (vertex, expected predicate, direction) -> (root, row) pairs
        # whose match waits there
        self.connection_points: dict[tuple[int, str, str], set[tuple[RootRef, Row]]] = {}

    @property
    def edge_to_result(self) -> dict[int, set[tuple[int, Row]]]:
        """Edge id -> (query id, answer row) pairs whose polynomial uses it."""
        return self.answers.by_edge

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_query(self, q: QueryGraph) -> RegistrationReceipt:
        if q.has_variable_predicate():
            raise UnsupportedFeatureError(
                "variable predicates cannot be registered for maintenance"
            )
        if q.size > 1 and not variable_connected(q.patterns):
            raise UnsupportedFeatureError(
                "query components connected only through constants cannot "
                "be registered for maintenance"
            )
        form = canonicalize(q.patterns).key
        if form in self._registered_forms:
            raise QueryError("query already registered")

        q.classification = classify_query(q, self.metadata)
        qid = self._next_qid
        self._next_qid += 1

        answers: dict[tuple[int, ...], Polynomial] = {}
        for row in evaluate_bgp(q, self.graph):
            key = tuple(row.bindings[v] for v in q.projection)
            answers[key] = row.provenance

        rq = RegisteredQuery(qid, q, [], {}, {}, {}, {})
        refs: list[RootRef] = []
        if q.size >= 2:
            try:
                rq.subqueries = generate_subqueries(q)
            except ValueError as exc:
                raise UnsupportedFeatureError(str(exc)) from exc
            stats = self._current_stats()
            for sq in rq.subqueries:
                for ci, comp in enumerate(sq.components):
                    tree = build_and_or_tree(comp)
                    local = select_best_plan(tree, stats)
                    root = merge_into_global(
                        self.plan,
                        local,
                        stats,
                        RootRef(qid, sq.removed, ci, ()),
                    )
                    ref = root.roots[-1]
                    refs.append(ref)
                    rq.roots[(sq.removed, ci)] = root
                    rq.root_varmaps[(sq.removed, ci)] = ref.var_to_slot()
                    rq.anchors[(sq.removed, ci)] = _anchors(sq, ci, ref.var_to_slot())
            materialize_plan(self.plan, self.graph)

        self.answers.add(qid, answers)
        rq.answers = self.answers.group(qid)
        self.queries[qid] = rq
        self._registered_forms.add(form)

        annotation_count = 0
        for ref in refs:
            annotation_count += self._index_connection_points(
                ref, rq.roots[(ref.removed, ref.component)].table
            )

        return RegistrationReceipt(
            query_id=qid,
            answers=[
                BindingRow(dict(zip(q.projection, row)), poly)
                for row, poly in rq.answers.items()
            ],
            subquery_count=len(rq.subqueries),
            annotation_count=annotation_count,
            root_keys=sorted({n.key for n in rq.roots.values()}, key=repr),
        )

    def _current_stats(self):
        """Statistics snapshot, reused while the graph is unchanged
        (plans are never re-optimized after updates anyway)."""
        version = self.graph.mutations
        if self._stats_cache is None or self._stats_cache[0] != version:
            self._stats_cache = (version, compute_statistics(self.graph))
        return self._stats_cache[1]

    # ------------------------------------------------------------------
    # Connection points
    # ------------------------------------------------------------------

    def _connection_points_of(self, ref: RootRef, rows):
        """(index key, entry) of every connection point that these rows
        of a subquery root carry."""
        anchors = self.queries[ref.query_id].anchors[(ref.removed, ref.component)]
        for slot, const, pred, direction in anchors:
            for row in rows:
                vertex = self.graph.node(const) if slot is None else row[slot]
                yield (vertex, pred, direction), (ref, row)

    def _index_connection_points(self, ref: RootRef, rows) -> int:
        added = 0
        for key, entry in self._connection_points_of(ref, rows):
            self.connection_points.setdefault(key, set()).add(entry)
            added += 1
        return added

    def _unindex_connection_points(self, ref: RootRef, rows):
        cps = self.connection_points
        for key, entry in self._connection_points_of(ref, rows):
            bucket = cps.get(key)
            if bucket is not None:
                bucket.discard(entry)
                if not bucket:
                    del cps[key]

    def _waiting(self, key: tuple[int, str, str]):
        """(query, subquery, component, bindings, polynomial) of each
        connection point at `key`, read from the current plan tables."""
        out = []
        for ref, row in self.connection_points.get(key, ()):
            rq = self.queries[ref.query_id]
            root = rq.roots[(ref.removed, ref.component)]
            bindings = {v: row[s] for v, s in ref.varmap}
            out.append(
                (rq, rq.subqueries[ref.removed], ref.component, bindings, root.table[row])
            )
        return out

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_triple(self, s: str, p: str, o: str) -> UpdateReport:
        eid = self.graph.insert_triple(s, p, o)
        return self.handle_insertion(self.graph.edges[eid])

    def handle_insertion(self, e: Edge) -> UpdateReport:
        """Process one edge already present in the store."""
        report = UpdateReport(op="+", edge_id=e.id)
        self._stats_cache = None  # stale now; the next registration rebuilds it
        pred = self.graph.predicate_name(e.predicate)
        contributions: dict[int, dict[tuple[int, ...], Polynomial]] = {}

        t0 = time.perf_counter()
        self._single_pattern_answers(e, pred, contributions)
        self._completions(e, pred, contributions)
        t1 = time.perf_counter()
        deltas = compute_insert_deltas(self.plan, self.graph, e)
        t2 = time.perf_counter()
        self._trigger_answers(e, pred, deltas, contributions)
        self._apply_answer_additions(contributions, report)
        t3 = time.perf_counter()
        for node, fresh in apply_insert_deltas(self.plan, deltas):
            for ref in node.roots:
                self._index_connection_points(ref, fresh)
        t4 = time.perf_counter()

        report.response_time = (t1 - t0) + (t3 - t2)
        report.maintenance_time = (t2 - t1) + (t4 - t3)
        return report

    def _single_pattern_answers(self, e, pred, contributions):
        for qid, rq in self.queries.items():
            if rq.query.size != 1:
                continue
            b = self._edge_binding(rq.query.patterns[0], e, pred)
            if b is not None:
                self._contribute(contributions, qid, b, Polynomial.edge(e.id))

    def _edge_binding(self, p: TriplePattern, e: Edge, pred: str):
        if p.predicate != pred:
            return None
        bindings: dict[str, int] = {}
        for term, value in ((p.subject, e.subject), (p.object, e.object)):
            if isinstance(term, Var):
                if bindings.get(term.name, value) != value:
                    return None
                bindings[term.name] = value
            elif self.graph.nodes.get(term) != value:
                return None
        return bindings

    def _completions(self, e, pred, contributions):
        """Discharge connection points waiting for this edge (derivations
        that use the new edge exactly once)."""
        out_cps = self._waiting((e.subject, pred, OUT))
        in_cps = self._waiting((e.object, pred, IN))
        e_sym = Polynomial.edge(e.id)

        pairs_in: dict[tuple[int, int], list[tuple[dict, Polynomial]]] = {}
        for rq, sq, comp, bindings, prov in in_cps:
            if sq.sq_type is SubqueryType.III and comp == 1:
                pairs_in.setdefault((rq.qid, sq.removed), []).append((bindings, prov))

        for (rq, sq, comp, bindings, prov), from_out in [
            (c, True) for c in out_cps
        ] + [(c, False) for c in in_cps]:
            t = sq.removed_pattern
            if sq.sq_type is SubqueryType.III:
                if from_out and comp == 0:
                    for other, other_prov in pairs_in.get((rq.qid, sq.removed), ()):
                        full = {**bindings, **other}
                        poly = prov * other_prov * e_sym
                        self._contribute(contributions, rq.qid, full, poly)
                continue
            if sq.sq_type is SubqueryType.IV and not from_out:
                continue  # processed once, from the out side

            other_term = t.object if from_out else t.subject
            other_val = e.object if from_out else e.subject
            extra: dict[str, int] = {}
            if isinstance(other_term, Var):
                bound = bindings.get(other_term.name)
                if bound is None:
                    extra[other_term.name] = other_val
                elif bound != other_val:
                    continue
            elif self.graph.nodes.get(other_term) != other_val:
                continue

            if sq.sq_type is SubqueryType.II:
                # the lone pattern of the far component must hold too
                sp = sq.components[1][0]
                seed = {**extra, other_term.name: other_val}
                for e2, b2 in self._match_single(sp, seed):
                    if e2.id == e.id:
                        continue  # double use handled by the delta path
                    full = {**bindings, **seed, **b2}
                    poly = prov * e_sym * Polynomial.edge(e2.id)
                    self._contribute(contributions, rq.qid, full, poly)
            else:
                full = {**bindings, **extra}
                self._contribute(contributions, rq.qid, full, prov * e_sym)

    def _match_single(self, p: TriplePattern, bound: dict[str, int]):
        """Edges matching one pattern under partial bindings; yields
        (edge, bindings of the pattern's remaining variables)."""

        def val(term, predicate=False):
            if isinstance(term, Var):
                return bound.get(term.name)
            interner = self.graph.predicates if predicate else self.graph.nodes
            got = interner.get(term)
            return -1 if got is None else got

        s, pr, o = val(p.subject), val(p.predicate, True), val(p.object)
        if -1 in (s, pr, o):
            return
        for e in self.graph.lookup(s, pr, o):
            fresh: dict[str, int] = {}
            ok = True
            for term, value in (
                (p.subject, e.subject),
                (p.predicate, e.predicate),
                (p.object, e.object),
            ):
                if isinstance(term, Var) and term.name not in bound:
                    if fresh.get(term.name, value) != value:
                        ok = False
                        break
                    fresh[term.name] = value
            if ok:
                yield e, fresh

    def _trigger_answers(self, e, pred, deltas, contributions):
        """Answers whose derivations use the new edge more than once.

        For each query where this predicate's patterns can co-bind one
        edge, join the trigger subquery's component deltas with every
        edge matching the removed pattern and keep only monomials of
        degree >= 2 in the new edge (degree-1 derivations were already
        produced by the connection points).
        """
        pid = e.predicate
        for qid, rq in self.queries.items():
            cls = rq.query.classification
            if cls is None or not cls.multimap:
                continue
            tr = cls.triggers.get(pred)
            if tr is None:
                continue
            sq = rq.subqueries[tr]
            t = sq.removed_pattern
            infos = []
            for ci in range(len(sq.components)):
                node = rq.roots[(tr, ci)]
                infos.append(
                    (node, rq.root_varmaps[(tr, ci)], deltas.get(node.key, {}))
                )
            if len(infos) == 1:
                self._trigger_one_comp(e, pid, rq, sq, t, infos[0], contributions)
            else:
                self._trigger_two_comps(e, pid, rq, sq, t, infos, contributions)

    def _trigger_one_comp(self, e, pid, rq, sq, t, info, contributions):
        node, vm, drows = info
        for row, dpoly in drows.items():
            b = {v: row[s] for v, s in vm.items()}
            sv = self._trigger_endpoint(t.subject, b)
            ov = self._trigger_endpoint(t.object, b)
            if sv == -1 or ov == -1:
                continue
            for f in self.graph.lookup(sv, pid, ov):
                fb = {}
                if isinstance(t.subject, Var) and t.subject.name not in b:
                    fb[t.subject.name] = f.subject
                if isinstance(t.object, Var) and t.object.name not in b:
                    if fb.get(t.object.name, f.object) != f.object:
                        continue
                    fb[t.object.name] = f.object
                poly = _keep_min_degree(dpoly * Polynomial.edge(f.id), e.id, 2)
                if poly:
                    self._contribute(contributions, rq.qid, {**b, **fb}, poly)

    def _trigger_endpoint(self, term, bindings):
        if isinstance(term, Var):
            return bindings.get(term.name)  # None -> unconstrained
        got = self.graph.nodes.get(term)
        return -1 if got is None else got

    def _trigger_two_comps(self, e, pid, rq, sq, t, infos, contributions):
        cs, co = sq.subject_comp, sq.object_comp
        node_s, vm_s, ds = infos[cs]
        node_o, vm_o, do = infos[co]
        s_slot = vm_s[t.subject.name]
        o_slot = vm_o[t.object.name]
        o_index = node_index(node_o, (o_slot,))  # pre-apply tables
        s_index = node_index(node_s, (s_slot,))
        e_sym_cache: dict[int, Polynomial] = {}

        def emit(r1, p1, r2, p2, f):
            full = {v: r1[s] for v, s in vm_s.items()}
            full.update({v: r2[s] for v, s in vm_o.items()})
            poly = _keep_min_degree(
                p1 * p2 * Polynomial.edge(f.id), e.id, 2
            )
            if poly:
                self._contribute(contributions, rq.qid, full, poly)

        # delta-on-subject side against (old + delta) object side
        for r1, p1 in ds.items():
            for f in self.graph.lookup(r1[s_slot], pid, None):
                for r2 in o_index.get((f.object,), ()):
                    emit(r1, p1, r2, node_o.table[r2], f)
                for r2, p2 in do.items():
                    if r2[o_slot] == f.object:
                        emit(r1, p1, r2, p2, f)
        # old subject side against delta-on-object side
        for r2, p2 in do.items():
            for f in self.graph.lookup(None, pid, r2[o_slot]):
                for r1 in s_index.get((f.subject,), ()):
                    emit(r1, node_s.table[r1], r2, p2, f)

    def _contribute(self, contributions, qid, bindings, poly):
        rq = self.queries[qid]
        row = tuple(bindings[v] for v in rq.query.projection)
        bucket = contributions.setdefault(qid, {})
        bucket[row] = bucket[row] + poly if row in bucket else poly

    def _apply_answer_additions(self, contributions, report: UpdateReport):
        for qid, rows in contributions.items():
            self.answers.add(qid, rows)
            answers = self.queries[qid].answers
            added = [(row, answers[row]) for row, poly in rows.items() if poly]
            if added:
                report.added[qid] = added

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete_edge(self, edge_id: int) -> UpdateReport | None:
        e = self.graph.delete_edge(edge_id)
        if e is None:
            return None
        return self.handle_deletion(e)

    def handle_deletion(self, e: Edge) -> UpdateReport:
        """Filter-and-refine: look up everything that used the edge,
        prune its monomials, and drop whatever collapses to zero; a
        dropped subquery root row takes its connection points with it."""
        report = UpdateReport(op="-", edge_id=e.id)
        self._stats_cache = None

        t0 = time.perf_counter()
        for qid, d in self.answers.prune(e.id).items():
            if d.pruned:
                report.pruned[qid] = list(d.pruned.items())
            if d.removed:
                report.removed[qid] = list(d.removed)
        t1 = time.perf_counter()
        for key, d in delta_delete(self.plan, e.id).items():
            if d.removed:
                for ref in self.plan.nodes[key].roots:
                    self._unindex_connection_points(ref, d.removed)
        t2 = time.perf_counter()

        report.response_time = t1 - t0
        report.maintenance_time = t2 - t1
        return report

    # ------------------------------------------------------------------
    # Auditing and introspection
    # ------------------------------------------------------------------

    def index_audit(self) -> list[str]:
        """Rebuild all inverted indexes, the store's included, from first
        principles and diff them against the live ones; an empty list
        means consistent."""
        problems = self.graph.audit()
        problems += [f"edge-to-result mismatch at e{eid}" for eid in self.answers.audit()]
        problems += [f"plan edge-row mismatch at e{eid}" for eid in self.plan.rows.audit()]

        want = set()
        for node in self.plan.nodes.values():
            for ref in node.roots:
                want.update(self._connection_points_of(ref, node.table))
        have = {(k, e) for k, entries in self.connection_points.items() for e in entries}
        problems += sorted(f"connection point missing at {k}" for k, _ in want - have)
        problems += sorted(f"stale connection point at {k}" for k, _ in have - want)
        return problems

    def answers_of(self, qid: int) -> list[BindingRow]:
        rq = self.queries[qid]
        return [
            BindingRow(dict(zip(rq.query.projection, row)), poly)
            for row, poly in sorted(rq.answers.items())
        ]

    def all_annotations(self) -> list[Annotation]:
        """Every connection point as a record, in key order."""
        out = []
        for (vertex, pred, direction), entries in self.connection_points.items():
            for ref, row in entries:
                rq = self.queries[ref.query_id]
                bindings = {v: row[s] for v, s in ref.varmap}
                result = tuple(bindings[v] for v in rq.query.projection if v in bindings)
                poly = rq.roots[(ref.removed, ref.component)].table[row]
                out.append(Annotation(
                    vertex, pred, direction, ref.query_id, ref.removed,
                    ref.component, result, bindings, poly,
                ))
        return sorted(out, key=lambda a: a.key)

    def annotations_at(self, node: int) -> list[Annotation]:
        return [a for a in self.all_annotations() if a.node == node]
