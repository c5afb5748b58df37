"""Standing-query maintenance engine.

Registration plans and materializes all of a query's one-pattern-removed
subqueries through the shared global plan.  A query's answers are the
projection of one join of two plan nodes: the root of a subquery that
keeps a single component, and the leaf of the pattern that subquery
removed.  Each edge insertion is answered by the plan's delta rule
applied to that join, and each deletion by pruning the polynomials of
the answers and the plan tables, two provenance-indexed tables -- no
query is ever re-executed from scratch.

Connection points (a subquery root's row waiting at a vertex for an edge
with a given label and direction) are not stored: `all_annotations`
reads them out of the root tables and each query's anchors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .evaluate import (
    BindingRow,
    apply_insert_deltas,
    compute_insert_deltas,
    delta_delete,
    join_delta,
    join_tables,
    materialize_plan,
)
from .planner import (
    GlobalPlan,
    JoinProbe,
    PlanNode,
    compute_statistics,
    join_probe,
    merge_into_global,
    select_best_plan,
    tuple_getter,
)
from .provenance import Polynomial, ProvTable, Row
from .query import (
    PredicateMetadata,
    QueryError,
    QueryGraph,
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
    # (removed ordinal, component index) -> global plan root node
    roots: dict[tuple[int, int], PlanNode]
    # (removed ordinal, component index) -> {component var -> slot}
    root_varmaps: dict[tuple[int, int], dict[str, int]]
    # (removed ordinal, component index) -> the connection points each
    # root row carries: (endpoint slot, or None for a constant endpoint,
    # the constant, expected predicate, direction)
    anchors: dict[tuple[int, int], list[tuple[int | None, str | None, str, str]]]
    # the answer join root ⋈ leaf: `leaf` is the plan leaf of a pattern k
    # whose subquery keeps one component, `root` that subquery's root
    # (None for a single-pattern query, whose answers are leaf rows)
    leaf: PlanNode
    root: PlanNode | None
    # (root rows probing the leaf, leaf rows probing the root); a join
    # row holds the query's distinct projected variables
    probes: tuple[JoinProbe, JoinProbe] | None
    # join row (leaf row for a single-pattern query) -> answer row
    project: Callable[[Row], Row]
    # projected row -> polynomial; this query's group of Engine.answers
    answers: dict[Row, Polynomial] = field(default_factory=dict)


def _anchors(
    sq: Subquery, ci: int, varmap: dict[str, int]
) -> list[tuple[int | None, str | None, str, str]]:
    """The connection points each row of component ci's root carries."""
    t = sq.removed_pattern
    if sq.sq_type is SubqueryType.III:
        sides = [("subject", "object")[ci]]
    elif sq.sq_type is SubqueryType.IV:
        sides = ["subject", "object"]
    elif ci == 0:
        # I and II: the removed pattern's endpoint in component 0 (a
        # variable-connected query always has one)
        sides = ["subject" if sq.subject_comp == 0 else "object"]
    else:
        sides = []  # the lone far pattern of Type II
    out = []
    for side in sides:
        term = getattr(t, side)
        direction = OUT if side == "subject" else IN
        if isinstance(term, Var):
            out.append((varmap[term.name], None, t.predicate, direction))
        else:
            out.append((None, term, t.predicate, direction))
    return out


def _project(rows: dict[Row, Polynomial], key: Callable[[Row], Row]) -> dict[Row, Polynomial]:
    """Sum the polynomials of rows that share a projected key."""
    out: dict[Row, Polynomial] = {}
    for row, poly in rows.items():
        k = key(row)
        out[k] = out[k] + poly if k in out else poly
    return out


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
        # predicate -> the registered queries that mention it
        self._by_pred: dict[str, list[RegisteredQuery]] = {}

    @property
    def edge_to_result(self) -> dict:
        """Edge id -> the (query id, answer row) pairs whose polynomial
        uses it, one pair bare and more in a set."""
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

        subqueries: list[Subquery] = []
        if q.size >= 2:
            try:
                subqueries = generate_subqueries(q)
            except ValueError as exc:
                raise UnsupportedFeatureError(str(exc)) from exc
        stats = self._current_stats()
        roots: dict[tuple[int, int], PlanNode] = {}
        varmaps: dict[tuple[int, int], dict[str, int]] = {}
        anchors = {}
        for sq in subqueries:
            for ci, comp in enumerate(sq.components):
                root, varmap = merge_into_global(
                    self.plan, select_best_plan(comp, stats), stats
                )
                root.roots += 1
                roots[(sq.removed, ci)] = root
                varmaps[(sq.removed, ci)] = varmap
                anchors[(sq.removed, ci)] = _anchors(sq, ci, varmap)

        # the answer join root(k) ⋈ leaf(k): a subquery that keeps one
        # component always exists (remove a leaf of a spanning tree of
        # the patterns); a single-pattern query is its own leaf
        k = next((sq.removed for sq in subqueries if len(sq.components) == 1), 0)
        leaf, leaf_vm = merge_into_global(self.plan, [q.patterns[k]], stats)
        materialize_plan(self.plan, self.graph)
        # join rows hold the distinct projected variables, so the join
        # itself sums the derivations of each answer
        proj = list(dict.fromkeys(q.projection))
        root = probes = None
        if subqueries:
            root = roots[(k, 0)]
            order = proj + sorted(q.variables() - set(proj))
            slot = {v: i for i, v in enumerate(order)}
            rmap = {s: slot[v] for v, s in varmaps[(k, 0)].items()}
            lmap = {s: slot[v] for v, s in leaf_vm.items()}
            probes = (join_probe(rmap, lmap, len(proj)), join_probe(lmap, rmap, len(proj)))
            positions = tuple(proj.index(v) for v in q.projection)
        else:
            positions = tuple(leaf_vm[v] for v in q.projection)
        rq = RegisteredQuery(
            qid, q, roots, varmaps, anchors, leaf, root, probes, tuple_getter(positions)
        )

        self.answers.add(qid, self._answer_join(rq))
        rq.answers = self.answers.group(qid)
        self.queries[qid] = rq
        self._registered_forms.add(form)
        for pred in {p.predicate for p in q.patterns}:
            self._by_pred.setdefault(pred, []).append(rq)

        return RegistrationReceipt(
            query_id=qid,
            answers=[
                BindingRow(dict(zip(q.projection, row)), poly)
                for row, poly in rq.answers.items()
            ],
            subquery_count=len(subqueries),
            annotation_count=sum(
                len(roots[key].table) * len(a) for key, a in anchors.items()
            ),
        )

    def _current_stats(self):
        """Statistics snapshot, reused while the graph is unchanged
        (plans are never re-optimized after updates anyway)."""
        version = self.graph.mutations
        if self._stats_cache is None or self._stats_cache[0] != version:
            self._stats_cache = (version, compute_statistics(self.graph))
        return self._stats_cache[1]

    @staticmethod
    def _answer_join(rq: RegisteredQuery) -> dict[Row, Polynomial]:
        """rq's answers computed from the current plan tables."""
        rows = rq.leaf.table if rq.root is None else join_tables(rq.root, rq.leaf, rq.probes)
        return _project(rows, rq.project)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_triple(self, s: str, p: str, o: str) -> UpdateReport:
        """Insert a triple and maintain every query; if maintenance
        fails, the edge leaves the store again and the error propagates."""
        eid = self.graph.insert_triple(s, p, o)
        try:
            return self.handle_insertion(self.graph.edges[eid])
        except BaseException:
            self.graph.delete_edge(eid)
            raise

    def handle_insertion(self, e: Edge) -> UpdateReport:
        """Process one edge already present in the store.  Every delta is
        computed against the pre-insert tables before any table or index
        changes, so a failure while computing leaves the engine as it was."""
        report = UpdateReport(op="+", edge_id=e.id)
        self._stats_cache = None  # stale now; the next registration rebuilds it

        t0 = time.perf_counter()
        deltas = compute_insert_deltas(self.plan, self.graph, e)
        t1 = time.perf_counter()
        added: dict[int, dict[Row, Polynomial]] = {}
        for rq in self._by_pred.get(self.graph.predicate_name(e.predicate), ()):
            dl = deltas.get(rq.leaf)
            if rq.root is None:
                rows = dl
            else:
                rows = join_delta(rq.root, rq.leaf, rq.probes, deltas.get(rq.root), dl)
            if rows:
                added[rq.qid] = _project(rows, rq.project)
        t2 = time.perf_counter()
        for qid, rows in added.items():
            self.answers.add(qid, rows)
            answers = self.queries[qid].answers
            report.added[qid] = [(row, answers[row]) for row in rows]
        t3 = time.perf_counter()
        apply_insert_deltas(self.plan, deltas)
        t4 = time.perf_counter()

        report.response_time = t3 - t1
        report.maintenance_time = (t1 - t0) + (t4 - t3)
        return report

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
        prune its monomials, and drop whatever collapses to zero."""
        report = UpdateReport(op="-", edge_id=e.id)
        self._stats_cache = None

        t0 = time.perf_counter()
        for qid, d in self.answers.prune(e.id).items():
            if d.pruned:
                report.pruned[qid] = list(d.pruned.items())
            if d.removed:
                report.removed[qid] = list(d.removed)
        t1 = time.perf_counter()
        delta_delete(self.plan, e.id)
        t2 = time.perf_counter()

        report.response_time = t1 - t0
        report.maintenance_time = t2 - t1
        return report

    # ------------------------------------------------------------------
    # Auditing and introspection
    # ------------------------------------------------------------------

    def index_audit(self) -> list[str]:
        """Rebuild all inverted indexes, the store's and the plan's join
        probe indexes included, from first principles and diff them
        against the live ones, check that every stored polynomial is
        canonical, and recompute every query's answers from its answer
        join; an empty list means consistent."""
        problems = self.graph.audit()
        problems += [f"edge-to-result {p}" for p in self.answers.audit()]
        problems += [f"plan {p}" for p in self.plan.audit()]
        for qid, rq in self.queries.items():
            want, have = self._answer_join(rq), rq.answers
            problems += sorted(
                f"answer mismatch in query {qid} at {row}"
                for row in want.keys() | have.keys()
                if want.get(row) != have.get(row)
            )
        return problems

    def answers_of(self, qid: int) -> list[BindingRow]:
        rq = self.queries[qid]
        return [
            BindingRow(dict(zip(rq.query.projection, row)), poly)
            for row, poly in sorted(rq.answers.items())
        ]

    def all_annotations(self) -> list[Annotation]:
        """Every connection point as a record, in key order, read from
        the subquery root tables."""
        out = []
        for rq in self.queries.values():
            for (removed, ci), anchors in rq.anchors.items():
                varmap = rq.root_varmaps[(removed, ci)]
                for row, poly in rq.roots[(removed, ci)].table.items():
                    bindings = {v: row[s] for v, s in varmap.items()}
                    result = tuple(bindings[v] for v in rq.query.projection if v in bindings)
                    for slot, const, pred, direction in anchors:
                        vertex = self.graph.node(const) if slot is None else row[slot]
                        out.append(Annotation(
                            vertex, pred, direction, rq.qid, removed, ci,
                            result, bindings, poly,
                        ))
        return sorted(out, key=lambda a: a.key)
