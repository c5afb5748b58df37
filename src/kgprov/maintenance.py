"""Standing-query maintenance engine.

A query's answers are the projection of one join of two plan nodes: the
leaf of a pattern k whose removal leaves the other patterns
variable-connected, and the root of those other patterns.  Registration
merges only their join chain and that leaf into the shared global plan,
and materializes what is new; if any of that fails, the nodes it created
are dropped again, so a failed registration leaves the engine as it
was.  After its last step that can fail, it builds every key index that
updates probe, so no update builds one.  Each edge insertion is answered
by the plan's delta rule applied to the join, and each deletion by
pruning the polynomials of the answers and the plan tables, two
provenance-indexed tables -- no query is ever re-executed from scratch.
A plan leaf keeps no table: the answer join, and a single-pattern
query's answers, read it from the store through its `LeafView`, so the
store's own update is all it needs.

Connection points, the subqueries that place them and the plan dump
are in `kgprov.inspection`; registration and updates never call it.
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
from .inspection import connection_points
from .planner import (
    GlobalPlan,
    JoinProbe,
    PlanNode,
    StatsCatalog,
    compute_statistics,
    join_probe,
    merge_into_global,
    select_best_plan,
)
from .provenance import Polynomial, ProvTable, Row, add_to, summed, tuple_getter
from .query import (
    QueryError,
    QueryGraph,
    UnsupportedFeatureError,
    canonicalize,
    variable_connected,
)
from .store import Edge, KnowledgeGraph


@dataclass
class RegistrationReceipt:
    query_id: int
    answers: list[BindingRow]
    subquery_count: int


@dataclass(slots=True)
class UpdateReport:
    """One update's effect on the answers, by query id: `added` lists
    (projected row, current polynomial) pairs, `removed` projected rows
    and `pruned` (projected row, surviving polynomial) pairs.  Slotted
    and built positionally, because every update makes one."""

    op: str
    edge_id: int
    added: dict[int, list] = field(default_factory=dict)
    removed: dict[int, list] = field(default_factory=dict)
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
    # the answer join root ⋈ leaf: `leaf` is the plan leaf of a pattern k
    # whose removal leaves the rest variable-connected, `root` the rest's
    # root (None for a single-pattern query, whose answers are leaf rows)
    leaf: PlanNode
    root: PlanNode | None
    # (root rows probing the leaf, leaf rows probing the root); a join
    # row holds the query's distinct projected variables
    probes: tuple[JoinProbe, JoinProbe] | None
    # join row (leaf row for a single-pattern query) -> answer row
    project: Callable[[Row], Row]
    # projected row -> polynomial; this query's group of Engine.answers
    answers: dict[Row, Polynomial] = field(default_factory=dict)


def _project(rows: dict[Row, Polynomial], key: Callable[[Row], Row]) -> dict[Row, Polynomial]:
    """Sum the polynomials of rows that share a projected key."""
    out: dict[Row, Polynomial] = {}
    for row, poly in rows.items():
        add_to(out, key(row), poly)
    return summed(out)


class Engine:
    """One graph, many standing queries; all updates flow through here."""

    def __init__(self, graph: KnowledgeGraph | None = None):
        self.graph = graph if graph is not None else KnowledgeGraph()
        self.plan = GlobalPlan()
        self.queries: dict[int, RegisteredQuery] = {}
        self._next_qid = 1
        self._registered_forms: set = set()
        self._stats_cache: StatsCatalog | None = None
        # every query's answers, grouped by query id
        self.answers = ProvTable()
        # predicate -> the registered queries that mention it
        self._by_pred: dict[str, list[RegisteredQuery]] = {}

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
        cf = canonicalize(q.patterns, q.projection)
        form = (cf.key, cf.projection)
        if form in self._registered_forms:
            raise QueryError("query already registered")

        stats = self._current_stats()

        # the answer join root(k) ⋈ leaf(k), with k the first pattern
        # whose removal leaves the rest variable-connected (a leaf of a
        # spanning tree of the patterns always qualifies); a
        # single-pattern query is its own leaf.  Only these two enter the
        # plan; all_annotations evaluates connection points on demand.
        for k in range(q.size):
            rest = q.patterns[:k] + q.patterns[k + 1:]
            if variable_connected(rest):
                break
        qid, size = self._next_qid, len(self.plan.nodes)
        try:
            root = probes = None
            if rest:
                root, root_vm = merge_into_global(self.plan, select_best_plan(rest, stats), stats)
            leaf, leaf_vm = merge_into_global(self.plan, [q.patterns[k]], stats)
            materialize_plan(self.plan, self.graph, size)
            # join rows hold the distinct projected variables, so the
            # join itself sums the derivations of each answer
            proj = list(dict.fromkeys(q.projection))
            if root is not None:
                order = proj + sorted(q.variables() - set(proj))
                slot = {v: i for i, v in enumerate(order)}
                rmap = {s: slot[v] for v, s in root_vm.items()}
                lmap = {s: slot[v] for v, s in leaf_vm.items()}
                probes = (join_probe(rmap, lmap, len(proj)), join_probe(lmap, rmap, len(proj)))
                positions = tuple(proj.index(v) for v in q.projection)
            else:
                positions = tuple(leaf_vm[v] for v in q.projection)
            rq = RegisteredQuery(qid, q, leaf, root, probes, tuple_getter(positions))
            self.answers.add(qid, self._answer_join(rq))
        except BaseException:
            # drop the nodes this registration created, with their rows
            # and edge entries, so that a failure leaves the engine as it was
            self.plan.truncate(size)
            self.answers.drop(qid)
            raise

        # build every key index a delta will probe now that nothing can
        # fail: no update builds one, and a failure leaves none
        self.plan.index_probes(size)
        if root is not None and not root.is_leaf:
            self.plan.rows.index(root, probes[1].o_slots)
        self._next_qid += 1
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
            subquery_count=q.size if q.size > 1 else 0,
        )

    def _current_stats(self) -> StatsCatalog:
        """Statistics of the current graph, one catalog reused while the
        graph is unchanged (plans are never re-optimized after updates
        anyway)."""
        if self._stats_cache is None or self._stats_cache.version != self.graph.mutations:
            self._stats_cache = compute_statistics(self.graph)
        return self._stats_cache

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
        eid = e.id
        report = UpdateReport("+", eid, {}, {}, {})
        self._stats_cache = None  # stale now; the next registration rebuilds it
        # a predicate has plan nodes exactly when some query mentions it
        affected = self._by_pred.get(self.graph.predicate_name(e.predicate))
        if not affected:
            return report

        t0 = time.perf_counter()
        deltas = compute_insert_deltas(self.plan, self.graph, e)
        t1 = time.perf_counter()
        added: dict[int, dict[Row, Polynomial]] = {}
        for rq in affected:
            dl = deltas.get(rq.leaf)
            if rq.root is None:
                rows = dl
            else:
                rows = join_delta(rq.root, rq.leaf, rq.probes, deltas.get(rq.root), dl, eid)
            if rows:
                added[rq.qid] = _project(rows, rq.project)
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
        """Delete an edge and maintain every query; if maintenance fails,
        the edge returns to the store under its id and the error
        propagates."""
        e = self.graph.delete_edge(edge_id)
        if e is None:
            return None
        try:
            return self.handle_deletion(e)
        except BaseException:
            self.graph.put_edge(e)
            raise

    def handle_deletion(self, e: Edge) -> UpdateReport:
        """Filter-and-refine: look up everything that used the edge,
        prune its monomials, and drop whatever collapses to zero.  The
        answers' prune is computed first and committed last, after the
        plan's, so a failure leaves every table as it was.  An edge that
        no answer and no plan row mentions changes nothing more."""
        eid = e.id
        report = UpdateReport("-", eid, {}, {}, {})
        self._stats_cache = None
        if eid not in self.answers.by_edge and eid not in self.plan.rows.by_edge:
            return report

        t0 = time.perf_counter()
        cut = self.answers.cut(eid)
        t1 = time.perf_counter()
        delta_delete(self.plan, eid)
        t2 = time.perf_counter()
        if cut:
            self.answers.commit(eid, cut)
        for qid, d in cut.items():
            if d.pruned:
                report.pruned[qid] = list(d.pruned.items())
            if d.removed:
                report.removed[qid] = list(d.removed)
        t3 = time.perf_counter()

        report.response_time = (t1 - t0) + (t3 - t2)
        report.maintenance_time = t2 - t1
        return report

    # ------------------------------------------------------------------
    # Auditing and introspection
    # ------------------------------------------------------------------

    def index_audit(self) -> list[str]:
        """Rebuild all inverted indexes, the store's and the plan's join
        probe indexes included, from first principles and diff them
        against the live ones, check that every stored polynomial is
        canonical, that every row group belongs to a plan node or a
        registered query, that no leaf holds a group, edge entries or a
        probe index, that every plan node feeds some answer join, that
        every query's `leaf` is a plan leaf, and recompute every query's
        answers from its answer join; an empty list means consistent."""
        problems = self.graph.audit()
        problems += [f"edge-to-result {p}" for p in self.answers.audit()]
        problems += [
            f"answers of unregistered query {q}" for q in self.answers.groups if q not in self.queries
        ]
        problems += [f"plan {p}" for p in self.plan.audit()]
        joins = [n for rq in self.queries.values() for n in (rq.root, rq.leaf) if n is not None]
        live: set[PlanNode] = set()
        while joins:
            node = joins.pop()
            if node not in live:
                live.add(node)
                joins += [self.plan.nodes[k] for k in node.children or () if k in self.plan.nodes]
        problems += [
            f"plan node {node!r} feeds no answer join"
            for node in self.plan.nodes.values() if node not in live
        ]
        for qid, rq in self.queries.items():
            if not rq.leaf.is_leaf:  # the answer join probes its leaf in the store
                problems.append(f"query {qid} joins {rq.leaf!r}, which is not a leaf")
                continue
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

    def all_annotations(self, qid: int | None = None) -> list:
        """`inspection.connection_points` of this engine, for inspection."""
        return connection_points(self, qid)
