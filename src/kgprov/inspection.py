"""Inspection: subqueries, connection points and the plan dump.

Nothing here runs on registration or on an update; the `dump` and
`register` commands and `Engine.all_annotations` read the engine
through it.

Removing one triple pattern from a query leaves a subquery, split into
variable-connected components and classified into four structural
types, which place the subquery's connection points.  A connection
point is a component's match waiting at a vertex for an edge with a
given label and direction.  Connection points are neither planned nor
stored: `connection_points` generates the one-pattern-removed
subqueries and evaluates every component from the store with
`evaluate_patterns` when asked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .evaluate import evaluate_patterns
from .provenance import Polynomial
from .query import QueryGraph, TriplePattern, Var, pattern_components

if TYPE_CHECKING:
    from .maintenance import Engine
    from .planner import GlobalPlan, PlanNode

OUT = "out"
IN = "in"


# --------------------------------------------------------------------------
# Subqueries
# --------------------------------------------------------------------------


class SubqueryType(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class DegenerateQueryError(Exception):
    """Raised for single-pattern queries, which have no subqueries."""


@dataclass
class Subquery:
    removed: int
    removed_pattern: TriplePattern
    # components ordered so that components[0] is SQ1 (the annotated side
    # for Type II); Type III keeps the subject-anchored component first.
    components: list[list[TriplePattern]]
    sq_type: SubqueryType
    # which component (index) contains the removed pattern's subject /
    # object variable; None when that endpoint is a constant or free
    subject_comp: int | None
    object_comp: int | None


def generate_subqueries(q: QueryGraph) -> list[Subquery]:
    """One subquery per removed ordinal; requires n >= 2 and variable
    connectivity of the parent (constants never link components)."""
    if q.size < 2:
        raise DegenerateQueryError("single-pattern queries have no subqueries")
    out = []
    for removed in range(q.size):
        kept = [p for p in q.patterns if p.ordinal != removed]
        t = q.patterns[removed]
        comps = pattern_components(kept)
        if len(comps) > 2:
            raise ValueError(
                "pattern removal split the query into more than two "
                "components; register only variable-connected queries"
            )

        def comp_of(term) -> int | None:
            """The component that mentions a variable endpoint."""
            if isinstance(term, Var):
                for i, comp in enumerate(comps):
                    if any(term.name in p.variables() for p in comp):
                        return i
            return None

        s_comp, o_comp = comp_of(t.subject), comp_of(t.object)
        if len(comps) == 1:
            # an endpoint node survives the removal if its variable still
            # occurs, or if it is a constant mentioned by another pattern
            kept_consts = {x for p in kept for x in (p.subject, p.object) if not isinstance(x, Var)}
            survives = [
                comp is not None if isinstance(x, Var) else x in kept_consts
                for x, comp in ((t.subject, s_comp), (t.object, o_comp))
            ]
            sq_type = SubqueryType.IV if all(survives) else SubqueryType.I
        else:
            sizes = sorted(len(c) for c in comps)
            if sizes[0] == 1 and sizes[1] >= 2:
                sq_type = SubqueryType.II
                if len(comps[0]) == 1:  # SQ1 is the multi-pattern side
                    comps = [comps[1], comps[0]]
                    s_comp = None if s_comp is None else 1 - s_comp
                    o_comp = None if o_comp is None else 1 - o_comp
            else:
                sq_type = SubqueryType.III
                if s_comp == 1:  # subject-anchored component first
                    comps = [comps[1], comps[0]]
                    s_comp, o_comp = 0, 1
        if len(comps) == 2 and (s_comp is None or o_comp is None or s_comp == o_comp):
            raise ValueError(
                "two components must anchor the removed pattern's two "
                "endpoint variables"
            )
        out.append(
            Subquery(
                removed=removed,
                removed_pattern=t,
                components=comps,
                sq_type=sq_type,
                subject_comp=s_comp,
                object_comp=o_comp,
            )
        )
    return out


# --------------------------------------------------------------------------
# Connection points
# --------------------------------------------------------------------------


@dataclass
class Annotation:
    """A connection point.

    A potential match waits at `node` for an edge with label `exp_rel`
    leaving (`out`) or arriving (`in`); `bindings` are the full variable
    bindings of the matched component, `result` the fragment of the
    answer it contributes, and `prov` the provenance polynomial of the
    component's match.
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


def _anchors(sq: Subquery, ci: int) -> list[tuple[Var | str, str]]:
    """Where each match of component ci waits: (endpoint, direction) for
    every endpoint of the removed pattern that the component mentions, a
    variable or a constant one of its patterns names, `out` at the
    subject and `in` at the object.  Type II's lone far pattern waits
    nowhere."""
    if sq.sq_type is SubqueryType.II and ci == 1:
        return []
    t = sq.removed_pattern
    terms = {x for p in sq.components[ci] for x in (p.subject, p.object)}
    return [(x, d) for x, d in ((t.subject, OUT), (t.object, IN)) if x in terms]


def connection_points(engine: Engine, qid: int | None = None) -> list[Annotation]:
    """Every connection point of the engine's queries (of query `qid`
    alone, if given), in key order.  Each subquery component is
    evaluated from the store on every call."""
    out = []
    queries = engine.queries.values() if qid is None else [engine.queries[qid]]
    for rq in queries:
        q = rq.query
        if q.size < 2:
            continue
        for sq in generate_subqueries(q):
            for ci, comp in enumerate(sq.components):
                anchors = _anchors(sq, ci)
                if not anchors:
                    continue
                names = sorted(set().union(*(p.variables() for p in comp)))
                for row, poly in evaluate_patterns(comp, engine.graph, names).items():
                    bindings = dict(zip(names, row))
                    result = tuple(bindings[v] for v in q.projection if v in bindings)
                    for x, direction in anchors:
                        vertex = bindings[x.name] if isinstance(x, Var) else engine.graph.node(x)
                        out.append(Annotation(
                            vertex, sq.removed_pattern.predicate, direction, rq.qid,
                            sq.removed, ci, result, bindings, poly,
                        ))
    return sorted(out, key=lambda a: a.key)


# --------------------------------------------------------------------------
# Plan dump
# --------------------------------------------------------------------------


def coverage(plan: GlobalPlan) -> float | None:
    """Non-leaf node count per unique predicate; None when no predicates
    are planned (the metric is undefined on an empty plan)."""
    preds = set().union(*(n.predicates for n in plan.nodes.values())) if plan.nodes else set()
    if not preds:
        return None
    non_leaf = sum(1 for n in plan.nodes.values() if not n.is_leaf)
    return non_leaf / len(preds)


def plan_dump(plan: GlobalPlan, roots: Iterable[PlanNode | None]) -> list[dict]:
    """JSON-ready description of every node, in creation order, which
    puts children first (`GlobalPlan.audit` checks it), with how many of
    the answer joins' `roots` are the node."""
    rooted = Counter(roots)
    return [
        {
            "expr": node.label(),
            "estimate": node.estimate,
            "children": [plan.nodes[ck].label() for ck in node.children or ()],
            "rows": len(node.table),
            "roots": rooted[node],
        }
        for node in plan.nodes.values()
    ]
