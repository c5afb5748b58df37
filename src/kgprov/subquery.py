"""Subquery generation: every (n-1)-pattern query obtained by removing one
triple pattern, split into variable-connected components and classified
into four structural types.  The types place each subquery's connection
points.  Only `Engine.all_annotations` generates subqueries, for
inspection; registration needs none, since it picks its answer join's
pattern k by a connectivity test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .query import QueryGraph, TriplePattern, Var, variable_components


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
        comps = variable_components(kept)
        if len(comps) > 2:
            raise ValueError(
                "pattern removal split the query into more than two "
                "components; register only variable-connected queries"
            )
        svar = t.subject.name if isinstance(t.subject, Var) else None
        ovar = t.object.name if isinstance(t.object, Var) else None

        def comp_of(var: str | None) -> int | None:
            if var is None:
                return None
            for i, comp in enumerate(comps):
                if any(var in p.variables() for p in comp):
                    return i
            return None

        s_comp = comp_of(svar)
        o_comp = comp_of(ovar)
        if len(comps) == 1:
            # an endpoint node survives the removal if its variable still
            # occurs, or if it is a constant mentioned by another pattern
            kept_consts = {
                term
                for p in kept
                for term in (p.subject, p.object)
                if not isinstance(term, Var)
            }
            def survives(term, comp_idx):
                if isinstance(term, Var):
                    return comp_idx is not None
                return term in kept_consts

            if survives(t.subject, s_comp) and survives(t.object, o_comp):
                sq_type = SubqueryType.IV
            else:
                sq_type = SubqueryType.I
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

