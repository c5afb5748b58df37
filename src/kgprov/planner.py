"""Join planning for standing-query subqueries.

Each subquery component gets an AND-OR tree enumerating every derivation
through binary joins; a greedy bottom-up pass scores intermediate
expressions with characteristic-pair statistics and picks one local
plan, and local plans are merged into a single shared global DAG so an
expression common to several subqueries is materialized once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .provenance import Polynomial, ProvTable
from .query import CanonicalKey, TriplePattern, Var, canonicalize
from .store import KnowledgeGraph

# Components larger than this get a cheap left-deep tree instead of the
# exhaustive derivation enumeration (which is exponential in size).
PLAN_SIZE_CAP = 9


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
# AND-OR trees and local plan selection
# --------------------------------------------------------------------------

Subset = frozenset[int]
Split = tuple[Subset, Subset]


@dataclass
class AndOrTree:
    """OR nodes are connected pattern subsets (keyed by ordinal set);
    each subset's splits are its AND children: unordered binary
    partitions into connected, variable-sharing halves."""

    patterns: list[TriplePattern]
    splits: dict[Subset, list[Split]]
    root: Subset
    exhaustive: bool = True

    def or_nodes(self) -> list[Subset]:
        return list(self.splits)


def build_and_or_tree(patterns: Sequence[TriplePattern]) -> AndOrTree:
    """Enumerate every connected subset and every binary derivation.

    Components above PLAN_SIZE_CAP fall back to a single left-deep
    chain (flagged `exhaustive=False`)."""
    pats = sorted(patterns, key=lambda p: p.ordinal)
    root = frozenset(p.ordinal for p in pats)
    varsets = {p.ordinal: p.variables() for p in pats}
    if len(pats) > PLAN_SIZE_CAP:
        return _left_deep_tree(pats, varsets, root)

    connected: set[Subset] = {frozenset((p.ordinal,)) for p in pats}
    frontier = list(connected)
    while frontier:
        s = frontier.pop()
        svars = set().union(*(varsets[i] for i in s))
        for p in pats:
            if p.ordinal in s or not (varsets[p.ordinal] & svars):
                continue
            grown = s | {p.ordinal}
            if grown not in connected:
                connected.add(grown)
                frontier.append(grown)

    splits: dict[Subset, list[Split]] = {s: [] for s in connected}
    for s in connected:
        if len(s) < 2:
            continue
        seen: set[Subset] = set()
        for a in connected:
            if not a < s:
                continue
            b = s - a
            if b in seen or b not in connected:
                continue
            seen.add(a)
            avars = set().union(*(varsets[i] for i in a))
            bvars = set().union(*(varsets[i] for i in b))
            if avars & bvars:
                splits[s].append((a, b) if min(a) < min(b) else (b, a))
        splits[s].sort(key=lambda ab: (sorted(ab[0]), sorted(ab[1])))
    return AndOrTree(pats, splits, root)


def _left_deep_tree(pats, varsets, root) -> AndOrTree:
    splits: dict[Subset, list[Split]] = {
        frozenset((p.ordinal,)): [] for p in pats
    }
    remaining = {p.ordinal for p in pats}
    first = min(remaining)
    chain = frozenset((first,))
    remaining.discard(first)
    chain_vars = set(varsets[first])
    while remaining:
        nxt = min(
            i for i in remaining if varsets[i] & chain_vars
        )
        grown = chain | {nxt}
        splits[grown] = [(chain, frozenset((nxt,)))]
        chain = grown
        chain_vars |= varsets[nxt]
        remaining.discard(nxt)
    return AndOrTree(pats, splits, root, exhaustive=False)


@dataclass
class LocalPlan:
    """One chosen derivation per expression: leaves map to None, joins
    to their (left, right) child subsets."""

    patterns: list[TriplePattern]
    root: Subset
    derivations: dict[Subset, Split | None]

    def subset_patterns(self, s: Subset) -> list[TriplePattern]:
        return [p for p in self.patterns if p.ordinal in s]

    def nodes_top_down(self) -> list[Subset]:
        out: list[Subset] = []
        queue = [self.root]
        while queue:
            s = queue.pop(0)
            out.append(s)
            d = self.derivations[s]
            if d is not None:
                queue.extend(d)
        return out


def select_best_plan(tree: AndOrTree, stats: StatsCatalog) -> LocalPlan:
    """Greedy bottom-up chain: at each expression size pick the
    lowest-estimate OR node derivable from the previous pick, breaking
    ties by canonical form.  Deterministic given (tree, stats)."""
    n = len(tree.patterns)
    if n == 1:
        return LocalPlan(tree.patterns, tree.root, {tree.root: None})

    est_cache: dict[Subset, float] = {}
    canon_cache: dict[Subset, CanonicalKey] = {}

    def est(s: Subset) -> float:
        if s not in est_cache:
            pats = [p for p in tree.patterns if p.ordinal in s]
            est_cache[s] = estimate_cardinality(pats, stats)
        return est_cache[s]

    def canon(s: Subset) -> CanonicalKey:
        if s not in canon_cache:
            pats = [p for p in tree.patterns if p.ordinal in s]
            canon_cache[s] = canonicalize(pats).key
        return canon_cache[s]

    by_size: dict[int, list[Subset]] = {}
    for s in tree.splits:
        by_size.setdefault(len(s), []).append(s)

    derivations: dict[Subset, Split | None] = {}
    head: Subset | None = None
    for level in range(2, n + 1):
        best: tuple | None = None
        for s in by_size.get(level, ()):
            for a, b in tree.splits[s]:
                if head is not None and head not in (a, b):
                    continue
                sibling = b if a == head else a if b == head else None
                if head is None:
                    # level 2: both sides are leaves; orient by canon
                    left, right = (a, b)
                else:
                    left, right = head, sibling
                rank = (est(s), canon(s), canon(right))
                if best is None or rank < best[0]:
                    best = (rank, s, left, right)
        if best is None:
            raise RuntimeError("derivation chain dead-ended; tree incomplete")
        _, s, left, right = best
        if head is None:
            derivations[left] = None
        derivations[right] = None
        derivations[s] = (left, right)
        head = s
    return LocalPlan(tree.patterns, tree.root, derivations)


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


@dataclass(frozen=True, eq=False)
class RootRef:
    """Ties a global-plan root back to one registered subquery component;
    varmap sends the component's variable names to canonical indices.
    Compared and hashed by identity: each registration makes its own."""

    query_id: int
    removed: int
    component: int
    varmap: tuple[tuple[str, int], ...]

    def var_to_slot(self) -> dict[str, int]:
        return dict(self.varmap)


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
    o_key: Callable[[tuple], tuple]
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
    return JoinProbe(
        o_slots, tuple_getter(d_slots), tuple_getter(o_slots), tuple_getter(gather)
    )


def slot_index(
    rows: Iterable[tuple[int, ...]], slots: tuple[int, ...]
) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Hash index of rows on a slot subset: key tuple -> rows."""
    idx: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for row in rows:
        idx.setdefault(tuple(row[s] for s in slots), set()).add(row)
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
    roots: list[RootRef] = field(default_factory=list)
    # join nodes: (left child's rows probing the right, right's probing
    # the left)
    probes: tuple[JoinProbe, JoinProbe] | None = None
    # lazily built hash indexes: slot subset -> key tuple -> rows
    indexes: dict[tuple[int, ...], dict[tuple[int, ...], set[tuple[int, ...]]]] = field(
        default_factory=dict
    )

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
    def edge_rows(self) -> dict[int, set[tuple[PlanNode, tuple[int, ...]]]]:
        """Edge id -> (node, row) pairs whose polynomial mentions it."""
        return self.rows.by_edge

    def audit(self) -> list[str]:
        """The row table's audit, plus every join-probe index that
        differs from one rebuilt from its node's table."""
        problems = self.rows.audit()
        for node in self.nodes.values():
            for slots, idx in node.indexes.items():
                if idx != slot_index(node.table, slots):
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
    plan: GlobalPlan,
    local: LocalPlan,
    stats: StatsCatalog,
    root_ref: RootRef | None = None,
) -> PlanNode:
    """Install a local plan, reusing any node whose canonical form is
    already present (its existing derivation wins; descent stops there).
    Each new node is queued on `plan.pending` after its children.
    Returns the root node; `root_ref`, if given, is registered on it.
    """

    def add(subset: Subset) -> tuple[CanonicalKey, dict[str, int]]:
        pats = local.subset_patterns(subset)
        cf = canonicalize(pats)
        if cf.key in plan.nodes:
            return cf.key, cf.varmap
        deriv = local.derivations[subset]
        num_vars = len(set(cf.varmap.values()))
        children = probes = None
        if deriv is not None:
            lkey, lvm = add(deriv[0])
            rkey, rvm = add(deriv[1])
            lmap = {slot: cf.varmap[name] for name, slot in lvm.items()}
            rmap = {slot: cf.varmap[name] for name, slot in rvm.items()}
            children = ((lkey, lmap), (rkey, rmap))
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
        return cf.key, cf.varmap

    root_key, root_varmap = add(local.root)
    root = plan.nodes[root_key]
    if root_ref is not None:
        ref = RootRef(
            root_ref.query_id,
            root_ref.removed,
            root_ref.component,
            tuple(sorted(root_varmap.items())),
        )
        root.roots.append(ref)
    return root


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
                "roots": len(node.roots),
            }
        )
    return out
