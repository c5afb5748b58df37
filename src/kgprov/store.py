"""In-memory directed labeled multigraph with unique edge identifiers.

Vertices and predicate labels are interned to dense integers; triples are
indexed three ways: subject -> {predicate -> bucket}, object ->
{predicate -> bucket} and predicate -> bucket.  A pattern that binds
both endpoints filters the smaller of two buckets by the other endpoint.
Edge identifiers are assigned by a monotone counter and never reused,
so provenance symbols stay unambiguous across deletions.

Every index here and in the provenance and plan layers keeps one bucket
invariant: a key with one entry holds it bare, a `set` holds two or
more, and an empty bucket is no key at all.  The two endpoint indexes
add one rule: an endpoint with no edges is no key either.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, NamedTuple


class Edge(NamedTuple):
    id: int
    subject: int
    predicate: int
    object: int


def bucket_add(index: dict, key: Hashable, entry: Hashable) -> None:
    """Add `entry` to the bucket at `key` (no change if present)."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = entry
    elif bucket.__class__ is set:
        bucket.add(entry)
    elif bucket != entry:
        index[key] = {bucket, entry}


def bucket_discard(index: dict, key: Hashable, entry: Hashable) -> None:
    """Remove `entry` from the bucket at `key` if it is there."""
    bucket = index.get(key)
    if bucket.__class__ is set:
        bucket.discard(entry)
        if len(bucket) == 1:
            index[key] = bucket.pop()
    elif bucket == entry:  # never true of an absent key's None
        del index[key]


def bucket_entries(bucket) -> Collection:
    """The entries of a present bucket; a set is returned live."""
    return bucket if bucket.__class__ is set else (bucket,)


def bucket_faults(index: dict, want: dict[Hashable, set]) -> tuple[list, list]:
    """Audit an index against the entry set each key should hold:
    returns the (key, size) of every set bucket of fewer than two
    entries, and the keys whose entries differ from `want`, in key
    order."""
    small, have = [], {}
    for key, bucket in index.items():
        if bucket.__class__ is set:
            have[key] = bucket
            if len(bucket) < 2:
                small.append((key, len(bucket)))
        else:
            have[key] = {bucket}
    mismatched = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
    return sorted(small), mismatched


class Interner:
    """Bidirectional name <-> dense integer id dictionary."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def get(self, name: str) -> int | None:
        return self._ids.get(name)

    def name(self, i: int) -> str:
        return self._names[i]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class KnowledgeGraph:
    """Directed labeled multigraph; duplicate triples get distinct ids."""

    def __init__(self):
        self.nodes = Interner()
        self.predicates = Interner()
        self.edges: dict[int, Edge] = {}
        self._next_id = 1
        # bumped by every insert and every delete that removes an edge
        self.mutations = 0
        # triple-pattern indexes down to a bucket of edge ids: one edge is
        # the bare int id, two or more a set
        self._out: dict[int, dict[int, int | set[int]]] = {}  # s -> p -> bucket
        self._in: dict[int, dict[int, int | set[int]]] = {}  # o -> p -> bucket
        self._by_p: dict[int, int | set[int]] = {}

    # --- interning helpers ---

    def node(self, name: str) -> int:
        return self.nodes.intern(name)

    def predicate(self, name: str) -> int:
        return self.predicates.intern(name)

    def node_name(self, i: int) -> str:
        return self.nodes.name(i)

    def predicate_name(self, i: int) -> str:
        return self.predicates.name(i)

    # --- mutation ---

    def insert_edge(self, subject: int, predicate: int, obj: int) -> int:
        eid = self._next_id
        self._next_id += 1
        self.put_edge(Edge(eid, subject, predicate, obj))
        return eid

    def put_edge(self, edge: Edge) -> None:
        """Store and index an edge under its own id: a new one, or a
        deleted one put back."""
        self.mutations += 1
        eid, s, p, o = edge
        self.edges[eid] = edge
        bucket_add(self._out.setdefault(s, {}), p, eid)
        bucket_add(self._in.setdefault(o, {}), p, eid)
        bucket_add(self._by_p, p, eid)

    def insert_triple(self, subject: str, predicate: str, obj: str) -> int:
        """Insert an edge by names and return its id.  A name seen for
        the first time gets the next dense id of its interner, the
        subject's before the object's."""
        nodes, preds = self.nodes, self.predicates
        # `intern` runs on a miss and for the name with id 0, and gives
        # the right id either way
        s = nodes._ids.get(subject) or nodes.intern(subject)
        o = nodes._ids.get(obj) or nodes.intern(obj)
        p = preds._ids.get(predicate) or preds.intern(predicate)
        eid = self._next_id
        self._next_id = eid + 1
        self.put_edge(Edge(eid, s, p, o))
        return eid

    def delete_edge(self, eid: int) -> Edge | None:
        edge = self.edges.pop(eid, None)
        if edge is None:
            return None
        self.mutations += 1
        _, s, p, o = edge
        inner = self._out[s]
        bucket_discard(inner, p, eid)
        if not inner:
            del self._out[s]
        inner = self._in[o]
        bucket_discard(inner, p, eid)
        if not inner:
            del self._in[o]
        bucket_discard(self._by_p, p, eid)
        return edge

    # --- access paths ---

    def lookup_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Collection[int]:
        """Edge ids matching the pattern; None positions are wildcards.

        `(s, p)`, `(p, o)` and `p` alone read one bucket: two or more ids
        come as the live set, which the caller must not mutate, one id as
        a 1-tuple and none as an empty tuple.  Every other pattern gives
        a fresh collection: with both endpoints bound, the smaller of the
        two buckets of each predicate they share is filtered by the other
        endpoint; `s` or `o` alone gathers the endpoint's buckets; an
        all-wildcard pattern gives a set of every id."""
        if s is not None and o is not None:
            by_s, by_o = self._out.get(s), self._in.get(o)
            if by_s is None or by_o is None:
                return ()
            edges, found = self.edges, []
            for q in (p,) if p is not None else by_s.keys() & by_o.keys():
                bs, bo = by_s.get(q), by_o.get(q)
                if bs is None or bo is None:
                    continue
                if bs.__class__ is not set or (bo.__class__ is set and len(bs) <= len(bo)):
                    found += [i for i in bucket_entries(bs) if edges[i].object == o]
                else:
                    found += [i for i in bucket_entries(bo) if edges[i].subject == s]
            return tuple(found)
        if s is not None or o is not None:
            inner = self._out.get(s) if o is None else self._in.get(o)
            if inner is None:
                return ()
            if p is None:
                return tuple(i for bucket in inner.values() for i in bucket_entries(bucket))
            bucket = inner.get(p)
        elif p is not None:
            bucket = self._by_p.get(p)
        else:
            return set(self.edges)
        return () if bucket is None else bucket_entries(bucket)

    def endpoint_index(self, subject: bool) -> dict:
        """The live subject index, or the object one, endpoint ->
        {predicate -> bucket of edge ids}, for a caller that probes it
        once per row with two `get`s; it must not mutate it."""
        return self._out if subject else self._in

    # --- consistency ---

    def audit(self) -> list[str]:
        """Rebuild the indexes from `edges` and diff them against the
        live ones, the subject index flattened to (s, p) keys and the
        object index to (p, o) keys; flag every set bucket of fewer than
        two ids and every endpoint left with no edges.  An empty list
        means consistent."""
        want: dict[str, dict] = {"sp": {}, "po": {}, "p": {}}
        for eid, s, p, o in self.edges.values():
            for name, key in (("sp", (s, p)), ("po", (p, o)), ("p", p)):
                want[name].setdefault(key, set()).add(eid)
        have, problems = {"sp": {}, "po": {}, "p": self._by_p}, []
        for name, index in (("sp", self._out), ("po", self._in)):
            for v, inner in index.items():
                if not inner:
                    problems.append(f"store {name} endpoint {v} with no edges")
                for p, bucket in inner.items():
                    have[name][(v, p) if name == "sp" else (p, v)] = bucket
        for name, index in have.items():
            small, mismatched = bucket_faults(index, want[name])
            problems += [f"store {name} set bucket of {n} at {key}" for key, n in small]
            problems += [f"store {name} index mismatch at {key}" for key in mismatched]
        return problems

    # --- summary ---

    @property
    def next_edge_id(self) -> int:
        """Id the next inserted edge will receive (ids are never reused)."""
        return self._next_id

    @property
    def num_vertices(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)


class LoadError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _strip_angles(token: str) -> str:
    if token.startswith("<") and token.endswith(">"):
        return token[1:-1]
    return token


def load_ntriples(lines: Iterable[str], graph: KnowledgeGraph | None = None) -> KnowledgeGraph:
    """Load a whitespace-separated `<s> <p> <o> .` triple file.

    Comment lines starting with `#` and blank lines are ignored; edge ids
    are assigned in file order.
    """
    g = graph if graph is not None else KnowledgeGraph()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens and tokens[-1] == ".":
            tokens = tokens[:-1]
        elif tokens and tokens[-1].endswith("."):
            tokens[-1] = tokens[-1][:-1]
        if len(tokens) != 3:
            raise LoadError(line_no, f"expected `<s> <p> <o> .`, got {line!r}")
        s, p, o = (_strip_angles(t) for t in tokens)
        g.insert_triple(s, p, o)
    return g


def load_ntriples_file(path: str, graph: KnowledgeGraph | None = None) -> KnowledgeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ntriples(fh, graph)
