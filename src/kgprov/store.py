"""In-memory directed labeled multigraph with unique edge identifiers.

Vertices and predicate labels are interned to dense integers; triples are
indexed by subject, predicate, object, (subject, predicate) and
(predicate, object).  A pattern that binds both endpoints filters the
smaller of two buckets by the other endpoint.  Edge identifiers are
assigned by a monotone counter and never reused, so provenance symbols
stay unambiguous across deletions.

Every index here and in the provenance and plan layers keeps one bucket
invariant: a key with one entry holds it bare, a `set` holds two or
more, and an empty bucket is no key at all.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Iterator, NamedTuple


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
        # triple-pattern indexes, key -> bucket of edge ids: one edge is
        # the bare int id, two or more a set
        self._by_sp: dict[tuple[int, int], int | set[int]] = {}
        self._by_po: dict[tuple[int, int], int | set[int]] = {}
        self._by_s: dict[int, int | set[int]] = {}
        self._by_p: dict[int, int | set[int]] = {}
        self._by_o: dict[int, int | set[int]] = {}

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

    def _buckets(self, s: int, p: int, o: int) -> tuple:
        """(index, key) of the five buckets an (s, p, o) edge sits in."""
        return (
            (self._by_sp, (s, p)),
            (self._by_po, (p, o)),
            (self._by_s, s),
            (self._by_p, p),
            (self._by_o, o),
        )

    def insert_edge(self, subject: int, predicate: int, obj: int) -> int:
        eid = self._next_id
        self._next_id += 1
        self.mutations += 1
        self.edges[eid] = Edge(eid, subject, predicate, obj)
        for index, key in self._buckets(subject, predicate, obj):
            bucket_add(index, key, eid)
        return eid

    def insert_triple(self, subject: str, predicate: str, obj: str) -> int:
        return self.insert_edge(
            self.node(subject), self.predicate(predicate), self.node(obj)
        )

    def delete_edge(self, eid: int) -> Edge | None:
        edge = self.edges.pop(eid, None)
        if edge is None:
            return None
        self.mutations += 1
        for index, key in self._buckets(edge.subject, edge.predicate, edge.object):
            bucket_discard(index, key, eid)
        return edge

    # --- access paths ---

    def lookup_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Collection[int]:
        """Edge ids matching the pattern; None positions are wildcards.

        With both endpoints bound, the smaller of two buckets -- (s, p)
        and (p, o), or s and o when p is a wildcard -- is filtered by
        the other endpoint into a tuple.  Any other pattern reads one
        bucket: two or more ids come as the live set, which the caller
        must not mutate, one id as a 1-tuple and none as an empty tuple.
        An all-wildcard pattern gives a fresh set of every id."""
        if s is not None and o is not None:
            if p is None:
                by_s, by_o = self._by_s.get(s), self._by_o.get(o)
            else:
                by_s, by_o = self._by_sp.get((s, p)), self._by_po.get((p, o))
            if by_s is None or by_o is None:
                return ()
            edges = self.edges
            if by_s.__class__ is not set or (by_o.__class__ is set and len(by_s) <= len(by_o)):
                return tuple(i for i in bucket_entries(by_s) if edges[i].object == o)
            return tuple(i for i in bucket_entries(by_o) if edges[i].subject == s)
        if s is not None:
            bucket = self._by_s.get(s) if p is None else self._by_sp.get((s, p))
        elif o is not None:
            bucket = self._by_o.get(o) if p is None else self._by_po.get((p, o))
        elif p is not None:
            bucket = self._by_p.get(p)
        else:
            return set(self.edges)
        return () if bucket is None else bucket_entries(bucket)

    def lookup(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[Edge]:
        for eid in self.lookup_ids(s, p, o):
            yield self.edges[eid]

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        return len(self.lookup_ids(s, p, o))

    # --- consistency ---

    def audit(self) -> list[str]:
        """Rebuild the five indexes from `edges` and diff them against
        the live ones, and flag every set bucket of fewer than two ids;
        an empty list means consistent."""
        names = ("sp", "po", "s", "p", "o")  # _buckets order
        want: dict[str, dict] = {name: {} for name in names}
        for e in self.edges.values():
            for name, (_, key) in zip(names, self._buckets(e.subject, e.predicate, e.object)):
                want[name].setdefault(key, set()).add(e.id)
        problems = []
        for name, (index, _) in zip(names, self._buckets(None, None, None)):
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
