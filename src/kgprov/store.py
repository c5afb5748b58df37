"""In-memory directed labeled multigraph with unique edge identifiers.

Vertices and predicate labels are interned to dense integers; triples are
indexed for every bound/wildcard access pattern.  Edge identifiers are
assigned by a monotone counter and never reused, so provenance symbols
stay unambiguous across deletions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator


@dataclass(frozen=True)
class Edge:
    id: int
    subject: int
    predicate: int
    object: int


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
        # triple-pattern indexes, key -> bucket of edge ids.  A bucket
        # holding one edge is the bare int id; a set bucket always holds
        # at least two ids, and an empty bucket is no key at all.
        self._by_sp: dict[tuple[int, int], int | set[int]] = {}
        self._by_po: dict[tuple[int, int], int | set[int]] = {}
        self._by_so: dict[tuple[int, int], int | set[int]] = {}
        self._by_spo: dict[tuple[int, int, int], int | set[int]] = {}
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
        """(index, key) of the seven buckets an (s, p, o) edge sits in."""
        return (
            (self._by_sp, (s, p)),
            (self._by_po, (p, o)),
            (self._by_so, (s, o)),
            (self._by_spo, (s, p, o)),
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
            bucket = index.get(key)
            if bucket is None:
                index[key] = eid
            elif isinstance(bucket, int):
                index[key] = {bucket, eid}
            else:
                bucket.add(eid)
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
            bucket = index[key]
            if isinstance(bucket, int):
                del index[key]
            else:
                bucket.discard(eid)
                if len(bucket) == 1:
                    index[key] = bucket.pop()
        return edge

    # --- access paths ---

    def lookup_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Collection[int]:
        """Edge ids matching the pattern; None positions are wildcards.

        A bucket of two or more ids is returned as the live set, which
        the caller must not mutate; one id comes as a 1-tuple and no id
        as an empty tuple."""
        if s is not None and p is not None and o is not None:
            bucket = self._by_spo.get((s, p, o))
        elif s is not None and p is not None:
            bucket = self._by_sp.get((s, p))
        elif p is not None and o is not None:
            bucket = self._by_po.get((p, o))
        elif s is not None and o is not None:
            bucket = self._by_so.get((s, o))
        elif s is not None:
            bucket = self._by_s.get(s)
        elif o is not None:
            bucket = self._by_o.get(o)
        elif p is not None:
            bucket = self._by_p.get(p)
        else:
            return set(self.edges)
        if bucket is None:
            return ()
        return (bucket,) if isinstance(bucket, int) else bucket

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
        """Rebuild the seven indexes from `edges` and diff them against
        the live ones, and flag every set bucket of fewer than two ids;
        an empty list means consistent."""
        names = ("sp", "po", "so", "spo", "s", "p", "o")  # _buckets order
        want: dict[str, dict] = {name: {} for name in names}
        for e in self.edges.values():
            for name, (_, key) in zip(names, self._buckets(e.subject, e.predicate, e.object)):
                want[name].setdefault(key, set()).add(e.id)
        problems = []
        for name, (index, _) in zip(names, self._buckets(None, None, None)):
            have = {}
            for key, bucket in index.items():
                if isinstance(bucket, int):
                    have[key] = {bucket}
                else:
                    have[key] = set(bucket)
                    if len(bucket) < 2:
                        problems.append(f"store {name} set bucket of {len(bucket)} at {key}")
            problems += [
                f"store {name} index mismatch at {key}"
                for key in sorted(want[name].keys() | have.keys())
                if want[name].get(key) != have.get(key)
            ]
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
