"""Workload inputs: base graphs, standing queries and update streams.

Everything here is plain data (strings and tuples) made from fixed seeds,
so the inputs do not depend on any generator inside `kgprov`. The engine
only ever receives the triples, the queries and the update operations.

A workload's graph and queries are fixed by its own seeds; the run's
`--seed` chooses the update stream. The stream is a sequence of blocks.
Each block deletes K base edges and inserts K fresh edges, interleaved at
random, then deletes the fresh edges and re-inserts the base edges, again
interleaved. Every block therefore holds K inserts and K deletes per half
(a balanced 50/50 mix), and after each whole block the graph holds the
same named triples as the base graph. A time-bounded run always stops on
a block boundary, so the final answers are the base answers whatever the
machine speed, and a faster engine is measured on the same state.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

Triple = tuple[str, str, str]
# patterns use "?name" for variables; projection lists bare variable names
Query = tuple[tuple[Triple, ...], tuple[str, ...]]
# ("+", triple) inserts; ("-", triple) deletes the lowest-id edge with it
Op = tuple[str, Triple]

DEFAULT_STREAM_SEED = 99
BLOCK_PAIRS = 50  # K: base deletions (and fresh insertions) per block


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_preds: int
    n_edges: int
    n_queries: int
    graph_seed: int
    query_seed: int
    distinct_query_preds: bool
    # blocks in one pass (100 inserts and 100 deletes each). The least time
    # of an update settles only after tens of passes, so a pass holds few
    # blocks where updates cost the same (sparse-20k) and more where their
    # cost varies with the update drawn (dense-shared).
    pass_blocks: int
    # blocks per pass of the traced run, and updates in the naive reference
    traced_blocks: int
    naive_prefix: int
    # digest of the named answers on the base graph (see answer_digest)
    answers_digest: str

    def triples(self) -> list[Triple]:
        rng = random.Random(self.graph_seed)
        out = []
        for _ in range(self.n_edges):
            s = f"n{rng.randrange(self.n_nodes)}"
            p = f"p{rng.randrange(self.n_preds)}"
            o = f"n{rng.randrange(self.n_nodes)}"
            out.append((s, p, o))
        return out

    def queries(self) -> list[Query]:
        """Tree-shaped queries of 2-5 patterns over x0, x1, ...

        Each new pattern hangs a fresh variable off an earlier one. With
        `distinct_query_preds` a query never repeats a predicate; otherwise
        predicates are drawn with replacement, and a query isomorphic to
        an earlier one is redrawn (the engine rejects duplicates).
        """
        rng = random.Random(self.query_seed)
        preds = [f"p{i}" for i in range(self.n_preds)]
        out: list[Query] = []
        seen: set = set()
        while len(out) < self.n_queries:
            n = rng.randrange(2, 6)
            if self.distinct_query_preds:
                chosen = rng.sample(preds, n)
            else:
                chosen = [preds[rng.randrange(len(preds))] for _ in range(n)]
            pats = []
            for i in range(n):
                if i == 0:
                    s, o = "?x0", "?x1"
                else:
                    anchor = f"?x{rng.randrange(i + 1)}"
                    new = f"?x{i + 1}"
                    s, o = (anchor, new) if rng.random() < 0.5 else (new, anchor)
                pats.append((s, chosen[i], o))
            form = _canonical_form(pats)
            if form in seen:
                continue
            seen.add(form)
            names = sorted({t[1:] for p in pats for t in (p[0], p[2])})
            out.append((tuple(pats), tuple(names[:2])))
        return out

    def stream(self, seed: int, triples: list[Triple], queries: list[Query]) -> Stream:
        pool = sorted({p for pats, _ in queries for _, p, _ in pats})
        return Stream(seed, triples, pool)


def _canonical_form(pats: list[Triple]) -> tuple:
    """Smallest renaming of the pattern set over all variable orders:
    equal exactly for isomorphic queries (at most six variables here)."""
    names = sorted({t for p in pats for t in (p[0], p[2]) if t.startswith("?")})
    best = None
    for perm in itertools.permutations(range(len(names))):
        rename = {v: f"?{i}" for v, i in zip(names, perm)}
        form = tuple(sorted((rename.get(s, s), p, rename.get(o, o)) for s, p, o in pats))
        if best is None or form < best:
            best = form
    return best


class Stream:
    """Deterministic blocks of updates against a fixed base graph."""

    def __init__(self, seed: int, triples: list[Triple], pool: list[str]):
        self.seed = seed
        pool_set = set(pool)
        self.pool = pool
        self.nodes = sorted({t for s, _, o in triples for t in (s, o)})
        self.deletable = [t for t in triples if t[1] in pool_set]
        self.base_pairs = {(s, o) if s <= o else (o, s) for s, _, o in triples}

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{index}")
        gone = [self.deletable[i] for i in rng.sample(range(len(self.deletable)), BLOCK_PAIRS)]
        fresh: list[Triple] = []
        taken = set(self.base_pairs)
        while len(fresh) < BLOCK_PAIRS:
            s = self.nodes[rng.randrange(len(self.nodes))]
            o = self.nodes[rng.randrange(len(self.nodes))]
            pair = (s, o) if s <= o else (o, s)
            if s == o or pair in taken:
                continue
            taken.add(pair)
            fresh.append((s, self.pool[rng.randrange(len(self.pool))], o))
        return _interleave(rng, gone, fresh) + _interleave(rng, fresh, gone)


def _interleave(rng: random.Random, deletes: list[Triple], inserts: list[Triple]) -> list[Op]:
    kinds = ["-"] * len(deletes) + ["+"] * len(inserts)
    rng.shuffle(kinds)
    d, i = iter(deletes), iter(inserts)
    return [(k, next(d) if k == "-" else next(i)) for k in kinds]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# why each workload was chosen: BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-20k",
            n_nodes=6_000,
            n_preds=200,
            n_edges=20_000,
            n_queries=50,
            graph_seed=11,
            query_seed=5,
            distinct_query_preds=True,
            pass_blocks=2,
            traced_blocks=20,
            naive_prefix=200,
            answers_digest="3428b135bb7a4b1e",
        ),
        Workload(
            name="dense-shared",
            n_nodes=1_000,
            n_preds=6,
            n_edges=2_500,
            n_queries=20,
            graph_seed=21,
            query_seed=7,
            distinct_query_preds=False,
            pass_blocks=5,
            traced_blocks=5,
            naive_prefix=8,
            answers_digest="9b73f0fbdb2934eb",
        ),
    )
}
