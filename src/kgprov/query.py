"""BGP query frontend: parsing, canonicalization, and the Regular /
MultiMap classification, which tells whether two patterns may bind one
edge together (the engine's delta rule handles both kinds alike).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

_UNSUPPORTED_KEYWORDS = (
    "FILTER",
    "OPTIONAL",
    "UNION",
    "ORDER",
    "GROUP",
    "LIMIT",
    "OFFSET",
    "HAVING",
    "MINUS",
    "COUNT",
    "SUM",
    "AVG",
    "BIND",
    "VALUES",
)


class QueryError(Exception):
    pass


class ParseError(QueryError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedFeatureError(QueryError):
    pass


class DisconnectedQueryError(QueryError):
    pass


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


Term = Var | str


@dataclass(frozen=True)
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term
    ordinal: int = 0

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {t.name for t in self.terms() if isinstance(t, Var)}


@dataclass
class QueryGraph:
    patterns: list[TriplePattern]
    projection: list[str]

    @property
    def size(self) -> int:
        return len(self.patterns)

    @property
    def classification(self) -> Classification:
        return classify_query(self)

    def variables(self) -> set[str]:
        return set().union(*(p.variables() for p in self.patterns))

    def has_variable_predicate(self) -> bool:
        return any(isinstance(p.predicate, Var) for p in self.patterns)


@dataclass(frozen=True)
class Classification:
    # some two patterns may bind the same edge
    multimap: bool


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


_TOKEN_RE = re.compile(r"[{}]|[^\s{}]+")


def _tokenize(text: str):
    """Yield (token, line, column) with 1-based positions."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            tok, col = m.group(0), m.start() + 1
            # a glued terminating dot ends the token: `PhD.` -> `PhD`, `.`
            if len(tok) > 1 and tok.endswith(".") and not tok.endswith(".."):
                yield tok[:-1], line_no, col
                yield ".", line_no, col + len(tok) - 1
            else:
                yield tok, line_no, col


def _term(token: str) -> Term:
    if token.startswith("?"):
        return Var(token[1:])
    if token.startswith("<") and token.endswith(">"):
        return token[1:-1]
    return token


def parse_query(text: str) -> QueryGraph:
    """Parse `SELECT ?a ?b WHERE { s p o . ... }` into a QueryGraph."""
    upper = text.upper()
    for kw in _UNSUPPORTED_KEYWORDS:
        if kw in upper.split() or f"{kw}(" in upper or f"{kw} (" in upper:
            raise UnsupportedFeatureError(f"unsupported SPARQL feature: {kw}")
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, -1, -1)

    def take(expected: str | None = None):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise ParseError("unexpected end of query", last[1], last[2])
        tok, ln, col = tokens[pos]
        if expected is not None and tok.upper() != expected.upper():
            raise ParseError(f"expected {expected!r}, got {tok!r}", ln, col)
        pos += 1
        return tok, ln, col

    take("SELECT")
    projection: list[str] = []
    while True:
        tok, ln, col = peek()
        if tok is None:
            raise ParseError("unexpected end of query", ln, col)
        if tok.upper() == "WHERE":
            break
        if not tok.startswith("?"):
            raise ParseError(f"expected variable, got {tok!r}", ln, col)
        projection.append(tok[1:])
        pos += 1
    if not projection:
        tok, ln, col = peek()
        raise ParseError("empty projection", ln, col)
    take("WHERE")
    take("{")
    patterns: list[TriplePattern] = []
    while True:
        tok, ln, col = peek()
        if tok is None:
            raise ParseError("missing closing '}'", ln, col)
        if tok == "}":
            take()
            break
        s = _term(take()[0])
        p = _term(take()[0])
        o = _term(take()[0])
        patterns.append(TriplePattern(s, p, o, ordinal=len(patterns)))
        tok, ln, col = peek()
        if tok == ".":
            take()
    if pos < len(tokens):
        tok, ln, col = tokens[pos]
        raise ParseError(f"unexpected trailing token {tok!r}", ln, col)
    if not patterns:
        raise ParseError("empty graph pattern", 1, 1)
    q = QueryGraph(patterns, projection)
    variables = q.variables()
    for v in projection:
        if v not in variables:
            raise ParseError(f"projected variable ?{v} not bound", 1, 1)
    if len(pattern_components(patterns, by_constants=True)) > 1:
        raise DisconnectedQueryError("query graph is disconnected")
    return q


def pattern_components(
    patterns: list[TriplePattern], by_constants: bool = False
) -> list[list[TriplePattern]]:
    """Connected components of a pattern set, listed by their first
    pattern, each sorted by ordinal.  Two patterns link when they share
    a subject or object variable, or, with `by_constants`, a subject or
    object constant; a shared predicate never links them."""
    keys = [
        {t for t in (p.subject, p.object) if by_constants or isinstance(t, Var)}
        for p in patterns
    ]
    left = list(range(len(patterns)))
    comps: list[list[TriplePattern]] = []
    while left:
        members, reach = [left[0]], set(keys[left[0]])
        left, grown = left[1:], True
        while grown:
            grown, rest = False, []
            for j in left:
                if keys[j] & reach:
                    members.append(j)
                    reach |= keys[j]
                    grown = True
                else:
                    rest.append(j)
            left = rest
        comps.append(sorted((patterns[i] for i in members), key=lambda p: p.ordinal))
    return comps


def variable_connected(patterns: list[TriplePattern]) -> bool:
    """At most one component over shared variables (constants do not link)."""
    return len(pattern_components(patterns)) <= 1


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------

# A canonical pattern encodes each term as ("v", k) for the k-th distinct
# variable by appearance or ("c", name) for constants.
CanonicalPattern = tuple[tuple[str, object], tuple[str, object], tuple[str, object]]
CanonicalKey = tuple[CanonicalPattern, ...]

EXACT_CANONICAL_LIMIT = 8


@dataclass(frozen=True)
class CanonicalForm:
    key: CanonicalKey
    # original variable name -> canonical variable index
    varmap: dict[str, int] = field(compare=False, hash=False, default_factory=dict)
    exact: bool = True


def _render(order: list[TriplePattern]) -> tuple[CanonicalKey, dict[str, int]]:
    varmap: dict[str, int] = {}
    out = []
    for p in order:
        row = []
        for t in p.terms():
            if isinstance(t, Var):
                if t.name not in varmap:
                    varmap[t.name] = len(varmap)
                row.append(("v", varmap[t.name]))
            else:
                row.append(("c", t))
        out.append(tuple(row))
    return tuple(out), varmap


def _signature(p: TriplePattern) -> tuple:
    def sig(t: Term):
        return ("v",) if isinstance(t, Var) else ("c", t)

    return (sig(p.predicate), sig(p.subject), sig(p.object))


def canonicalize(patterns: list[TriplePattern]) -> CanonicalForm:
    """Deterministic form invariant under pattern order and renaming.

    Exact (lexicographically minimal over pattern orderings) up to
    EXACT_CANONICAL_LIMIT patterns; larger inputs fall back to a sorted
    signature heuristic.
    """
    n = len(patterns)
    if n == 0:
        return CanonicalForm((), {})
    if n > EXACT_CANONICAL_LIMIT:
        order = sorted(patterns, key=lambda p: (_signature(p), p.ordinal))
        key, varmap = _render(order)
        return CanonicalForm(key, varmap, exact=False)

    best: list[tuple[CanonicalKey, dict[str, int]]] = []

    def search(order: list[TriplePattern], remaining: list[TriplePattern]):
        if not remaining:
            cand = _render(order)
            if not best or cand[0] < best[0][0]:
                best[:] = [cand]
            return
        # prune: only extend with patterns whose rendered prefix could be
        # minimal -- choose candidates with minimal next rendered pattern
        scored = []
        for p in remaining:
            key, _ = _render(order + [p])
            scored.append((key[-1], p))
        minimum = min(s[0] for s in scored)
        for rendered, p in scored:
            if rendered == minimum:
                rest = list(remaining)
                rest.remove(p)
                search(order + [p], rest)

    search([], list(patterns))
    key, varmap = best[0]
    return CanonicalForm(key, varmap)


# --------------------------------------------------------------------------
# Regular / MultiMap classification
# --------------------------------------------------------------------------


def may_share_edge(a: TriplePattern, b: TriplePattern) -> bool:
    """Can two same-predicate patterns bind the same edge?  Yes unless
    their subjects, or their objects, are two different constants."""

    def distinct(x: Term, y: Term) -> bool:
        return not isinstance(x, Var) and not isinstance(y, Var) and x != y

    return not (distinct(a.subject, b.subject) or distinct(a.object, b.object))


def classify_query(q: QueryGraph) -> Classification:
    """Classify as Regular or MultiMap: MultiMap when some two
    same-predicate patterns may bind the same edge."""
    named = [p for p in q.patterns if isinstance(p.predicate, str)]
    return Classification(any(
        a.predicate == b.predicate and may_share_edge(a, b)
        for a, b in combinations(named, 2)
    ))
