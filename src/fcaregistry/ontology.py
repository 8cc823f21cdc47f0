"""Rooted specialization hierarchies and ontology-driven query refinement.

An ontology is a rooted DAG of terms connected by parent -> child
specialization edges.  Terms may carry a short alias so that a hierarchy of
full names (e.g. "Vertebrates") can match abbreviated context attributes
(e.g. "Ve").  A refinement maps each term to the context attribute that
carries it once (``_carriers``), and adds and drops terms by set operations.

The ``Ontology`` constructor holds the whole contract; ``load_ontology``
only parses the document, with the cyclic collector paused, and names a
missing field.  Each container is made once and kept.  One pass over the
edges checks each edge's shape and gives a children list to each term that
has children, a parents list to each term that has a parent (the root's is
an empty tuple), and a count to each term with several parents; a leaf has
no children entry.  The same pass records the first repeated edge, which
only a term with several parents can hold.  One Kahn pass from the root then
pops every term exactly when the graph is acyclic and reaches every term
from the root.  It counts down only the terms with several parents: a term
with one parent is popped with it.  The name map holds only the aliases,
since a term resolves to itself; its size and key set show an alias fault.
The slower diagnostics run only when one of these checks fails.  They name
the first fault in a fixed order, and a cycle by the first one a depth-first
search meets from the smallest term left behind, following edges in file
order, so the message does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from typing import NoReturn, Sequence

from .context import Attribute, FormalContext, Query, _fill_slots, _Immutable, _Record
from .errors import OntologyError

#: Sentinel for unbounded traversal depth.
UNLIMITED = None


def _distances(start: str, step: dict[str, Sequence[str]], hops: int | None) -> dict[str, int]:
    """Breadth-first distance from ``start`` (0) of each term ``step`` reaches
    within ``hops`` steps; ``step`` maps a term to its next terms, and a
    term it does not hold has none."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if hops is not None and dist[node] >= hops:
            continue
        for nxt in step.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def _first_cycle(children: dict[str, Sequence[str]], starts: list[str]) -> list[str] | None:
    """The first cycle a depth-first search meets, trying each start in
    turn and each term's edges in file order.

    The cycle is listed in edge direction with its first term repeated at
    the end, e.g. ``['a', 'b', 'a']``; None when there is no cycle.
    """
    done: set[str] = set()
    for start in starts:
        if start in done:
            continue
        path = [start]
        depth = {start: 0}
        branches = [iter(children[start])]
        while branches:
            for nxt in branches[-1]:
                if nxt in depth:
                    return path[depth[nxt]:] + [nxt]
                if nxt not in done:
                    depth[nxt] = len(path)
                    path.append(nxt)
                    branches.append(iter(children[nxt]))
                    break
            else:
                branches.pop()
                node = path.pop()
                del depth[node]
                done.add(node)
    return None


def _diagnose(root: str, children: dict[str, Sequence[str]], popped: list[str]) -> NoReturn:
    """Raise the first fault of a graph whose Kahn pass from the root left
    terms behind."""
    # every cycle lies among the terms the pass left behind
    cycle = _first_cycle(children, sorted(children.keys() - set(popped)))
    if cycle is not None:
        raise OntologyError(f"cycle detected through: {cycle}")
    # without a cycle, the pass leaves behind exactly the unreachable terms
    stranded = children.keys() - _distances(root, children, None).keys()
    raise OntologyError(f"terms unreachable from root: {sorted(stranded)}")


class RefinementReport(_Record):
    """What a refinement pass did to a query."""

    mode: str
    added: frozenset[Attribute]
    dropped_candidates: frozenset[str]
    hops_used: int | None
    skipped_terms: frozenset[str] = frozenset()


class Ontology(_Immutable):
    """An immutable rooted DAG of terms under a specialization order."""

    __slots__ = ("prefix", "root", "terms", "_parents", "_children", "_alias_of", "_resolve")

    def __init__(
        self,
        prefix: str,
        root: str,
        edges: Sequence[Sequence[str]],
        aliases: dict[str, str] | None = None,
    ):
        """Validate and store a rooted DAG given as (parent, child) edges.

        This is the whole ontology contract, checked with ``load_ontology``'s
        messages and in its order: ``prefix`` a string, ``root`` a non-empty
        string, a list or tuple of edges, each a list or tuple of two
        non-empty strings, then aliases, if any, a dict of non-empty strings.
        One pass over the edges checks each edge's shape, files it, and
        records the first edge whose child already lists its parent: the
        first repeated edge, refused once the shapes are checked.  Only a
        term with children holds a children list, and only a term with a
        parent a parents list; the lists are kept as built, and the root's
        parents are an empty tuple.  One Kahn pass (Kahn, 1962) from the
        root pops every term exactly when the graph is acyclic and every
        term is reachable from the root, so a valid ontology is checked in
        linear time.  The pass counts down only the terms with several
        parents.  Only when the pass leaves terms behind does ``_diagnose``
        name the fault: a cycle (with a witness that does not depend on
        hashing) before terms unreachable from the root.  The alias errors
        come last: the name map is made from the aliases alone, and only
        when it comes out short, holds a term, or an alias names an unknown
        term, are the aliases read one by one, in order, to name the first
        fault.
        """
        if not isinstance(prefix, str):
            raise OntologyError("ontology field 'prefix' must be a string")
        if not isinstance(root, str):
            raise OntologyError("ontology field 'root' must be a string")
        if not root:
            raise OntologyError("ontology field 'root' must be a non-empty string")
        if not isinstance(edges, (list, tuple)):
            raise OntologyError("ontology field 'edges' must be a list")
        children: dict[str, list[str]] = {}
        parents: dict[str, list[str]] = {}
        # a term with one parent is popped when that parent is, so only the
        # terms with several parents count down, from their number of parents
        pending: dict[str, int] = {}
        repeated = None
        for pair in edges:
            parent, child = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else ("", "")
            if not (isinstance(parent, str) and parent and isinstance(child, str) and child):
                raise OntologyError(f"bad edge entry: {pair!r}")
            below = children.get(parent)
            if below is None:
                children[parent] = [child]
            else:
                below.append(child)
            above = parents.get(child)
            if above is None:
                parents[child] = [parent]
            else:
                # a term with one parent has no room for a repeated edge
                if repeated is None and parent in above:
                    repeated = (parent, child)
                above.append(parent)
                pending[child] = len(above)
        if aliases is not None and (
            not isinstance(aliases, dict) or not all(isinstance(a, str) and a for a in aliases.values())
        ):
            raise OntologyError("ontology field 'aliases' must be an object of strings, each non-empty")
        if repeated is not None:
            raise OntologyError(f"duplicate edge: {repeated[0]!r} -> {repeated[1]!r}")
        aliases = dict(aliases or {})
        popped = [] if root in parents else [root]
        for node in popped:  # the list grows while it is read
            for child in children.get(node, ()):
                if child in pending:
                    left = pending[child] - 1
                    pending[child] = left
                    if left:
                        continue
                popped.append(child)
        # Each term is popped at most once, and only the root and terms with
        # parents are, so the pass pops every term exactly when it pops one
        # more than there are parent lists: a term that is only ever a
        # parent is never popped, and so neither is any child of it.
        if len(popped) <= len(parents):
            _diagnose(root, {**dict.fromkeys((root, *parents), ()), **children}, popped)
        parents[root] = ()
        terms = parents.keys()
        resolve = dict(zip(aliases.values(), aliases.keys()))
        # an alias that spells another makes the map short, one that spells a term meets the terms
        if len(resolve) < len(aliases) or not aliases.keys() <= terms or not terms.isdisjoint(resolve):
            spelled = set(popped)
            for name, alias in aliases.items():
                if name not in terms:
                    raise OntologyError(f"alias for unknown term: {name!r}")
                if alias in spelled:
                    raise OntologyError(f"duplicate term or alias: {alias!r}")
                spelled.add(alias)
        _fill_slots(self, prefix, root, terms, parents, children, aliases, resolve)

    def __repr__(self) -> str:
        return f"Ontology(prefix={self.prefix!r}, {len(self.terms)} terms)"

    def resolve(self, text: str) -> str | None:
        """Canonical term name for a name or alias; None if not in the ontology."""
        return text if text in self.terms else self._resolve.get(text)

    def alias(self, term: str) -> str | None:
        return self._alias_of.get(term)

    def names_of(self, term: str) -> tuple[str, ...]:
        """All spellings (canonical name plus alias) of one term."""
        alias = self._alias_of.get(term)
        return (term, alias) if alias else (term,)

    def is_leaf(self, term: str) -> bool:
        return self._require(term) not in self._children

    def is_root(self, term: str) -> bool:
        return self._require(term) == self.root

    def _require(self, term: str) -> str:
        name = self.resolve(term)
        if name is None:
            raise OntologyError(f"unknown ontology term: {term!r}")
        return name

    def _walk(self, term: str, step: dict[str, Sequence[str]], hops: int | None) -> list[str]:
        start = self._require(term)
        dist = _distances(start, step, hops)
        del dist[start]
        return sorted(dist, key=lambda t: (dist[t], t))

    def ancestors(self, term: str, hops: int | None = UNLIMITED) -> list[str]:
        """Terms above the given one, by increasing distance (ties by name)."""
        return self._walk(term, self._parents, hops)

    def descendants(self, term: str, hops: int | None = UNLIMITED) -> list[str]:
        """Terms below the given one, by increasing distance (ties by name)."""
        return self._walk(term, self._children, hops)

    def term_distance(self, a: str, b: str) -> int | None:
        """Shortest up-or-down path length when one term subsumes the other.

        The upward distances from ``a`` hold ``b`` when ``b`` subsumes
        ``a``; otherwise those from ``b`` may hold ``a``.  In a DAG at most
        one of them can, unless the terms are equal.
        """
        a = self._require(a)
        b = self._require(b)
        up = _distances(a, self._parents, None).get(b)
        return up if up is not None else _distances(b, self._parents, None).get(a)


def load_ontology(text: str) -> Ontology:
    """Parse the JSON ontology document format, with the cyclic collector
    paused (the parsed data hold no cycles for it to collect), and build it
    with the ``Ontology`` constructor, which checks every field's value."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise OntologyError(f"malformed ontology document: {exc}") from exc
        if not isinstance(doc, dict):
            raise OntologyError("ontology document must be a JSON object")
        for key in ("prefix", "root"):
            if key not in doc:
                raise OntologyError(f"ontology document missing field: {key!r}")
        return Ontology(doc["prefix"], doc["root"], doc.get("edges", []), doc.get("aliases"))
    finally:
        if enabled:
            gc.enable()


# -- query refinement --------------------------------------------------------


def _resolvable(ont: Ontology, attr: Attribute) -> str | None:
    if attr.prefix is not None and attr.prefix != ont.prefix:
        return None
    return ont.resolve(attr.term)


def _carriers(ont: Ontology, ctx: FormalContext) -> dict[str, Attribute]:
    """Each ontology term's context attribute, under name or alias, in one pass.

    Bare attributes match by term text alone; prefixed ones must carry the
    ontology's prefix.  The name comes before the alias, and for each
    spelling the bare attribute before the prefixed one.
    """
    carried = [(term, a) for a in ctx.attributes if (term := _resolvable(ont, a)) is not None]
    # dict keeps the last pair of each term, so the lowest rank is sorted last
    carried.sort(key=lambda ta: (ta[1].term != ta[0], ta[1].prefix is not None), reverse=True)
    return dict(carried)


def _refine(
    q: Query,
    ont: Ontology,
    ctx: FormalContext,
    hops: int | None,
    mode: str,
) -> tuple[Query, RefinementReport]:
    # by type: a bool is an int, and 1.5 or "2" would fail later
    if hops is not None and type(hops) is not int:
        raise OntologyError(f"hop bound must be an int or None, got {hops!r}")
    if hops is not None and hops < 0:
        raise OntologyError(f"hop bound must be non-negative, got {hops}")
    carriers = _carriers(ont, ctx)
    added: set[Attribute] = set()
    dropped: set[str] = set()
    skipped: set[str] = set()
    for term in q.terms:
        node = _resolvable(ont, term)
        if node is None:
            skipped.add(term.term)
            continue
        related: set[str] = set()
        if mode in ("generalize", "both"):
            related.update(_distances(node, ont._parents, hops))
        if mode in ("specialize", "both"):
            related.update(_distances(node, ont._children, hops))
        # ``related`` holds the node too: its carrier joins a query that spells
        # the node otherwise (``Human`` for ``Hu``), and is no addition when it
        # is the query term itself (``added -= q.terms`` below)
        added.update(carriers[t] for t in related & carriers.keys())
        # in place: a near-root term relates to thousands of names
        related.difference_update(carriers)
        related.discard(node)
        dropped |= related
    added -= q.terms
    report = RefinementReport(
        mode=mode,
        added=frozenset(added),
        dropped_candidates=frozenset(dropped),
        hops_used=hops,
        skipped_terms=frozenset(skipped),
    )
    refined = Query(terms=q.terms | frozenset(added), label=q.label)
    return refined, report


def refine_generalize(
    q: Query, ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple[Query, RefinementReport]:
    """Add in-context ancestors of each query term (within the hop bound)."""
    return _refine(q, ont, ctx, hops, "generalize")


def refine_specialize(
    q: Query, ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple[Query, RefinementReport]:
    """Add in-context descendants of each query term (within the hop bound)."""
    return _refine(q, ont, ctx, hops, "specialize")


def refine_both(
    q: Query, ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple[Query, RefinementReport]:
    """Add both ancestors and descendants, as a single combined refinement."""
    return _refine(q, ont, ctx, hops, "both")
