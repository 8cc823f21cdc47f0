"""Rooted specialization hierarchies and ontology-driven query refinement.

An ontology is a rooted DAG of terms connected by parent -> child
specialization edges.  Terms may carry a short alias so that a hierarchy of
full names (e.g. "Vertebrates") can match abbreviated context attributes
(e.g. "Ve").  A refinement maps each term to the context attribute that
carries it once (``_carriers``), and adds and drops terms by set operations.

Loading makes each container once and keeps it.  One pass over the edges
gives a children list to each term that has children and a parents list to
each term that has a parent; every leaf shares one empty tuple as its
children, and the root has it as its parents.  One Kahn pass from the root
then pops every term exactly when the graph is acyclic and reaches every
term from the root.  It counts down only the terms with several parents: a
term with one parent is popped with it.  Repeated edges are looked for only
among those terms, and the alias map is made by one update, whose size and
key set show a fault.  The slower diagnostics run only when one of these
checks fails.  They name the first fault in a fixed order, and a cycle by
the first one a depth-first search meets from the smallest term left
behind, following edges in file order, so the message does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, NoReturn, Sequence

from .context import Attribute, FormalContext, _fill_slots, _Immutable, _Record
from .errors import OntologyError

if TYPE_CHECKING:  # pragma: no cover
    from .retrieval import Query

#: Sentinel for unbounded traversal depth.
UNLIMITED = None


def _distances(start: str, step: dict[str, Sequence[str]], hops: int | None) -> dict[str, int]:
    """Breadth-first distance from ``start`` (0) of each term ``step`` reaches
    within ``hops`` steps; ``step`` maps a term to its next terms."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if hops is not None and dist[node] >= hops:
            continue
        for nxt in step[node]:
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


def _diagnose(
    root: str, edges: Sequence[Sequence[str]], children: dict[str, Sequence[str]], popped: list[str]
) -> NoReturn:
    """Raise the first fault of a graph whose Kahn pass from the root left
    terms behind or whose edge list repeats an edge."""
    seen = set()
    for parent, child in edges:
        if (parent, child) in seen:
            raise OntologyError(f"duplicate edge: {parent!r} -> {child!r}")
        seen.add((parent, child))
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

        Only a term with children holds a children list, and only a term
        with a parent a parents list; the lists are kept as built.  Every
        leaf's children are one shared empty tuple, and so are the root's
        parents.  One Kahn pass (Kahn, 1962) from the root pops every
        term exactly when the graph is acyclic and every term is reachable
        from the root, so a valid ontology is checked in linear time.  The
        pass counts down only the terms with several parents, and only
        their parent lists can repeat an edge.  Only when the pass leaves
        terms behind, or an edge repeats, does ``_diagnose`` name the
        fault; the errors come in this order: a duplicate edge, a cycle
        (with a witness that does not depend on hashing), terms unreachable
        from the root.  The alias errors come last: the name map is the
        terms plus one update from the aliases, and only when it comes out
        short, or an alias names an unknown term, are the aliases read one
        by one, in order, to name the first fault.
        """
        aliases = dict(aliases or {})
        children: dict[str, list[str]] = {}
        parents: dict[str, list[str]] = {}
        for parent, child in edges:
            below = children.get(parent)
            if below is None:
                children[parent] = [child]
            else:
                below.append(child)
            above = parents.get(child)
            if above is None:
                parents[child] = [parent]
            else:
                above.append(parent)
        # a term with one parent is popped when that parent is, so only the
        # terms with several parents count down
        pending = {t: len(ps) for t, ps in parents.items() if len(ps) > 1}
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
        # parent is never popped, and so neither is any child of it.  A
        # repeated edge lists its parent twice among its child's parents,
        # and a term with one parent has no room for that.
        if len(popped) <= len(parents) or any(
            len(set(ps)) < len(ps) for ps in map(parents.__getitem__, pending)
        ):
            _diagnose(root, edges, {**dict.fromkeys((root, *parents), ()), **children}, popped)
        parents[root] = ()
        kids = dict.fromkeys(popped, ())  # every leaf shares the one empty tuple
        kids.update(children)
        resolve = dict(zip(popped, popped))
        resolve.update(zip(aliases.values(), aliases.keys()))
        # the map is short when an alias spells a term or another alias
        if len(resolve) < len(popped) + len(aliases) or not aliases.keys() <= parents.keys():
            spelled = set(popped)
            for name, alias in aliases.items():
                if name not in parents:
                    raise OntologyError(f"alias for unknown term: {name!r}")
                if alias in spelled:
                    raise OntologyError(f"duplicate term or alias: {alias!r}")
                spelled.add(alias)
        _fill_slots(self, prefix, root, frozenset(popped), parents, kids, aliases, resolve)

    def __repr__(self) -> str:
        return f"Ontology(prefix={self.prefix!r}, {len(self.terms)} terms)"

    def resolve(self, text: str) -> str | None:
        """Canonical term name for a name or alias; None if not in the ontology."""
        return self._resolve.get(text)

    def alias(self, term: str) -> str | None:
        return self._alias_of.get(term)

    def names_of(self, term: str) -> tuple[str, ...]:
        """All spellings (canonical name plus alias) of one term."""
        alias = self._alias_of.get(term)
        return (term, alias) if alias else (term,)

    def is_leaf(self, term: str) -> bool:
        return not self._children[self._require(term)]

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
    """Parse and validate the JSON ontology document format."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise OntologyError(f"malformed ontology document: {exc}") from exc
    if not isinstance(doc, dict):
        raise OntologyError("ontology document must be a JSON object")
    for key in ("prefix", "root"):
        if key not in doc:
            raise OntologyError(f"ontology document missing field: {key!r}")
        if not isinstance(doc[key], str):
            raise OntologyError(f"ontology field {key!r} must be a string")
    if not doc["root"]:
        raise OntologyError("ontology field 'root' must be a non-empty string")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise OntologyError("ontology field 'edges' must be a list")
    for pair in edges:
        if not isinstance(pair, list) or len(pair) != 2:
            raise OntologyError(f"bad edge entry: {pair!r}")
        parent, child = pair
        if not (isinstance(parent, str) and parent and isinstance(child, str) and child):
            raise OntologyError(f"bad edge entry: {pair!r}")
    aliases = doc.get("aliases")
    if aliases is not None and (
        not isinstance(aliases, dict) or not all(isinstance(a, str) and a for a in aliases.values())
    ):
        raise OntologyError("ontology field 'aliases' must be an object of strings, each non-empty")
    return Ontology(doc["prefix"], doc["root"], edges, aliases)


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
    q: "Query",
    ont: Ontology,
    ctx: FormalContext,
    hops: int | None,
    mode: str,
) -> tuple["Query", RefinementReport]:
    from .retrieval import Query

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
    q: "Query", ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple["Query", RefinementReport]:
    """Add in-context ancestors of each query term (within the hop bound)."""
    return _refine(q, ont, ctx, hops, "generalize")


def refine_specialize(
    q: "Query", ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple["Query", RefinementReport]:
    """Add in-context descendants of each query term (within the hop bound)."""
    return _refine(q, ont, ctx, hops, "specialize")


def refine_both(
    q: "Query", ont: Ontology, ctx: FormalContext, hops: int | None = UNLIMITED
) -> tuple["Query", RefinementReport]:
    """Add both ancestors and descendants, as a single combined refinement."""
    return _refine(q, ont, ctx, hops, "both")
