"""Ranked source discovery: walk upward from the query concept.

Ranks are those of inserting the query into the lattice as a virtual object
and walking its subsumers breadth-first (``_distances``), which visits each
up-set concept once, at its cover distance: each source takes the distance
of the first concept that contributed it.  They are computed from the
query's up-set alone.  The concepts at and above the query concept are
those of a small context (``FormalContext._query_context``), split out of
the sources by the terms' columns: one object per distinct restricted row,
standing for a mask of sources listed only when a rank reports them, and
one attribute per term, unknown ones included.  ``build_lattice`` of it is
the up-set, with the query concept, whose intent is every term, at the
bottom, so the walk follows the parent lists of an ordinary lattice; the
searched lattice is neither copied nor regrown.  ``insert_query`` does the
literal insertion, which merges the same up-set into the lattice
(``insert_object``), and stays as the reference.

The answer is assembled per group of sources with one restricted row:
their results share one ``shared`` and one ``via_intent`` set, a
``tie_break`` key is computed once per group from its ``shared`` set, the
sources are listed by the bits of the group's mask, and the results are
sorted as plain tuples with no key function.

``result_set_to_json`` emits the bytes of ``json.dumps(doc, sort_keys=True,
indent=1)`` for the answer document, from a writer for that fixed schema
instead of the generic encoder; it renders the text around each source once
per run of consecutive results with equal values.
"""

from __future__ import annotations

import math
import os
import sys
from json.encoder import encode_basestring_ascii as _encode
from typing import Callable, Iterable

from .context import Attribute, Query, _bits, _Record
from .errors import LatticeError, QueryError
from .lattice import ConceptLattice, FormalConcept, _json_list, build_lattice, insert_object
from .ontology import (
    Ontology,
    RefinementReport,
    _distances,
    _resolvable,
    refine_both,
    refine_generalize,
    refine_specialize,
)


class RankedResult(_Record):
    """One matching source: its BFS rank and the terms it shares with the query."""

    source: str
    rank: int
    shared: frozenset[Attribute]
    via_intent: frozenset[Attribute]


class ResultSet(_Record):
    query: Query
    results: tuple[RankedResult, ...]
    refinement_applied: RefinementReport | None = None

    def sources(self) -> list[str]:
        return [r.source for r in self.results]


def insert_query(lat: ConceptLattice, q: Query) -> tuple[ConceptLattice, FormalConcept]:
    """Overlay the query as a virtual object; return the grown lattice and its concept.

    The query concept's intent is exactly the query's term set (the virtual
    object forces closure to stop there); its extent holds the query label
    plus any sources matching every term.
    """
    _check_query(lat, q)
    augmented = insert_object(
        lat, q.label, sorted(q.terms, key=lambda a: a.key), allow_reserved=True
    )
    intent = frozenset(augmented.context.intent_of(q.label))
    concept = augmented.concept_with_intent(intent)
    if concept is None or q.label not in concept.extent:
        raise LatticeError(f"grown lattice lacks the concept of query {q.label!r}")
    return augmented, concept


def _check_query(lat: ConceptLattice, q: Query) -> None:
    if not q.terms:
        raise QueryError("query term set must be non-empty")
    if not q.label:
        raise QueryError("query label must be non-empty")
    if lat.context.has_object(q.label):
        raise QueryError(f"query label collides with a source id: {q.label!r}")


def search(
    lat: ConceptLattice,
    q: Query,
    *,
    tie_break: Callable[[frozenset[Attribute]], object] | None = None,
) -> ResultSet:
    """All sources sharing at least one in-context query term, ranked by distance.

    Rank 0 is the query concept's own extent; each further rank is one cover
    step up.  The breadth-first walk visits each up-set concept once, at its
    cover distance from the query concept; a concept with an empty intent
    never contributes.  Results are ordered by rank, then by more shared
    terms, then by ``tie_break`` if given, then by source id.  The sources
    of one group share one ``shared`` set, and distinct groups have distinct
    sets; ``tie_break`` is called once per group, on that set.  Without it
    the key is ``None`` for every result, so ties pass to the source id.
    Each result is sorted as a plain tuple ending in its source id and the
    result; the ids are distinct, so no comparison reaches a result.
    """
    _check_query(lat, q)
    sub, groups = lat.context._query_context(q.terms)
    up = build_lattice(sub)
    objects = lat.context.objects
    collected: list[tuple] = []
    claimed = 0  # each group is claimed once
    for b, rank in _distances(up._intents[-1], up._parents, None).items():
        fresh = up._extent[b] & ~claimed
        if not b or not fresh:
            continue
        claimed |= fresh
        via = frozenset(sub._attrs_from_mask(b))
        for k in _bits(fresh):
            shared = frozenset(sub._attrs_from_mask(sub._rows[k]))
            more = -len(shared)
            key = None if tie_break is None else tie_break(shared)
            m = groups[k]
            while m:
                low = m & -m
                source = objects[low.bit_length() - 1]
                collected.append((rank, more, key, source, RankedResult(source, rank, shared, via)))
                m ^= low
    collected.sort()
    return ResultSet(query=q, results=tuple([t[-1] for t in collected]))


def search_refined(
    lat: ConceptLattice,
    q: Query,
    ont: Ontology,
    mode: str,
    hops: int | None = None,
) -> ResultSet:
    """Refine the query against the ontology, then search with the refined terms.

    Within equal rank and share count, sources matched through ontologically
    closer terms come first.
    """
    refiners = {
        "generalize": refine_generalize,
        "specialize": refine_specialize,
        "both": refine_both,
    }
    if mode not in refiners:
        raise QueryError(f"unknown refinement mode: {mode!r}")
    _check_query(lat, q)
    refined, report = refiners[mode](q, ont, lat.context, hops)
    original = {_resolvable(ont, a) for a in q.terms} - {None}

    def distance_key(shared: frozenset[Attribute]) -> float:
        best = math.inf
        for node in {_resolvable(ont, a) for a in shared} - {None}:
            for term in original:
                d = ont.term_distance(term, node)
                if d is not None:
                    best = min(best, d)
        return best

    rs = search(lat, refined, tie_break=distance_key)
    return ResultSet(query=refined, results=rs.results, refinement_applied=report)


# -- serialization -----------------------------------------------------------


def _string_list(strings: Iterable[str], indent: str) -> str:
    """The sorted strings as a JSON list laid out as ``json.dumps(indent=1)`` does."""
    return _json_list(map(_encode, sorted(strings)), indent)


def result_set_to_json(rs: ResultSet) -> str:
    """Machine-readable rendering; byte-deterministic for equal inputs.

    The text equals ``json.dumps(doc, sort_keys=True, indent=1) + "\n"`` of
    the document with ``query``, ``refinement`` and ``results`` keys, and is
    written by a writer for that fixed schema: strings are escaped by the C
    encoder, and each distinct term set is rendered once.  A result's text
    is a head (``rank`` and ``shared``), its encoded source and a tail
    (``via_intent``); head and tail are rendered once per run of
    consecutive results with equal values, so each result costs one
    encoded string and one concatenation.
    """
    query, ref = rs.query, rs.refinement_applied
    if ref is None:
        refinement = "null"
    else:
        hops = "null" if ref.hops_used is None else int.__repr__(ref.hops_used)
        refinement = (
            "{\n"
            f'  "added": {_string_list(map(str, ref.added), "  ")},\n'
            f'  "dropped_candidates": {_string_list(ref.dropped_candidates, "  ")},\n'
            f'  "hops": {hops},\n'
            f'  "mode": {_encode(ref.mode)},\n'
            f'  "skipped_terms": {_string_list(ref.skipped_terms, "  ")}\n'
            " }"
        )
    # search hands out one object per distinct term set
    rendered: dict[frozenset[Attribute], str] = {}

    def term_set(terms: frozenset[Attribute]) -> str:
        text = rendered.get(terms)
        if text is None:
            text = rendered[terms] = _string_list(map(str, terms), "   ")
        return text

    items = []
    rank = shared = via = None
    for r in rs.results:
        if r.rank != rank or r.shared != shared:
            rank, shared = r.rank, r.shared
            head = f'  {{\n   "rank": {int.__repr__(rank)},\n   "shared": {term_set(shared)},\n   "source": '
        if r.via_intent != via:
            via = r.via_intent
            tail = f',\n   "via_intent": {term_set(via)}\n  }}'
        items.append(head + _encode(r.source) + tail)
    results = "[\n" + ",\n".join(items) + "\n ]" if items else "[]"
    return (
        "{\n"
        ' "query": {\n'
        f'  "label": {_encode(query.label)},\n'
        f'  "terms": {_string_list(map(str, query.terms), "  ")}\n'
        " },\n"
        f' "refinement": {refinement},\n'
        f' "results": {results}\n'
        "}\n"
    )


def _style_enabled() -> bool:
    if os.environ.get("FCA_REGISTRY_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def result_set_to_table(rs: ResultSet, styled: bool | None = None) -> str:
    """Plain-text table rendering for the CLI."""
    if styled is None:
        styled = _style_enabled()
    headers = ("source", "rank", "shared", "via intent")
    rows = [
        (
            r.source,
            str(r.rank),
            ", ".join(sorted(str(a) for a in r.shared)),
            ", ".join(sorted(str(a) for a in r.via_intent)),
        )
        for r in rs.results
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    if styled:
        header = f"\x1b[1m{header}\x1b[0m"
    lines = [header]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    if not rows:
        lines.append("(no matching sources)")
    return "\n".join(lines) + "\n"
