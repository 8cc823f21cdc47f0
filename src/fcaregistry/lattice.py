"""Concept lattices: construction from row intersections, Hasse covers, oracles.

Intersections of closed intents are closed, so the intents of a context are
M together with every intersection of a non-empty set of object rows;
``build_lattice`` and ``insert_object`` take them with ``_intersections`` and
never re-close a candidate.  Covers come from Lindig's neighbour count
(``_upper_neighbours``).  The loader rebuilds the lattice from the stored
context and verifies the stored concepts and covers against it.  The oracles
recompute concepts and covers by brute force and share no code with these
routines.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import Attribute, FormalContext
from .errors import LatticeError

#: Attribute-count guard for the naive oracle (exponential in the worst case).
ORACLE_MAX_ATTRIBUTES = 24


@dataclass(frozen=True)
class FormalConcept:
    """A closed (extent, intent) pair; a node of the lattice."""

    extent: frozenset[str]
    intent: frozenset[Attribute]


def _intent_sort_key(intent: Iterable[Attribute]):
    keys = sorted(a.key for a in intent)
    return (len(keys), keys)


class ConceptLattice:
    """All formal concepts of a context, ordered by extent inclusion.

    Concepts are kept in canonical order (intent size, then lexicographic
    intent), so the first concept is the top and the last is the bottom.
    Instances are immutable; insertion returns a new lattice.
    """

    __slots__ = ("context", "concepts", "covers", "_index", "_by_intent", "_parents", "_children")

    def __init__(
        self,
        context: FormalContext,
        concepts: Sequence[FormalConcept],
        covers: Sequence[tuple[int, int]],
    ):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "concepts", tuple(concepts))
        object.__setattr__(self, "covers", tuple(covers))
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.concepts)})
        object.__setattr__(self, "_by_intent", {c.intent: i for i, c in enumerate(self.concepts)})
        parents: dict[int, list[int]] = {i: [] for i in range(len(self.concepts))}
        children: dict[int, list[int]] = {i: [] for i in range(len(self.concepts))}
        for child, parent in self.covers:
            parents[child].append(parent)
            children[parent].append(child)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):
        raise AttributeError("ConceptLattice is immutable")

    @classmethod
    def _from_intent_masks(cls, ctx: FormalContext, intent_masks: set[int]) -> "ConceptLattice":
        intents = {im: frozenset(ctx._attrs_from_mask(im)) for im in intent_masks}
        order = sorted(intents, key=lambda im: _intent_sort_key(intents[im]))
        extents = {im: ctx._extent_mask_of_intent_mask(im) for im in order}
        sizes = {im: em.bit_count() for im, em in extents.items()}
        index = {im: i for i, im in enumerate(order)}
        counts = Counter(ctx._rows)
        covers = sorted(
            (i, index[parent])
            for i, im in enumerate(order)
            for parent in _upper_neighbours(im, sizes[im], counts, sizes)
        )
        concepts = [
            FormalConcept(extent=frozenset(ctx._objects_from_mask(extents[im])), intent=intents[im])
            for im in order
        ]
        return cls(ctx, concepts, covers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return (
            self.context == other.context
            and set(self.concepts) == set(other.concepts)
            and self.cover_concepts() == other.cover_concepts()
        )

    def __hash__(self):
        return hash((self.context, frozenset(self.concepts)))

    def __repr__(self) -> str:
        return f"ConceptLattice({len(self.concepts)} concepts, {len(self.covers)} covers)"

    def cover_concepts(self) -> set[tuple[FormalConcept, FormalConcept]]:
        """The cover relation as concept pairs (order-insensitive form)."""
        return {(self.concepts[c], self.concepts[p]) for c, p in self.covers}

    @property
    def top(self) -> FormalConcept:
        return self.concepts[0]

    @property
    def bottom(self) -> FormalConcept:
        return self.concepts[-1]

    def index_of(self, concept: FormalConcept) -> int:
        idx = self._index.get(concept)
        if idx is None:
            raise LatticeError(f"concept not in lattice: {concept}")
        return idx

    def concept_with_intent(self, intent: Iterable[Attribute]) -> FormalConcept | None:
        idx = self._by_intent.get(frozenset(intent))
        return None if idx is None else self.concepts[idx]

    def upper_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        """Immediate parents in the Hasse diagram, in canonical order."""
        idx = self.index_of(concept)
        return [self.concepts[p] for p in sorted(self._parents[idx])]

    def lower_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        idx = self.index_of(concept)
        return [self.concepts[c] for c in sorted(self._children[idx])]

    def height(self) -> int:
        """Length in edges of the longest bottom-to-top chain."""
        longest = {i: 0 for i in range(len(self.concepts))}
        # canonical order is a reverse topological order for child -> parent
        for i in reversed(range(len(self.concepts))):
            for p in self._parents[i]:
                longest[p] = max(longest[p], longest[i] + 1)
        return max(longest.values(), default=0)


def _intersections(rows: Iterable[int], closed: Iterable[int] = ()) -> set[int]:
    """The smallest set closed under ``&`` that holds ``closed`` and every row.

    ``closed`` must itself be closed under ``&``.  With ``closed`` the
    intersections of earlier rows, the result is every intersection of a
    non-empty set of all the rows (Godin, Missaoui & Alaoui, 1995).
    """
    masks = set(closed)
    for x in rows:
        if x not in masks:
            masks |= {y & x for y in masks}
            masks.add(x)
    return masks


def _upper_neighbours(b: int, size: int, counts: dict[int, int], sizes: dict[int, int]) -> list[int]:
    """Intents of the upper covers of the concept with intent ``b`` and ``size`` objects.

    ``counts`` maps each distinct row to its number of objects, ``sizes``
    each intent to the size of its extent.  Each row outside the extent
    proposes ``b & x``; a proposal is a parent when its proposers are all the
    objects its extent adds to ``b``'s (Lindig's neighbour test, "Fast
    Concept Analysis", 2000).
    """
    proposed: dict[int, int] = {}
    for x, n in counts.items():
        c = b & x
        if c != b:
            proposed[c] = proposed.get(c, 0) + n
    return [c for c, n in proposed.items() if n == sizes[c] - size]


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Build the concept lattice: its intents are M and every intersection of rows."""
    return ConceptLattice._from_intent_masks(ctx, _intersections(ctx._rows) | {ctx._full_attr_mask})


def insert_object(
    lat: ConceptLattice,
    obj: str,
    attrs: Iterable[Attribute],
    *,
    allow_reserved: bool = False,
) -> ConceptLattice:
    """Insert one object incrementally; equals a full rebuild on the grown context."""
    ctx = lat.context.add_object(obj, attrs, allow_reserved=allow_reserved)
    # new attributes are appended, so old intents keep their masks; an old
    # concept with an empty extent can only be the bottom, whose intent (the
    # old M) is not closed once the object brings new attributes
    old = {ctx._attr_mask(c.intent) for c in lat.concepts if c.extent}
    intents = _intersections([ctx._rows[-1]], old) | {ctx._full_attr_mask}
    return ConceptLattice._from_intent_masks(ctx, intents)


def enumerate_concepts_oracle(ctx: FormalContext) -> set[FormalConcept]:
    """Exact concept set, computed without the incremental algorithm.

    Intersects row intents to a fixpoint (every concept intent is an
    intersection of object intents, with the empty intersection giving M).
    Guarded to test-scale contexts.
    """
    if len(ctx.attributes) > ORACLE_MAX_ATTRIBUTES:
        raise LatticeError(
            f"oracle limited to {ORACLE_MAX_ATTRIBUTES} attributes (test-scale use only)"
        )
    row_intents = {g: frozenset(ctx.intent_of(g)) for g in ctx.objects}
    all_attrs = frozenset(ctx.attributes)
    intents = {all_attrs}
    frontier = set(intents)
    while frontier:
        fresh = set()
        for y in frontier:
            for ri in row_intents.values():
                z = y & ri
                if z not in intents and z not in fresh:
                    fresh.add(z)
        intents |= fresh
        frontier = fresh
    return {
        FormalConcept(
            extent=frozenset(g for g, ri in row_intents.items() if intent <= ri),
            intent=intent,
        )
        for intent in intents
    }


def enumerate_covers_oracle(
    concepts: Iterable[FormalConcept],
) -> set[tuple[FormalConcept, FormalConcept]]:
    """Brute-force cover relation (child, parent) over a concept set."""
    cs = list(concepts)
    covers = set()
    for child in cs:
        for parent in cs:
            if not child.extent < parent.extent:
                continue
            if any(
                child.extent < mid.extent < parent.extent for mid in cs
            ):
                continue
            covers.add((child, parent))
    return covers


# -- DOT export --------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label(extent: Iterable[str], intent: Iterable[Attribute]) -> str:
    ext = ", ".join(sorted(extent))
    itt = ", ".join(str(a) for a in sorted(intent, key=lambda a: a.key))
    return f"{{{ext}}}\\n{{{itt}}}"


def export_dot(lat: ConceptLattice, reduced_labels: bool = False) -> str:
    """Render the Hasse diagram as a DOT digraph (child -> parent edges).

    With reduced labels every object and attribute appears only at its
    introducer concept.
    """
    ctx = lat.context
    if reduced_labels:
        own_objects: dict[int, list[str]] = {i: [] for i in range(len(lat.concepts))}
        own_attrs: dict[int, list[Attribute]] = {i: [] for i in range(len(lat.concepts))}
        for g in ctx.objects:
            own_objects[lat._by_intent[frozenset(ctx.intent_of(g))]].append(g)
        for a in ctx.attributes:
            own_attrs[lat._by_intent[frozenset(ctx.close_attributes([a]))]].append(a)
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, c in enumerate(lat.concepts):
        if reduced_labels:
            label = _label(own_objects[i], own_attrs[i])
        else:
            label = _label(c.extent, c.intent)
        lines.append(f'  c{i} [label="{_dot_escape(label)}"];')
    for child, parent in lat.covers:
        lines.append(f"  c{child} -> c{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- persistence -------------------------------------------------------------


def _lattice_doc(lat: ConceptLattice) -> dict:
    ctx = lat.context
    attr_idx = {a.key: j for j, a in enumerate(ctx.attributes)}
    return {
        "format": "fcaregistry-lattice",
        "version": 1,
        "context": {
            "objects": list(ctx.objects),
            "attributes": [
                {"term": a.term, "prefix": a.prefix, "category": a.category}
                for a in ctx.attributes
            ],
            "incidence": [
                "".join(str(ctx._rows[i] >> j & 1) for j in range(len(ctx.attributes)))
                for i in range(len(ctx.objects))
            ],
        },
        "concepts": [
            {
                "extent": sorted(c.extent),
                "intent": sorted(attr_idx[a.key] for a in c.intent),
            }
            for c in lat.concepts
        ],
        "covers": [list(pair) for pair in lat.covers],
    }


def lattice_to_json(lat: ConceptLattice) -> str:
    """Serialize a lattice as a self-describing JSON document (stable bytes)."""
    return json.dumps(_lattice_doc(lat), sort_keys=True, indent=1) + "\n"


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise LatticeError(f"malformed lattice file: {what} must be {_KIND_NAMES[kind]}")
    return value


def _context_from_doc(cdoc: dict) -> FormalContext:
    objects = _expect(cdoc.get("objects"), list, "'objects'")
    for g in objects:
        _expect(g, str, "an object id")
    attrs = []
    for a in _expect(cdoc.get("attributes"), list, "'attributes'"):
        _expect(a, dict, "an attribute entry")
        prefix = a.get("prefix")
        if prefix is not None:
            _expect(prefix, str, "an attribute prefix")
        term = _expect(a.get("term"), str, "an attribute term")
        attrs.append(Attribute(term=term, prefix=prefix, category=a.get("category", "Subject")))
    rows = []
    for line in _expect(cdoc.get("incidence"), list, "'incidence'"):
        if _expect(line, str, "an incidence row").strip("01"):
            raise LatticeError(f"malformed lattice file: incidence cells must be 0 or 1, got {line!r}")
        rows.append([int(ch) for ch in line])
    return FormalContext(objects, attrs, rows, allow_reserved_ids=True)


def lattice_from_json(text: str) -> ConceptLattice:
    """Reload a persisted lattice; the result is value-identical to the saved one.

    The lattice is rebuilt from the stored context.  The stored concepts and
    covers must be exactly those the rebuilt lattice would write; any other
    value raises ``LatticeError``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeError(f"unreadable lattice file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "fcaregistry-lattice":
        raise LatticeError("not a lattice file (missing format marker)")
    lat = build_lattice(_context_from_doc(_expect(doc.get("context"), dict, "'context'")))
    rebuilt = _lattice_doc(lat)
    for key in ("concepts", "covers"):
        if _expect(doc.get(key), list, f"{key!r}") != rebuilt[key]:
            raise LatticeError(f"malformed lattice file: the stored {key} are not those of its context")
    return lat
