"""Concept lattices: construction from row intersections, Hasse covers, oracles.

Intersections of closed intents are closed, so the intents of a context are
M together with every intersection of a non-empty set of object rows;
``build_lattice`` takes them with ``_intersections`` and never re-closes a
candidate.  Covers come from Lindig's neighbour count (``_upper_neighbours``).
A lattice is its intent and extent bit masks in canonical order.  Building,
insertion, saving, loading and DOT export work on the masks alone; the
``FormalConcept`` values are made from them on the first access to
``concepts``, and the lookups (``top``, ``bottom``, ``concept_with_intent``,
``index_of`` and the covers of one concept) make only the values they return.

``insert_object`` updates a lattice for one new row x instead of rebuilding
it (Godin, Missaoui & Alaoui, 1995).  An old concept with intent b falls in
one of three cases:

- b ⊆ x: its extent gains the new object and its upper covers stay;
- b ⊄ x and b & x is an old intent: nothing changes;
- b ⊄ x and b & x is new: b is a generator and its upper covers are
  recomputed.

The new intents are the intersections of x with the old intents that are
not old intents themselves, plus M; their upper covers are computed too.

The loader rebuilds the lattice from the stored context and verifies the
stored concepts and covers against it.  The oracles recompute concepts and
covers by brute force and share no code with these routines.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import Attribute, FormalContext, _bits
from .errors import ContextError, LatticeError

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


def _concept(ctx: FormalContext, intent: int, extent: int) -> FormalConcept:
    return FormalConcept(
        extent=frozenset(ctx._objects_from_mask(extent)),
        intent=frozenset(ctx._attrs_from_mask(intent)),
    )


class ConceptLattice:
    """All formal concepts of a context, ordered by extent inclusion.

    Concepts are kept in canonical order (intent size, then lexicographic
    intent), so the first concept is the top and the last is the bottom.
    The stored state is each concept's intent and extent mask in that order;
    ``concepts`` makes the ``FormalConcept`` values once, when first read,
    and the lookups make only the values they return.
    Instances are immutable; insertion returns a new lattice.
    """

    __slots__ = (
        "context", "covers", "_intents", "_extents", "_pos", "_parents", "_children", "_concepts"
    )

    def __init__(
        self,
        context: FormalContext,
        concepts: Sequence[FormalConcept],
        covers: Iterable[tuple[int, int]],
    ):
        """A lattice from concept values; ``insert_object`` can grow it.

        The intents, in this order, and the covers, in any order, must be
        those of ``build_lattice(context)``; otherwise ``LatticeError``.
        The extents are kept as given.
        """
        concepts = tuple(concepts)
        ref = build_lattice(context)
        try:
            intents = tuple(context._attr_mask(c.intent) for c in concepts)
            extents = tuple(context._obj_mask(c.extent) for c in concepts)
        except ContextError as exc:
            raise LatticeError(f"concept outside the context: {exc}") from exc
        if intents != ref._intents:
            raise LatticeError("the concepts are not those of the context in canonical order")
        if sorted(tuple(pair) for pair in covers) != list(ref.covers):
            raise LatticeError("the covers are not those of the concepts")
        self._fill(context, ref.covers, intents, extents, ref._pos, ref._parents)

    @classmethod
    def _from_masks(cls, ctx, intents, extents, pos, parents) -> "ConceptLattice":
        """A lattice from canonically ordered intent and extent masks, the
        position of each intent, and each concept's sorted parent positions."""
        lat = object.__new__(cls)
        covers = tuple((i, p) for i, ps in enumerate(parents) for p in ps)
        lat._fill(ctx, covers, tuple(intents), tuple(extents), pos, parents)
        return lat

    def _fill(self, context, covers, intents, extents, pos, parents) -> None:
        # child lists and concept values are made on first use
        values = (context, covers, intents, extents, pos, parents, None, None)
        for name, value in zip(ConceptLattice.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @property
    def concepts(self) -> tuple[FormalConcept, ...]:
        """The concepts in canonical order, made from the masks on first access."""
        if self._concepts is None:
            ctx = self.context
            values = tuple(_concept(ctx, b, e) for b, e in zip(self._intents, self._extents))
            object.__setattr__(self, "_concepts", values)
        return self._concepts

    def __setattr__(self, name, value):
        raise AttributeError("ConceptLattice is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        # equal contexts give equal bit positions, and both lattices are in
        # canonical order, so equal masks are equal concepts and covers
        return (
            self.context == other.context
            and self._intents == other._intents
            and self._extents == other._extents
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.context, self._intents, self._extents))

    def __repr__(self) -> str:
        return f"ConceptLattice({len(self._intents)} concepts, {len(self.covers)} covers)"

    def cover_concepts(self) -> set[tuple[FormalConcept, FormalConcept]]:
        """The cover relation as concept pairs (order-insensitive form)."""
        return {(self.concepts[c], self.concepts[p]) for c, p in self.covers}

    def _value(self, i: int) -> FormalConcept:
        """The concept at position i, made on its own unless all are made."""
        if self._concepts is not None:
            return self._concepts[i]
        return _concept(self.context, self._intents[i], self._extents[i])

    @property
    def top(self) -> FormalConcept:
        return self._value(0)

    @property
    def bottom(self) -> FormalConcept:
        return self._value(-1)

    def _index_of_intent(self, intent: Iterable[Attribute]) -> int | None:
        try:
            return self._pos.get(self.context._attr_mask(intent))
        except ContextError:
            return None

    def index_of(self, concept: FormalConcept) -> int:
        idx = self._index_of_intent(concept.intent)
        try:
            found = idx is not None and self.context._obj_mask(concept.extent) == self._extents[idx]
        except ContextError:
            found = False
        if not found:
            raise LatticeError(f"concept not in lattice: {concept}")
        return idx

    def concept_with_intent(self, intent: Iterable[Attribute]) -> FormalConcept | None:
        idx = self._index_of_intent(intent)
        return None if idx is None else self._value(idx)

    def upper_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        """Immediate parents in the Hasse diagram, in canonical order."""
        return [self._value(p) for p in self._parents[self.index_of(concept)]]

    def lower_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        """Immediate children in the Hasse diagram, in canonical order."""
        idx = self.index_of(concept)
        if self._children is None:
            children: list[list[int]] = [[] for _ in self._intents]
            # covers are sorted by child, so each list comes out sorted
            for c, p in self.covers:
                children[p].append(c)
            object.__setattr__(self, "_children", children)
        return [self._value(c) for c in self._children[idx]]

    def height(self) -> int:
        """Length in edges of the longest bottom-to-top chain."""
        longest = {i: 0 for i in range(len(self._intents))}
        # canonical order is a reverse topological order for child -> parent
        for i in reversed(range(len(self._intents))):
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


def _parent_finder(ctx: FormalContext, order: Sequence[int], extents: Sequence[int]):
    """The position of each intent of ``order``, and a function giving its
    sorted parent positions.

    ``order`` holds every intent of ``ctx`` and ``extents`` their extents.
    """
    sizes = {b: e.bit_count() for b, e in zip(order, extents)}
    pos = {b: i for i, b in enumerate(order)}
    counts = Counter(ctx._rows)

    def parents_of(b: int) -> list[int]:
        return sorted(pos[p] for p in _upper_neighbours(b, sizes[b], counts, sizes))

    return pos, parents_of


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Build the concept lattice: its intents are M and every intersection of rows."""
    intents = _intersections(ctx._rows) | {ctx._full_attr_mask}
    order = sorted(intents, key=lambda b: _intent_sort_key(ctx._attrs_from_mask(b)))
    extents = [ctx._extent_mask_of_intent_mask(b) for b in order]
    pos, parents_of = _parent_finder(ctx, order, extents)
    return ConceptLattice._from_masks(ctx, order, extents, pos, [parents_of(b) for b in order])


def insert_object(
    lat: ConceptLattice,
    obj: str,
    attrs: Iterable[Attribute],
    *,
    allow_reserved: bool = False,
) -> ConceptLattice:
    """Insert one object; the result is ``build_lattice`` of the grown context.

    Only what the new row x changes is recomputed.  An old concept with
    intent b falls in one of three cases:

    - b ⊆ x: its extent gains the object and its upper covers stay;
    - b ⊄ x and b & x is an old intent: nothing changes;
    - b ⊄ x and b & x is new: b is a generator and its upper covers are
      recomputed.

    The new intents, the intersections of x with old intents that are not
    old intents, plus M, are merged into the canonical order and get their
    upper covers from ``_upper_neighbours``.  Only masks are computed; the
    grown lattice makes its ``FormalConcept`` values when they are read.
    """
    ctx = lat.context.add_object(obj, attrs, allow_reserved=allow_reserved)
    x = ctx._rows[-1]
    g = 1 << (len(ctx.objects) - 1)
    full = ctx._full_attr_mask
    old, old_extents = lat._intents, lat._extents
    # new attributes are appended, so old intents keep their masks; an old
    # concept with an empty extent can only be the bottom, whose intent (the
    # old M) is not closed once the object brings new attributes
    order = list(old)
    if not old_extents[-1] and full != lat.context._full_attr_mask:
        order.pop()
    # old intents with a non-empty extent are intersections of rows
    base = {b for b, e in zip(old, old_extents) if e}
    new = (_intersections([x], base) | {full}).difference(lat._pos)
    for b in new:
        bisect.insort(order, b, key=lambda m: _intent_sort_key(ctx._attrs_from_mask(m)))

    extents = []
    for b in order:
        i = lat._pos.get(b)
        if i is None:
            extents.append(ctx._extent_mask_of_intent_mask(b))
        elif b & x == b:
            extents.append(old_extents[i] | g)
        else:
            extents.append(old_extents[i])

    pos, parents_of = _parent_finder(ctx, order, extents)
    parents = []
    for b in order:
        i = lat._pos.get(b)
        if i is None or b & x in new:
            parents.append(parents_of(b))
        else:
            parents.append([pos[old[p]] for p in lat._parents[i]])
    return ConceptLattice._from_masks(ctx, order, extents, pos, parents)


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
        own_objects: dict[int, list[str]] = {i: [] for i in range(len(lat._intents))}
        own_attrs: dict[int, list[Attribute]] = {i: [] for i in range(len(lat._intents))}
        for g, row in zip(ctx.objects, ctx._rows):
            own_objects[lat._pos[row]].append(g)
        for a in ctx.attributes:
            own_attrs[lat._pos[ctx._attr_mask(ctx.close_attributes([a]))]].append(a)
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, (b, e) in enumerate(zip(lat._intents, lat._extents)):
        if reduced_labels:
            label = _label(own_objects[i], own_attrs[i])
        else:
            label = _label(ctx._objects_from_mask(e), ctx._attrs_from_mask(b))
        lines.append(f'  c{i} [label="{_dot_escape(label)}"];')
    for child, parent in lat.covers:
        lines.append(f"  c{child} -> c{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- persistence -------------------------------------------------------------


def _lattice_doc(lat: ConceptLattice) -> dict:
    ctx = lat.context
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
        "concepts": _concept_docs(lat),
        "covers": _cover_docs(lat),
    }


def _concept_docs(lat: ConceptLattice) -> list[dict]:
    ctx = lat.context
    return [
        {"extent": sorted(ctx._objects_from_mask(e)), "intent": list(_bits(b))}
        for b, e in zip(lat._intents, lat._extents)
    ]


def _cover_docs(lat: ConceptLattice) -> list[list[int]]:
    return [list(pair) for pair in lat.covers]


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
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise LatticeError(f"unsupported lattice file version: {version!r} (expected 1)")
    lat = build_lattice(_context_from_doc(_expect(doc.get("context"), dict, "'context'")))
    for key, rebuilt in (("concepts", _concept_docs), ("covers", _cover_docs)):
        if _expect(doc.get(key), list, f"{key!r}") != rebuilt(lat):
            raise LatticeError(f"malformed lattice file: the stored {key} are not those of its context")
    return lat
