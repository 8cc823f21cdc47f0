"""Concept lattices: one downward walk, incremental insertion, oracles.

``_complete`` lists the concepts of a context and counts their covers in one
walk down from the top.  Each concept proposes, for every attribute outside
its intent, the part of its extent that has it; every lower cover is among
the proposals, and a proposal is one when all the attributes its intent adds
proposed it (the dual of Lindig's count on the object side).
``build_lattice`` is this walk from the top alone.  The up-set of a new
object's concept, a query's or an inserted source's, is this walk over a small
context (``FormalContext._query_context``), so one walk counts every cover and
one mask key (``_mask_sort_key``) orders every lattice.  A lattice is its
intent bit masks in canonical order, two maps keyed by intent (to its extent
mask, and to its parent intents in canonical order) and the key it is sorted
by, which an insertion with no new attribute reuses.  Insertion
(``insert_object``, after Godin, Missaoui & Alaoui, 1995) takes the up-set's
parent lists for the intents inside the row, bisects each new intent into
the order and rewires only the generators, each the old concept closing a
new intent; since parents are intents, not positions, every other list is
shared with the old lattice as it is.  Building, insertion, saving, loading
and DOT export work on these alone, each set once; the cover pairs are made
on each read of ``covers``, the ``FormalConcept`` values on each read of
``concepts``, and the lookups (``top``, ``bottom``, ``concept_with_intent``
and the covers of one concept) make only the values they return, from the
masks.  Only ``index_of``, which returns a position, bisects the order on
the key.

The loader parses the stored concepts into masks and runs the same walk,
stopped before it closes an extent the file does not hold; the file is
accepted when the walk gives back the stored concepts, in order, and the
stored covers.  So a load closes only stored extents, and a short file of a
context with a huge lattice is refused at once.
The walk and the derivation operators scan a mask's bits inline, the
lowest set bit at a time; the sort key is one int per mask.
The oracles recompute concepts and covers by brute force and share no code.
"""

from __future__ import annotations

import bisect
import json
from json.encoder import encode_basestring_ascii as _encode
from typing import Iterable, Sequence

from .context import Attribute, FormalContext, _bits, _fill_slots, _Immutable, _Record
from .errors import ContextError, LatticeError

#: Attribute-count guard for the naive oracle (exponential in the worst case).
ORACLE_MAX_ATTRIBUTES = 24


class FormalConcept(_Record):
    """A closed (extent, intent) pair; a node of the lattice."""

    extent: frozenset[str]
    intent: frozenset[Attribute]


def _mask_sort_key(ctx: FormalContext):
    """The canonical order on intent masks, as one int per mask: by size,
    then by the sorted key ranks of their bits, which is the order of their
    attributes' sorted keys.

    With n attributes, bit j weighs ``1 << (n - 1 - rank[j])``, and a mask
    b's key is ``(popcount(b) << n)`` minus the sum of its bits' weights.
    The sum is below ``1 << n``, so fewer bits sort first; between equal
    counts, the mask holding the lowest rank the two do not share has the
    larger sum, so it sorts first, as its sorted rank list does.  The
    weights are n ints of up to n bits, about n²/16 bytes (about 250 KB at
    n = 2,000).  They are worked out on each call; a lattice keeps the key
    it is sorted by, and a lattice grown without a new attribute shares it.
    """
    n = len(ctx.attributes)
    weight = [0] * n
    for r, j in enumerate(sorted(range(n), key=lambda j: ctx.attributes[j].key)):
        weight[j] = 1 << (n - 1 - r)

    def key(b: int) -> int:
        k = b.bit_count() << n
        while b:
            low = b & -b
            k -= weight[low.bit_length() - 1]
            b ^= low
        return k

    return key


def _concept(ctx: FormalContext, intent: int, extent: int) -> FormalConcept:
    return FormalConcept(
        extent=frozenset(ctx._objects_from_mask(extent)),
        intent=frozenset(ctx._attrs_from_mask(intent)),
    )


class ConceptLattice(_Immutable):
    """All formal concepts of a context, ordered by extent inclusion.

    Concepts are kept in canonical order (intent size, then lexicographic
    intent), so the first concept is the top and the last is the bottom.
    The stored state is the intent masks in that order, each intent's extent
    mask and parent intents (in canonical order), and the mask key of that
    order, each set once; ``covers`` and ``concepts`` are made from them on
    each read, and the lookups make only the values they return.  Instances
    are immutable, and so are the parent lists, which lattices grown by
    insertion share; insertion returns a new lattice.
    """

    __slots__ = ("context", "_intents", "_extent", "_parents", "_key")

    def __init__(
        self,
        context: FormalContext,
        concepts: Sequence[FormalConcept],
        covers: Iterable[tuple[int, int]],
    ):
        """A lattice from concept values; ``insert_object`` can grow it.

        The intents, in this order, and the covers, in any order and each a
        list or tuple of two ints, must be those of
        ``build_lattice(context)``; otherwise ``LatticeError``.
        The extents are kept as given.  The check is the loader's walk,
        stopped before it closes an extent that no given intent has.
        """
        concepts = tuple(concepts)
        try:
            intents = tuple(context._attr_mask(c.intent) for c in concepts)
            extents = tuple(context._obj_mask(c.extent) for c in concepts)
        except ContextError as exc:
            raise LatticeError(f"concept outside the context: {exc}") from exc
        ref = _complete(context, {context._extent_mask_of_intent_mask(b) for b in intents})
        if ref is None or intents != ref._intents:
            raise LatticeError("the concepts are not those of the context in canonical order")
        # pairs of ints by type: True and 1.0 equal 1, and a str does not sort with an int
        pairs = [
            tuple(p) if isinstance(p, (tuple, list)) and list(map(type, p)) == [int, int] else None
            for p in covers
        ]
        if None in pairs or sorted(pairs) != list(ref._pairs()):
            raise LatticeError("the covers are not those of the concepts")
        _fill_slots(self, context, intents, dict(zip(intents, extents)), ref._parents, ref._key)

    @classmethod
    def _from_masks(cls, ctx, intents, extent, parents, key) -> "ConceptLattice":
        """A lattice from its intent masks in canonical order, two maps keyed
        by intent (to its extent mask, and to its parent intents in canonical
        order), whose key order need not be the intents', and the
        ``_mask_sort_key`` of ``ctx`` that orders them."""
        lat = object.__new__(cls)
        _fill_slots(lat, ctx, tuple(intents), extent, parents, key)
        return lat

    def _pairs(self) -> Iterable[tuple[int, int]]:
        """The (child, parent) position pairs in sorted order."""
        intents, parents = self._intents, self._parents
        pos = dict(zip(intents, range(len(intents))))
        return ((i, pos[p]) for i, b in enumerate(intents) for p in parents[b])

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The (child, parent) position pairs, sorted, made on each read."""
        return tuple(self._pairs())

    @property
    def concepts(self) -> tuple[FormalConcept, ...]:
        """The concepts in canonical order, made from the masks on each read."""
        ctx, extent = self.context, self._extent
        return tuple(_concept(ctx, b, extent[b]) for b in self._intents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        # equal contexts give equal bit positions, and both lattices are in canonical
        # order, so equal masks are equal concepts and equal parent maps equal covers
        return (
            self.context == other.context
            and self._intents == other._intents
            and self._extent == other._extent
            and self._parents == other._parents
        )

    def __hash__(self):
        return hash((self.context, self._intents))

    def __repr__(self) -> str:
        return f"ConceptLattice({len(self._intents)} concepts, {sum(map(len, self._parents.values()))} covers)"

    def cover_concepts(self) -> set[tuple[FormalConcept, FormalConcept]]:
        """The cover relation as concept pairs (order-insensitive form)."""
        concepts = self.concepts
        return {(concepts[c], concepts[p]) for c, p in self._pairs()}

    def _value(self, b: int) -> FormalConcept:
        """The concept of intent mask ``b``, made on its own."""
        return _concept(self.context, b, self._extent[b])

    @property
    def top(self) -> FormalConcept:
        return self._value(self._intents[0])

    @property
    def bottom(self) -> FormalConcept:
        return self._value(self._intents[-1])

    def _mask_of(self, concept: FormalConcept) -> int:
        """The intent mask of a concept of the lattice; ``LatticeError`` for any other value."""
        ctx = self.context
        try:
            b = ctx._attr_mask(concept.intent)
            found = b in self._extent and ctx._obj_mask(concept.extent) == self._extent[b]
        except ContextError:
            found = False
        if not found:
            raise LatticeError(f"concept not in lattice: {concept}")
        return b

    def index_of(self, concept: FormalConcept) -> int:
        """The position of a concept, the one lookup that bisects the order on the key."""
        return bisect.bisect_left(self._intents, self._key(self._mask_of(concept)), key=self._key)

    def concept_with_intent(self, intent: Iterable[Attribute]) -> FormalConcept | None:
        try:
            b = self.context._attr_mask(intent)
        except ContextError:
            return None
        return self._value(b) if b in self._extent else None

    def upper_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        """Immediate parents in the Hasse diagram, in canonical order."""
        return [self._value(p) for p in self._parents[self._mask_of(concept)]]

    def lower_covers(self, concept: FormalConcept) -> list[FormalConcept]:
        """Immediate children in the Hasse diagram, in canonical order."""
        b = self._mask_of(concept)
        # children are visited in order, so the list comes out sorted
        return [self._value(c) for c in self._intents if b in self._parents[c]]

    def height(self) -> int:
        """Length in edges of the longest bottom-to-top chain."""
        longest = dict.fromkeys(self._intents, 0)
        # canonical order is a reverse topological order for child -> parent
        for b in reversed(self._intents):
            for p in self._parents[b]:
                longest[p] = max(longest[p], longest[b] + 1)
        return max(longest.values(), default=0)


def _complete(ctx: FormalContext, stored: set[int] | None = None) -> ConceptLattice | None:
    """The lattice of ``ctx``, listed and covered by one walk down from the top.

    For a concept (A, B), let u be the union of the rows in A.  Each
    attribute of u outside B proposes the extent of A and its column, and
    the attributes outside u together propose the empty extent; a concept
    with an empty extent has none below it.  Every lower cover is proposed,
    so the walk reaches every concept.  A new proposal is closed and walked
    in turn.  A proposal with intent D is a lower cover when its proposers
    are all |D| - |B| attributes D adds to B (the dual of Lindig's neighbour
    test).

    Given ``stored``, a set of extent masks, the walk returns None before it
    closes an extent not in the set, the top's included, so it closes only
    stored extents, each at most once.
    """
    rows, cols = ctx._rows, ctx._cols
    n_cols = len(cols)
    top = ctx._full_obj_mask
    if stored is not None and top not in stored:
        return None
    extents, intents = [top], [ctx._attr_closure(top)]
    sizes = [intents[0].bit_count()]
    at = {top: 0}
    parents: list[list[int]] = [[]]
    # the lists grow as the walk finds concepts, and the loop takes them up in turn
    for i, a in enumerate(extents):
        if not a:
            continue
        u, m = 0, a
        while m:
            low = m & -m
            u |= rows[low.bit_length() - 1]
            m ^= low
        b, size = intents[i], sizes[i]
        proposed: dict[int, int] = {}
        get = proposed.get
        outside = n_cols - u.bit_count()
        if outside:
            proposed[0] = outside
        m = u & ~b
        while m:
            low = m & -m
            c = a & cols[low.bit_length() - 1]
            proposed[c] = get(c, 0) + 1
            m ^= low
        for c, n in proposed.items():
            k = at.get(c)
            if k is None:
                if stored is not None and c not in stored:
                    return None
                k = at[c] = len(extents)
                d = ctx._attr_closure(c)
                extents.append(c)
                intents.append(d)
                sizes.append(d.bit_count())
                parents.append([])
            if n == sizes[k] - size:
                parents[k].append(b)
    key = _mask_sort_key(ctx)
    order = sorted(intents, key=key)
    pos = dict(zip(order, range(len(order))))
    return ConceptLattice._from_masks(
        ctx,
        order,
        dict(zip(intents, extents)),
        {b: sorted(ps, key=pos.__getitem__) for b, ps in zip(intents, parents)},
        key,
    )


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """Build the concept lattice of a context in canonical order."""
    return _complete(ctx)


def insert_object(
    lat: ConceptLattice,
    obj: str,
    attrs: Iterable[Attribute],
    *,
    allow_reserved: bool = False,
) -> ConceptLattice:
    """Insert one object; the result is ``build_lattice`` of the grown context.

    The intents inside the new row x, each with its upper covers, are the
    up-set of the object's concept: the lattice of the context restricted
    to x with the object added (``FormalContext._query_context``), as a
    query's is; the old ones among them gain the object.  Outside x, only
    generators change (after Godin, Missaoui & Alaoui, 1995): the generator
    of a new intent c with no new attribute is the old concept closing it,
    b0 = c'' in the old context.  It drops its parents inside x and gains
    c.  Every other old concept keeps its parent list, which the new
    lattice shares with the old one.

    When the object brings new attributes but not all of M, the new bottom
    M has x as a parent, and the old bottom if it is still closed, else the
    old bottom's parents outside x.  Only masks are computed, and only the
    generators are looked at outside the up-set.

    Each new intent is placed by bisecting the order on its int key.
    """
    ctx = lat.context.add_object(obj, attrs, allow_reserved=allow_reserved)
    x = ctx._rows[-1]
    g = 1 << (len(ctx.objects) - 1)
    full = ctx._full_attr_mask
    old_ctx, old_full = lat.context, lat.context._full_attr_mask
    sub, _ = old_ctx._query_context(ctx._attrs_from_mask(x), obj)
    up = _complete(sub)
    # both contexts rank attributes by key, so the up-set's intents, mapped to
    # the grown bits, are the grown intents inside x in canonical order
    bit = [1 << ctx._attr_index[a.key] for a in sub.attributes]
    grown = {b: sum(bit[k] for k in _bits(b)) for b in up._intents}
    # without a new attribute the grown context ranks its attributes as the old one
    key = lat._key if full == old_full else _mask_sort_key(ctx)
    # new attributes are appended, so old intents keep their masks; lists are
    # shared with the old lattice, so a changed one is replaced, never edited
    order, extent, parents = list(lat._intents), dict(lat._extent), dict(lat._parents)
    bottom = order[-1]
    # an old concept with an empty extent can only be the bottom, whose intent
    # (the old M) is not closed once the object brings new attributes
    closed = bool(extent[bottom]) or full == old_full
    if not closed:
        order.pop()
        del extent[bottom], parents[bottom]
    for b in up._intents:
        c = grown[b]
        parents[c] = [grown[p] for p in up._parents[b]]
        if c in extent:
            extent[c] |= g
            continue
        i = bisect.bisect(order, key(c), key=key)
        order.insert(i, c)
        extent[c] = ctx._extent_mask_of_intent_mask(c)
        if c & ~old_full:
            continue
        # a new intent c with no new attribute has one generator, b0 =
        # closure_old(c).  b0 & x = c, or c would not be closed in the grown
        # context.  No parent of b0 meets x at c, as it would be an old intent
        # between c and its closure b0, so b0 drops its parents inside x (all
        # above c) and gains c.  Any other old b with b & x = c lies below b0:
        # its parent on the way up to b0 meets x at c, and a parent inside x
        # would lie above c, so its list is already right.
        b0 = old_ctx._attr_closure(old_ctx._extent_mask_of_intent_mask(c))
        ps = [p for p in parents[b0] if p & ~x]
        bisect.insort(ps, c, key=key)
        parents[b0] = ps
    if full not in extent:
        below = [bottom] if closed else [p for p in lat._parents[bottom] if p & ~x]
        order.append(full)
        # only the new object has the new attributes, and it lacks one of M
        extent[full] = 0
        parents[full] = sorted(below + [x], key=key)
    return ConceptLattice._from_masks(ctx, order, extent, parents, key)


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
    """The extent and intent, each escaped for a DOT string, on two lines."""
    ext = _dot_escape(", ".join(sorted(extent)))
    itt = _dot_escape(", ".join(str(a) for a in sorted(intent, key=lambda a: a.key)))
    return f"{{{ext}}}\\n{{{itt}}}"


def export_dot(lat: ConceptLattice, reduced_labels: bool = False) -> str:
    """Render the Hasse diagram as a DOT digraph (child -> parent edges).

    With reduced labels every object and attribute appears only at its
    introducer concept.
    """
    ctx = lat.context
    if reduced_labels:
        own_objects: list[list[str]] = [[] for _ in lat._intents]
        own_attrs: list[list[Attribute]] = [[] for _ in lat._intents]
        # an object's row and the closure of an attribute's column are intents
        pos = dict(zip(lat._intents, range(len(lat._intents))))
        for g, row in zip(ctx.objects, ctx._rows):
            own_objects[pos[row]].append(g)
        for a, col in zip(ctx.attributes, ctx._cols):
            own_attrs[pos[ctx._attr_closure(col)]].append(a)
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, b in enumerate(lat._intents):
        if reduced_labels:
            label = _label(own_objects[i], own_attrs[i])
        else:
            label = _label(ctx._objects_from_mask(lat._extent[b]), ctx._attrs_from_mask(b))
        lines.append(f'  c{i} [label="{label}"];')
    for child, parent in lat.covers:
        lines.append(f"  c{child} -> c{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- persistence -------------------------------------------------------------


def _json_list(items: Iterable[str], indent: str) -> str:
    """Rendered JSON values as a list laid out as ``json.dumps(indent=1)`` does.

    ``indent`` is the indentation of the line the list's closing bracket
    would stand on; items stand one space deeper.
    """
    item = "\n" + indent + " "
    text = ("," + item).join(items)
    return "[" + item + text + "\n" + indent + "]" if text else "[]"


def lattice_to_json(lat: ConceptLattice) -> str:
    """Serialize a lattice as a self-describing JSON document (stable bytes).

    The text is ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"`` of the
    lattice document, written directly for its fixed schema: each string is
    escaped once by the C encoder, and extents list their objects by id.
    """
    ctx = lat.context
    n = len(ctx.attributes)
    names = list(map(_encode, ctx.objects))
    by_id = sorted(range(len(names)), key=ctx.objects.__getitem__)
    # object i is the rank[i]-th by id: the inverse of a permutation sorts it
    rank = sorted(range(len(names)), key=by_id.__getitem__)
    ranked = [names[i] for i in by_id]
    ints = list(map(str, range(max(n, len(lat._intents)))))
    extent = lat._extent
    concepts = (
        f'{{\n   "extent": {_json_list([ranked[r] for r in sorted([rank[i] for i in _bits(extent[b])])], "   ")}'
        f',\n   "intent": {_json_list([ints[j] for j in _bits(b)], "   ")}\n  }}'
        for b in lat._intents
    )
    attributes = (
        f'{{\n    "category": {_encode(a.category)},\n'
        f'    "prefix": {"null" if a.prefix is None else _encode(a.prefix)},\n'
        f'    "term": {_encode(a.term)}\n   }}'
        for a in ctx.attributes
    )
    # format writes 0 as "0" even with no attributes
    rows = ('"' + (format(row, "b").zfill(n)[::-1] if n else "") + '"' for row in ctx._rows)
    covers = ("[\n   " + ints[i] + ",\n   " + ints[p] + "\n  ]" for i, p in lat._pairs())
    return (
        f'{{\n "concepts": {_json_list(concepts, " ")},\n'
        f' "context": {{\n  "attributes": {_json_list(attributes, "  ")},\n'
        f'  "incidence": {_json_list(rows, "  ")},\n'
        f'  "objects": {_json_list(names, "  ")}\n }},\n'
        f' "covers": {_json_list(covers, " ")},\n'
        ' "format": "fcaregistry-lattice",\n "version": 1\n}\n'
    )


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}
_MISMATCH = "malformed lattice file: the stored {} are not those of its context"


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
        if len(line) != len(attrs):
            raise ContextError("incidence column count does not match attribute count")
        # cell j is bit j
        rows.append(int(line[::-1], 2) if line else 0)
    return FormalContext._from_rows(objects, attrs, rows, allow_reserved_ids=True)


def _stored_concepts(ctx: FormalContext, docs: list) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The stored extent masks and intent masks, in the stored order, or None
    unless each concept is written as ``lattice_to_json`` writes one."""
    n_attrs = len(ctx.attributes)
    obj_index = ctx._obj_index
    extents, intents = [], []
    for doc in docs:
        if not isinstance(doc, dict) or doc.keys() != {"extent", "intent"}:
            return None
        members, bits = doc["extent"], doc["intent"]
        if not isinstance(members, list) or not isinstance(bits, list):
            return None
        extent, last = 0, None
        for g in members:
            i = obj_index.get(g) if type(g) is str else None
            if i is None or (last is not None and g <= last):
                return None
            extent |= 1 << i
            last = g
        intent, last = 0, -1
        for j in bits:
            # True and 1.0 equal 1, so a bit must be an int by type
            if type(j) is not int or not last < j < n_attrs:
                return None
            intent |= 1 << j
            last = j
        extents.append(extent)
        intents.append(intent)
    return tuple(extents), tuple(intents)


def lattice_from_json(text: str) -> ConceptLattice:
    """Reload a persisted lattice; the result is value-identical to the saved one.

    The stored concepts and covers must be exactly those ``build_lattice``
    of the stored context would write; any other value, and a stored
    context that cannot be built, raises ``LatticeError``.  The stored
    concepts are parsed into masks first, and ``_complete`` run with the
    stored extents, which stops before it closes any other, must give back
    the stored extents and intents in the stored order, with the stored
    covers.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LatticeError(f"unreadable lattice file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "fcaregistry-lattice":
        raise LatticeError("not a lattice file (missing format marker)")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise LatticeError(f"unsupported lattice file version: {version!r} (expected 1)")
    try:
        ctx = _context_from_doc(_expect(doc.get("context"), dict, "'context'"))
    except ContextError as exc:
        raise LatticeError(f"malformed lattice file: {exc}") from exc
    masks = _stored_concepts(ctx, _expect(doc.get("concepts"), list, "'concepts'"))
    lat = None if masks is None else _complete(ctx, set(masks[0]))
    if lat is None or (tuple(map(lat._extent.get, masks[1])), lat._intents) != masks:
        raise LatticeError(_MISMATCH.format("concepts"))
    stored = _expect(doc.get("covers"), list, "'covers'")
    counted = [[i, p] for i, p in lat._pairs()]
    if stored != counted or any(type(x) is not int for pair in stored for x in pair):
        raise LatticeError(_MISMATCH.format("covers"))
    return lat
