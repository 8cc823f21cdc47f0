"""Formal contexts: source-by-metadata incidence tables and derivation operators.

A context is the triple (objects, attributes, incidence), stored as one
integer bit mask per object row (bit j is attribute j) and one per attribute
column (bit i is object i).  Every context the package makes, from records,
CSV, a saved lattice, a projection or a query, is made from row masks by
``FormalContext._from_rows``, and ``add_object`` appends one row mask; only
the public constructor reads 0/1 cell lists, for callers outside the package.

There are two derivation operators, one each way: ``_attr_closure`` maps an
object mask to the mask of the attributes its objects share, and
``_extent_mask_of_intent_mask`` maps an attribute mask to the mask of the
objects having all of them.  Each is a chain of bitwise ANDs, and
``derive_objects``, ``derive_attributes`` and ``close_attributes`` are these
operators and their composition.
"""

from __future__ import annotations

import csv
import io
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import ContextError

#: The closed set of metadata categories.
CATEGORIES = ("Identification", "Subject", "Organism", "Quality", "Availability")

#: Object id reserved for virtual query insertion (see the retrieval module).
RESERVED_OBJECT_ID = "Query"


#: Sets a field or slot past the ``__setattr__`` that refuses.
#: Unlike ``self.__dict__``, it keeps a record's values inline without a dict per instance.
_set_field = object.__setattr__


def _check_text(text: str, what: str) -> None:
    """Refuse text UTF-8 cannot encode: a lone surrogate, such as the JSON escape ``"\\ud800"``."""
    if not text.isascii() and any("\ud800" <= ch <= "\udfff" for ch in text):
        raise ContextError(f"{what} {text!r} holds a lone surrogate")


def _fill_slots(obj, *values) -> None:
    """Set every slot of ``obj``, in ``__slots__`` order."""
    for name, value in zip(obj.__slots__, values, strict=True):
        _set_field(obj, name, value)


class _Immutable:
    """Base of the slotted classes set once by ``_fill_slots``: refuses assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__


class _Record:
    """Base of the package's record types: values made once and never changed.

    A subclass declares its fields once, as class annotations, in order; a
    default is a class attribute, so ``Query.label == "Query"``.  A subclass
    without its own ``__init__`` gets one made here, as ``dataclasses`` makes
    it: one positional-or-keyword parameter per field, in order, with the
    defaults, setting each field with ``_set_field``.  Equality asks for the
    same class and equal fields, the hash is that of the field tuple, and
    the repr is ``Name(field=value, ...)``, all as ``dataclasses`` makes
    them for a frozen class.  Plain classes save every process the import
    of ``dataclasses`` and the methods it generates at start-up.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        # ``cls._values(record)`` is the tuple of the record's fields (two or more)
        cls._values = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            # spelled out, not ``*args``: the signature stays the fields', and
            # a call costs what a hand-written one does
            params = ", ".join(f"{f}=cls.{f}" if f in cls.__dict__ else f for f in fields)
            body = "".join(f"\n    _set_field(self, {f!r}, {f})" for f in fields)
            namespace = {"cls": cls, "_set_field": _set_field}
            exec(f"def __init__(self, {params}):{body}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__annotations__ = dict(cls.__annotations__)
            cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Attribute(_Record):
    """A metadata term, optionally prefixed by the ontology it came from.

    Identity is the (prefix, term) pair; the category is descriptive and is
    excluded from equality so that bare query terms match context attributes.
    An empty prefix is no prefix, so equal attributes are those with equal keys.
    """

    term: str
    prefix: str | None
    category: str

    def __init__(self, term: str, prefix: str | None = None, category: str = "Subject"):
        if not term:
            raise ContextError("attribute term must be non-empty")
        _check_text(term, "attribute term")
        _check_text(prefix or "", "attribute prefix")
        if category not in CATEGORIES:
            raise ContextError(f"unknown attribute category: {category!r}")
        _set_field(self, "term", term)
        _set_field(self, "prefix", None if prefix == "" else prefix)
        _set_field(self, "category", category)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.term, self.prefix) == (other.term, other.prefix)
        return NotImplemented

    def __hash__(self):
        return hash((self.term, self.prefix))

    @property
    def key(self) -> tuple[str, str]:
        return (self.prefix or "", self.term)

    def __str__(self) -> str:
        return f"{self.prefix}:{self.term}" if self.prefix else self.term


def split_term(raw: str) -> tuple[str | None, str]:
    """Split ``prefix:term`` at its first ``:``; a bare term has no prefix.  The one name reader."""
    prefix, sep, term = raw.partition(":")
    if not sep:
        return None, raw
    return prefix, term


def _bits(mask: int):
    """Positions of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_object_id(obj: str, taken, allow_reserved: bool) -> None:
    """Refuse an object id that is empty, reserved or already ``taken``."""
    if not obj:
        raise ContextError("object id must be non-empty")
    _check_text(obj, "object id")
    if obj == RESERVED_OBJECT_ID and not allow_reserved:
        raise ContextError(f"object id {obj!r} is reserved for queries")
    if obj in taken:
        raise ContextError(f"duplicate object id: {obj!r}")


def _ordered_attrs(attrs: Iterable[Attribute]) -> list[Attribute]:
    """Deduplicate attributes, keeping a deterministic order.

    Sequences keep their given order; unordered collections are sorted by key.
    """
    if isinstance(attrs, (set, frozenset)):
        attrs = sorted(attrs, key=lambda a: a.key)
    out: list[Attribute] = []
    seen: set[tuple[str, str]] = set()
    for a in attrs:
        if a.key not in seen:
            seen.add(a.key)
            out.append(a)
    return out


class FormalContext(_Immutable):
    """An immutable (objects x attributes) boolean incidence table.

    Every slot is set once, when the context is made; the canonical order
    of a lattice's concepts is kept by the lattice (``ConceptLattice._key``).
    """

    __slots__ = ("objects", "attributes", "_rows", "_cols", "_obj_index", "_attr_index")

    def __init__(
        self,
        objects: Sequence[str],
        attributes: Sequence[Attribute],
        incidence: Sequence[Sequence[int]],
        *,
        allow_reserved_ids: bool = False,
    ):
        attributes = tuple(attributes)
        rows: list[int] = []
        for row in incidence:
            if len(row) != len(attributes):
                raise ContextError("incidence column count does not match attribute count")
            rows.append(sum(1 << j for j, v in enumerate(row) if v))
        self._fill_rows(objects, attributes, rows, allow_reserved_ids)

    @classmethod
    def _from_rows(cls, objects, attributes, rows: Sequence[int], *, allow_reserved_ids=False):
        """A context from each object's row mask, whose bit j is attribute j."""
        ctx = object.__new__(cls)
        ctx._fill_rows(objects, attributes, rows, allow_reserved_ids)
        return ctx

    def _fill_rows(self, objects, attributes, rows, allow_reserved_ids) -> None:
        """Check the ids, then set every slot from the row masks."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        obj_index: dict[str, int] = {}
        for g in objects:
            _check_object_id(g, obj_index, allow_reserved_ids)
            obj_index[g] = len(obj_index)
        attr_index: dict[tuple[str, str], int] = {}
        for a in attributes:
            if a.key in attr_index:
                raise ContextError(f"duplicate attribute: {a}")
            attr_index[a.key] = len(attr_index)
        if len(rows) != len(objects):
            raise ContextError("incidence row count does not match object count")
        cols = [0] * len(attributes)
        for i, mask in enumerate(rows):
            for j in _bits(mask):
                cols[j] |= 1 << i
        _fill_slots(self, objects, attributes, tuple(rows), tuple(cols), obj_index, attr_index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalContext):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.attributes == other.attributes
            and [a.category for a in self.attributes] == [a.category for a in other.attributes]
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.objects, self.attributes, self._rows))

    def __repr__(self) -> str:
        return f"FormalContext({len(self.objects)} objects x {len(self.attributes)} attributes)"

    # -- lookups ---------------------------------------------------------

    def has_object(self, obj: str) -> bool:
        return obj in self._obj_index

    def has_attribute(self, attr: Attribute) -> bool:
        return attr.key in self._attr_index

    def attribute_like(self, attr: Attribute) -> Attribute:
        """Return the context's own instance for an equal attribute."""
        return self.attributes[self._attr_bit(attr)]

    def intent_of(self, obj: str) -> set[Attribute]:
        """All attributes of a single object."""
        return self.derive_objects([obj])

    # -- mask plumbing (package-internal, used by the lattice module) ----

    @property
    def _full_attr_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    @property
    def _full_obj_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    def _attr_bit(self, attr: Attribute) -> int:
        idx = self._attr_index.get(attr.key)
        if idx is None:
            raise ContextError(f"unknown attribute: {attr}")
        return idx

    def _attr_mask(self, attrs: Iterable[Attribute]) -> int:
        mask = 0
        for a in attrs:
            mask |= 1 << self._attr_bit(a)
        return mask

    def _obj_mask(self, objs: Iterable[str]) -> int:
        mask = 0
        for g in objs:
            idx = self._obj_index.get(g)
            if idx is None:
                raise ContextError(f"unknown object id: {g!r}")
            mask |= 1 << idx
        return mask

    def _attrs_from_mask(self, mask: int) -> set[Attribute]:
        return {self.attributes[j] for j in _bits(mask)}

    def _objects_from_mask(self, mask: int) -> set[str]:
        return {self.objects[i] for i in _bits(mask)}

    def _extent_mask_of_intent_mask(self, intent_mask: int) -> int:
        mask, cols = self._full_obj_mask, self._cols
        # the lowest set bit at a time, inline: this runs once per concept
        while intent_mask:
            low = intent_mask & -intent_mask
            mask &= cols[low.bit_length() - 1]
            intent_mask ^= low
        return mask

    def _attr_closure(self, extent_mask: int) -> int:
        """The mask of the attributes common to the objects of an extent mask."""
        mask, rows = self._full_attr_mask, self._rows
        while extent_mask:
            low = extent_mask & -extent_mask
            mask &= rows[low.bit_length() - 1]
            extent_mask ^= low
        return mask

    # -- derivation operators --------------------------------------------

    def derive_objects(self, objs: Iterable[str]) -> set[Attribute]:
        """Attributes common to every given object; all of M for the empty set."""
        return self._attrs_from_mask(self._attr_closure(self._obj_mask(objs)))

    def derive_attributes(self, attrs: Iterable[Attribute]) -> set[str]:
        """Objects possessing every given attribute; all of G for the empty set."""
        return self._objects_from_mask(self._extent_mask_of_intent_mask(self._attr_mask(attrs)))

    def close_attributes(self, attrs: Iterable[Attribute]) -> set[Attribute]:
        """The closure B'' of an attribute set; a superset of the input, idempotent."""
        extent = self._extent_mask_of_intent_mask(self._attr_mask(attrs))
        return self._attrs_from_mask(self._attr_closure(extent))

    # -- projection views --------------------------------------------------

    def project_by_category(self, category: str) -> "FormalContext":
        """Restrict attributes to one category; keep objects with at least one left."""
        if category not in CATEGORIES:
            raise ContextError(f"unknown attribute category: {category!r}")
        keep_attrs = 0
        for j, a in enumerate(self.attributes):
            if a.category == category:
                keep_attrs |= 1 << j
        keep_objs = 0
        for i, row in enumerate(self._rows):
            if row & keep_attrs:
                keep_objs |= 1 << i
        return self._restrict(keep_objs, keep_attrs)

    def select_by_attribute(self, attr: Attribute) -> "FormalContext":
        """Restrict objects to those with the attribute; keep their attribute union."""
        col = self._cols[self._attr_bit(attr)]
        union = 0
        for i in _bits(col):
            union |= self._rows[i]
        return self._restrict(col, union)

    def _restrict(self, obj_mask: int, attr_mask: int) -> "FormalContext":
        """The objects and attributes of two masks, in context order; kept
        attribute j moves to the bit of its rank among the kept ones."""
        new_bit = {j: 1 << k for k, j in enumerate(_bits(attr_mask))}
        objs, rows = [], []
        for i in _bits(obj_mask):
            objs.append(self.objects[i])
            rows.append(sum(new_bit[j] for j in _bits(self._rows[i] & attr_mask)))
        attrs = [self.attributes[j] for j in new_bit]
        return FormalContext._from_rows(objs, attrs, rows, allow_reserved_ids=True)

    def _query_context(
        self, terms: Iterable[Attribute], label: str
    ) -> tuple["FormalContext", list[int]]:
        """The context restricted to the terms, with an object ``label`` that has them all.

        Its lattice is the up-set of that object's concept in the grown
        context, a query's or an inserted object's, with it at the bottom.
        The objects are one per distinct restricted row, named by its lowest
        object, then ``label``.  The attributes are the context's own known
        terms, in its order, then the unknown terms by key.  Returns the
        context and each row's object mask, split out by the terms' columns.
        """
        known = 0
        unknown = []
        for a in terms:
            j = self._attr_index.get(a.key)
            if j is None:
                unknown.append(a)
            else:
                known |= 1 << j
        # (objects, restricted row) pairs; bit k of a row is the k-th known term
        parts = [(self._full_obj_mask, 0)] if self.objects else []
        for k, j in enumerate(_bits(known)):
            col = self._cols[j]
            split = []
            for p, row in parts:
                if p & ~col:
                    split.append((p & ~col, row))
                if p & col:
                    split.append((p & col, row | 1 << k))
            parts = split
        attrs = [self.attributes[j] for j in _bits(known)] + sorted(unknown, key=lambda a: a.key)
        objects = [self.objects[(p & -p).bit_length() - 1] for p, _ in parts] + [label]
        rows = [row for _, row in parts] + [(1 << len(attrs)) - 1]
        sub = FormalContext._from_rows(objects, attrs, rows, allow_reserved_ids=True)
        return sub, [p for p, _ in parts]

    # -- growth -----------------------------------------------------------

    def add_object(
        self,
        obj: str,
        attrs: Iterable[Attribute],
        *,
        allow_reserved: bool = False,
    ) -> "FormalContext":
        """Return a context extended by one row; new attributes are appended to M.

        Old rows, columns and attribute bits are kept as they are: the new row
        is one more mask, and its object bit is ORed into its columns.
        """
        _check_object_id(obj, self._obj_index, allow_reserved)
        attributes = list(self.attributes)
        attr_index = dict(self._attr_index)
        row = 0
        for a in _ordered_attrs(attrs):
            j = attr_index.get(a.key)
            if j is None:
                j = attr_index[a.key] = len(attributes)
                attributes.append(a)
            row |= 1 << j
        i = len(self.objects)
        cols = list(self._cols) + [0] * (len(attributes) - len(self.attributes))
        for j in _bits(row):
            cols[j] |= 1 << i
        grown = object.__new__(FormalContext)
        _fill_slots(
            grown,
            self.objects + (obj,),
            tuple(attributes),
            self._rows + (row,),
            tuple(cols),
            {**self._obj_index, obj: i},
            attr_index,
        )
        return grown


# -- CSV cross-table format ------------------------------------------------


def _unwritable(text: str, forbidden: str) -> bool:
    # cells are stripped on reading; the writer leaves "\r" unquoted, which the reader refuses
    return text != text.strip() or any(ch in text for ch in forbidden + "\r")


def _unwritable_attribute(attr: Attribute) -> bool:
    """Whether a header cell cannot hold the attribute's name."""
    return _unwritable(attr.prefix or "", "@:") or _unwritable(attr.term, "@" if attr.prefix else "@:")


def _format_header_cell(attr: Attribute) -> str:
    """``prefix:term@category``: ``@`` ends the name and the first ``:`` the prefix."""
    if _unwritable_attribute(attr):
        raise ContextError(f"cannot write attribute {str(attr)!r} to CSV: it would read back otherwise")
    return f"{attr}@{attr.category}"


def _parse_header_cell(cell: str) -> Attribute:
    name, _, category = cell.partition("@")
    category = category or "Subject"
    prefix, term = split_term(name)
    attr = Attribute(term=term, prefix=prefix, category=category)
    if _unwritable_attribute(attr):
        raise ContextError(f"header cell {cell!r} names an attribute the writer cannot write back")
    return attr


def context_to_csv(ctx: FormalContext) -> str:
    """Serialize a context as the cross-table CSV format (deterministic bytes).

    ``context_from_csv`` reads the text back to an equal context; a name it
    would read otherwise, or the reserved id it would refuse, raises
    ``ContextError``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [_format_header_cell(a) for a in ctx.attributes])
    for g, mask in zip(ctx.objects, ctx._rows):
        if _unwritable(g, "") or g == RESERVED_OBJECT_ID:
            raise ContextError(f"cannot write object id {g!r} to CSV: it would read back otherwise")
        writer.writerow([g] + [str(mask >> j & 1) for j in range(len(ctx.attributes))])
    return buf.getvalue()


def context_from_csv(text: str) -> FormalContext:
    """Parse the cross-table CSV format.

    The first header cell is empty; remaining header cells are attribute names,
    optionally "prefix:term@category" (category defaults to Subject).  A
    name or object id that ``context_to_csv`` would refuse is refused, so
    what is read writes back and reads again to an equal context.
    """
    try:
        lines = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ContextError(f"unreadable context file: {exc}") from exc
    if not lines:
        raise ContextError("empty context file")
    header = lines[0]
    if header and header[0].strip():
        raise ContextError("first header cell must be empty")
    attrs = [_parse_header_cell(c.strip()) for c in header[1:]]
    objects, rows = [], []
    for line in lines[1:]:
        if not line or not any(c.strip() for c in line):
            continue
        if "\r" in line[0]:
            raise ContextError(f"object id {line[0]!r} holds a carriage return")
        objects.append(line[0].strip())
        cells = [c.strip() for c in line[1:]]
        if len(cells) != len(attrs):
            raise ContextError(f"row {line[0]!r} has {len(cells)} cells, expected {len(attrs)}")
        for c in cells:
            if c not in ("0", "1"):
                raise ContextError(f"incidence cells must be 0 or 1, got {c!r}")
        # each cell is one digit, and cell j is bit j
        rows.append(int("".join(reversed(cells)) or "0", 2))
    return FormalContext._from_rows(objects, attrs, rows)
