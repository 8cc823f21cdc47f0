import collections
import itertools
import json
import random
import re

import pytest

from fcaregistry import (
    CATEGORIES,
    Attribute,
    ConceptLattice,
    FcaRegistryError,
    FormalConcept,
    FormalContext,
    LatticeError,
    Query,
    build_context,
    build_lattice,
    enumerate_concepts_oracle,
    enumerate_covers_oracle,
    export_dot,
    insert_object,
    lattice_from_json,
    lattice_to_json,
    load_records,
    search,
    search_refined,
)
from fcaregistry import lattice
from fcaregistry.cli import main
from fcaregistry.context import _bits
from conftest import FIXTURES, edge_case_context, make_random_context

TABLE1_INTENTS = [
    set(),
    {"PS"},
    {"NS"},
    {"NS", "PS"},
    {"NS", "Hu"},
    {"NS", "An"},
    {"PS", "Mo"},
    {"PS", "Ve"},
    {"PS", "AO", "MR"},
    {"NS", "PS", "AO", "MR"},
    {"NS", "PS", "Hu"},
    {"NS", "PS", "AO", "An", "Ve", "Hu", "Mo", "MR"},
]


#: Edits of a saved table1 lattice file, each with the error it must raise.
MALFORMED = {
    "no-context": (lambda doc: doc.pop("context"), "'context' must be an object"),
    "context-not-object": (lambda doc: doc.update(context=["S1"]), "'context' must be an object"),
    "objects-not-list": (lambda doc: doc["context"].update(objects="S1"), "'objects' must be a list"),
    "attribute-not-object": (
        lambda doc: doc["context"]["attributes"].__setitem__(0, "NS"),
        "attribute entry must be an object",
    ),
    "term-not-string": (
        lambda doc: doc["context"]["attributes"][0].update(term=5),
        "attribute term must be a string",
    ),
    "cell-not-0-or-1": (
        lambda doc: doc["context"]["incidence"].__setitem__(0, "2" * 8),
        "cells must be 0 or 1",
    ),
    "concepts-not-list": (lambda doc: doc.update(concepts={}), "'concepts' must be a list"),
    "covers-not-list": (lambda doc: doc.update(covers=None), "'covers' must be a list"),
    "no-concepts": (lambda doc: doc.update(concepts=[]), "stored concepts"),
    "dropped-cover": (lambda doc: doc["covers"].pop(), "stored covers"),
    "future-version": (lambda doc: doc.update(version=99), "unsupported lattice file version: 99"),
    # True == 1 and 3.0 == 3, so these once read as the bits they equal
    "bool-intent-bit": (lambda doc: doc["concepts"][2].update(intent=[True]), "stored concepts"),
    "float-intent-bit": (lambda doc: doc["concepts"][3].update(intent=[0, 3.0]), "stored concepts"),
    "bool-cover": (lambda doc: doc["covers"].__setitem__(0, [True, 0]), "stored covers"),
    "unsorted-extent": (lambda doc: doc["concepts"][4].update(extent=["S5", "S3"]), "stored concepts"),
    "duplicate-extent-member": (
        lambda doc: doc["concepts"][3].update(extent=["S6", "S6"]),
        "stored concepts",
    ),
    "unknown-extent-member": (lambda doc: doc["concepts"][3].update(extent=["S9"]), "stored concepts"),
    "extra-concept-key": (lambda doc: doc["concepts"][0].update(label="top"), "stored concepts"),
    "dropped-concept": (lambda doc: doc["concepts"].pop(5), "stored concepts"),
    "swapped-concepts": (
        lambda doc: doc["concepts"].insert(1, doc["concepts"].pop(2)),
        "stored concepts",
    ),
    "dropped-top": (lambda doc: doc["concepts"].pop(0), "stored concepts"),
    # the extents stay those of the context, so only the intents can tell
    "short-intent": (lambda doc: doc["concepts"][5]["intent"].pop(), "stored concepts"),
    "duplicated-concept": (
        lambda doc: doc["concepts"].insert(4, dict(doc["concepts"][4])),
        "stored concepts",
    ),
}


def intent_terms(lat):
    return [set(a.term for a in c.intent) for c in lat.concepts]


def assert_eq_matches_values(a, b):
    """``==`` and ``hash``, which compare masks, agree with the concept values."""
    by_values = (
        a.context == b.context
        and set(a.concepts) == set(b.concepts)
        and a.cover_concepts() == b.cover_concepts()
    )
    assert (a == b) == by_values
    if by_values:
        assert hash(a) == hash(b)


class TestBuildLattice:
    def test_table1_has_twelve_concepts(self, table1_lattice):
        assert len(table1_lattice.concepts) == 12
        got = intent_terms(table1_lattice)
        for intent in TABLE1_INTENTS:
            assert intent in got

    def test_empty_context(self):
        lat = build_lattice(FormalContext([], [], []))
        assert len(lat.concepts) == 1
        assert lat.top == lat.bottom == FormalConcept(frozenset(), frozenset())

    def test_single_object(self):
        ps = Attribute("PS")
        lat = build_lattice(FormalContext(["S1"], [ps], [[1]]))
        assert set(lat.concepts) == enumerate_concepts_oracle(lat.context)
        assert FormalConcept(frozenset({"S1"}), frozenset({ps})) in lat.concepts

    def test_matches_oracle_on_random_contexts(self):
        rng = random.Random(23)
        edge_rng = random.Random(24)
        # duplicate and empty rows, all-zero and all-one columns
        contexts = [make_random_context(rng) for _ in range(40)]
        contexts += [edge_case_context(edge_rng) for _ in range(60)]
        previous = build_lattice(FormalContext([], [], []))
        for ctx in contexts:
            lat = build_lattice(ctx)
            oracle = enumerate_concepts_oracle(ctx)
            assert set(lat.concepts) == oracle
            assert lat.cover_concepts() == enumerate_covers_oracle(oracle)
            assert_eq_matches_values(lat, build_lattice(ctx))
            assert_eq_matches_values(lat, previous)
            previous = lat

    def test_concept_closure_invariants(self):
        rng = random.Random(29)
        for _ in range(25):
            ctx = make_random_context(rng)
            lat = build_lattice(ctx)
            for c in lat.concepts:
                assert ctx.derive_objects(c.extent) == set(c.intent)
                assert ctx.derive_attributes(c.intent) == set(c.extent)
            bound = 2 ** min(len(ctx.objects), len(ctx.attributes))
            assert 1 <= len(lat.concepts) <= bound


def assert_rebuilt(lat, expected):
    """The lattice has the context ``expected`` and is exactly what
    ``build_lattice`` makes of it."""
    assert lat.context == expected
    ref = build_lattice(expected)
    assert lat.concepts == ref.concepts
    assert lat.covers == ref.covers
    assert lattice_to_json(lat) == lattice_to_json(ref)
    assert lat == ref and hash(lat) == hash(ref)


def rows_to_insert(rng, lat):
    """One row of each kind the insertion treats apart, keyed by kind."""
    ctx = lat.context
    attrs = list(ctx.attributes)
    rows = {
        "existing-intent": rng.choice(lat.concepts).intent,
        "full": attrs,
        "empty": [],
        "random": rng.sample(attrs, rng.randint(0, len(attrs))),
        "new-attributes": [Attribute("fresh"), Attribute("fresh2")]
        + rng.sample(attrs, rng.randint(0, len(attrs))),
    }
    if ctx.objects:
        rows["duplicate"] = ctx.intent_of(rng.choice(ctx.objects))
    return {kind: sorted(row, key=lambda a: a.key) for kind, row in rows.items()}


def scanned_generators(lat, row):
    """The generators of an insertion of ``row`` found by scanning every old
    intent, as insertion once did: each old b outside the row x, with
    b & x not an old intent, mapped to the intents of its parents in the
    grown lattice.  It drops its parents inside x and gains b & x, unless a
    parent outside x already meets x there."""
    ctx = lat.context
    x = ctx._attr_mask(a for a in row if ctx.has_attribute(a))
    dropped = any(not ctx.has_attribute(a) for a in row) and not lat._extent[lat._intents[-1]]
    out = {}
    for b in lat._intents[: len(lat._intents) - dropped]:
        c = b & x
        if c != b and c not in lat._extent:
            outside = [p for p in lat._parents[b] if p & ~x]
            if all(p & x != c for p in outside):
                outside.append(c)
            out[b] = outside
    return out


def insertion_rules(lat, row):
    """The rewiring rules an insertion of ``row`` applies, judged from the old
    lattice's masks: each generator b (outside the row x, with b & x not an
    old intent) and the new bottom, when the row brings new attributes but
    does not hold all of the old ones."""
    ctx = lat.context
    x = ctx._attr_mask(a for a in row if ctx.has_attribute(a))
    rules = set()
    for b, parents in scanned_generators(lat, row).items():
        if b & x in parents:
            rules.add("generator covered by b & x")
        else:
            rules.add("generator with a parent outside x that meets x at b & x")
    if any(not ctx.has_attribute(a) for a in row) and x != ctx._full_attr_mask:
        dropped = not lat._extent[lat._intents[-1]]
        rules.add("new bottom under a dropped old bottom" if dropped else "new bottom under a kept old bottom")
    return rules


def random_lattices(seed, n):
    rng = random.Random(seed)
    for i in range(n):
        if i % 2:
            ctx = make_random_context(rng, max_objects=7, max_attributes=6)
        else:
            ctx = edge_case_context(rng)
        yield build_lattice(ctx)


class TestInsertObject:
    def test_query_overlay_shape(self, table1_lattice, attrs_by_term):
        new_terms = [attrs_by_term[t] for t in ("NS", "Hu", "MR")]
        grown = insert_object(
            table1_lattice, "Q1", new_terms
        )
        got = intent_terms(grown)
        for intent in ({"NS", "Hu", "MR"}, {"NS", "MR"}, {"MR"}):
            assert intent in got
        by_intent = {frozenset(a.term for a in c.intent): c for c in grown.concepts}
        assert "Q1" in by_intent[frozenset({"NS", "Hu"})].extent
        assert "Q1" in by_intent[frozenset({"NS"})].extent
        assert_rebuilt(grown, table1_lattice.context.add_object("Q1", new_terms))

    def test_base_case(self):
        empty = build_lattice(FormalContext([], [], []))
        attrs = [Attribute("PS"), Attribute("AO"), Attribute("MR")]
        for row in (attrs, []):
            assert_rebuilt(insert_object(empty, "S1", row), empty.context.add_object("S1", row))

    def test_insertion_order_invariance(self, table1, table1_lattice):
        rng = random.Random(31)
        rows = {g: sorted(table1.intent_of(g), key=lambda a: a.key) for g in table1.objects}
        for _ in range(5):
            order = list(table1.objects)
            rng.shuffle(order)
            lat = build_lattice(FormalContext([], [], []))
            for g in order:
                expected = lat.context.add_object(g, rows[g])
                lat = insert_object(lat, g, rows[g])
                assert_rebuilt(lat, expected)
            # canonical order depends on attribute keys, not on their positions
            assert lat.concepts == table1_lattice.concepts
            assert lat.covers == table1_lattice.covers

    def test_extents_only_grow(self, table1_lattice, attrs_by_term):
        grown = insert_object(table1_lattice, "S9", [attrs_by_term["NS"]])
        new_intents = {c.intent: c.extent for c in grown.concepts}
        for c in table1_lattice.concepts:
            assert c.intent in new_intents
            assert c.extent <= new_intents[c.intent]

    def test_duplicate_id(self, table1_lattice, attrs_by_term):
        with pytest.raises(Exception, match="S1"):
            insert_object(table1_lattice, "S1", [attrs_by_term["NS"]])

    def test_matches_rebuild_with_new_attributes(self):
        rng = random.Random(37)
        edge_rng = random.Random(38)
        contexts = itertools.chain(
            (make_random_context(rng, max_objects=6, max_attributes=5) for _ in range(20)),
            (edge_case_context(edge_rng) for _ in range(40)),
        )
        for ctx in contexts:
            lat = build_lattice(ctx)
            extra = [Attribute("fresh")] + list(
                rng.sample(list(ctx.attributes), min(2, len(ctx.attributes)))
            )
            assert_rebuilt(insert_object(lat, "gx", extra), ctx.add_object("gx", extra))

    def test_matches_rebuild_for_each_kind_of_row(self):
        rng = random.Random(43)
        seen = collections.Counter()
        for lat in random_lattices(44, 180):
            for kind, row in rows_to_insert(rng, lat).items():
                if kind == "new-attributes":
                    kind += "/empty-bottom" if not lat.bottom.extent else "/non-empty-bottom"
                seen[kind] += 1
                seen.update(insertion_rules(lat, row))
                assert_rebuilt(insert_object(lat, "gx", row), lat.context.add_object("gx", row))
        assert min(seen.values()) >= 20 and len(seen) == 11, seen

    def test_each_new_intent_rewires_the_old_concept_closing_it(self):
        rng = random.Random(45)
        seen = collections.Counter()
        for lat in random_lattices(46, 180):
            ctx = lat.context
            for row in rows_to_insert(rng, lat).values():
                grown = insert_object(lat, "gx", row)
                x = grown.context._rows[-1]
                closing = {}
                for c in grown._intents:
                    if c in lat._extent:
                        continue
                    if c & ~ctx._full_attr_mask:
                        seen["new intent with a new attribute"] += 1
                        continue
                    b0 = ctx._attr_closure(ctx._extent_mask_of_intent_mask(c))
                    assert b0 in lat._extent and b0 & x == c
                    assert all(p & x != c for p in lat._parents[b0])
                    closing[b0] = c
                scan = scanned_generators(lat, row)
                assert closing.keys() <= scan.keys()
                pos = {c: i for i, c in enumerate(grown._intents)}
                for b, want in scan.items():
                    got = grown._parents[b]
                    assert got == sorted(want, key=pos.__getitem__)
                    if b in closing:
                        assert closing[b] in got
                        seen["generator closing a new intent"] += 1
                    else:
                        # the other generators keep their parent lists, shared with the old lattice
                        assert got is lat._parents[b]
                        seen["generator below the one closing b & x"] += 1
                assert_rebuilt(grown, ctx.add_object("gx", row))
        assert min(seen.values()) >= 20 and len(seen) == 3, seen

    def test_chains_of_inserts(self):
        rng = random.Random(47)
        for lat in random_lattices(48, 40):
            for step in range(6):
                row = rng.choice(list(rows_to_insert(rng, lat).values()))
                expected = lat.context.add_object(f"gx{step}", row)
                lat = insert_object(lat, f"gx{step}", row)
                assert_rebuilt(lat, expected)

    def test_lattice_from_the_public_constructor(self):
        rng = random.Random(53)
        for lat in random_lattices(54, 30):
            public = ConceptLattice(lat.context, lat.concepts, lat.covers[::-1])
            assert_eq_matches_values(public, lat)
            for row in rows_to_insert(rng, lat).values():
                assert_rebuilt(insert_object(public, "gx", row), lat.context.add_object("gx", row))

    def test_equality_sees_an_extent_the_constructor_kept(self):
        rng = random.Random(55)
        altered = 0
        for lat in random_lattices(56, 30):
            if not lat.context.objects:
                continue
            concepts = list(lat.concepts)
            i = rng.randrange(len(concepts))
            c = concepts[i]
            concepts[i] = FormalConcept(c.extent ^ {rng.choice(lat.context.objects)}, c.intent)
            odd = ConceptLattice(lat.context, concepts, lat.covers)
            assert odd.concepts == tuple(concepts)
            assert odd != lat
            assert_eq_matches_values(odd, lat)
            altered += 1
        assert altered >= 20


class TestConstructor:
    def test_rebuilds_the_same_lattice(self, table1_lattice):
        public = ConceptLattice(table1_lattice.context, table1_lattice.concepts, table1_lattice.covers)
        assert public.concepts == table1_lattice.concepts
        assert public.covers == table1_lattice.covers
        assert lattice_to_json(public) == lattice_to_json(table1_lattice)

    def test_slots_cannot_be_assigned(self):
        lat = build_lattice(make_random_context(random.Random(5)))
        before = lattice_to_json(lat)
        for name in [*ConceptLattice.__slots__, "extra"]:
            with pytest.raises(AttributeError, match="ConceptLattice is immutable"):
                setattr(lat, name, None)
            with pytest.raises(AttributeError, match="ConceptLattice is immutable"):
                delattr(lat, name)
        assert lattice_to_json(lat) == before

    def test_covers_in_any_order(self, table1_lattice):
        shuffled = list(table1_lattice.covers)
        random.Random(59).shuffle(shuffled)
        public = ConceptLattice(table1_lattice.context, table1_lattice.concepts, shuffled)
        assert public.covers == table1_lattice.covers

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cs, cv: ([], []),
            lambda cs, cv: (cs[::-1], cv),
            lambda cs, cv: (cs[1:2] + cs[:1] + cs[2:], cv),
            lambda cs, cv: (cs[:-1], cv),
            lambda cs, cv: (cs + cs[-1:], cv),
            lambda cs, cv: (cs, cv[:-1]),
            lambda cs, cv: (cs, cv + [(len(cs) - 1, 0)]),
            lambda cs, cv: (
                cs[:1] + [FormalConcept(frozenset(), frozenset({Attribute("ghost")}))] + cs[2:],
                cv,
            ),
            lambda cs, cv: (cs, cv[1:] + [5]),
            lambda cs, cv: (cs, [(*cv[0], 0)] + cv[1:]),
            lambda cs, cv: (cs, [(str(cv[0][0]), cv[0][1])] + cv[1:]),
            # the top is position 0, so (c, False) equals a cover (c, 0)
            lambda cs, cv: (cs, [(c, False if p == 0 else p) for c, p in cv]),
        ],
        ids=["empty", "reversed", "swapped", "no-bottom", "bottom-twice", "dropped-cover",
             "extra-cover", "unknown-attribute", "not-a-pair", "triple", "string-member", "bool-member"],
    )
    def test_rejects_what_is_not_the_lattice(self, table1_lattice, edit):
        concepts, covers = edit(list(table1_lattice.concepts), list(table1_lattice.covers))
        with pytest.raises(LatticeError):
            ConceptLattice(table1_lattice.context, concepts, covers)

    @pytest.mark.parametrize("given", ["none", "top", "top and an atom"])
    def test_a_short_list_of_a_huge_lattice_is_refused_at_once(self, monkeypatch, given):
        # object i lacks attribute i: 2**30 concepts
        objects = [f"g{i:02d}" for i in range(30)]
        attrs = [Attribute(f"m{j:02d}") for j in range(30)]
        ctx = FormalContext(objects, attrs, [[int(i != j) for j in range(30)] for i in range(30)])
        top = FormalConcept(frozenset(objects), frozenset())
        atom = FormalConcept(frozenset(objects[:1]), frozenset(attrs[1:]))
        concepts = {"none": [], "top": [top], "top and an atom": [top, atom]}[given]
        # the walk closes the top and stops at its first proposal, which no list here holds
        bounded_closures(monkeypatch, min(len(concepts), 1))
        with pytest.raises(LatticeError, match="canonical order"):
            ConceptLattice(ctx, concepts, [])


class TestOracle:
    def test_table1(self, table1):
        assert len(enumerate_concepts_oracle(table1)) == 12

    def test_empty_context(self):
        got = enumerate_concepts_oracle(FormalContext([], [], []))
        assert got == {FormalConcept(frozenset(), frozenset())}

    def test_one_cell_context(self):
        m = Attribute("m")
        got = enumerate_concepts_oracle(FormalContext(["S1"], [m], [[1]]))
        assert got == {FormalConcept(frozenset({"S1"}), frozenset({m}))}

    def test_size_guard(self):
        attrs = [Attribute(f"m{j}") for j in range(25)]
        ctx = FormalContext(["g"], attrs, [[1] * 25])
        with pytest.raises(LatticeError, match="test-scale"):
            enumerate_concepts_oracle(ctx)


class TestCovers:
    def test_upper_covers_of_s2_concept(self, table1_lattice):
        by_intent = {frozenset(a.term for a in c.intent): c for c in table1_lattice.concepts}
        c = by_intent[frozenset({"NS", "PS", "AO", "MR"})]
        parents = table1_lattice.upper_covers(c)
        assert {frozenset(a.term for a in p.intent) for p in parents} == {
            frozenset({"NS", "PS"}),
            frozenset({"PS", "AO", "MR"}),
        }

    def test_top_has_no_parents(self, table1_lattice):
        assert table1_lattice.upper_covers(table1_lattice.top) == []

    def test_bottom_covers_minimal_object_concepts(self, table1_lattice):
        parents = table1_lattice.upper_covers(table1_lattice.bottom)
        oracle = enumerate_covers_oracle(set(table1_lattice.concepts))
        expected = {p for (c, p) in oracle if c == table1_lattice.bottom}
        assert set(parents) == expected

    def test_upper_and_lower_covers_match_oracle(self, table1_lattice):
        oracle = enumerate_covers_oracle(table1_lattice.concepts)
        canonical = table1_lattice.concepts.index
        for c in table1_lattice.concepts:
            parents = sorted((p for child, p in oracle if child == c), key=canonical)
            children = sorted((child for child, p in oracle if p == c), key=canonical)
            assert table1_lattice.upper_covers(c) == parents
            assert table1_lattice.lower_covers(c) == children

    def test_unknown_concept(self, table1_lattice):
        ghost = FormalConcept(frozenset({"S1"}), frozenset())
        with pytest.raises(LatticeError):
            table1_lattice.upper_covers(ghost)

    def test_acyclic(self, table1_lattice):
        # child index -> parent must strictly shrink intent
        for c, p in table1_lattice.covers:
            assert table1_lattice.concepts[p].intent < table1_lattice.concepts[c].intent

    def test_height_is_the_longest_oracle_chain(self):
        rng = random.Random(83)
        edge_rng = random.Random(84)
        contexts = [make_random_context(rng) for _ in range(30)]
        contexts += [edge_case_context(edge_rng) for _ in range(30)]
        for ctx in contexts:
            oracle = enumerate_concepts_oracle(ctx)
            covers = enumerate_covers_oracle(oracle)
            # a child's extent is smaller than its parent's
            longest = {}
            for c in sorted(oracle, key=lambda c: len(c.extent)):
                longest[c] = max((longest[child] + 1 for child, p in covers if p == c), default=0)
            assert build_lattice(ctx).height() == max(longest.values())


def dot_labels(dot):
    """Each node's label as Graphviz reads it, by node position: in a DOT
    string, a backslash escapes a quote or a backslash, and ``\\n`` breaks
    the line."""
    found = re.findall(r'^  c(\d+) \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.M)
    unescape = lambda m: "\n" if m.group(1) == "n" else m.group(1)
    return {int(i): re.sub(r"\\(.)", unescape, raw) for i, raw in found}


class TestDot:
    def test_empty_lattice(self):
        dot = export_dot(build_lattice(FormalContext([], [], [])))
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_table1_counts(self, table1_lattice):
        dot = export_dot(table1_lattice)
        assert dot.count("[label=") == 12
        assert dot.count("->") == len(table1_lattice.covers)

    def test_reduced_labels_single_introducer(self, table1_lattice):
        dot = export_dot(table1_lattice, reduced_labels=True)
        labels = [line for line in dot.splitlines() if "label=" in line]
        assert sum("Mo" in line for line in labels) == 1
        for term in ("NS", "PS", "AO", "An", "Ve", "Hu", "MR"):
            assert sum(f"{term}" in line.split("\\n")[-1] for line in labels) == 1

    def test_deterministic(self, table1_lattice):
        assert export_dot(table1_lattice) == export_dot(table1_lattice)

    def test_labels_break_lines_and_escape_each_part(self):
        # "n\\n" is a backslash and an n, which must stay text, not break the line
        ids = ["a\\b", 'q"', "n\\n"]
        attrs = [Attribute("t\\"), Attribute('"u', prefix='p\\"')]
        lat = build_lattice(FormalContext(ids, attrs, [[1, 0], [1, 1], [0, 1]]))
        labels = dot_labels(export_dot(lat))
        assert len(labels) == len(lat.concepts) == 4
        for i, c in enumerate(lat.concepts):
            ext = ", ".join(sorted(c.extent))
            itt = ", ".join(str(a) for a in sorted(c.intent, key=lambda a: a.key))
            assert labels[i] == f"{{{ext}}}\n{{{itt}}}"
        reduced = dot_labels(export_dot(lat, reduced_labels=True))
        assert all(label.count("\n") == 1 for label in reduced.values())
        parts = [part.strip("{}") for label in reduced.values() for part in label.split("\n")]
        names = [name for part in parts if part for name in part.split(", ")]
        assert sorted(names) == sorted(ids + [str(a) for a in attrs])

    def test_reduced_labels_sit_at_the_oracle_introducers(self):
        rng = random.Random(85)
        edge_rng = random.Random(86)
        contexts = [make_random_context(rng) for _ in range(30)]
        contexts += [edge_case_context(edge_rng) for _ in range(30)]
        for ctx in contexts:
            lat = build_lattice(ctx)
            oracle = enumerate_concepts_oracle(ctx)
            # the least concept holding an object, the greatest holding an attribute
            expected = {
                g: min((c for c in oracle if g in c.extent), key=lambda c: len(c.extent))
                for g in ctx.objects
            }
            expected |= {
                str(a): max((c for c in oracle if a in c.intent), key=lambda c: len(c.extent))
                for a in ctx.attributes
            }
            placed = {}
            dot = export_dot(lat, reduced_labels=True)
            for line in dot.splitlines():
                if "[label=" not in line:
                    continue
                i = int(line.split()[0][1:])
                label = line.split('"')[1]
                for part in label.split(r"\n"):
                    for name in filter(None, part.strip("{}").split(", ")):
                        assert name not in placed
                        placed[name] = lat.concepts[i]
            assert placed == expected


class TestPersistence:
    def test_round_trip_value_identical(self, table1_lattice):
        text = lattice_to_json(table1_lattice)
        again = lattice_from_json(text)
        assert again == table1_lattice
        assert lattice_to_json(again) == text

    def test_round_trip_random(self):
        rng = random.Random(41)
        previous = build_lattice(FormalContext([], [], []))
        for _ in range(10):
            lat = build_lattice(make_random_context(rng))
            again = lattice_from_json(lattice_to_json(lat))
            assert again == lat
            assert_eq_matches_values(again, lat)
            assert_eq_matches_values(again, previous)
            previous = lat

    def test_rejects_garbage(self):
        with pytest.raises(LatticeError):
            lattice_from_json("{}")
        with pytest.raises(LatticeError):
            lattice_from_json("not json")

    def test_deeply_nested_document(self):
        with pytest.raises(LatticeError, match="unreadable lattice file"):
            lattice_from_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_rejects_malformed(self, table1_lattice, case):
        corrupt, message = MALFORMED[case]
        doc = json.loads(lattice_to_json(table1_lattice))
        corrupt(doc)
        with pytest.raises(LatticeError, match=message):
            lattice_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c["incidence"].__setitem__(0, c["incidence"][0][:-1]), "column count"),
            (lambda c: c["incidence"].__setitem__(0, c["incidence"][0] + "1"), "column count"),
            (lambda c: c["incidence"].__setitem__(0, ""), "column count"),
            (lambda c: c["incidence"].pop(), "row count"),
            (lambda c: c["objects"].__setitem__(1, c["objects"][0]), "duplicate object id"),
            (lambda c: c["attributes"].__setitem__(1, c["attributes"][0]), "duplicate attribute"),
            (lambda c: c["objects"].__setitem__(0, ""), "non-empty"),
            (lambda c: c["attributes"][0].__setitem__("category", "Colour"), "unknown attribute category"),
            (lambda c: c["attributes"][0].__setitem__("term", ""), "term must be non-empty"),
            (lambda c: c["objects"].__setitem__(0, "S1\ud800"), "object id .* holds a lone surrogate"),
            (lambda c: c["attributes"][0].__setitem__("term", "\udc80"), "term .* holds a lone surrogate"),
            (lambda c: c["attributes"][0].__setitem__("prefix", "N\udfff"), "prefix .* holds a lone surrogate"),
        ],
    )
    def test_rejects_a_context_that_cannot_be(self, table1_lattice, edit, message):
        doc = json.loads(lattice_to_json(table1_lattice))
        edit(doc["context"])
        with pytest.raises(LatticeError, match=message) as raised:
            lattice_from_json(json.dumps(doc))
        assert str(raised.value).startswith("malformed lattice file: ")

    def test_incidence_cell_j_is_attribute_j(self):
        attrs = [Attribute(f"m{j}") for j in range(5)]
        for j in range(5):
            ctx = FormalContext(["g", "h"], attrs, [[int(k == j) for k in range(5)], [1] * 5])
            doc = json.loads(lattice_to_json(build_lattice(ctx)))
            assert doc["context"]["incidence"] == ["0" * j + "1" + "0" * (4 - j), "11111"]
            assert lattice_from_json(json.dumps(doc)).context._rows == (1 << j, 31)


def slot_values(lat):
    return [getattr(lat, name) for name in lat.__slots__]


def assert_slots_unchanged(lat, before):
    """Every slot still holds the object it was made with: reads set nothing."""
    assert all(now is then for now, then in zip(slot_values(lat), before, strict=True))


class TestMasksOnly:
    def test_no_concept_values_are_made(self, monkeypatch, tmp_path, capsys, table1, organisms):
        """Build, insert, save, load, search and the CLI run on masks alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("a FormalConcept value was made")

        monkeypatch.setattr("fcaregistry.lattice.FormalConcept", refuse)
        rng = random.Random(61)
        lat = build_lattice(table1)
        for i in range(6):
            row = rng.sample(list(lat.context.attributes), rng.randint(0, 4))
            lat = insert_object(lat, f"X{i}", row + [Attribute(f"new{i}")] * (i % 2))
        text = lattice_to_json(lat)
        again = lattice_from_json(text)
        assert again == lat and hash(again) == hash(lat)
        assert lattice_to_json(again) == text
        by_term = {a.term: a for a in table1.attributes}
        query = Query(terms=frozenset({by_term["NS"], by_term["Hu"], Attribute("Zz")}))
        assert search(again, query).results
        for mode in ("generalize", "specialize", "both"):
            search_refined(again, Query(terms=frozenset({by_term["Ve"]})), organisms, mode, None)

        out = str(tmp_path / "lat.json")
        for argv in (
            ["build", "--records", str(FIXTURES / "bioregistry8"), "--out", out],
            ["build", "--context", str(FIXTURES / "table1.csv"), "--out", out],
            ["stats", "--lattice", out],
            ["query", "--lattice", out, "--terms", "NS,Hu,MR", "--format", "machine"],
            ["query", "--lattice", out, "--terms", "Ch", "--refine", "generalize",
             "--ontology", str(FIXTURES / "organisms.ont")],
        ):
            assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""

    def test_lookups_make_only_the_concepts_they_return(self, monkeypatch, table1):
        made = []

        def counting(*args, **kwargs):
            made.append(FormalConcept(*args, **kwargs))
            return made[-1]

        reference = build_lattice(table1).concepts
        lat = build_lattice(table1)
        slots = slot_values(lat)
        monkeypatch.setattr("fcaregistry.lattice.FormalConcept", counting)
        by_term = {a.term: a for a in table1.attributes}
        concept = lat.concept_with_intent({by_term["NS"], by_term["PS"]})
        assert concept in reference and len(made) == 1
        idx = lat.index_of(concept)
        assert reference[idx] == concept and len(made) == 1
        parents = lat._parents[lat._intents[idx]]
        assert lat.upper_covers(concept) == [reference[lat._intents.index(p)] for p in parents]
        assert len(made) == 1 + len(parents)
        del made[:]
        lower = lat.lower_covers(concept)
        assert lower == [reference[c] for c, p in lat.covers if p == idx]
        assert len(made) == len(lower) >= 1
        del made[:]
        assert (lat.top, lat.bottom) == (reference[0], reference[-1]) and len(made) == 2
        assert lat.concept_with_intent({Attribute("Zz")}) is None and len(made) == 2
        assert_slots_unchanged(lat, slots)

    def test_index_of_compares_the_whole_concept(self, table1):
        lat = build_lattice(table1)
        slots = slot_values(lat)
        top = lat.top
        assert lat.index_of(top) == 0
        for extent in (top.extent - {min(top.extent)}, top.extent | {"stranger"}):
            with pytest.raises(LatticeError, match="concept not in lattice"):
                lat.index_of(FormalConcept(extent=frozenset(extent), intent=top.intent))
        with pytest.raises(LatticeError, match="concept not in lattice"):
            lat.index_of(FormalConcept(extent=frozenset(), intent=frozenset({Attribute("Zz")})))
        assert_slots_unchanged(lat, slots)

    def test_each_read_of_concepts_makes_the_values(self, monkeypatch, table1):
        """``concepts`` is made on each read, as ``covers`` is: nothing is kept."""
        made = []

        def counting(*args, **kwargs):
            made.append(FormalConcept(*args, **kwargs))
            return made[-1]

        lat = build_lattice(table1)
        slots = slot_values(lat)
        monkeypatch.setattr("fcaregistry.lattice.FormalConcept", counting)
        first, second = lat.concepts, lat.concepts
        n = len(lat._intents)
        assert len(made) == 2 * n
        assert first == second and first is not second
        assert not any(a is b for a, b in zip(first, second))
        assert_slots_unchanged(lat, slots)
        del made[:]
        assert len(lat.cover_concepts()) == len(lat.covers) and len(made) == n

    def test_only_index_of_bisects(self, table1):
        """The lookups read masks; only ``index_of`` finds a position, by the key."""
        built = build_lattice(table1)
        calls = []

        def key(b):
            calls.append(b)
            return built._key(b)

        lat = ConceptLattice._from_masks(table1, built._intents, built._extent, built._parents, key)
        by_term = {a.term: a for a in table1.attributes}
        concept = lat.concept_with_intent({by_term["NS"], by_term["PS"]})
        assert lat.upper_covers(concept) == built.upper_covers(concept) != []
        assert lat.lower_covers(concept) == built.lower_covers(concept) != []
        assert (lat.top, lat.bottom, concept) == (built.top, built.bottom, built.concepts[built.index_of(concept)])
        assert calls == []
        assert lat.index_of(concept) == built.index_of(concept) and calls

    def test_a_lattice_is_its_masks(self):
        assert ConceptLattice.__slots__ == ("context", "_intents", "_extent", "_parents", "_key")


def cover_case_context(rng):
    """A small random context whose attributes are not in key order, often
    with a duplicate row, a duplicate column or an all-ones row."""
    n_obj, n_attr = rng.randint(0, 8), rng.randint(0, 7)
    density = rng.choice((0.2, 0.4, 0.6))
    rows = [[int(rng.random() < density) for _ in range(n_attr)] for _ in range(n_obj)]
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if n_attr and rng.random() < 0.3:
        j = rng.randrange(n_attr)
        for row in rows:
            row.append(row[j])
        n_attr += 1
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [1] * n_attr)
    names = [(rng.choice(("", "P", "Q")), f"t{j}") for j in range(n_attr)]
    rng.shuffle(names)
    attrs = [Attribute(term=term, prefix=prefix) for prefix, term in names]
    return FormalContext([f"g{i}" for i in range(len(rows))], attrs, rows)


def three_pass_build(ctx):
    """The intent masks in canonical order, and the maps from each intent to
    its extent mask and to its parent intents, of the lattice of ``ctx``,
    made as ``build_lattice`` once made them: the intents are M and every
    intersection of rows, each gets its extent, and the covers are counted
    from the attribute side over the finished list."""
    intents: set[int] = set()
    for x in ctx._rows:
        if x not in intents:
            intents |= {y & x for y in intents}
            intents.add(x)
    intents = sorted(intents | {ctx._full_attr_mask}, key=lattice._mask_sort_key(ctx))
    extents = [ctx._extent_mask_of_intent_mask(b) for b in intents]
    at = dict(zip(extents, intents))
    parents = {b: [] for b in intents}
    for b, a in zip(intents, extents):
        if not a:
            continue
        u = 0
        for g in _bits(a):
            u |= ctx._rows[g]
        proposed = collections.Counter(a & ctx._cols[m] for m in _bits(u & ~b))
        outside = len(ctx.attributes) - u.bit_count()
        if outside:
            proposed[0] += outside
        for c, n in proposed.items():
            if n == at[c].bit_count() - b.bit_count():
                parents[at[c]].append(b)
    return intents, dict(zip(intents, extents)), parents


def assert_built_as_in_three_passes(lat):
    intents, extent, parents = three_pass_build(lat.context)
    assert (lat._intents, lat._extent, lat._parents) == (tuple(intents), extent, parents)
    ref = ConceptLattice._from_masks(lat.context, intents, extent, parents, lat._key)
    assert lattice_to_json(lat) == lattice_to_json(ref)


def upper_neighbours(b, counts, extent_of):
    """Intents of the upper covers of the concept with intent ``b``, counted on
    the object side: each distinct row x (``counts`` maps it to its number of
    objects) outside the extent proposes ``b & x``, and a proposal is a parent
    when its proposers are all the objects its extent adds to ``b``'s
    (Lindig's neighbour test, "Fast Concept Analysis", 2000)."""
    size = extent_of(b).bit_count()
    proposed = collections.Counter()
    for x, n in counts.items():
        if b & x != b:
            proposed[b & x] += n
    return [c for c, n in proposed.items() if n == extent_of(c).bit_count() - size]


class TestColumnSideCovers:
    def test_matches_the_row_side_count_and_the_oracle(self):
        rng = random.Random(67)
        contexts = [cover_case_context(rng) for _ in range(300)]
        contexts += [
            FormalContext([], [Attribute("a"), Attribute("b")], []),
            FormalContext(["g", "h"], [], [[], []]),
            FormalContext(["g", "h"], [Attribute("a"), Attribute("b")], [[1, 1], [1, 0]]),
            FormalContext(["g", "h"], [Attribute("a"), Attribute("b")], [[1, 0], [1, 0]]),
        ]
        seen = collections.Counter()
        for ctx in contexts:
            lat = build_lattice(ctx)
            intents = lat._intents
            pos = {b: i for i, b in enumerate(intents)}
            counts = collections.Counter(ctx._rows)
            extent_of = lat._extent.__getitem__
            row_side = [upper_neighbours(b, counts, extent_of) for b in intents]
            assert [lat._parents[b] for b in intents] == [sorted(ups, key=pos.__getitem__) for ups in row_side]
            pairs = {(lat.concepts[pos[c]], lat.concepts[pos[p]]) for c in intents for p in lat._parents[c]}
            assert pairs == enumerate_covers_oracle(lat.concepts)
            seen["no objects"] += not ctx.objects
            seen["no attributes"] += not ctx.attributes
            seen["bottom with objects"] += extent_of(intents[-1]) != 0
            seen["duplicate rows"] += len(set(ctx._rows)) < len(ctx._rows)
            seen["duplicate columns"] += len(set(ctx._cols)) < len(ctx._cols)
        assert min(seen.values()) >= 10, seen

    def test_matches_the_three_pass_build_and_the_oracles(self):
        rng = random.Random(79)
        contexts = [make_random_context(rng) for _ in range(200)]
        contexts += [edge_case_context(rng) for _ in range(200)]
        contexts += [cover_case_context(rng) for _ in range(200)]
        seen = collections.Counter()
        for ctx in contexts:
            lat = build_lattice(ctx)
            assert_built_as_in_three_passes(lat)
            oracle = enumerate_concepts_oracle(ctx)
            assert set(lat.concepts) == oracle
            assert lat.cover_concepts() == enumerate_covers_oracle(oracle)
            seen["no objects"] += not ctx.objects
            seen["no attributes"] += not ctx.attributes
            seen["bottom with objects"] += lat._extent[lat._intents[-1]] != 0
            seen["duplicate rows"] += len(set(ctx._rows)) < len(ctx._rows)
            seen["duplicate columns"] += len(set(ctx._cols)) < len(ctx._cols)
        assert min(seen.values()) >= 10, seen

    def test_matches_the_three_pass_build_at_400_by_40(self):
        rng = random.Random(0)
        rows = [[int(rng.random() < 0.12) for _ in range(40)] for _ in range(400)]
        ctx = FormalContext([f"g{i}" for i in range(400)], [Attribute(f"m{j}") for j in range(40)], rows)
        assert_built_as_in_three_passes(build_lattice(ctx))

    def test_missing_concepts_are_found(self, table1_lattice):
        for lat in [table1_lattice] + list(random_lattices(83, 20)):
            stored = tuple(map(lat._extent.__getitem__, lat._intents))
            assert lattice._complete(lat.context, set(stored)) == lat
            # every concept is the top or a lower cover of another, so the walk proposes it
            for k in range(len(stored)):
                assert lattice._complete(lat.context, set(stored[:k] + stored[k + 1:])) is None, k
            for k in range(len(stored)):
                doc = json.loads(lattice_to_json(lat))
                doc["concepts"].pop(k)
                with pytest.raises(LatticeError, match="stored concepts"):
                    lattice_from_json(json.dumps(doc))

    def test_mask_key_orders_as_the_attribute_key(self):
        def intent_sort_key(intent):
            keys = sorted(a.key for a in intent)
            return (len(keys), keys)

        rng = random.Random(71)
        for _ in range(60):
            base = cover_case_context(rng)
            attrs = list(base.attributes)
            # grown with and without a new attribute; the new key sorts before every old one
            grown = [
                base.add_object("gx", rng.sample(attrs, rng.randint(0, len(attrs)))),
                base.add_object("gy", [Attribute("a")] + rng.sample(attrs, rng.randint(0, len(attrs)))),
            ]
            for ctx in [base] + grown:
                key = lattice._mask_sort_key(ctx)
                masks = [rng.getrandbits(len(ctx.attributes)) for _ in range(20)]
                masks += [0, ctx._full_attr_mask]
                for a, b in itertools.product(masks, repeat=2):
                    by_attrs = (
                        intent_sort_key(ctx._attrs_from_mask(a)),
                        intent_sort_key(ctx._attrs_from_mask(b)),
                    )
                    assert (key(a) < key(b)) == (by_attrs[0] < by_attrs[1])
                    assert (key(a) == key(b)) == (a == b)

    def test_mask_key_is_one_int_in_the_order_of_the_rank_key(self):
        rng = random.Random(97)
        contexts = [FormalContext([], [], []), FormalContext(["g", "h"], [], [[], []])]
        # wider than one machine word, attributes out of key order
        names = [f"w{j:03d}" for j in range(90)]
        rng.shuffle(names)
        contexts.append(FormalContext(["g"], [Attribute(t) for t in names], [[1] * 90]))
        seen = collections.Counter()
        for _ in range(60):
            base = cover_case_context(rng)
            contexts.append(base)
            attrs = list(base.attributes)
            # "t30" sorts between "t3" and "t4" under the same prefix
            between = [Attribute(a.term + "0", a.prefix) for a in rng.sample(attrs, min(2, len(attrs)))]
            grown = base.add_object("gx", between + rng.sample(attrs, rng.randint(0, len(attrs))))
            contexts += [grown, grown.add_object("gy", [Attribute("a"), Attribute("zz")])]
            seen["new key between old keys"] += any(
                min(a.key for a in attrs) < b.key < max(a.key for a in attrs) for b in between
            )
        for ctx in contexts:
            key, old = lattice._mask_sort_key(ctx), old_mask_sort_key(ctx)
            masks = {0, ctx._full_attr_mask} | {rng.getrandbits(len(ctx.attributes)) for _ in range(24)}
            assert all(type(key(b)) is int for b in masks)
            for a, b in itertools.permutations(masks, 2):
                assert (key(a) < key(b)) == (old(a) < old(b)), (a, b)
                seen["equal counts"] += a.bit_count() == b.bit_count()
            seen["no attributes"] += not ctx.attributes
            seen["wider than 64 bits"] += len(ctx.attributes) > 64
        assert seen["wider than 64 bits"] == 1, seen
        assert min(seen[k] for k in ("new key between old keys", "equal counts", "no attributes")) >= 20, seen


def old_mask_sort_key(ctx):
    """The canonical order as once keyed: a (popcount, sorted key ranks) tuple."""
    rank = [0] * len(ctx.attributes)
    for r, j in enumerate(sorted(range(len(rank)), key=lambda j: ctx.attributes[j].key)):
        rank[j] = r

    def key(b):
        return (b.bit_count(), sorted([rank[j] for j in _bits(b)]))

    return key


def lattice_doc(lat):
    """The saved document of a lattice, built as a dict from the public values."""
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
                "".join(str(int(a in ctx.intent_of(g))) for a in ctx.attributes)
                for g in ctx.objects
            ],
        },
        "concepts": [
            {"extent": sorted(c.extent), "intent": sorted(ctx.attributes.index(a) for a in c.intent)}
            for c in lat.concepts
        ],
        "covers": [list(pair) for pair in lat.covers],
    }


def rebuild_and_compare(text):
    """The loader that rebuilt the lattice from the stored context and
    compared the stored concepts and covers with what it would write."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeError(f"unreadable lattice file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "fcaregistry-lattice":
        raise LatticeError("not a lattice file (missing format marker)")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise LatticeError(f"unsupported lattice file version: {version!r} (expected 1)")
    ctx = lattice._context_from_doc(lattice._expect(doc.get("context"), dict, "'context'"))
    lat = build_lattice(ctx)
    rebuilt = lattice_doc(lat)
    for key in ("concepts", "covers"):
        if lattice._expect(doc.get(key), list, f"{key!r}") != rebuilt[key]:
            raise LatticeError(f"malformed lattice file: the stored {key} are not those of its context")
    return lat


def inexact_numbers(value):
    """Whether a document value holds a bool or a float anywhere."""
    if isinstance(value, (bool, float)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(inexact_numbers(v) for v in value)


def _toggle(items, item):
    return sorted(set(items) ^ {item})


#: Edits of a well-formed saved lattice document.  ``retype`` writes an int
#: of the concepts or covers as the bool or float equal to it.
EDITS = ("drop-concept", "swap-concepts", "duplicate-concept", "flip-intent-bit",
         "flip-extent-member", "drop-cover", "add-cover", "flip-cell", "retype")

#: Values that ``_junk`` writes in place of another.
JUNK = (None, True, 1.5, -1, 10**20, "x", "", [], {}, [[]], {"a": 1})


def _edit(rng, doc, kind):
    """Apply one edit of the given kind; return whether there was anything to edit."""
    concepts, covers, cdoc = doc["concepts"], doc["covers"], doc["context"]
    n_attrs = len(cdoc["attributes"])
    if not concepts:
        return False
    k, j = rng.randrange(len(concepts)), rng.randrange(len(concepts))
    if kind == "drop-concept":
        concepts.pop(k)
    elif kind == "swap-concepts":
        concepts[k], concepts[j] = concepts[j], concepts[k]
    elif kind == "duplicate-concept":
        concepts.insert(j, dict(concepts[k]))
    elif kind == "flip-intent-bit" and n_attrs:
        concepts[k]["intent"] = _toggle(concepts[k]["intent"], rng.randrange(n_attrs))
    elif kind == "flip-extent-member" and cdoc["objects"]:
        concepts[k]["extent"] = _toggle(concepts[k]["extent"], rng.choice(cdoc["objects"]))
    elif kind == "drop-cover" and covers:
        covers.pop(rng.randrange(len(covers)))
    elif kind == "add-cover":
        covers.append([k, j])
        covers.sort()
    elif kind == "flip-cell" and cdoc["objects"] and n_attrs:
        rows = cdoc["incidence"]
        i, m = rng.randrange(len(rows)), rng.randrange(n_attrs)
        rows[i] = rows[i][:m] + "10"[int(rows[i][m])] + rows[i][m + 1:]
    elif kind == "retype":
        places = [(c["intent"], i) for c in concepts for i in range(len(c["intent"]))]
        places += [(pair, i) for pair in covers for i in range(2)]
        if not places:
            return False
        holder, i = rng.choice(places)
        as_bool = holder[i] in (0, 1) and rng.random() < 0.5
        holder[i] = bool(holder[i]) if as_bool else float(holder[i])
    else:
        return False
    return True


def _junk(rng, doc):
    """Write a value of another shape at a random place of the document."""
    holder, key = doc, rng.choice(list(doc))
    while isinstance(holder[key], (dict, list)) and holder[key] and rng.random() < 0.7:
        holder = holder[key]
        key = rng.choice(list(holder) if isinstance(holder, dict) else range(len(holder)))
    holder[key] = rng.choice(JUNK)


def bounded_closures(patched, limit):
    """Patch ``FormalContext._attr_closure`` to fail on its call after ``limit``:
    the loader closes only stored extents, each at most once."""
    calls = itertools.count(1)
    closure = FormalContext._attr_closure

    def counted(ctx, extent_mask):
        if next(calls) > limit:
            raise AssertionError("the loader closed an extent that is not stored")
        return closure(ctx, extent_mask)

    patched.setattr(FormalContext, "_attr_closure", counted)


def contranominal_doc(n, concepts):
    """A lattice file of the n x n context where object i lacks attribute i,
    whose lattice has 2**n concepts, holding the given concepts and no covers."""
    return json.dumps({
        "format": "fcaregistry-lattice",
        "version": 1,
        "context": {
            "objects": [f"g{i:02d}" for i in range(n)],
            "attributes": [{"category": "Subject", "prefix": None, "term": f"m{j:02d}"} for j in range(n)],
            "incidence": ["1" * i + "0" + "1" * (n - 1 - i) for i in range(n)],
        },
        "concepts": concepts,
        "covers": [],
    })


class TestLoaderFuzz:
    @pytest.mark.parametrize("stored", ["none", "top", "top and an atom", "top and 5,000 non-concepts"])
    def test_a_short_file_of_a_huge_lattice_is_refused_at_once(self, monkeypatch, stored):
        objects = [f"g{i:02d}" for i in range(30)]
        top = {"extent": objects, "intent": []}
        # every set of objects is an extent here, but none of these has the empty intent
        small = itertools.islice((list(s) for k in (2, 3, 4) for s in itertools.combinations(objects, k)), 5000)
        concepts = {
            "none": [],
            "top": [top],
            "top and an atom": [top, {"extent": ["g00"], "intent": list(range(1, 30))}],
            "top and 5,000 non-concepts": [top] + [{"extent": s, "intent": []} for s in small],
        }[stored]
        # the walk closes the top and stops at its first proposal, which no file here holds
        bounded_closures(monkeypatch, min(len(concepts), 1))
        with pytest.raises(LatticeError, match="stored concepts"):
            lattice_from_json(contranominal_doc(30, concepts))

    def test_accepts_what_the_rebuilding_loader_accepts(self, monkeypatch, table1_lattice):
        def refuse(*args, **kwargs):
            raise AssertionError("the loader rebuilt the lattice")

        rng = random.Random(73)
        sources = [table1_lattice] + list(random_lattices(74, 40))
        outcomes = collections.Counter()
        for n in range(1500):
            doc = json.loads(lattice_to_json(sources[n % len(sources)]))
            kinds = [k for k in rng.sample(EDITS, rng.choice((0, 1, 1, 2))) if _edit(rng, doc, k)]
            if rng.random() < 0.2:
                _junk(rng, doc)
                kinds.append("junk")
            text = json.dumps(doc)
            try:
                expected = rebuild_and_compare(text)
            except FcaRegistryError:
                expected = None
            stored = doc.get("concepts") if isinstance(doc, dict) else None
            with monkeypatch.context() as patched:
                patched.setattr("fcaregistry.lattice.build_lattice", refuse)
                bounded_closures(patched, len(stored) if isinstance(stored, list) else 0)
                try:
                    got = lattice_from_json(text)
                except FcaRegistryError:
                    got = None
            outcomes.update(kinds)
            if expected is not None and got is None:
                # the one difference: a bool or float written for an int
                assert inexact_numbers(doc.get("concepts")) or inexact_numbers(doc.get("covers"))
                outcomes["only the old loader accepts"] += 1
                continue
            assert (got is None) == (expected is None), (kinds, text)
            if got is not None:
                assert got == expected and lattice_to_json(got) == lattice_to_json(expected)
            outcomes["accepted" if got is not None else "rejected"] += 1
        assert min(outcomes.values()) >= 30, outcomes


#: Characters the JSON string encoder escapes, writes as ``\\u`` escapes
#: (an astral one as a surrogate pair) or, for DEL, passes through.
AWKWARD = ('"', "\\", "\t", "é", "✓", "\n", "\x7f", "\U0001f600")


def awkward_name(rng, stem):
    """``stem`` with up to three awkward characters before or after it."""
    extra = "".join(rng.choice(AWKWARD) for _ in range(rng.randint(0, 3)))
    return extra + stem if rng.random() < 0.5 else stem + extra


def awkward_attribute(rng, stem):
    prefix = rng.choice((None, awkward_name(rng, "p")))
    return Attribute(awkward_name(rng, stem), prefix, rng.choice(CATEGORIES))


def awkward_context(rng):
    """Up to six objects and attributes with awkward names; the ids are often
    out of sorted order."""
    objects = [awkward_name(rng, f"g{i}") for i in range(rng.randint(0, 6))]
    attrs = [awkward_attribute(rng, f"t{j}") for j in range(rng.randint(0, 6))]
    density = rng.choice((0.2, 0.5, 0.8))
    rows = [[int(rng.random() < density) for _ in attrs] for _ in objects]
    return FormalContext(objects, attrs, rows)


def assert_written_by_the_encoder(lat):
    text = lattice_to_json(lat)
    assert text == json.dumps(lattice_doc(lat), sort_keys=True, indent=1) + "\n"
    assert lattice_from_json(text) == lat


class TestWriter:
    def test_matches_the_generic_encoder(self):
        rng = random.Random(79)
        seen = collections.Counter()
        for _ in range(300):
            ctx = awkward_context(rng)
            lat = build_lattice(ctx)
            assert_written_by_the_encoder(lat)
            seen["no objects"] += not ctx.objects
            seen["no attributes"] += not ctx.attributes
            seen["empty extent"] += 0 in lat._extent.values()
            seen["empty intent"] += 0 in lat._intents and len(lat._intents) > 1
            seen["ids out of order"] += list(ctx.objects) != sorted(ctx.objects)
            for a in ctx.attributes:
                seen[a.category] += 1
                seen["no prefix" if a.prefix is None else "prefix"] += 1
                for ch in AWKWARD:
                    seen[f"{ch!r} in a prefix"] += ch in (a.prefix or "")
                    seen[f"{ch!r} in a term"] += ch in a.term
            for g in ctx.objects:
                for ch in AWKWARD:
                    seen[f"{ch!r} in an object id"] += ch in g
        assert len(seen) == 7 + len(CATEGORIES) + 3 * len(AWKWARD), seen
        assert min(seen.values()) >= 10, seen

    def test_matches_the_generic_encoder_on_the_fixtures(self, table1, attrs_by_term):
        corpus = build_context(load_records(FIXTURES / "bioregistry8"))
        views = [table1.select_by_attribute(attrs_by_term["Hu"]), corpus.project_by_category("Organism")]
        for ctx in (table1, corpus, *views):
            assert_written_by_the_encoder(build_lattice(ctx))

    def test_matches_the_generic_encoder_after_each_insert(self):
        rng = random.Random(83)
        for _ in range(40):
            lat = build_lattice(awkward_context(rng))
            for step in range(6):
                attrs = list(lat.context.attributes)
                row = rng.sample(attrs, rng.randint(0, len(attrs)))
                if rng.random() < 0.3:
                    row.append(awkward_attribute(rng, f"new{step}"))
                lat = insert_object(lat, awkward_name(rng, f"h{step}"), row)
                assert_written_by_the_encoder(lat)


class TestOnePassInsert:
    def test_chained_inserts_equal_the_rebuilt_lattice(self):
        rng = random.Random(89)
        for lat in random_lattices(90, 60):
            for step in range(5):
                row = rng.choice(list(rows_to_insert(rng, lat).values()))
                grown = insert_object(lat, f"gx{step}", row)
                ref = build_lattice(lat.context.add_object(f"gx{step}", row))
                assert (grown._intents, grown._extent) == (ref._intents, ref._extent)
                assert grown._parents == ref._parents
                assert grown == ref and hash(grown) == hash(ref)
                assert grown.cover_concepts() == ref.cover_concepts()
                assert ref.covers == tuple(sorted(ref.covers))
                assert grown == ref and ref == grown and hash(grown) == hash(ref)
                assert grown.covers == ref.covers
                assert grown == ref and hash(grown) == hash(ref)
                lat = grown

    def test_every_position_reader_after_each_insert(self):
        rng = random.Random(101)
        seen = collections.Counter()
        for lat in random_lattices(102, 80):
            for step in range(6):
                row = rng.choice(list(rows_to_insert(rng, lat).values()))
                if rng.random() < 0.3:
                    row = row + [Attribute(f"new{step}")]
                grown = insert_object(lat, f"gx{step}", row)
                ref = build_lattice(grown.context)
                concepts, covers = ref.concepts, grown.covers
                assert covers == ref.covers
                for k, c in enumerate(concepts):
                    assert grown.index_of(c) == k and grown.concept_with_intent(c.intent) == c
                    ups = [concepts[p] for i, p in covers if i == k]
                    assert grown.upper_covers(c) == ref.upper_covers(c) == ups
                    downs = [concepts[i] for i, p in covers if p == k]
                    assert grown.lower_covers(c) == ref.lower_covers(c) == downs
                for reduced in (False, True):
                    assert export_dot(grown, reduced_labels=reduced) == export_dot(ref, reduced_labels=reduced)
                popped = lat._intents[-1] not in grown._extent
                if popped:
                    assert grown.concept_with_intent(lat.bottom.intent) is None
                seen["new attribute"] += len(grown.context.attributes) > len(lat.context.attributes)
                seen["popped an unclosed bottom"] += popped
                # the first position whose intent changed
                first = next((i for i, (b, c) in enumerate(zip(lat._intents, grown._intents)) if b != c), None)
                seen["nothing moved" if first is None else "the top moved" if first == 0 else "moved from the middle"] += 1
                lat = grown
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("new_first", [True, False], ids=["new-then-old", "old-then-new"])
    def test_kept_attribute_ranks_never_go_stale(self, new_first):
        rng = random.Random(93)
        early = Attribute("a")
        for _ in range(60):
            lat = build_lattice(cover_case_context(rng))
            attrs = list(lat.context.attributes)
            assert all(early.key < a.key for a in attrs)
            rows = [
                [early] + rng.sample(attrs, rng.randint(0, len(attrs))),
                rng.sample(attrs, rng.randint(0, len(attrs))) + [early] * new_first,
            ]
            if not new_first:
                rows.reverse()
            for step, row in enumerate(rows):
                grown = insert_object(lat, f"gx{step}", row)
                ctx = grown.context
                # a row with no new attribute reuses the lattice's key, and one with a new attribute makes one
                if len(ctx.attributes) == len(lat.context.attributes):
                    assert grown._key is lat._key
                else:
                    assert grown._key is not lat._key
                fresh = FormalContext._from_rows(ctx.objects, ctx.attributes, ctx._rows)
                assert fresh == ctx
                assert lattice_to_json(grown) == lattice_to_json(build_lattice(fresh))
                lat = grown

    def test_equality_sees_the_parent_lists(self):
        for lat in random_lattices(91, 40):
            parents = dict(lat._parents)
            b = next((b for b in lat._intents if parents[b]), None)
            if b is None:
                continue
            parents[b] = parents[b][:-1]
            odd = lattice.ConceptLattice._from_masks(lat.context, lat._intents, lat._extent, parents, lat._key)
            assert odd != lat and lat != odd
            assert odd.covers != lat.covers
            assert odd != lat and lat != odd
