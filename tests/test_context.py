import collections
import random

import pytest

from fcaregistry import (
    CATEGORIES,
    Attribute,
    ContextError,
    FcaRegistryError,
    FormalContext,
    context_from_csv,
    context_to_csv,
)
from fcaregistry.context import _bits
from conftest import FIXTURES, TEXT_EDITS, make_random_context, mutate_text


def terms(attrs):
    return sorted(a.term for a in attrs)


class TestDeriveObjects:
    def test_single_row(self, table1):
        assert terms(table1.derive_objects({"S7"})) == ["Mo", "PS"]

    def test_empty_set_yields_all_attributes(self, table1):
        assert table1.derive_objects(set()) == set(table1.attributes)

    def test_intersection_of_rows(self, table1):
        assert terms(table1.derive_objects({"S3", "S5"})) == ["Hu", "NS"]

    def test_unknown_object_names_offender(self, table1):
        with pytest.raises(ContextError, match="S99"):
            table1.derive_objects({"S1", "S99"})


class TestDeriveAttributes:
    def test_single_column(self, table1, attrs_by_term):
        assert table1.derive_attributes({attrs_by_term["Hu"]}) == {"S3", "S5"}

    def test_empty_set_yields_all_objects(self, table1):
        assert table1.derive_attributes(set()) == set(table1.objects)

    def test_intersection_of_columns(self, table1, attrs_by_term):
        got = table1.derive_attributes({attrs_by_term["NS"], attrs_by_term["MR"]})
        assert got == {"S2"}

    def test_unknown_attribute_names_offender(self, table1):
        with pytest.raises(ContextError, match="Zz"):
            table1.derive_attributes({Attribute("Zz")})


class TestCloseAttributes:
    def test_hu_closes_to_ns_hu(self, table1, attrs_by_term):
        assert terms(table1.close_attributes({attrs_by_term["Hu"]})) == ["Hu", "NS"]

    def test_empty_set_closes_to_empty(self, table1):
        # no attribute is shared by all eight sources
        assert table1.close_attributes(set()) == set()

    def test_object_intent_is_closed(self, table1, attrs_by_term):
        intent = {attrs_by_term[t] for t in ("NS", "PS", "AO", "MR")}
        assert table1.close_attributes(intent) == intent


class TestProjectByCategory:
    def test_subject_keeps_all_objects(self, table1):
        view = table1.project_by_category("Subject")
        assert terms(view.attributes) == ["NS", "PS"]
        assert list(view.objects) == list(table1.objects)

    def test_quality_keeps_mr_holders(self, table1):
        view = table1.project_by_category("Quality")
        assert terms(view.attributes) == ["MR"]
        assert list(view.objects) == ["S1", "S2", "S4"]

    def test_availability_is_empty(self, table1):
        view = table1.project_by_category("Availability")
        assert view.attributes == ()
        assert view.objects == ()

    def test_invalid_category(self, table1):
        with pytest.raises(ContextError):
            table1.project_by_category("Subjects")

    def test_membership_commutes(self):
        rng = random.Random(7)
        cats = ("Subject", "Organism", "Quality")
        for _ in range(30):
            n_obj, n_attr = rng.randint(1, 8), rng.randint(1, 6)
            attrs = [
                Attribute(term=f"m{j}", category=rng.choice(cats)) for j in range(n_attr)
            ]
            rows = [[rng.randint(0, 1) for _ in range(n_attr)] for _ in range(n_obj)]
            ctx = FormalContext([f"g{i}" for i in range(n_obj)], attrs, rows)
            for cat in cats:
                view = ctx.project_by_category(cat)
                for g in ctx.objects:
                    has_cat = any(a.category == cat for a in ctx.intent_of(g))
                    assert view.has_object(g) == has_cat


class TestSelectByAttribute:
    def test_hu_view(self, table1, attrs_by_term):
        view = table1.select_by_attribute(attrs_by_term["Hu"])
        assert list(view.objects) == ["S3", "S5"]
        assert terms(view.attributes) == ["Hu", "NS", "PS"]

    def test_ao_view(self, table1, attrs_by_term):
        view = table1.select_by_attribute(attrs_by_term["AO"])
        assert list(view.objects) == ["S1", "S2", "S4"]
        assert terms(view.attributes) == ["AO", "MR", "NS", "PS"]

    def test_mo_view(self, table1, attrs_by_term):
        view = table1.select_by_attribute(attrs_by_term["Mo"])
        assert list(view.objects) == ["S7"]
        assert terms(view.attributes) == ["Mo", "PS"]

    def test_unknown_attribute(self, table1):
        with pytest.raises(ContextError):
            table1.select_by_attribute(Attribute("Zz"))


class TestAddObject:
    def test_first_insertion(self):
        ctx = FormalContext([], [], [])
        grown = ctx.add_object("S1", [Attribute("PS"), Attribute("AO"), Attribute("MR")])
        assert list(grown.objects) == ["S1"]
        assert terms(grown.attributes) == ["AO", "MR", "PS"]
        assert grown.intent_of("S1") == set(grown.attributes)

    def test_row_append(self, table1, attrs_by_term):
        grown = table1.add_object("S9", [attrs_by_term["NS"]])
        assert len(grown.objects) == 9
        assert len(grown.attributes) == 8
        assert terms(grown.intent_of("S9")) == ["NS"]
        for g in table1.objects:
            assert grown.intent_of(g) == table1.intent_of(g)

    def test_duplicate_id(self, table1, attrs_by_term):
        with pytest.raises(ContextError, match="S1"):
            table1.add_object("S1", [attrs_by_term["NS"]])

    def test_reserved_id(self, table1, attrs_by_term):
        with pytest.raises(ContextError, match="Query"):
            table1.add_object("Query", [attrs_by_term["NS"]])

    def test_empty_id(self, table1, attrs_by_term):
        with pytest.raises(ContextError, match="non-empty"):
            table1.add_object("", [attrs_by_term["NS"]])

    def test_lone_surrogate_id(self, table1, attrs_by_term):
        with pytest.raises(ContextError, match="lone surrogate"):
            table1.add_object("S\udc80", [attrs_by_term["NS"]])

    def test_id_checks_come_in_the_constructor_order(self):
        ctx = FormalContext(["Query"], [Attribute("m")], [[1]], allow_reserved_ids=True)
        with pytest.raises(ContextError, match="reserved"):
            ctx.add_object("Query", [])
        with pytest.raises(ContextError, match="duplicate"):
            ctx.add_object("Query", [], allow_reserved=True)

    def test_equals_the_context_built_from_rows(self):
        rng = random.Random(13)
        for _ in range(50):
            ctx = make_random_context(rng)
            fresh = [Attribute("fresh"), Attribute("fresh2")][: rng.randint(0, 2)]
            row = fresh + rng.sample(list(ctx.attributes), rng.randint(0, len(ctx.attributes)))
            grown = ctx.add_object("gx", row)
            attrs = list(ctx.attributes) + fresh
            keys = {a.key for a in row}
            rows = [[int(a in ctx.intent_of(g)) for a in attrs] for g in ctx.objects]
            rows.append([int(a.key in keys) for a in attrs])
            built = FormalContext(list(ctx.objects) + ["gx"], attrs, rows)
            assert grown == built
            assert grown._cols == built._cols

    def test_a_repeated_attribute_counts_once(self, table1, attrs_by_term):
        ns = attrs_by_term["NS"]
        other = next(c for c in CATEGORIES if c != ns.category)
        zz, yy = Attribute("Zz"), Attribute("Yy", category=other)
        # each repeat with another category: the first occurrence is the one kept
        row = [zz, ns, yy, Attribute("Zz", category=other), Attribute(ns.term, ns.prefix, other)]
        grown = table1.add_object("S9", row)
        assert grown == table1.add_object("S9", [zz, ns, yy])
        assert grown.attributes == (*table1.attributes, zz, yy)
        assert [a.category for a in grown.attributes] == [*(a.category for a in table1.attributes), "Subject", other]
        assert terms(grown.intent_of("S9")) == ["NS", "Yy", "Zz"]


class TestFromRows:
    def test_equals_the_context_built_from_cells(self):
        rng = random.Random(17)
        for _ in range(60):
            ctx = make_random_context(rng)
            again = FormalContext._from_rows(list(ctx.objects), list(ctx.attributes), list(ctx._rows))
            assert again == ctx
            assert (again._rows, again._cols) == (ctx._rows, ctx._cols)
            assert (again._obj_index, again._attr_index) == (ctx._obj_index, ctx._attr_index)

    @pytest.mark.parametrize(
        "objects, attributes, rows, message",
        [
            (["g", "g"], ["a"], [0, 1], "duplicate object id"),
            (["g"], ["a", "a"], [3], "duplicate attribute"),
            ([""], ["a"], [1], "non-empty"),
            (["Query"], ["a"], [1], "reserved"),
            (["g", "h"], ["a"], [1], "row count"),
            (["g\ud800"], ["a"], [1], "lone surrogate"),
            (["\udcff"], ["a"], [1], "lone surrogate"),
        ],
    )
    def test_keeps_the_id_and_row_count_checks(self, objects, attributes, rows, message):
        attrs = [Attribute(a) for a in attributes]
        with pytest.raises(ContextError, match=message):
            FormalContext._from_rows(objects, attrs, rows)
        cells = [[row >> j & 1 for j in range(len(attrs))] for row in rows]
        with pytest.raises(ContextError, match=message):
            FormalContext(objects, attrs, cells)

    @pytest.mark.parametrize("row", [[1], [1, 0, 1]], ids=["short", "long"])
    def test_public_constructor_refuses_a_row_of_another_length(self, row):
        with pytest.raises(ContextError, match="column count does not match attribute count"):
            FormalContext(["g", "h"], [Attribute("a"), Attribute("b")], [[0, 1], row])

    @pytest.mark.parametrize("cell", ["0", "1", None, 2, -1, True, False, 1.0, 0.0])
    def test_public_constructor_refuses_a_cell_that_is_not_0_or_1(self, cell):
        with pytest.raises(ContextError, match=r"incidence cells must be 0 or 1, got "):
            FormalContext(["g", "h"], [Attribute("a"), Attribute("b")], [[0, 1], [1, cell]])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Attribute(term=5), "attribute term must be a string, got 5"),
        (lambda: Attribute("x", prefix=5), "attribute prefix must be a string, got 5"),
        (lambda: FormalContext([5], [], [[]]), "object id must be a string, got 5"),
    ],
    ids=["term", "prefix", "object id"],
)
def test_a_name_that_is_not_a_string_is_a_context_error(make, message):
    with pytest.raises(ContextError, match=message):
        make()


@pytest.mark.parametrize(
    "term, prefix", [("a\ud800", None), ("\udcff", "NCBI"), ("a", "\udc80"), ("a", "N\udfff")]
)
def test_an_attribute_refuses_a_lone_surrogate(term, prefix):
    with pytest.raises(ContextError, match="lone surrogate"):
        Attribute(term, prefix)


def test_slots_cannot_be_assigned():
    ctx = make_random_context(random.Random(5))
    before = (ctx.objects, ctx.attributes, ctx._rows, ctx._cols)
    for name in [*FormalContext.__slots__, "extra"]:
        with pytest.raises(AttributeError, match="FormalContext is immutable"):
            setattr(ctx, name, None)
        with pytest.raises(AttributeError, match="FormalContext is immutable"):
            delattr(ctx, name)
    assert (ctx.objects, ctx.attributes, ctx._rows, ctx._cols) == before


def cells_of(ctx):
    """The context's incidence as 0/1 cell lists, read from its row masks."""
    return [[row >> j & 1 for j in range(len(ctx.attributes))] for row in ctx._rows]


def cell_restrict(ctx, keep_obj, keep_attr):
    """The sub-context of the kept object and attribute positions, built
    from 0/1 cell lists through the public constructor."""
    cells = cells_of(ctx)
    return FormalContext(
        [ctx.objects[i] for i in keep_obj],
        [ctx.attributes[j] for j in keep_attr],
        [[cells[i][j] for j in keep_attr] for i in keep_obj],
        allow_reserved_ids=True,
    )


def same_context(got, want):
    assert got.objects == want.objects
    assert [(a.key, a.category) for a in got.attributes] == [(a.key, a.category) for a in want.attributes]
    assert (got._rows, got._cols) == (want._rows, want._cols)


class TestProjectionsMatchCellLists:
    def test_every_projection_of_random_contexts(self):
        rng = random.Random(131)
        for _ in range(200):
            n_obj, n_attr = rng.randint(0, 9), rng.randint(0, 8)
            attrs = [Attribute(f"m{j}", rng.choice((None, "P")), rng.choice(CATEGORIES)) for j in range(n_attr)]
            objects = [f"g{i}" for i in range(n_obj)]
            if objects and rng.random() < 0.3:
                objects[rng.randrange(n_obj)] = "Query"
            density = rng.choice((0.1, 0.3, 0.6))
            rows = [[int(rng.random() < density) for _ in attrs] for _ in objects]
            ctx = FormalContext(objects, attrs, rows, allow_reserved_ids=True)
            cells = cells_of(ctx)
            for cat in CATEGORIES:
                keep_attr = [j for j, a in enumerate(attrs) if a.category == cat]
                keep_obj = [i for i in range(n_obj) if any(cells[i][j] for j in keep_attr)]
                same_context(ctx.project_by_category(cat), cell_restrict(ctx, keep_obj, keep_attr))
            for j0, a in enumerate(attrs):
                keep_obj = [i for i in range(n_obj) if cells[i][j0]]
                keep_attr = [j for j in range(n_attr) if any(cells[i][j] for i in keep_obj)]
                same_context(ctx.select_by_attribute(a), cell_restrict(ctx, keep_obj, keep_attr))


def row_scan_query_context(ctx, terms, label):
    """The query context as a scan over every row builds it: rows grouped by
    their restriction to the known terms, each group named by its first
    object and listed as its ids, and the restricted bits renumbered."""
    known = 0
    unknown = []
    for a in terms:
        j = ctx._attr_index.get(a.key)
        if j is None:
            unknown.append(a)
        else:
            known |= 1 << j
    groups = {}
    for g, row in zip(ctx.objects, ctx._rows):
        groups.setdefault(row & known, []).append(g)
    bit_of = {j: 1 << k for k, j in enumerate(_bits(known))}
    rows = [sum(bit_of[j] for j in _bits(x)) for x in groups]
    attrs = [ctx.attributes[j] for j in bit_of] + sorted(unknown, key=lambda a: a.key)
    objects = [members[0] for members in groups.values()] + [label]
    sub = FormalContext._from_rows(objects, attrs, rows + [(1 << len(attrs)) - 1], allow_reserved_ids=True)
    return sub, [set(members) for members in groups.values()]


def query_context_view(sub, members):
    """What a query context says, whatever the order of its objects: its
    attributes, each group's row (as attribute keys) and members by the
    group's name, and the last object's name and row."""
    keys = lambda row: frozenset(a.key for a in sub._attrs_from_mask(row))
    assert len(members) == len(sub.objects) - 1 and all(members)
    groups = {g: (keys(row), frozenset(m)) for g, row, m in zip(sub.objects, sub._rows, members)}
    assert len(groups) == len(members)
    attributes = [(a.key, a.category) for a in sub.attributes]
    return attributes, groups, sub.objects[-1], keys(sub._rows[-1])


class TestQueryContext:
    def test_column_splits_match_the_row_scan(self):
        rng = random.Random(137)
        unknown = [Attribute(f"u{j}", rng.choice((None, "P"))) for j in range(3)]
        seen = collections.Counter()
        for _ in range(600):
            n_obj, n_attr = rng.randint(0, 9), rng.randint(0, 6)
            attrs = [Attribute(f"m{j}", rng.choice((None, "P")), rng.choice(CATEGORIES)) for j in range(n_attr)]
            density = rng.choice((0.2, 0.5, 0.8))
            rows = [[int(rng.random() < density) for _ in attrs] for _ in range(n_obj)]
            ctx = FormalContext([f"g{i}" for i in range(n_obj)], attrs, rows)
            known = rng.sample(attrs, rng.randint(0, n_attr))
            terms = set(known) | set(rng.sample(unknown, rng.randint(0 if known else 1, 2)))
            if known and rng.random() < 0.3:
                # an equal attribute of another category: the context's own one is kept
                twin = rng.choice(known)
                terms = (terms - {twin}) | {Attribute(twin.term, twin.prefix or "", "Quality")}
                seen["twin"] += 1
            sub, groups = ctx._query_context(terms, "Query")
            want = query_context_view(*row_scan_query_context(ctx, terms, "Query"))
            assert query_context_view(sub, [ctx._objects_from_mask(p) for p in groups]) == want
            assert sum(groups) == ctx._full_obj_mask
            seen["no_objects"] += not ctx.objects
            seen["no_attributes"] += not attrs
            seen["duplicate_rows"] += len(set(ctx._rows)) < n_obj
            seen["no_known_term"] += not known
            seen["every_term_known"] += len(known) == len(terms)
            seen["whole_row_known"] += bool(attrs) and len(known) == n_attr
        assert min(seen.values()) >= 20, seen

    def test_an_empty_context_gives_only_the_label(self):
        for attrs in ([], [Attribute("a")]):
            ctx = FormalContext([], attrs, [])
            sub, groups = ctx._query_context(set(attrs) | {Attribute("u")}, "Query")
            assert (sub.objects, groups) == (("Query",), [])
            assert sub._rows == ((1 << len(sub.attributes)) - 1,)


class TestGaloisProperties:
    def test_derivations_and_closure_laws(self):
        rng = random.Random(11)
        for _ in range(100):
            ctx = make_random_context(rng)
            objs = list(ctx.objects)
            attrs = list(ctx.attributes)
            a1 = set(rng.sample(objs, rng.randint(0, len(objs))))
            a2 = a1 | set(rng.sample(objs, rng.randint(0, len(objs))))
            assert ctx.derive_objects(a2) <= ctx.derive_objects(a1)
            b1 = set(rng.sample(attrs, rng.randint(0, len(attrs))))
            b2 = b1 | set(rng.sample(attrs, rng.randint(0, len(attrs))))
            assert ctx.derive_attributes(b2) <= ctx.derive_attributes(b1)
            # extensive, monotone, idempotent closure
            c1 = ctx.close_attributes(b1)
            assert b1 <= c1
            assert c1 <= ctx.close_attributes(b2 | b1)
            assert ctx.close_attributes(c1) == c1
            # round-trip supersets
            assert ctx.derive_attributes(ctx.derive_objects(a1)) >= a1


class TestCsv:
    def test_round_trip(self, table1):
        text = context_to_csv(table1)
        again = context_from_csv(text)
        assert again == table1
        assert context_to_csv(again) == text

    def test_categories_survive(self, table1):
        again = context_from_csv(context_to_csv(table1))
        assert [a.category for a in again.attributes] == [a.category for a in table1.attributes]

    def test_prefixed_header_cell(self):
        ctx = context_from_csv(",NCBI:Human@Organism\nS1,1\n")
        (attr,) = ctx.attributes
        assert attr.prefix == "NCBI"
        assert attr.term == "Human"
        assert attr.category == "Organism"

    def test_bad_cell_rejected(self):
        with pytest.raises(ContextError):
            context_from_csv(",m1\nS1,2\n")

    def test_nonempty_corner_rejected(self):
        with pytest.raises(ContextError):
            context_from_csv("id,m1\nS1,1\n")

    @pytest.mark.parametrize(
        "attr",
        [Attribute("x@y"), Attribute("x", "p@q"), Attribute("a:b"), Attribute("b", "a:c"),
         Attribute(" pad "), Attribute("pad", " p"), Attribute("a\rb")],
        ids=["at-in-term", "at-in-prefix", "colon-in-bare-term", "colon-in-prefix",
             "padded-term", "padded-prefix", "carriage-return"],
    )
    def test_writer_refuses_a_name_that_would_read_back_otherwise(self, attr):
        with pytest.raises(ContextError, match="cannot write attribute"):
            context_to_csv(FormalContext(["S1"], [attr], [[1]]))

    def test_writer_refuses_a_padded_object_id(self):
        with pytest.raises(ContextError, match="cannot write object id"):
            context_to_csv(FormalContext([" S1"], [Attribute("m")], [[1]]))

    @pytest.mark.parametrize(
        "text",
        [',"a\rb"\nS1,1\n', ',"p\r:b"\nS1,1\n', ',m\n"S\r1",1\n', ",a :b\nS1,1\n", ",a: b\nS1,1\n",
         ",x @Subject\nS1,1\n", ",:b:c\nS1,1\n"],
        ids=["carriage-return-in-term", "carriage-return-in-prefix", "carriage-return-in-object-id",
             "padded-prefix", "padded-term", "padded-term-before-category", "colon-in-bare-term"],
    )
    def test_reader_refuses_what_the_writer_refuses(self, text):
        with pytest.raises(ContextError, match="carriage return|cannot write back"):
            context_from_csv(text)

    def test_oversized_field_is_refused(self):
        with pytest.raises(ContextError, match="unreadable context file: field larger than field limit"):
            context_from_csv(",m\n" + "S" * 140_000 + ",1\n")

    def test_reserved_object_id_is_refused(self):
        with pytest.raises(ContextError, match="'Query' is reserved"):
            context_from_csv(",m\nS1,1\nQuery,1\n")

    def test_no_attribute_columns(self):
        for text in ('""\nS1\nS2\n', "\nS1\nS2\n"):
            ctx = context_from_csv(text)
            assert ctx.objects == ("S1", "S2") and ctx.attributes == ()
            assert (ctx._rows, ctx._cols) == ((0, 0), ())
        assert context_to_csv(ctx) == '""\nS1\nS2\n'

    def test_matches_the_context_built_from_cells(self):
        rng = random.Random(137)
        for _ in range(300):
            attrs = [
                Attribute(f"m{j}", rng.choice((None, "P")), rng.choice(CATEGORIES))
                for j in rng.sample(range(12), rng.randint(0, 8))
            ]
            objects = [f"g{i}" for i in range(rng.randint(0, 9))]
            density = rng.choice((0.1, 0.4, 0.8))
            cells = [[int(rng.random() < density) for _ in attrs] for _ in objects]

            def pad(cell):
                return rng.choice(("", " ")) + cell + rng.choice(("", " ", "\t"))

            lines = [",".join([""] + [pad(f"{a}@{a.category}") for a in attrs])]
            for g, row in zip(objects, cells):
                lines.append(",".join([pad(g)] + [pad(str(v)) for v in row]))
                if rng.random() < 0.2:
                    lines.append(rng.choice(("", " , ")))
            same_context(context_from_csv("\n".join(lines) + "\n"), FormalContext(objects, attrs, cells))

    def test_the_reserved_query_id_is_not_written(self):
        ctx = FormalContext(["Query"], [Attribute("a")], [[1]], allow_reserved_ids=True)
        with pytest.raises(ContextError, match="cannot write object id 'Query' to CSV"):
            context_to_csv(ctx)

    def test_colon_in_a_prefixed_term_round_trips(self):
        ctx = FormalContext(["S1"], [Attribute("a:b", "T")], [[1]])
        assert context_from_csv(context_to_csv(ctx)) == ctx

    def test_what_the_writer_accepts_reads_back_equal(self):
        def unwritable(text, forbidden):
            return text != text.strip() or any(ch in text for ch in forbidden + "\r")

        def refused(ctx):
            return any(
                unwritable(a.prefix or "", "@:") or unwritable(a.term, "@" if a.prefix else "@:")
                for a in ctx.attributes
            ) or any(unwritable(g, "") for g in ctx.objects)

        rng = random.Random(79)

        def spelling():
            return "".join(rng.choice('@:,"\n ab') for _ in range(rng.randint(1, 4)))

        written = rejected = 0
        while written < 300 or rejected < 300:
            attrs = [
                Attribute(spelling(), rng.choice((None, spelling())), rng.choice(CATEGORIES))
                for _ in range(rng.randint(0, 3))
            ]
            objects = [spelling() for _ in range(rng.randint(0, 3))]
            rows = [[rng.randint(0, 1) for _ in attrs] for _ in objects]
            try:
                ctx = FormalContext(objects, attrs, rows)
            except ContextError:
                continue
            if refused(ctx):
                with pytest.raises(ContextError, match="cannot write"):
                    context_to_csv(ctx)
                rejected += 1
            else:
                again = context_from_csv(context_to_csv(ctx))
                assert again == ctx
                assert [a.category for a in again.attributes] == [a.category for a in ctx.attributes]
                written += 1


def quoted_csv(rng):
    """The CSV text of a small context whose names often need quotes: they
    hold commas, quotes, line breaks, colons and inner spaces."""

    def spelling():
        return "".join(rng.choice('ab,"\n: ') for _ in range(rng.randint(1, 4))).strip() or "a"

    while True:
        attrs = [Attribute(spelling(), rng.choice((None, spelling())), rng.choice(CATEGORIES)) for _ in range(3)]
        objects = [spelling() for _ in range(3)]
        try:
            return context_to_csv(FormalContext(objects, attrs, [[rng.randint(0, 1) for _ in attrs] for _ in objects]))
        except ContextError:
            continue


class TestCsvFuzz:
    def test_what_the_reader_accepts_writes_back_equal(self):
        rng = random.Random(103)
        table1 = (FIXTURES / "table1.csv").read_text(encoding="utf-8")
        # a character put inside a quoted cell is what makes a name the writer refuses
        kinds = TEXT_EDITS + ("insert",) * 14
        outcomes = collections.Counter()
        for n in range(1500):
            if n % 4 == 0:
                text = table1
            elif n % 4 == 1:
                text = context_to_csv(make_random_context(rng, 5, 5))
            else:
                text = quoted_csv(rng)
            for _ in range(rng.randint(1, 3)):
                kind, text = mutate_text(rng, text, kinds)
                outcomes[kind] += 1
            try:
                ctx = context_from_csv(text)
            except FcaRegistryError as exc:
                unwritable = "carriage return" in str(exc) or "cannot write back" in str(exc)
                outcomes["refused as unwritable" if unwritable else "rejected"] += 1
                continue
            again = context_from_csv(context_to_csv(ctx))
            assert again == ctx, text
            assert [a.category for a in again.attributes] == [a.category for a in ctx.attributes]
            outcomes["accepted"] += 1
        assert set(outcomes) == {"accepted", "rejected", "refused as unwritable", *TEXT_EDITS}, outcomes
        assert min(outcomes.values()) >= 10, outcomes
