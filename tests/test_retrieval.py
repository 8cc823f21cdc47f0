import collections
import json
import math
import random
import sys

import pytest

from fcaregistry import (
    Attribute,
    FormalContext,
    LatticeError,
    Ontology,
    Query,
    QueryError,
    RankedResult,
    RefinementReport,
    ResultSet,
    build_lattice,
    insert_query,
    result_set_to_json,
    result_set_to_table,
    search,
    search_refined,
)
from fcaregistry import ontology, retrieval
from fcaregistry.lattice import ConceptLattice
from conftest import edge_case_context, make_random_context


def q(*attrs):
    return Query(terms=frozenset(attrs))


def ranks(rs):
    return [(r.source, r.rank) for r in rs.results]


def json_dumps_oracle(rs):
    """The rendering as the generic encoder gives it."""
    doc = {
        "query": {
            "label": rs.query.label,
            "terms": sorted(str(t) for t in rs.query.terms),
        },
        "refinement": None
        if rs.refinement_applied is None
        else {
            "mode": rs.refinement_applied.mode,
            "added": sorted(str(a) for a in rs.refinement_applied.added),
            "dropped_candidates": sorted(rs.refinement_applied.dropped_candidates),
            "hops": rs.refinement_applied.hops_used,
            "skipped_terms": sorted(rs.refinement_applied.skipped_terms),
        },
        "results": [
            {
                "source": r.source,
                "rank": r.rank,
                "shared": sorted(str(a) for a in r.shared),
                "via_intent": sorted(str(a) for a in r.via_intent),
            }
            for r in rs.results
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ASCII, JSON's own escapes, other control characters, non-ASCII letters,
# a line separator, lone surrogates and an astral character
AWKWARD = ["a", "Z", "0", " ", ":", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
           "\xe9", "\xdf", "\u4e2d", "\u2028", "\ud800", "\udfff", "\U0001f600"]
#: ``Attribute`` refuses a lone surrogate, and a ":" in a prefix or a bare
#: term, so terms and prefixes are drawn without them
TERM_CHARS = [c for c in AWKWARD if not "\ud800" <= c <= "\udfff" and c != ":"]


def awkward_text(rng, chars=AWKWARD):
    return "".join(rng.choice(chars) for _ in range(rng.randint(1, 5)))


def random_result_set(rng):
    pool = [
        Attribute(
            term=awkward_text(rng, TERM_CHARS),
            prefix=rng.choice((None, "", awkward_text(rng, TERM_CHARS))),
            category=rng.choice(("Subject", "Organism")),
        )
        for _ in range(rng.randint(1, 6))
    ]

    def subset():
        return frozenset(rng.sample(pool, rng.randint(0, len(pool))))

    def texts():
        return frozenset(awkward_text(rng) for _ in range(rng.choice((0, 1, 4))))

    results = tuple(
        RankedResult(
            source=awkward_text(rng), rank=rng.randint(0, 12), shared=subset(), via_intent=subset()
        )
        for _ in range(rng.choice((0, 1, 2, 7)))
    )
    report = None
    if rng.random() < 0.6:
        report = RefinementReport(
            mode=rng.choice(("generalize", "specialize", "both", awkward_text(rng))),
            added=subset(),
            dropped_candidates=texts(),
            hops_used=rng.choice((None, 0, 1, 3, 120)),
            skipped_terms=texts(),
        )
    query = Query(terms=subset(), label=awkward_text(rng))
    return ResultSet(query=query, results=results, refinement_applied=report)


def random_ontology(rng, ctx):
    """Some of the context's terms, under their names or as aliases, and terms outside it."""
    names = [a.term for a in ctx.attributes]
    aliased = rng.sample(names, min(len(names), rng.randint(0, 2)))
    aliases = {f"x{k}": name for k, name in enumerate(aliased)}
    terms = [n for n in names if n not in aliased] + [f"x{k}" for k in range(3)]
    rng.shuffle(terms)
    edges = {(rng.choice(terms[:i]), t) for i, t in enumerate(terms) if i}
    for _ in range(2):
        i, j = sorted(rng.sample(range(len(terms)), 2))
        edges.add((terms[i], terms[j]))
    return Ontology(rng.choice(("T", "")), terms[0], sorted(edges), aliases)


def reference_distance(ont, original):
    """The tie-break of search_refined, recomputed from a group's shared set."""

    def in_ontology(a):
        return a.prefix in (None, ont.prefix) and ont.resolve(a.term) is not None

    def key(shared):
        distances = [
            ont.term_distance(t.term, s.term)
            for s in shared
            for t in original
            if in_ontology(s) and in_ontology(t)
        ]
        return min((d for d in distances if d is not None), default=math.inf)

    return key


def reference_search(lat, query):
    """The walk over the literally grown lattice, as search once did it.

    The grown lattice is checked against a full build of the grown context,
    which shares no code with the up-set that ``insert_query`` merges."""
    augmented, query_concept = insert_query(lat, query)
    assert augmented == build_lattice(lat.context.add_object(query.label, query.terms, allow_reserved=True))
    collected = {}
    frontier = [query_concept]
    visited = {query_concept}
    rank = 0
    while frontier:
        contributed = False
        for concept in frontier:
            if not concept.intent:
                continue
            contributed = True
            for source in sorted(concept.extent):
                if source == query.label or source in collected:
                    continue
                shared = frozenset(lat.context.intent_of(source) & query.terms)
                collected[source] = RankedResult(
                    source=source, rank=rank, shared=shared, via_intent=concept.intent
                )
        if not contributed:
            break
        nxt = []
        for concept in frontier:
            for parent in augmented.upper_covers(concept):
                if parent not in visited:
                    visited.add(parent)
                    nxt.append(parent)
        frontier = nxt
        rank += 1
    ordered = sorted(collected.values(), key=lambda r: (r.rank, -len(r.shared), r.source))
    return ResultSet(query=query, results=tuple(ordered))


class TestInsertQuery:
    def test_new_query_concept(self, table1_lattice, attrs_by_term):
        terms = {attrs_by_term[t] for t in ("NS", "Hu", "MR")}
        aug, concept = insert_query(table1_lattice, q(*terms))
        assert concept.extent == frozenset({"Query"})
        assert {a.term for a in concept.intent} == {"NS", "Hu", "MR"}
        assert len(aug.concepts) > len(table1_lattice.concepts)

    def test_query_merges_into_existing_concept(self, table1_lattice, attrs_by_term):
        terms = {attrs_by_term[t] for t in ("NS", "An")}
        _, concept = insert_query(table1_lattice, q(*terms))
        assert concept.extent == frozenset({"Query", "S6"})
        assert {a.term for a in concept.intent} == {"NS", "An"}

    def test_unknown_attribute_isolated(self, table1_lattice):
        aug, concept = insert_query(table1_lattice, q(Attribute("Ch")))
        assert concept.extent == frozenset({"Query"})
        assert {a.term for a in concept.intent} == {"Ch"}
        base = {c.intent: c.extent for c in table1_lattice.concepts}
        for c in aug.concepts:
            if "Query" not in c.extent and c.intent in base:
                assert c.extent == base[c.intent]

    def test_empty_terms_rejected(self, table1_lattice):
        with pytest.raises(QueryError):
            insert_query(table1_lattice, Query(terms=frozenset()))

    def test_label_collision_rejected(self, table1_lattice, attrs_by_term):
        with pytest.raises(QueryError, match="S1"):
            insert_query(
                table1_lattice, Query(terms=frozenset({attrs_by_term["NS"]}), label="S1")
            )
        with pytest.raises(QueryError, match="S1"):
            search(table1_lattice, Query(terms=frozenset({attrs_by_term["NS"]}), label="S1"))

    def test_missing_query_concept_is_a_package_error(self, monkeypatch, table1_lattice, attrs_by_term):
        def grow_without_concepts(lat, obj, attrs, **kwargs):
            grown = lat.context.add_object(obj, attrs, **kwargs)
            # the public constructor would refuse this lattice
            return ConceptLattice._from_masks(grown, (), {}, {}, None)

        monkeypatch.setattr(retrieval, "insert_object", grow_without_concepts)
        with pytest.raises(LatticeError):
            insert_query(table1_lattice, q(attrs_by_term["NS"]))


class TestSearch:
    def test_golden_ns_hu_mr(self, table1_lattice, attrs_by_term):
        rs = search(table1_lattice, q(*(attrs_by_term[t] for t in ("NS", "Hu", "MR"))))
        assert ranks(rs) == [
            ("S2", 1),
            ("S3", 1),
            ("S5", 1),
            ("S1", 2),
            ("S4", 2),
            ("S6", 2),
        ]
        shared = {r.source: {a.term for a in r.shared} for r in rs.results}
        assert shared["S2"] == {"NS", "MR"}
        assert shared["S3"] == {"NS", "Hu"}
        assert shared["S5"] == {"NS", "Hu"}
        assert shared["S1"] == shared["S4"] == {"MR"}
        assert shared["S6"] == {"NS"}

    def test_exact_match_is_rank_zero(self, table1_lattice, attrs_by_term):
        rs = search(table1_lattice, q(attrs_by_term["Mo"]))
        assert ranks(rs) == [("S7", 0)]
        assert {a.term for a in rs.results[0].shared} == {"Mo"}

    def test_unknown_term_finds_nothing(self, table1_lattice):
        rs = search(table1_lattice, q(Attribute("Ch")))
        assert rs.results == ()

    def test_empty_terms_rejected(self, table1_lattice):
        with pytest.raises(QueryError):
            search(table1_lattice, Query(terms=frozenset()))

    def test_matches_walk_over_grown_lattice(self):
        rng = random.Random(61)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        seen = {"unknown": 0, "all_unknown": 0, "no_objects": 0, "zero_column": 0, "top_intent": 0}
        for _ in range(400):
            ctx = edge_case_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            if terms and rng.random() < 0.2:
                # a term spelled with an empty prefix
                twin = rng.choice(sorted(terms, key=lambda a: a.key))
                terms = (terms - {twin}) | {Attribute(term=twin.term, prefix="")}
            query = Query(terms=frozenset(terms))
            expected = reference_search(lat, query)
            assert result_set_to_json(search(lat, query)) == result_set_to_json(expected)
            known = {a for a in terms if ctx.has_attribute(a)}
            seen["unknown"] += known != terms
            seen["all_unknown"] += not known
            seen["no_objects"] += not ctx.objects
            seen["zero_column"] += any(not ctx.derive_attributes([a]) for a in known)
            seen["top_intent"] += bool(lat.top.intent)
        assert min(seen.values()) >= 20, seen

    def test_tie_break_is_called_once_on_each_group_it_orders(self):
        def key(shared):
            # orders sets of one size apart from the ids of their sources
            return sorted((a.key for a in shared), reverse=True)

        rng = random.Random(61)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        seen = collections.Counter()
        for _ in range(400):
            ctx = edge_case_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            query = Query(terms=frozenset(terms))
            calls = []
            rs = search(lat, query, tie_break=lambda shared: calls.append(shared) or key(shared))
            # each group's sources share one set, and distinct groups have distinct sets
            assert sorted(map(id, calls)) == sorted({id(r.shared) for r in rs.results})
            assert len(set(calls)) == len(calls)
            expected = sorted(
                reference_search(lat, query).results,
                key=lambda r: (r.rank, -len(r.shared), key(r.shared), r.source),
            )
            assert rs.results == tuple(expected)
            seen["no results"] += not rs.results
            seen["the key reorders"] += rs.results != search(lat, query).results
            seen["a group of several sources"] += len(calls) < len(rs.results)
        assert min(seen.values()) >= 20, seen

    def test_up_set_is_the_grown_lattice_above_the_query(self):
        """The lattice of the restricted context, matched by attribute key,
        is the part of the grown lattice at and above the query concept."""

        def key(intent):
            return frozenset(a.key for a in intent)

        rng = random.Random(61)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        for _ in range(400):
            ctx = edge_case_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            if terms and rng.random() < 0.2:
                twin = rng.choice(sorted(terms, key=lambda a: a.key))
                terms = (terms - {twin}) | {Attribute(term=twin.term, prefix="")}
            query = Query(terms=frozenset(terms))
            sub, groups = ctx._query_context(query.terms)
            members = {name: ctx._objects_from_mask(mask) for name, mask in zip(sub.objects, groups)}
            up = build_lattice(sub)
            grown, query_concept = insert_query(lat, query)
            # a full build of the grown context: insert_query merges the same up-set
            assert grown == build_lattice(ctx.add_object(query.label, query.terms, allow_reserved=True))
            above = [c for c in grown.concepts if c.extent >= query_concept.extent]
            assert up.bottom.intent == frozenset(sub.attributes) and key(up.bottom.intent) == key(query.terms)
            # the grown extents without the query's label
            assert {
                key(c.intent): frozenset(g for name in c.extent for g in members[name]) for c in up.concepts
            } == {key(c.intent): c.extent - {query.label} for c in above}
            assert len(up.concepts) == len(above)
            assert {(key(c.intent), key(p.intent)) for c, p in up.cover_concepts()} == {
                (key(c.intent), key(p.intent))
                for c, p in grown.cover_concepts()
                if c.extent >= query_concept.extent
            }

    def test_the_restricted_bottom_holds_exactly_the_full_matches(self):
        """The bottom of the restricted context's lattice has every term as
        its intent; its groups hold the sources with every term, and none
        when a term is unknown."""
        rng = random.Random(67)
        unknown = [Attribute(term=f"u{j}") for j in range(2)]
        seen = collections.Counter()
        for _ in range(300):
            ctx = edge_case_context(rng)
            terms = set(rng.sample(ctx.attributes, rng.randint(1, len(ctx.attributes))))
            if rng.random() < 0.3:
                terms |= set(rng.sample(unknown, rng.randint(1, 2)))
            sub, groups = ctx._query_context(terms)
            bottom = build_lattice(sub).bottom
            members = dict(zip(sub.objects, map(ctx._objects_from_mask, groups)))
            full = {g for g in ctx.objects if terms <= ctx.intent_of(g)}
            assert {a.key for a in bottom.intent} == {a.key for a in terms}
            assert {g for name in bottom.extent for g in members[name]} == full
            if terms & set(unknown):
                assert bottom.extent == frozenset()
                seen["an unknown term"] += 1
            else:
                seen["every term known, a full match" if full else "every term known, no full match"] += 1
        assert min(seen.values()) >= 20 and len(seen) == 3, seen

    def test_unknown_term_puts_full_matches_at_rank_one(self):
        a, b = Attribute("a"), Attribute("b")
        lat = build_lattice(FormalContext(["g1", "g2", "g3"], [a, b], [[1, 0], [1, 1], [0, 1]]))
        assert ranks(search(lat, q(a))) == [("g1", 0), ("g2", 0)]
        query = q(a, Attribute("unknown"))
        assert ranks(search(lat, query)) == [("g1", 1), ("g2", 1)]
        assert ranks(reference_search(lat, query)) == [("g1", 1), ("g2", 1)]

    def test_known_term_with_empty_column_finds_nothing(self):
        a, b = Attribute("a"), Attribute("b")
        lat = build_lattice(FormalContext(["g1", "g2"], [a, b], [[1, 0], [1, 0]]))
        assert search(lat, q(b)).results == ()
        assert reference_search(lat, q(b)).results == ()

    def test_lattice_is_never_regrown(self, monkeypatch, table1_lattice, attrs_by_term, organisms):
        def refuse(*args, **kwargs):
            raise AssertionError("search must not grow the lattice")

        monkeypatch.setattr(retrieval, "insert_object", refuse)
        rs = search(table1_lattice, q(*(attrs_by_term[t] for t in ("NS", "Hu", "MR"))))
        assert ranks(rs) == [("S2", 1), ("S3", 1), ("S5", 1), ("S1", 2), ("S4", 2), ("S6", 2)]
        refined = search_refined(table1_lattice, q(Attribute("Ch")), organisms, "generalize")
        assert refined.sources() == ["S8", "S6", "S1", "S2", "S4"]

    def test_empty_label_rejected(self, table1_lattice, attrs_by_term):
        with pytest.raises(QueryError):
            search(table1_lattice, Query(terms=frozenset({attrs_by_term["NS"]}), label=""))

    def test_base_lattice_untouched(self, table1, table1_lattice, attrs_by_term):
        before = build_lattice(table1)
        search(table1_lattice, q(attrs_by_term["Hu"]))
        assert table1_lattice == before

    def test_deterministic_and_repeatable(self, table1_lattice, attrs_by_term):
        query = q(*(attrs_by_term[t] for t in ("NS", "Hu", "MR")))
        a = search(table1_lattice, query)
        b = search(table1_lattice, query)
        assert a == b
        assert result_set_to_json(a) == result_set_to_json(b)

    def test_soundness_and_completeness_random(self):
        rng = random.Random(47)
        for _ in range(40):
            ctx = make_random_context(rng)
            if not ctx.objects or not ctx.attributes:
                continue
            lat = build_lattice(ctx)
            terms = frozenset(
                rng.sample(list(ctx.attributes), rng.randint(1, len(ctx.attributes)))
            )
            rs = search(lat, Query(terms=terms))
            expected = {g for g in ctx.objects if ctx.intent_of(g) & terms}
            assert set(rs.sources()) == expected
            for r in rs.results:
                assert r.shared == frozenset(ctx.intent_of(r.source) & terms)
                assert r.shared
            assert lat == build_lattice(ctx)

    def test_shared_sets_match_per_source_intersection(self):
        rng = random.Random(83)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        repeated = 0
        for _ in range(200):
            ctx = edge_case_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            if terms and rng.random() < 0.2:
                twin = rng.choice(sorted(terms, key=lambda a: a.key))
                terms = (terms - {twin}) | {Attribute(term=twin.term, prefix="")}
            results = search(lat, Query(terms=frozenset(terms))).results
            for r in results:
                assert r.shared == frozenset(a for a in ctx.intent_of(r.source) if a in terms)
            # equal sets are one object, so renderers can memoise them
            assert len({id(r.shared) for r in results}) == len({r.shared for r in results})
            repeated += len({r.shared for r in results}) < len(results)
        assert repeated >= 20, repeated

    def test_rank_zero_iff_full_match(self):
        rng = random.Random(53)
        for _ in range(25):
            ctx = make_random_context(rng)
            if not ctx.objects or not ctx.attributes:
                continue
            lat = build_lattice(ctx)
            terms = frozenset(
                rng.sample(list(ctx.attributes), rng.randint(1, len(ctx.attributes)))
            )
            rs = search(lat, Query(terms=terms))
            for r in rs.results:
                assert (r.rank == 0) == (terms <= ctx.intent_of(r.source))

    def test_rank_monotone_in_shared(self):
        rng = random.Random(59)
        for _ in range(25):
            ctx = make_random_context(rng)
            if not ctx.objects or not ctx.attributes:
                continue
            lat = build_lattice(ctx)
            terms = frozenset(
                rng.sample(list(ctx.attributes), rng.randint(1, len(ctx.attributes)))
            )
            results = search(lat, Query(terms=terms)).results
            for a in results:
                for b in results:
                    if a.shared > b.shared:
                        assert a.rank <= b.rank


class TestSearchRefined:
    def test_golden_generalize_chicken(self, table1_lattice, organisms):
        rs = search_refined(table1_lattice, q(Attribute("Ch")), organisms, "generalize")
        assert {r.source for r in rs.results} == {"S1", "S2", "S4", "S6", "S8"}
        assert all(r.rank == 1 for r in rs.results)
        shared = {r.source: {a.term for a in r.shared} for r in rs.results}
        assert shared == {
            "S1": {"AO"},
            "S2": {"AO"},
            "S4": {"AO"},
            "S6": {"An"},
            "S8": {"Ve"},
        }
        # ontologically nearer matches come first within the rank
        assert rs.sources() == ["S8", "S6", "S1", "S2", "S4"]
        assert rs.refinement_applied.mode == "generalize"
        assert {a.term for a in rs.refinement_applied.added} == {"Ve", "An", "AO"}

    def test_golden_specialize_eucaryotes(self, table1_lattice, organisms):
        rs = search_refined(table1_lattice, q(Attribute("Eu")), organisms, "specialize")
        # S3 is included: it shares Hu, a descendant of Eucaryotes present in M
        assert {r.source for r in rs.results} == {"S3", "S5", "S6", "S7", "S8"}
        assert all(r.rank == 1 for r in rs.results)

    def test_zero_hops_is_plain_search(self, table1_lattice, organisms, attrs_by_term):
        plain = search(table1_lattice, q(attrs_by_term["Hu"]))
        refined = search_refined(
            table1_lattice, q(attrs_by_term["Hu"]), organisms, "generalize", hops=0
        )
        assert ranks(refined) == ranks(plain)
        assert refined.refinement_applied.added == frozenset()

    def test_no_additions_equals_plain(self, table1_lattice, organisms, attrs_by_term):
        # AO is the ontology root: generalization adds nothing
        plain = search(table1_lattice, q(attrs_by_term["AO"]))
        refined = search_refined(
            table1_lattice, q(attrs_by_term["AO"]), organisms, "generalize"
        )
        assert ranks(refined) == ranks(plain)

    def test_bad_mode(self, table1_lattice, organisms, attrs_by_term):
        with pytest.raises(QueryError):
            search_refined(table1_lattice, q(attrs_by_term["Hu"]), organisms, "widen")

    def test_bad_label_refused_before_refining(self, monkeypatch, table1_lattice, organisms):
        def no_walk(*args):
            raise AssertionError("the ontology was walked")

        monkeypatch.setattr(ontology, "_distances", no_walk)
        for label in ("S1", ""):
            for hops in (None, -1):
                query = Query(terms=frozenset({Attribute("AO")}), label=label)
                with pytest.raises(QueryError, match="label"):
                    search_refined(table1_lattice, query, organisms, "specialize", hops)

    def test_term_distance_is_called_at_most_once_per_group_term_and_node(self, monkeypatch):
        calls = collections.Counter()
        term_distance = Ontology.term_distance

        def counted(ont, a, b):
            calls[a, b] += 1
            return term_distance(ont, a, b)

        monkeypatch.setattr(Ontology, "term_distance", counted)
        rng = random.Random(83)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        seen = collections.Counter()
        for i in range(300):
            ctx = edge_case_context(rng) if i % 2 else make_random_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            ont = random_ontology(rng, ctx)

            def nodes(attrs):
                return {ont.resolve(a.term) for a in attrs if a.prefix in (None, ont.prefix)} - {None}

            calls.clear()
            mode = rng.choice(("generalize", "specialize", "both"))
            rs = search_refined(lat, Query(terms=frozenset(terms)), ont, mode)

            def pairs(shared_sets):
                return collections.Counter((t, n) for s in shared_sets for n in nodes(s) for t in nodes(terms))

            # distinct groups have distinct shared sets
            per_group = pairs({r.shared for r in rs.results})
            per_result = pairs([r.shared for r in rs.results])
            assert calls <= per_group, (calls, per_group)
            seen["calls"] += bool(calls)
            seen["a call per result would be seen"] += per_result != per_group
        assert min(seen.values()) >= 20, seen

    def test_generalize_soundness(self, table1_lattice, organisms, table1):
        rs = search_refined(table1_lattice, q(Attribute("Ch")), organisms, "generalize")
        up = set(organisms.ancestors("Chicken")) | {"Chicken"}
        spellings = set(up)
        for t in up:
            spellings.update(organisms.names_of(t))
        for r in rs.results:
            assert any(a.term in spellings for a in table1.intent_of(r.source))


class TestRendering:
    def test_table_render(self, table1_lattice, attrs_by_term):
        rs = search(table1_lattice, q(attrs_by_term["Mo"]))
        text = result_set_to_table(rs, styled=False)
        assert "S7" in text and "rank" in text
        assert "\x1b[" not in text

    @pytest.mark.parametrize(
        "tty, no_color, bold",
        [(True, None, True), (True, "1", False), (False, None, False)],
        ids=["terminal", "terminal-no-color", "pipe"],
    )
    def test_header_is_bold_only_on_a_terminal_without_no_color(
        self, monkeypatch, table1_lattice, attrs_by_term, tty, no_color, bold
    ):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: tty)
        if no_color is None:
            monkeypatch.delenv("FCA_REGISTRY_NO_COLOR", raising=False)
        else:
            monkeypatch.setenv("FCA_REGISTRY_NO_COLOR", no_color)
        text = result_set_to_table(search(table1_lattice, q(attrs_by_term["Mo"])))
        assert text.startswith("\x1b[1msource  rank") == bold
        assert text.count("\x1b[") == 2 * bold

    def test_empty_result_render(self, table1_lattice):
        rs = search(table1_lattice, q(Attribute("Ch")))
        assert "no matching sources" in result_set_to_table(rs, styled=False)

    def test_json_matches_generic_encoder_random(self):
        rng = random.Random(73)
        seen = dict.fromkeys(
            ("no_results", "empty_shared", "no_refinement", "no_hop_bound", "hop_bound",
             "empty_added", "added", "empty_dropped", "dropped", "empty_skipped", "skipped",
             "quote", "backslash", "control", "non_ascii", "surrogate"),
            0,
        )
        for _ in range(600):
            rs = random_result_set(rng)
            text = result_set_to_json(rs)
            assert text == json_dumps_oracle(rs)
            ref = rs.refinement_applied
            seen["no_results"] += not rs.results
            seen["empty_shared"] += any(not r.shared for r in rs.results)
            seen["no_refinement"] += ref is None
            if ref is not None:
                seen["no_hop_bound"] += ref.hops_used is None
                seen["hop_bound"] += ref.hops_used is not None
                for name, values in (("added", ref.added), ("dropped", ref.dropped_candidates),
                                     ("skipped", ref.skipped_terms)):
                    seen[name if values else f"empty_{name}"] += 1
            raw = "".join(map(str, rs.query.terms)) + rs.query.label
            raw += "".join(r.source + "".join(map(str, r.shared | r.via_intent)) for r in rs.results)
            seen["quote"] += '"' in raw
            seen["backslash"] += "\\" in raw
            seen["control"] += any(c < " " or c == "\x7f" for c in raw)
            seen["non_ascii"] += any("\x7f" < c < "\ud800" for c in raw)
            seen["surrogate"] += any("\ud800" <= c <= "\udfff" for c in raw)
        assert min(seen.values()) >= 20, seen

    def test_json_renders_each_run_of_equal_values_as_each_result(self):
        """Results next to each other share rank, shared and via_intent by
        value, as distinct sets, or differ in exactly one of the three."""
        rng = random.Random(109)
        seen = collections.Counter()
        for _ in range(300):
            pool = [Attribute(term=awkward_text(rng, TERM_CHARS), prefix=rng.choice((None, awkward_text(rng, TERM_CHARS))))
                    for _ in range(4)]

            def other(terms):
                while True:
                    picked = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                    if picked != terms:
                        return picked

            def copy(terms):
                return frozenset(list(terms))

            results = [RankedResult("s0", rng.randint(0, 3), other(None), other(None))]
            for i in range(1, rng.randint(1, 8)):
                prev = results[-1]
                change = rng.choice(("nothing", "rank", "shared", "via_intent"))
                seen[f"{change} changed"] += 1
                results.append(
                    RankedResult(
                        f"s{i}{awkward_text(rng)}",
                        prev.rank + rng.randint(1, 2) if change == "rank" else prev.rank,
                        other(prev.shared) if change == "shared" else copy(prev.shared),
                        other(prev.via_intent) if change == "via_intent" else copy(prev.via_intent),
                    )
                )
                seen["equal sets that are distinct"] += change != "shared" and results[-1].shared is not prev.shared
            rs = ResultSet(query=Query(terms=frozenset(pool[:2]), label=awkward_text(rng)), results=tuple(results))
            assert result_set_to_json(rs) == json_dumps_oracle(rs)
        assert min(seen.values()) >= 20, seen

    def test_json_matches_generic_encoder_on_answers(self, table1_lattice, organisms):
        rng = random.Random(79)
        unknown = [Attribute(term=f"u{j}") for j in range(3)]
        for i in range(300):
            ctx = edge_case_context(rng) if i % 2 else make_random_context(rng)
            lat = build_lattice(ctx)
            terms = set(rng.sample(ctx.attributes, rng.randint(0, len(ctx.attributes))))
            terms |= set(rng.sample(unknown, rng.randint(0 if terms else 1, 2)))
            query = Query(terms=frozenset(terms))
            rs = search(lat, query)
            assert result_set_to_json(rs) == json_dumps_oracle(rs)
            ont = random_ontology(rng, ctx)
            mode = rng.choice(("generalize", "specialize", "both"))
            hops = rng.choice((None, 0, 1, 2))
            rs = search_refined(lat, query, ont, mode, hops)
            assert result_set_to_json(rs) == json_dumps_oracle(rs)
            plain = search(lat, rs.query, tie_break=reference_distance(ont, query.terms))
            assert rs.results == plain.results
        for terms in (("NS", "Hu", "MR"), ("Ch",), ("Eu",), ("An", "Mo")):
            query = q(*(Attribute(t) for t in terms))
            for mode in ("generalize", "specialize", "both"):
                rs = search_refined(table1_lattice, query, organisms, mode)
                assert result_set_to_json(rs) == json_dumps_oracle(rs)

    def test_json_fields(self, table1_lattice, attrs_by_term):
        rs = search(table1_lattice, q(attrs_by_term["Mo"]))
        text = result_set_to_json(rs)
        for field in ('"source"', '"rank"', '"shared"', '"via_intent"'):
            assert field in text
