import json
import random
from collections import deque

import pytest

from fcaregistry import (
    Attribute,
    FormalContext,
    Ontology,
    OntologyError,
    Query,
    RefinementReport,
    load_ontology,
    refine_both,
    refine_generalize,
    refine_specialize,
)
from fcaregistry.ontology import _attribute_for_term


def doc(**kwargs):
    base = {"prefix": "T", "root": "r", "edges": []}
    base.update(kwargs)
    return json.dumps(base)


def q(*terms):
    return Query(terms=frozenset(Attribute(t) if isinstance(t, str) else t for t in terms))


def shortest_path(step, a, b):
    dist = {a: 0}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            return dist[node]
        for nxt in step[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return None


def refine_oracle(query, ont, ctx, hops, mode):
    """The refinement as read off the ordered public walks."""
    by_key = {a.key: a for a in ctx.attributes}
    added, dropped, skipped = set(), set(), set()
    for term in query.terms:
        node = ont.resolve(term.term) if term.prefix in (None, ont.prefix) else None
        if node is None:
            skipped.add(term.term)
            continue
        related = []
        if mode in ("generalize", "both"):
            related += ont.ancestors(node, hops)
        if mode in ("specialize", "both"):
            related += ont.descendants(node, hops)
        for name in related:
            attr = _attribute_for_term(ont, by_key, name)
            if attr is None:
                dropped.add(name)
            elif attr not in query.terms:
                added.add(attr)
    report = RefinementReport(mode, frozenset(added), frozenset(dropped), hops, frozenset(skipped))
    return Query(terms=query.terms | added, label=query.label), report


class TestLoadOntology:
    def test_sample_file(self, organisms):
        assert organisms.prefix == "NCBI"
        assert organisms.root == "Any Organism"
        assert len(organisms.terms) == 8
        assert organisms.resolve("Ch") == "Chicken"
        assert organisms.resolve("Chicken") == "Chicken"

    def test_single_term(self):
        ont = load_ontology(doc())
        assert ont.terms == frozenset({"r"})
        assert ont.ancestors("r") == []
        assert ont.descendants("r") == []

    def test_self_loop_is_cycle(self):
        with pytest.raises(OntologyError, match="cycle"):
            load_ontology(doc(edges=[["x", "x"], ["r", "x"]]))

    def test_longer_cycle(self):
        with pytest.raises(OntologyError, match="cycle"):
            load_ontology(doc(edges=[["r", "a"], ["a", "b"], ["b", "a"]]))

    def test_unreachable_term(self):
        with pytest.raises(OntologyError, match="unreachable"):
            load_ontology(doc(edges=[["a", "b"]]))

    def test_duplicate_alias(self):
        with pytest.raises(OntologyError, match="duplicate"):
            load_ontology(doc(edges=[["r", "a"]], aliases={"a": "r"}))

    def test_duplicate_edge(self):
        with pytest.raises(OntologyError, match="duplicate"):
            load_ontology(doc(edges=[["r", "a"], ["r", "a"]]))

    def test_aliases_not_an_object(self):
        with pytest.raises(OntologyError, match="'aliases' must be an object of strings"):
            load_ontology(doc(edges=[["r", "a"]], aliases=["a", "A"]))
        with pytest.raises(OntologyError, match="'aliases' must be an object of strings"):
            load_ontology(doc(edges=[["r", "a"]], aliases={"a": 5}))

    def test_edge_not_a_pair_of_strings(self):
        with pytest.raises(OntologyError, match="bad edge entry: 5"):
            load_ontology(doc(edges=[["r", "a"], 5]))
        with pytest.raises(OntologyError, match="bad edge entry"):
            load_ontology(doc(edges=["ra"]))

    def test_missing_fields(self):
        with pytest.raises(OntologyError):
            load_ontology('{"root": "r"}')
        with pytest.raises(OntologyError):
            load_ontology("[")


class TestTraversal:
    def test_chicken_ancestors(self, organisms):
        assert organisms.ancestors("Chicken") == [
            "Vertebrates",
            "Animals",
            "Eucaryotes",
            "Cellular Organisms",
            "Any Organism",
        ]

    def test_root_has_no_ancestors(self, organisms):
        assert organisms.ancestors("Any Organism") == []

    def test_hop_bound(self, organisms):
        assert organisms.ancestors("Chicken", hops=1) == ["Vertebrates"]
        assert organisms.descendants("Animals", hops=1) == ["Vertebrates"]

    def test_eucaryotes_descendants(self, organisms):
        got = organisms.descendants("Eucaryotes")
        assert got[:2] == ["Animals", "Vertebrates"]
        assert set(got) == {"Animals", "Vertebrates", "Chicken", "Human", "Mouse"}

    def test_leaf_has_no_descendants(self, organisms):
        assert organisms.descendants("Chicken") == []

    def test_unknown_term(self, organisms):
        with pytest.raises(OntologyError, match="Dog"):
            organisms.ancestors("Dog")

    def test_duality(self, organisms):
        for a in organisms.terms:
            for b in organisms.terms:
                assert (b in organisms.ancestors(a)) == (a in organisms.descendants(b))

    def test_hops_monotone(self, organisms):
        for t in organisms.terms:
            for k in range(5):
                shorter = organisms.ancestors(t, hops=k)
                longer = organisms.ancestors(t, hops=k + 1)
                assert longer[: len(shorter)] == shorter


class TestTermDistance:
    def test_edge(self, organisms):
        assert organisms.term_distance("Human", "Vertebrates") == 1
        assert organisms.term_distance("Vertebrates", "Human") == 1

    def test_self(self, organisms):
        assert organisms.term_distance("Human", "Human") == 0

    def test_siblings_unrelated(self, organisms):
        assert organisms.term_distance("Human", "Mouse") is None

    def test_chain(self, organisms):
        assert organisms.term_distance("Ch", "AO") == 5

    def test_unknown(self, organisms):
        with pytest.raises(OntologyError):
            organisms.term_distance("Human", "Dog")

    def test_matches_shortest_path_either_way_random(self):
        rng = random.Random(67)
        for _ in range(20):
            terms = [f"t{i}" for i in range(rng.randint(2, 25))]
            edges = {(rng.choice(terms[:i]), t) for i, t in enumerate(terms) if i}
            for _ in range(5):
                i, j = sorted(rng.sample(range(len(terms)), 2))
                edges.add((terms[i], terms[j]))
            ont = Ontology("T", terms[0], sorted(edges))
            for a in terms:
                for b in terms:
                    down, up = shortest_path(ont._children, a, b), shortest_path(ont._parents, a, b)
                    assert ont.term_distance(a, b) == (down if down is not None else up)


class TestRefinement:
    def test_generalize_chicken(self, organisms, table1):
        refined, report = refine_generalize(q("Ch"), organisms, table1)
        assert {a.term for a in refined.terms} == {"Ch", "Ve", "An", "AO"}
        assert report.dropped_candidates == frozenset({"Eucaryotes", "Cellular Organisms"})
        assert report.mode == "generalize"

    def test_generalize_root_unchanged(self, organisms, table1, attrs_by_term):
        refined, report = refine_generalize(q(attrs_by_term["AO"]), organisms, table1)
        assert refined.terms == frozenset({attrs_by_term["AO"]})
        assert report.added == frozenset()

    def test_generalize_one_hop(self, organisms, table1):
        refined, _ = refine_generalize(q("Ch"), organisms, table1, hops=1)
        assert {a.term for a in refined.terms} == {"Ch", "Ve"}

    def test_one_hop_absent_parent_adds_nothing(self, organisms, table1):
        # Eucaryotes' direct parent (Cellular Organisms) is not in the context
        refined, report = refine_generalize(q("Eu"), organisms, table1, hops=1)
        assert {a.term for a in refined.terms} == {"Eu"}
        assert report.dropped_candidates == frozenset({"Cellular Organisms"})

    def test_specialize_eucaryotes(self, organisms, table1):
        refined, _ = refine_specialize(q("Eu"), organisms, table1)
        assert {a.term for a in refined.terms} == {"Eu", "An", "Ve", "Hu", "Mo"}

    def test_specialize_leaf_unchanged(self, organisms, table1):
        refined, report = refine_specialize(q("Ch"), organisms, table1)
        assert {a.term for a in refined.terms} == {"Ch"}
        assert report.added == frozenset()

    def test_specialize_one_hop(self, organisms, table1, attrs_by_term):
        refined, _ = refine_specialize(q(attrs_by_term["An"]), organisms, table1, hops=1)
        assert {a.term for a in refined.terms} == {"An", "Ve"}

    def test_both_animals(self, organisms, table1, attrs_by_term):
        refined, report = refine_both(q(attrs_by_term["An"]), organisms, table1)
        assert {a.term for a in refined.terms} == {"An", "AO", "Ve", "Hu", "Mo"}
        assert report.mode == "both"
        assert "Chicken" in report.dropped_candidates

    def test_both_on_leaf_equals_generalize(self, organisms, table1):
        gen, _ = refine_generalize(q("Ch"), organisms, table1)
        both, _ = refine_both(q("Ch"), organisms, table1)
        assert both.terms == gen.terms

    def test_negative_hops_rejected(self, organisms, table1):
        for fn in (refine_generalize, refine_specialize, refine_both):
            with pytest.raises(OntologyError, match="hop"):
                fn(q("Eu"), organisms, table1, hops=-1)

    def test_unknown_terms_pass_through(self, organisms, table1):
        refined, report = refine_generalize(q("Banana"), organisms, table1)
        assert {a.term for a in refined.terms} == {"Banana"}
        assert report.skipped_terms == frozenset({"Banana"})

    def test_added_terms_always_in_context(self, organisms, table1):
        for fn in (refine_generalize, refine_specialize, refine_both):
            for term in ("Ch", "Eu", "Hu", "AO"):
                refined, report = fn(q(term), organisms, table1)
                assert q(term).terms <= refined.terms
                for a in report.added:
                    assert table1.has_attribute(a)

    def test_term_lookup_matches_probing_each_spelling(self):
        """The key map finds the attribute that probing name, then alias, would."""

        def probe(ont, ctx, term):
            for spelling in ont.names_of(term):
                for prefix in (None, ont.prefix):
                    candidate = Attribute(term=spelling, prefix=prefix)
                    if ctx.has_attribute(candidate):
                        return ctx.attribute_like(candidate)
            return None

        rng = random.Random(71)
        found = missed = 0
        for _ in range(60):
            terms = [f"t{i}" for i in range(rng.randint(1, 12))]
            edges = sorted({(rng.choice(terms[:i]), t) for i, t in enumerate(terms) if i})
            aliases = {t: f"a{i}" for i, t in enumerate(terms) if rng.random() < 0.5}
            ont = Ontology(rng.choice(("T", "")), terms[0], edges, aliases)
            spellings = terms + list(aliases.values()) + ["zz"]
            attrs = {}
            for spelling in rng.sample(spellings, rng.randint(0, len(spellings))):
                for prefix in rng.sample((None, "T", "U"), rng.randint(1, 3)):
                    category = rng.choice(("Subject", "Organism"))
                    a = Attribute(term=spelling, prefix=prefix, category=category)
                    attrs.setdefault(a.key, a)
            ctx = FormalContext([], list(attrs.values()), [])
            by_key = {a.key: a for a in ctx.attributes}
            for term in terms:
                expected = probe(ont, ctx, term)
                assert _attribute_for_term(ont, by_key, term) is expected
                found += expected is not None
                missed += expected is None
        assert found >= 100 and missed >= 100, (found, missed)

    def test_matches_the_ordered_walks_on_random_dags(self):
        rng = random.Random(73)
        refiners = {"generalize": refine_generalize, "specialize": refine_specialize, "both": refine_both}
        added = dropped = 0
        for _ in range(60):
            terms = [f"t{i}" for i in range(rng.randint(1, 15))]
            edges = {(rng.choice(terms[:i]), t) for i, t in enumerate(terms) if i}
            for _ in range(rng.randint(0, 4)):
                if len(terms) > 1:
                    i, j = sorted(rng.sample(range(len(terms)), 2))
                    edges.add((terms[i], terms[j]))
            aliases = {t: f"a{i}" for i, t in enumerate(terms) if rng.random() < 0.5}
            ont = Ontology("T", terms[0], sorted(edges), aliases)
            spellings = terms + list(aliases.values()) + ["zz"]
            attrs = {}
            for spelling in rng.sample(spellings, rng.randint(0, len(spellings))):
                a = Attribute(spelling, rng.choice((None, "T", "U")), rng.choice(("Subject", "Organism")))
                attrs.setdefault(a.key, a)
            ctx = FormalContext([], list(attrs.values()), [])
            for _ in range(3):
                picked = rng.sample(spellings, rng.randint(1, min(3, len(spellings))))
                query = Query(terms=frozenset(Attribute(t, rng.choice((None, "T", "U"))) for t in picked))
                for hops in (None, 0, 1, 2):
                    for mode, refine in refiners.items():
                        refined, report = refine(query, ont, ctx, hops)
                        expected, expected_report = refine_oracle(query, ont, ctx, hops, mode)
                        assert refined == expected
                        assert report == expected_report
                        assert sorted((a.key, a.category) for a in refined.terms) == sorted(
                            (a.key, a.category) for a in expected.terms
                        )
                        added += bool(report.added)
                        dropped += bool(report.dropped_candidates)
        assert added >= 100 and dropped >= 100, (added, dropped)
