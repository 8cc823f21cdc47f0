"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion, runs at the
stated tolerance, and fails loudly on any deviation.
"""

import random
import re
import time
from contextlib import contextmanager

import pytest

from fcaregistry import (
    Attribute,
    FormalContext,
    Query,
    build_context,
    build_lattice,
    enumerate_concepts_oracle,
    enumerate_covers_oracle,
    insert_object,
    lattice_from_json,
    lattice_to_json,
    load_records,
    parse_records,
    result_set_to_json,
    search,
    search_refined,
    write_records,
)
from conftest import FIXTURES, make_random_context


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    print(f"[criterion {number}] PASS  {title}")


def test_criterion_1_golden_query(table1_lattice, attrs_by_term):
    with criterion(1, "golden query {NS, Hu, MR} ranks and shared sets"):
        start = time.perf_counter()
        q = Query(terms=frozenset(attrs_by_term[t] for t in ("NS", "Hu", "MR")))
        rs = search(table1_lattice, q)
        elapsed = time.perf_counter() - start
        by_rank = {}
        for r in rs.results:
            by_rank.setdefault(r.rank, set()).add(r.source)
        assert by_rank == {1: {"S2", "S3", "S5"}, 2: {"S1", "S4", "S6"}}
        shared = {r.source: {a.term for a in r.shared} for r in rs.results}
        assert shared["S2"] == {"NS", "MR"}
        assert shared["S3"] == {"NS", "Hu"}
        assert shared["S5"] == {"NS", "Hu"}
        assert elapsed < 1.0


def test_criterion_2_golden_generalization(table1_lattice, organisms):
    with criterion(2, "generalized {Ch} query: five sources, all rank 1"):
        rs = search_refined(
            table1_lattice, Query(terms=frozenset({Attribute("Ch")})), organisms, "generalize"
        )
        got = {r.source: (r.rank, {a.term for a in r.shared}) for r in rs.results}
        assert got == {
            "S1": (1, {"AO"}),
            "S2": (1, {"AO"}),
            "S4": (1, {"AO"}),
            "S6": (1, {"An"}),
            "S8": (1, {"Ve"}),
        }


def test_criterion_3_specialization_vs_oracle(table1, table1_lattice, organisms):
    with criterion(3, "specialized {Eu} query equals the brute-force source set"):
        rs = search_refined(
            table1_lattice, Query(terms=frozenset({Attribute("Eu")})), organisms, "specialize"
        )
        added = {a.term for a in rs.refinement_applied.added}
        assert added == {"An", "Ve", "Hu", "Mo"}
        expected = {
            g
            for g in table1.objects
            if {a.term for a in table1.intent_of(g)} & added
        }
        # The published example omits S3 even though it carries Hu; the formal
        # relevance definition includes it, so the oracle-derived set is pinned.
        assert expected == {"S3", "S5", "S6", "S7", "S8"}
        assert {r.source for r in rs.results} == expected
        assert all(r.rank == 1 for r in rs.results)


def test_criterion_4_lattice_correctness(table1, table1_lattice):
    with criterion(4, "incremental build equals oracle on 100+ random contexts"):
        start = time.perf_counter()
        assert len(table1_lattice.concepts) == 12
        rng = random.Random(2025)
        checked = 0
        while checked < 100:
            density = rng.choice((0.2, 0.4, 0.6))
            ctx = make_random_context(rng, max_objects=10, max_attributes=8, density=density)
            lat = build_lattice(ctx)
            oracle = enumerate_concepts_oracle(ctx)
            assert set(lat.concepts) == oracle
            assert lat.cover_concepts() == enumerate_covers_oracle(oracle)
            # insertion-order invariance
            order = list(ctx.objects)
            rng.shuffle(order)
            permuted = build_lattice(FormalContext([], list(ctx.attributes), []))
            for g in order:
                permuted = insert_object(
                    permuted, g, sorted(ctx.intent_of(g), key=lambda a: a.key)
                )
            assert set(permuted.concepts) == oracle
            assert permuted.cover_concepts() == lat.cover_concepts()
            checked += 1
        assert time.perf_counter() - start < 30.0


def test_criterion_5_galois_closure_laws():
    with criterion(5, "closure and derivation laws on 1000 randomized cases"):
        rng = random.Random(77)
        violations = 0
        for _ in range(1000):
            ctx = make_random_context(rng, max_objects=8, max_attributes=7)
            attrs = list(ctx.attributes)
            objs = list(ctx.objects)
            b1 = set(rng.sample(attrs, rng.randint(0, len(attrs))))
            b2 = b1 | set(rng.sample(attrs, rng.randint(0, len(attrs))))
            a1 = set(rng.sample(objs, rng.randint(0, len(objs))))
            a2 = a1 | set(rng.sample(objs, rng.randint(0, len(objs))))
            c1 = ctx.close_attributes(b1)
            ok = (
                b1 <= c1
                and c1 <= ctx.close_attributes(b2)
                and ctx.close_attributes(c1) == c1
                and ctx.derive_objects(a2) <= ctx.derive_objects(a1)
                and ctx.derive_attributes(b2) <= ctx.derive_attributes(b1)
                and ctx.derive_attributes(ctx.derive_objects(a1)) >= a1
                and ctx.derive_objects(ctx.derive_attributes(b1)) >= b1
                and ctx.derive_objects(a1)
                == ctx.derive_objects(ctx.derive_attributes(ctx.derive_objects(a1)))
            )
            if not ok:
                violations += 1
        assert violations == 0


def test_criterion_6_retrieval_soundness():
    with criterion(6, "search equals direct incidence scan; base lattice unchanged"):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            ctx = make_random_context(rng)
            if not ctx.objects or not ctx.attributes:
                continue
            lat = build_lattice(ctx)
            before_concepts = set(lat.concepts)
            before_covers = lat.cover_concepts()
            terms = frozenset(
                rng.sample(list(ctx.attributes), rng.randint(1, len(ctx.attributes)))
            )
            rs = search(lat, Query(terms=terms))
            expected = {g for g in ctx.objects if ctx.intent_of(g) & terms}
            assert set(rs.sources()) == expected
            assert set(lat.concepts) == before_concepts
            assert lat.cover_concepts() == before_covers
            checked += 1


def test_criterion_7_round_trip_and_determinism(tmp_path, table1):
    with criterion(7, "record corpus round-trip, reload identity, byte determinism"):
        corpus = load_records(FIXTURES / "bioregistry8")
        # corpus -> context -> lattice -> file -> reload is value-identical
        ctx = build_context(corpus)
        lat = build_lattice(ctx)
        path = tmp_path / "corpus.lat"
        path.write_text(lattice_to_json(lat), encoding="utf-8")
        reloaded = lattice_from_json(path.read_text(encoding="utf-8"))
        assert reloaded == lat
        assert lattice_to_json(reloaded) == lattice_to_json(lat)
        # record writer round-trips
        assert parse_records(write_records(corpus)) == corpus
        # the 8-record corpus reproduces Table 1 up to ordering
        assert set(ctx.objects) == set(table1.objects)
        assert {a.key for a in ctx.attributes} == {a.key for a in table1.attributes}
        for g in table1.objects:
            assert ctx.intent_of(g) == table1.intent_of(g)
        # machine output is byte-identical across two runs
        by_term = {a.term: a for a in ctx.attributes}
        q = Query(terms=frozenset(by_term[t] for t in ("NS", "Hu", "MR")))
        assert result_set_to_json(search(lat, q)) == result_set_to_json(search(lat, q))


def test_readme_quick_tour_prints_what_it_documents(monkeypatch, capsys):
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    monkeypatch.chdir(FIXTURES.parent)
    names = {}
    exec(tour, names)
    assert len(names["lat"].concepts) == 12
    assert capsys.readouterr().out.splitlines() == [
        "S2 1 ['MR', 'NS']",
        "S3 1 ['Hu', 'NS']",
        "S5 1 ['Hu', 'NS']",
        "S1 2 ['MR']",
        "S4 2 ['MR']",
        "S6 2 ['NS']",
        "['S8', 'S6', 'S1', 'S2', 'S4']",
    ]


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
