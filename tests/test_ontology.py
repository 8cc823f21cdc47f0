import ast
import collections
import gc
import graphlib
import json
import random
import re
from collections import deque

import pytest

from fcaregistry import (
    Attribute,
    FcaRegistryError,
    FormalContext,
    Ontology,
    OntologyError,
    Query,
    RefinementReport,
    load_ontology,
    refine_both,
    refine_generalize,
    refine_specialize,
    search_refined,
)
from fcaregistry.ontology import _carriers, _first_cycle
from conftest import FIXTURES, TEXT_EDITS, edit_document, mutate_text, run_python


def graphlib_validate(root, edges, aliases):
    """The validation as it was with graphlib and a reachability BFS.

    Returns (terms, parents, children, resolve) or raises ``OntologyError``.
    """
    terms = {root}
    for parent, child in edges:
        terms.add(parent)
        terms.add(child)
    children = {t: [] for t in terms}
    parents = {t: [] for t in terms}
    seen_edges = set()
    for parent, child in edges:
        if (parent, child) in seen_edges:
            raise OntologyError(f"duplicate edge: {parent!r} -> {child!r}")
        seen_edges.add((parent, child))
        children[parent].append(child)
        parents[child].append(parent)
    try:
        graphlib.TopologicalSorter({t: set(parents[t]) for t in terms}).prepare()
    except graphlib.CycleError as exc:
        raise OntologyError(f"cycle detected through: {exc.args[1]}") from exc
    reached = {root}
    queue = deque([root])
    while queue:
        for nxt in children[queue.popleft()]:
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    stranded = terms - reached
    if stranded:
        raise OntologyError(f"terms unreachable from root: {sorted(stranded)}")
    resolve = {t: t for t in sorted(terms)}
    for name, alias in (aliases or {}).items():
        if name not in terms:
            raise OntologyError(f"alias for unknown term: {name!r}")
        if alias in resolve:
            raise OntologyError(f"duplicate term or alias: {alias!r}")
        resolve[alias] = name
    return (
        frozenset(terms),
        {t: tuple(ps) for t, ps in parents.items()},
        {t: tuple(cs) for t, cs in children.items()},
        resolve,
    )


def corrupted_dag(rng):
    """A random rooted DAG with zero or more random faults, as
    (root, edges, aliases, faults)."""
    terms = [f"t{i}" for i in range(rng.randint(1, 14))]
    edges = [(rng.choice(terms[:i]), t) for i, t in enumerate(terms) if i]
    for _ in range(rng.randint(0, 4)):
        if len(terms) > 1:
            i, j = sorted(rng.sample(range(len(terms)), 2))
            if (terms[i], terms[j]) not in edges:
                edges.append((terms[i], terms[j]))
    aliases = {t: f"a{i}" for i, t in enumerate(terms) if rng.random() < 0.4}
    faults = rng.sample(["back", "loop", "stranded", "repeat", "above", "alias"], rng.choice((0, 0, 1, 1, 2)))
    for fault in faults:
        if fault == "back":
            below = rng.randrange(len(terms))
            edges.append((terms[below], terms[rng.randrange(below + 1)]))
        elif fault == "loop":
            t = rng.choice(terms)
            edges.append((t, t))
        elif fault == "stranded":
            stray = [f"s{i}" for i in range(rng.randint(1, 4))]
            edges += [(rng.choice(stray[:i]), s) for i, s in enumerate(stray) if i]
            edges.append((stray[0], rng.choice(terms)))
        elif fault == "repeat" and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif fault == "above":
            edges.append(("above", terms[0]))
        elif fault == "alias":
            name, alias = rng.choice([("zz", "z"), (rng.choice(terms), rng.choice(terms)), (terms[-1], "a0")])
            aliases[name] = alias
    rng.shuffle(edges)
    return terms[0], edges, aliases, faults


#: Every term and alias ``corrupted_dag`` can spell, and names it never does.
SPELLINGS = {f"{c}{i}" for c in "tas" for i in range(15)} | {"z", "zz", "above", "", "T"}


def assert_is_cycle(witness, edges):
    assert len(witness) >= 2 and witness[0] == witness[-1], witness
    assert len(set(witness[:-1])) == len(witness) - 1, witness
    assert all(pair in set(edges) for pair in zip(witness, witness[1:])), witness


def doc(**kwargs):
    base = {"prefix": "T", "root": "r", "edges": []}
    base.update(kwargs)
    return json.dumps(base)


def load_error(text):
    """The message ``load_ontology`` refuses the document with."""
    with pytest.raises(OntologyError) as info:
        load_ontology(text)
    return str(info.value)


def q(*terms):
    return Query(terms=frozenset(Attribute(t) if isinstance(t, str) else t for t in terms))


def reference_walk(step, start):
    """The terms ``step`` reaches from ``start``, by distance, ties by name."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in step[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return sorted(dist.keys() - {start}, key=lambda t: (dist[t], t))


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


def _attribute_for_term(ont, ctx, term):
    """The context attribute carrying an ontology term, found by probing
    each spelling: the name before the alias, and for each spelling the
    bare attribute before the one with the ontology's prefix."""
    for spelling in ont.names_of(term):
        for prefix in (None, ont.prefix):
            candidate = Attribute(term=spelling, prefix=prefix)
            if ctx.has_attribute(candidate):
                return ctx.attribute_like(candidate)
    return None


def refine_oracle(query, ont, ctx, hops, mode):
    """The refinement as read off the ordered public walks."""
    added, dropped, skipped = set(), set(), set()
    for term in query.terms:
        node = ont.resolve(term.term) if term.prefix in (None, ont.prefix) else None
        if node is None:
            skipped.add(term.term)
            continue
        # the term's own carrier, which may spell it otherwise than the query
        own = _attribute_for_term(ont, ctx, node)
        if own is not None and own not in query.terms:
            added.add(own)
        related = []
        if mode in ("generalize", "both"):
            related += ont.ancestors(node, hops)
        if mode in ("specialize", "both"):
            related += ont.descendants(node, hops)
        for name in related:
            attr = _attribute_for_term(ont, ctx, name)
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

    def test_alias_is_the_short_name_of_a_term(self, organisms):
        assert organisms.alias("Human") == "Hu"
        assert organisms.alias("Any Organism") == "AO"
        # an alias, an unknown name, and a term without an alias
        assert organisms.alias("Hu") is None
        assert organisms.alias("Dog") is None
        assert load_ontology(doc(edges=[["r", "a"]], aliases={"r": "x"})).alias("a") is None

    def test_slots_cannot_be_assigned(self):
        ont = load_ontology(doc(edges=[["r", "a"]], aliases={"a": "x"}))
        for name in [*Ontology.__slots__, "extra"]:
            with pytest.raises(AttributeError, match="Ontology is immutable"):
                setattr(ont, name, None)
            with pytest.raises(AttributeError, match="Ontology is immutable"):
                delattr(ont, name)
        assert (ont.prefix, ont.root, ont.terms, ont.resolve("x")) == ("T", "r", {"r", "a"}, "a")

    def test_single_term(self):
        ont = load_ontology(doc())
        assert ont.terms == frozenset({"r"})
        assert ont.ancestors("r") == []
        assert ont.descendants("r") == []
        assert ont.is_leaf("r")

    def test_self_loop_is_cycle(self):
        with pytest.raises(OntologyError, match="cycle"):
            load_ontology(doc(edges=[["x", "x"], ["r", "x"]]))
        # a term whose only parent is itself, and the root as its own parent
        assert load_error(doc(edges=[["r", "a"], ["x", "x"]])) == "cycle detected through: ['x', 'x']"
        assert load_error(doc(edges=[["r", "r"], ["r", "a"]])) == "cycle detected through: ['r', 'r']"

    def test_longer_cycle(self):
        with pytest.raises(OntologyError, match="cycle"):
            load_ontology(doc(edges=[["r", "a"], ["a", "b"], ["b", "a"]]))
        # the root given a parent below it
        assert load_error(doc(edges=[["r", "a"], ["a", "r"]])) == "cycle detected through: ['a', 'r', 'a']"

    def test_unreachable_term(self):
        with pytest.raises(OntologyError, match="unreachable"):
            load_ontology(doc(edges=[["a", "b"]]))
        # a term that is only ever a parent, beside an otherwise complete tree
        edges = [["r", "a"], ["r", "b"], ["a", "c"], ["x", "b"]]
        assert load_error(doc(edges=edges)) == "terms unreachable from root: ['x']"
        assert load_error(doc(edges=[["r", "a"], ["x", "y"]])) == "terms unreachable from root: ['x', 'y']"
        # the root given a parent from outside
        assert load_error(doc(edges=[["x", "r"], ["r", "a"]])) == "terms unreachable from root: ['x']"

    def test_duplicate_alias(self):
        with pytest.raises(OntologyError, match="duplicate"):
            load_ontology(doc(edges=[["r", "a"]], aliases={"a": "r"}))
        edges = [["r", "a"], ["r", "b"]]
        # an alias equal to its own name, to another term, and to another alias
        assert load_error(doc(edges=edges, aliases={"a": "a"})) == "duplicate term or alias: 'a'"
        assert load_error(doc(edges=edges, aliases={"a": "b"})) == "duplicate term or alias: 'b'"
        assert load_error(doc(edges=edges, aliases={"a": "x", "b": "x"})) == "duplicate term or alias: 'x'"

    def test_alias_for_unknown_term(self):
        edges = [["r", "a"]]
        assert load_error(doc(edges=edges, aliases={"z": "x"})) == "alias for unknown term: 'z'"
        # the first fault in alias order is the one named
        assert load_error(doc(edges=edges, aliases={"z": "x", "a": "r"})) == "alias for unknown term: 'z'"
        assert load_error(doc(edges=edges, aliases={"a": "r", "z": "x"})) == "duplicate term or alias: 'r'"

    def test_duplicate_edge(self):
        with pytest.raises(OntologyError, match="duplicate"):
            load_ontology(doc(edges=[["r", "a"], ["r", "a"]]))

    def test_aliases_not_an_object(self):
        with pytest.raises(OntologyError, match="'aliases' must be an object of strings"):
            load_ontology(doc(edges=[["r", "a"]], aliases=["a", "A"]))
        with pytest.raises(OntologyError, match="'aliases' must be an object of strings"):
            load_ontology(doc(edges=[["r", "a"]], aliases={"a": 5}))

    def test_empty_alias(self):
        # it would resolve "" to the term, while names_of drops the alias
        with pytest.raises(OntologyError, match="'aliases' must be an object of strings, each non-empty"):
            load_ontology(doc(edges=[["r", "a"]], aliases={"a": ""}))

    def test_empty_root(self):
        with pytest.raises(OntologyError, match="ontology field 'root' must be a non-empty string"):
            load_ontology(doc(root=""))

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

    @pytest.mark.parametrize("text", ["[]", '"r"', "null"])
    def test_a_document_that_is_not_an_object(self, text):
        with pytest.raises(OntologyError, match="^ontology document must be a JSON object$"):
            load_ontology(text)

    def test_deeply_nested_document(self):
        with pytest.raises(OntologyError, match="malformed ontology document"):
            load_ontology("[" * 100_000 + "]" * 100_000)

    def test_cycle_witness_ignores_the_hash_seed(self):
        text = doc(edges=[["r", "m"], ["m", "n"], ["n", "m"], ["r", "a"], ["a", "b"], ["b", "c"], ["c", "a"]])
        script = (
            "import sys\n"
            "from fcaregistry import OntologyError, load_ontology\n"
            "try:\n"
            "    load_ontology(sys.argv[1])\n"
            "except OntologyError as exc:\n"
            "    print(exc)\n"
        )
        messages = [run_python("-c", script, text, hashseed=seed).stdout for seed in ("0", "1")]
        # the smallest term left behind is 'a', and its cycle comes first
        assert messages == ["cycle detected through: ['a', 'b', 'c', 'a']\n"] * 2

    def test_cycle_witness_follows_edges_in_file_order(self):
        edges = [["r", "a"], ["a", "c"], ["a", "b"], ["b", "a"], ["c", "a"]]
        with pytest.raises(OntologyError, match=r"^cycle detected through: \['a', 'c', 'a'\]$"):
            load_ontology(doc(edges=edges))
        with pytest.raises(OntologyError, match=r"^cycle detected through: \['a', 'b', 'a'\]$"):
            load_ontology(doc(edges=[edges[0], edges[2], edges[1], edges[3], edges[4]]))

    def test_duplicate_edge_from_the_constructor(self):
        with pytest.raises(OntologyError, match=r"^duplicate edge: 'r' -> 'a'$"):
            Ontology("T", "r", [("r", "a"), ("a", "b"), ("r", "a")])
        with pytest.raises(OntologyError, match=r"^duplicate edge: 'a' -> 'b'$"):
            Ontology("T", "r", [["r", "a"], ["a", "b"], ["a", "b"], ["b", "a"]])
        # into a term with several parents, whose pass pops it all the same
        with pytest.raises(OntologyError, match=r"^duplicate edge: 'a' -> 'c'$"):
            Ontology("T", "r", [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c"), ("a", "c")])

    BAD_ALIASES = "ontology field 'aliases' must be an object of strings, each non-empty"

    @pytest.mark.parametrize(
        "edges, aliases, message",
        [
            ("ra", None, "ontology field 'edges' must be a list"),
            ({("r", "a")}, None, "ontology field 'edges' must be a list"),
            (["ra"], None, "bad edge entry: 'ra'"),
            ([{"r": 1, "a": 2}], None, "bad edge entry: {'r': 1, 'a': 2}"),
            ([["r", "a", "b"]], None, "bad edge entry: ['r', 'a', 'b']"),
            ([["r", ["x"]]], None, "bad edge entry: ['r', ['x']]"),
            ([("r", "")], None, "bad edge entry: ('r', '')"),
            ([("r", "a")], {"a": ["z"]}, BAD_ALIASES),
            ([("r", "a")], {"a": ""}, BAD_ALIASES),
            ([("r", "a")], [("a", "z")], BAD_ALIASES),
            # the shapes come first: a bad entry after a cycle, a bad alias after a duplicate edge
            ([("r", "a"), ("a", "a"), ("a", 5)], None, "bad edge entry: ('a', 5)"),
            ([("r", "a"), ("r", "a")], {"a": 5}, BAD_ALIASES),
        ],
    )
    def test_the_constructor_refuses_what_the_loader_refuses(self, edges, aliases, message):
        self.assert_refused_alike("p", "r", edges, aliases, message)

    @pytest.mark.parametrize(
        "prefix, root, edges, message",
        [
            (5, "r", [("r", "a")], "ontology field 'prefix' must be a string"),
            (None, None, [], "ontology field 'prefix' must be a string"),
            ("p", ["r"], [("r", "a")], "ontology field 'root' must be a string"),
            ("p", None, "ra", "ontology field 'root' must be a string"),
            ("p", "", [("r", "a")], "ontology field 'root' must be a non-empty string"),
            ("p", "", [("r", "a"), ("r", "a")], "ontology field 'root' must be a non-empty string"),
        ],
    )
    def test_the_constructor_refuses_the_prefix_and_root_the_loader_refuses(self, prefix, root, edges, message):
        # the prefix and the root come before the edges, the prefix first
        self.assert_refused_alike(prefix, root, edges, None, message)

    @staticmethod
    def assert_refused_alike(prefix, root, edges, aliases, message):
        """The constructor refuses with ``message``, and so does the loader
        wherever JSON can carry the fields."""
        with pytest.raises(OntologyError) as raised:
            Ontology(prefix, root, edges, aliases)
        assert str(raised.value) == message
        if isinstance(edges, (list, tuple)) and (aliases is None or isinstance(aliases, dict)):
            with pytest.raises(OntologyError) as loaded:
                load_ontology(json.dumps({"prefix": prefix, "root": root, "edges": edges, "aliases": aliases}))
            assert str(loaded.value) == message.replace("('r', '')", "['r', '']").replace("('a', 5)", "['a', 5]")

    def test_the_constructor_takes_lists_or_tuples(self):
        for edges in ([("r", "a"), ("a", "b")], (["r", "a"], ["a", "b"]), (("r", "a"), ("a", "b"))):
            ont = Ontology("p", "r", edges, {"b": "B"})
            assert ont.terms == {"r", "a", "b"} and ont.descendants("r") == ["a", "b"] and ont.resolve("B") == "b"

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([("r", "a"), ("a", "b"), ("r", "b")], None),
            ([("r", "a"), ("a", "b"), ("r", "a")], "duplicate edge: 'r' -> 'a'"),
            # the first repeat in file order is the one named
            ([("r", "a"), ("a", "b"), ("r", "a"), ("a", "b")], "duplicate edge: 'r' -> 'a'"),
            ([("r", "a"), ("a", "b"), ("b", "a")], "cycle detected through: ['a', 'b', 'a']"),
            ([("r", "a"), ("x", "b"), ("a", "b")], "terms unreachable from root: ['x']"),
        ],
    )
    def test_the_edges_are_read_once(self, edges, message):
        reads = []

        class CountedList(list):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        try:
            ont = Ontology("p", "r", CountedList(edges))
        except OntologyError as exc:
            assert str(exc) == message
        else:
            assert message is None and ont.descendants("r") == ["a", "b"]
        assert len(reads) == 1

    def test_diagnostics_visit_each_term_once(self):
        # 2**60 paths from s0 to s60 through a ladder of stranded diamonds
        edges = [("r", "a")]
        for i in range(60):
            edges += [(f"s{i}", f"l{i}"), (f"s{i}", f"u{i}"), (f"l{i}", f"s{i + 1}"), (f"u{i}", f"s{i + 1}")]

        class VisitOnce(dict):
            def __getitem__(self, term):
                assert term not in visited, f"{term!r} visited twice"
                visited.add(term)
                return dict.__getitem__(self, term)

        visited = set()
        children = VisitOnce({t: [c for p, c in edges if p == t] for t in {t for e in edges for t in e}})
        assert _first_cycle(children, sorted(children)) is None
        assert visited == children.keys()
        with pytest.raises(OntologyError, match=r"^terms unreachable from root: \['l0', "):
            Ontology("T", "r", edges)

    def test_matches_the_graphlib_validator_on_random_graphs(self):
        rng = random.Random(97)
        outcomes = {}
        for _ in range(1500):
            root, edges, aliases, faults = corrupted_dag(rng)
            try:
                expected = graphlib_validate(root, edges, aliases)
            except OntologyError as exc:
                expected = exc
            try:
                ont = Ontology("T", root, edges, aliases)
            except OntologyError as exc:
                assert isinstance(expected, OntologyError), (edges, aliases, exc)
                kind = str(expected).split(":")[0]
                assert str(exc).split(":")[0] == kind, (edges, aliases, exc, expected)
                if kind == "cycle detected through":
                    assert_is_cycle(ast.literal_eval(str(exc).split(": ", 1)[1]), edges)
                else:
                    assert str(exc) == str(expected)
            else:
                assert not isinstance(expected, OntologyError), (edges, aliases, expected)
                kind = "valid"
                terms, parents, children, resolve = expected
                assert ont.terms == terms
                # every name and alias, and each spelling the generator can draw
                for name in resolve.keys() | SPELLINGS:
                    assert ont.resolve(name) == resolve.get(name), name
                # the lists are kept as built, so compare them as tuples; only
                # a term with children holds a children list
                assert ont._parents.keys() == terms and ont._children.keys() <= terms
                assert all(ont._children.values())
                assert {t: tuple(ont._parents[t]) for t in ont.terms} == parents
                assert {t: tuple(ont._children.get(t, ())) for t in ont.terms} == children
                for t in terms:
                    assert ont.ancestors(t) == reference_walk(parents, t)
                    assert ont.descendants(t) == reference_walk(children, t)
                    assert ont.is_leaf(t) == (not children[t])
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert len(outcomes) == 6 and min(outcomes.values()) >= 30, outcomes

class TestOntologyFuzz:
    def test_only_package_errors_escape(self):
        rng = random.Random(101)
        fixture = json.loads((FIXTURES / "organisms.ont").read_text(encoding="utf-8"))
        outcomes = collections.Counter()
        for n in range(800):
            if n % 4 == 0:
                doc = json.loads(json.dumps(fixture))
            else:
                root, edges, aliases, _ = corrupted_dag(rng)
                doc = {"prefix": "T", "root": root, "edges": [list(e) for e in edges], "aliases": aliases}
            kinds = [edit_document(rng, doc) for _ in range(rng.choice((0, 1, 1, 2)))]
            text = json.dumps(doc)
            if rng.random() < 0.4:
                kind, text = mutate_text(rng, text)
                kinds.append(kind)
            try:
                ont = load_ontology(text)
            except FcaRegistryError:
                outcomes["rejected"] += 1
            else:
                # an accepted ontology reaches every term from its root
                assert {ont.root, *ont.descendants(ont.root)} == ont.terms, text
                outcomes["accepted"] += 1
            outcomes.update(kinds)
        assert set(outcomes) >= {"junk", "delete", *TEXT_EDITS}, outcomes
        assert min(outcomes[k] for k in outcomes if k != "none") >= 20, outcomes


def full_size_dag(rng):
    """A rooted DAG of the size the constructor is tuned for, as (root,
    edges, aliases): a 5-way tree of depth 6 (19,531 terms), 400 extra edges
    each from a level to the next, and an alias on a third of the terms."""
    levels = [["T00000"]]
    edges = []
    for _ in range(6):
        level = []
        for parent in levels[-1]:
            for _ in range(5):
                child = f"T{sum(map(len, levels)) + len(level):05d}"
                edges.append((parent, child))
                level.append(child)
        levels.append(level)
    extra = set()
    while len(extra) < 400:
        depth = rng.randrange(2, len(levels))
        i = rng.randrange(len(levels[depth]))
        parent = rng.choice(levels[depth - 1])
        if parent != levels[depth - 1][i // 5]:  # not the tree edge
            extra.add((parent, levels[depth][i]))
    edges += sorted(extra)
    rng.shuffle(edges)
    terms = [t for level in levels for t in level]
    aliases = {t: f"a{i}" for i, t in enumerate(terms) if rng.random() < 1 / 3}
    return terms[0], edges, aliases


class TestAtFullSize:
    """The constructor on a ~20,000-term ontology, against the reference."""

    @pytest.fixture(scope="class")
    def dag(self):
        return full_size_dag(random.Random(2801))

    @staticmethod
    def message(root, edges, aliases, reference=False):
        text = json.dumps({"prefix": "T", "root": root, "edges": [list(e) for e in edges], "aliases": aliases})
        try:
            if reference:
                graphlib_validate(root, edges, aliases)
            else:
                load_ontology(text)
        except OntologyError as exc:
            return str(exc)
        return None

    def test_a_valid_ontology_matches_the_reference(self, dag):
        root, edges, aliases = dag
        terms, parents, children, resolve = graphlib_validate(root, edges, aliases)
        assert len(terms) == 19_531 and len(edges) == 19_930 and sum(len(ps) > 1 for ps in parents.values()) > 300
        assert 6_000 < len(aliases) < 7_000
        ont = load_ontology(json.dumps({"prefix": "T", "root": root, "edges": edges, "aliases": aliases}))
        assert ont.terms == terms
        assert {t: tuple(ont._parents[t]) for t in terms} == parents
        assert {t: tuple(ont._children.get(t, ())) for t in terms} == children
        assert {name: ont.resolve(name) for name in resolve} == resolve
        assert ont.resolve("a") is None and ont.resolve("T19531") is None
        assert {ont.root, *ont.descendants(ont.root)} == terms

    def test_each_fault_gives_the_reference_message(self, dag):
        root, edges, aliases = dag
        rng = random.Random(5)
        parents = collections.defaultdict(list)
        for parent, child in edges:
            parents[child].append(parent)
        # a repeated edge into a term with several parents
        child = rng.choice(sorted(t for t, ps in parents.items() if len(ps) > 1))
        repeated = list(edges)
        repeated.insert(rng.randrange(len(edges)), (parents[child][0], child))
        # a back edge from a leaf up its line of one-parent ancestors, whose
        # top is reached by one path only: the cycle it closes is the one
        def line(t):
            chain = [t]
            while len(parents[chain[-1]]) == 1:
                chain.append(parents[chain[-1]][0])
            return chain

        lines = sorted(map(line, sorted(parents.keys() - {p for p, _ in edges})), key=len)
        leaf_line = rng.choice([chain for chain in lines if len(chain) == len(lines[-1])])
        back = [*edges, (leaf_line[0], leaf_line[-1])]
        stranded = [*edges[:100], ("stray", rng.choice(sorted(parents))), *edges[100:]]
        spelled = dict(aliases)
        spelled[rng.choice(sorted(aliases))] = rng.choice(sorted(parents))
        kinds = []
        for faulty, faulty_aliases in ((repeated, aliases), (back, aliases), (stranded, aliases), (edges, spelled)):
            got = self.message(root, faulty, faulty_aliases)
            expected = self.message(root, faulty, faulty_aliases, reference=True)
            assert got is not None and expected is not None
            kind = expected.split(":")[0]
            assert got.split(":")[0] == kind
            kinds.append(kind)
            if kind == "cycle detected through":
                # the one cycle, whichever term each witness starts from
                witnesses = [ast.literal_eval(m.split(": ", 1)[1]) for m in (got, expected)]
                for witness in witnesses:
                    assert_is_cycle(witness, back)
                cycle = {*zip(leaf_line[1:], leaf_line), (leaf_line[0], leaf_line[-1])}
                assert [set(zip(w, w[1:])) for w in witnesses] == [cycle, cycle]
            else:
                assert got == expected
        assert kinds == [
            "duplicate edge",
            "cycle detected through",
            "terms unreachable from root",
            "duplicate term or alias",
        ]


class TestCollectorPause:
    TEXTS = {
        "accepted": (FIXTURES / "organisms.ont").read_text(encoding="utf-8"),
        "unreadable JSON": '{"prefix": "T", "root": ',
        "bad edge entry": doc(edges=[["r", "a", "b"]]),
        "cycle": doc(edges=[["r", "a"], ["a", "b"], ["b", "a"]]),
        "alias for an unknown term": doc(edges=[["r", "a"]], aliases={"zz": "z"}),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_load_puts_the_collector_back(self, enabled):
        was = gc.isenabled()
        outcomes = []
        try:
            gc.enable() if enabled else gc.disable()
            for kind, text in self.TEXTS.items():
                try:
                    load_ontology(text)
                    outcomes.append("accepted")
                except OntologyError as exc:
                    outcomes.append(str(exc).split(":")[0])
                assert gc.isenabled() is enabled, kind
        finally:
            gc.enable() if was else gc.disable()
        assert outcomes == [
            "accepted",
            "malformed ontology document",
            "bad edge entry",
            "cycle detected through",
            "alias for unknown term",
        ]

    def test_the_collector_is_paused_while_the_ontology_is_built(self, monkeypatch):
        seen = []

        def build(*args):
            seen.append(gc.isenabled())
            return Ontology(*args)

        monkeypatch.setattr("fcaregistry.ontology.Ontology", build)
        was = gc.isenabled()
        try:
            gc.enable()
            load_ontology(self.TEXTS["accepted"])
            assert seen == [False] and gc.isenabled()
        finally:
            gc.enable() if was else gc.disable()


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
            children = {t: ont._children.get(t, ()) for t in terms}
            for a in terms:
                for b in terms:
                    down, up = shortest_path(children, a, b), shortest_path(ont._parents, a, b)
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

    @pytest.mark.parametrize("hops", [1.5, 2.0, "2", True, False])
    def test_a_hop_bound_that_is_not_an_int_is_refused(self, organisms, table1, table1_lattice, hops):
        message = f"^hop bound must be an int or None, got {re.escape(repr(hops))}$"
        for fn in (refine_generalize, refine_specialize, refine_both):
            with pytest.raises(OntologyError, match=message):
                fn(q("Eu"), organisms, table1, hops=hops)
        # not only at the refiners: a search would write a float or a bool as the bound
        with pytest.raises(OntologyError, match=message):
            search_refined(table1_lattice, q("Eu"), organisms, "specialize", hops)

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
        """The carrier map holds the attribute that probing name, then alias, finds."""
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
            carriers = _carriers(ont, ctx)
            for term in terms:
                expected = _attribute_for_term(ont, ctx, term)
                assert carriers.get(term) is expected
                found += expected is not None
                missed += expected is None
        assert found >= 100 and missed >= 100, (found, missed)

    def test_prefixed_name_is_carried_before_bare_alias(self):
        ont = Ontology("T", "r", [("r", "t")], {"t": "a"})
        name, alias = Attribute("t", "T"), Attribute("a")
        for attrs in ([alias, name], [name, alias]):
            ctx = FormalContext([], attrs, [])
            assert _carriers(ont, ctx)["t"] is ctx.attributes[attrs.index(name)]
            assert _attribute_for_term(ont, ctx, "t") == name
            refined, report = refine_specialize(q("r"), ont, ctx)
            assert report.added == frozenset({name}) and refined.terms == frozenset({Attribute("r"), name})
            assert report.dropped_candidates == frozenset()

    def test_empty_prefix_carries_only_bare_attributes(self):
        ont = Ontology("", "r", [("r", "t"), ("r", "u")], {"t": "a", "u": "b"})
        ctx = FormalContext([], [Attribute("b", "T"), Attribute("u", "T"), Attribute("a"), Attribute("t", "")], [])
        assert _carriers(ont, ctx) == {"t": Attribute("t")}
        assert _carriers(ont, ctx)["t"] is ctx.attributes[3]
        _, report = refine_specialize(q("r"), ont, ctx)
        assert report.added == frozenset({Attribute("t")})
        assert report.dropped_candidates == frozenset({"u"})
        _, report = refine_generalize(q(Attribute("t", "T")), ont, ctx)
        assert report.skipped_terms == frozenset({"t"})

    def test_related_term_carried_by_a_query_term_is_neither_added_nor_dropped(self):
        ont = Ontology("T", "r", [("r", "t"), ("t", "v"), ("r", "u")], {"t": "a"})
        ctx = FormalContext([], [Attribute("r"), Attribute("a"), Attribute("v")], [])
        query = q("v", "a")
        for refine in (refine_generalize, refine_both):
            refined, report = refine(query, ont, ctx)
            # from v: t is carried by the query's "a", r is added; from t: r again
            assert report.added == frozenset({Attribute("r")})
            assert refined.terms == query.terms | {Attribute("r")}
            assert report.dropped_candidates == frozenset()
        # from r: t is carried by the query's "a", v is added and u has no carrier
        _, report = refine_specialize(q("r", "a"), ont, ctx)
        assert report.added == frozenset({Attribute("v")})
        assert report.dropped_candidates == frozenset({"u"})

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
