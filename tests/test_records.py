"""The record classes keep the contract of the frozen dataclasses they replace.

Each test compares a package class with a test-local copy of its old
``@dataclass`` definition, on values drawn from small seeded pools so that
equal and unequal pairs both come up often.  ``MAKERS[name](ns, rng)``
draws the same field values with the new classes (``NEW``) or the old ones
(``OLD``) when given equally seeded generators.
"""

import ast
import copy
import inspect
import json
import pickle
import random
import sys
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace

import pytest

import fcaregistry
from fcaregistry import CATEGORIES, ContextError
from conftest import SRC, run_python

# -- the old definitions ------------------------------------------------------


@dataclass(frozen=True)
class Attribute:
    term: str
    prefix: str | None = None
    category: str = field(default="Subject", compare=False)

    def __post_init__(self) -> None:
        if self.prefix == "":
            object.__setattr__(self, "prefix", None)
        if not self.term:
            raise ContextError("attribute term must be non-empty")
        if self.category not in CATEGORIES:
            raise ContextError(f"unknown attribute category: {self.category!r}")


@dataclass(frozen=True)
class FormalConcept:
    extent: frozenset[str]
    intent: frozenset[Attribute]


@dataclass(frozen=True)
class RefinementReport:
    mode: str
    added: frozenset[Attribute]
    dropped_candidates: frozenset[str]
    hops_used: int | None
    skipped_terms: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Query:
    terms: frozenset[Attribute]
    label: str = "Query"


@dataclass(frozen=True)
class RankedResult:
    source: str
    rank: int
    shared: frozenset[Attribute]
    via_intent: frozenset[Attribute]


@dataclass(frozen=True)
class ResultSet:
    query: Query
    results: tuple[RankedResult, ...]
    refinement_applied: RefinementReport | None = None


@dataclass(frozen=True)
class OntologyRef:
    prefix: str
    name: str
    version: str = ""
    location: str = ""


@dataclass
class MetadataRecord:
    id: str
    identification: dict[str, str] = field(default_factory=dict)
    subjects: list[str] = field(default_factory=list)
    organisms: list[str] = field(default_factory=list)
    quality: list[str] = field(default_factory=list)
    availability: dict[str, str] = field(default_factory=dict)
    ontologies_used: list[OntologyRef] = field(default_factory=list)


@dataclass(frozen=True)
class FieldRule:
    section: str
    fieldname: str
    equals: str
    attribute_term: str


@dataclass(frozen=True)
class BinarizationConfig:
    categories_included: frozenset[str] = frozenset({"Subject", "Organism", "Quality"})
    field_rules: tuple[FieldRule, ...] = ()


@dataclass(frozen=True)
class Finding:
    level: str
    message: str


NAMES = [
    "Attribute",
    "FormalConcept",
    "RefinementReport",
    "Query",
    "RankedResult",
    "ResultSet",
    "OntologyRef",
    "MetadataRecord",
    "FieldRule",
    "BinarizationConfig",
    "Finding",
]
OLD = SimpleNamespace(**{name: globals()[name] for name in NAMES})
NEW = SimpleNamespace(**{name: getattr(fcaregistry, name) for name in NAMES})

# -- seeded field values --------------------------------------------------------


def _strings(rng, pool=("S1", "S2", "S3")):
    return frozenset(rng.sample(pool, rng.randrange(3)))


def _attrs(ns, rng):
    return frozenset(ns.Attribute(**MAKERS["Attribute"](ns, rng)) for _ in range(rng.randrange(3)))


def _make(ns, name, rng):
    return getattr(ns, name)(**MAKERS[name](ns, rng))


MAKERS = {
    "Attribute": lambda ns, rng: {
        "term": rng.choice(["Hu", "Ch"]),
        "prefix": rng.choice([None, "", "NCBI"]),
        "category": rng.choice(["Subject", "Organism"]),
    },
    "FormalConcept": lambda ns, rng: {"extent": _strings(rng), "intent": _attrs(ns, rng)},
    "RefinementReport": lambda ns, rng: {
        "mode": rng.choice(["generalize", "both"]),
        "added": _attrs(ns, rng),
        "dropped_candidates": _strings(rng, ("x", "y")),
        "hops_used": rng.choice([None, 0, 2]),
        "skipped_terms": _strings(rng, ("GO:a", "GO:b")),
    },
    "Query": lambda ns, rng: {"terms": _attrs(ns, rng), "label": rng.choice(["Query", "q"])},
    "RankedResult": lambda ns, rng: {
        "source": rng.choice(["S1", "S2"]),
        "rank": rng.randrange(2),
        "shared": _attrs(ns, rng),
        "via_intent": _attrs(ns, rng),
    },
    "ResultSet": lambda ns, rng: {
        "query": _make(ns, "Query", rng),
        "results": tuple(_make(ns, "RankedResult", rng) for _ in range(rng.randrange(3))),
        "refinement_applied": rng.choice([None, _make(ns, "RefinementReport", rng)]),
    },
    "OntologyRef": lambda ns, rng: {
        "prefix": rng.choice(["NCBI", "GO"]),
        "name": rng.choice(["", "Taxonomy"]),
        "version": rng.choice(["", "1"]),
        "location": rng.choice(["", "http://example.org/ncbi"]),
    },
    "MetadataRecord": lambda ns, rng: {
        "id": rng.choice(["S1", "S2"]),
        "identification": rng.choice([{}, {"title": "t"}]),
        "subjects": rng.sample(["NS", "MR"], rng.randrange(3)),
        "organisms": rng.choice([[], ["Hu"]]),
        "quality": rng.choice([[], ["curated"]]),
        "availability": rng.choice([{}, {"license": "CC0"}]),
        "ontologies_used": [_make(ns, "OntologyRef", rng) for _ in range(rng.randrange(2))],
    },
    "FieldRule": lambda ns, rng: {
        "section": rng.choice(["identification", "availability"]),
        "fieldname": rng.choice(["license", "title"]),
        "equals": rng.choice(["", "CC0"]),
        "attribute_term": rng.choice(["open", "closed"]),
    },
    "BinarizationConfig": lambda ns, rng: {
        "categories_included": frozenset(rng.sample(CATEGORIES, rng.randrange(1, 3))),
        "field_rules": tuple(_make(ns, "FieldRule", rng) for _ in range(rng.randrange(2))),
    },
    "Finding": lambda ns, rng: {
        "level": rng.choice(["warning", "info"]),
        "message": rng.choice(["a", "b"]),
    },
}

SEEDS = range(150)


def _pair(ns, name, seed):
    """Two records of one class: the second redraws one field of the first."""
    rng = random.Random(seed)
    a = MAKERS[name](ns, rng)
    b = dict(a)
    redrawn = rng.choice(sorted(a))
    b[redrawn] = MAKERS[name](ns, rng)[redrawn]
    cls = getattr(ns, name)
    return cls(**a), cls(**b)


RECORD_TYPES = {*vars(OLD).values(), *vars(NEW).values()}


def _by_value(value):
    """``value`` as nested tuples that compare equal for a new and an old
    record exactly when their classes have one name, their fields have the
    same names in the same order, and each field holds a value of the same
    type that is equal, container items included.  Unlike a repr, this does
    not depend on the order a set was built in."""
    if type(value) in RECORD_TYPES:
        return type(value).__name__, tuple((k, _by_value(v)) for k, v in vars(value).items())
    if isinstance(value, (set, frozenset)):
        return type(value), frozenset(map(_by_value, value))
    if isinstance(value, dict):
        return type(value), frozenset((k, _by_value(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_by_value, value))
    return type(value), value


def _hashable(name):
    return getattr(OLD, name).__hash__ is not None


@pytest.mark.parametrize("name", NAMES)
class TestContract:
    def test_positional_and_keyword_construction_agree(self, name):
        cls = getattr(NEW, name)
        for seed in SEEDS:
            kwargs = MAKERS[name](NEW, random.Random(seed))
            by_keyword = cls(**kwargs)
            by_position = cls(*kwargs.values())
            assert by_position == by_keyword
            assert type(by_position) is cls
            assert list(vars(by_keyword)) == [f.name for f in fields(getattr(OLD, name))]

    def test_repr_is_the_old_repr(self, name):
        for seed in SEEDS:
            new = _make(NEW, name, random.Random(seed))
            old = _make(OLD, name, random.Random(seed))
            assert repr(new) == repr(old)

    def test_defaults_are_the_old_ones(self, name):
        required = [f.name for f in fields(getattr(OLD, name))
                    if f.default is MISSING and f.default_factory is MISSING]
        for seed in range(20):
            new_values = MAKERS[name](NEW, random.Random(seed))
            old_values = MAKERS[name](OLD, random.Random(seed))
            new = getattr(NEW, name)(**{k: new_values[k] for k in required})
            old = getattr(OLD, name)(**{k: old_values[k] for k in required})
            assert _by_value(new) == _by_value(old)

    def test_eq_and_hash_agree_with_the_old_class(self, name):
        outcomes = set()
        for seed in SEEDS:
            new_a, new_b = _pair(NEW, name, seed)
            old_a, old_b = _pair(OLD, name, seed)
            assert (new_a == new_b) is (old_a == old_b)
            assert (new_a != new_b) is (old_a != old_b)
            assert new_a != old_a and old_a != new_a
            assert new_a.__eq__(old_a) is NotImplemented
            if _hashable(name):
                assert hash(new_a) == hash(old_a)
                assert hash(new_b) == hash(old_b)
            outcomes.add(new_a == new_b)
        assert outcomes == {True, False}

    def test_vars_copy_and_pickle(self, name):
        for seed in range(30):
            record = _make(NEW, name, random.Random(seed))
            old = _make(OLD, name, random.Random(seed))
            assert repr(vars(record)) == repr(vars(old))
            for clone in (
                copy.copy(record),
                copy.deepcopy(record),
                pickle.loads(pickle.dumps(record)),
            ):
                assert type(clone) is type(record)
                assert clone == record
                assert vars(clone) == vars(record)
                if _hashable(name):
                    assert hash(clone) == hash(record)


@pytest.mark.parametrize("name", NAMES)
def test_signature_lists_the_old_parameters(name):
    """What ``help()`` and keyword callers see: the old parameters, in order,
    each with the old plain default or none; factory defaults are not compared."""
    params = list(inspect.signature(getattr(NEW, name)).parameters.values())
    old = fields(getattr(OLD, name))
    assert [p.name for p in params] == [f.name for f in old]
    for p, f in zip(params, old):
        assert p.kind is p.POSITIONAL_OR_KEYWORD, p
        if f.default_factory is MISSING:
            assert p.default == (p.empty if f.default is MISSING else f.default), p


@pytest.mark.parametrize("name", [name for name in NAMES if name != "MetadataRecord"])
def test_fields_cannot_be_assigned_or_deleted(name):
    for seed in range(20):
        record = _make(NEW, name, random.Random(seed))
        before = repr(record)
        for f in [*vars(record), "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, f, None)
            with pytest.raises(AttributeError):
                delattr(record, f)
        assert repr(record) == before


def test_attribute_checks_and_identity():
    assert NEW.Attribute("Ch") == NEW.Attribute(term="Ch")
    assert repr(NEW.Attribute("Ch")) == repr(Attribute("Ch")) == (
        "Attribute(term='Ch', prefix=None, category='Subject')"
    )
    assert NEW.Attribute("Ch", "") == NEW.Attribute("Ch") and NEW.Attribute("Ch", "").prefix is None
    subject, organism = NEW.Attribute("Hu", "NCBI"), NEW.Attribute("Hu", "NCBI", "Organism")
    assert subject == organism and hash(subject) == hash(organism)
    assert len({subject, organism}) == 1
    for args in [("",), ("", "NCBI"), ("Hu", None, "Colour"), ("", None, "Colour")]:
        with pytest.raises(ContextError) as new:
            NEW.Attribute(*args)
        with pytest.raises(ContextError) as old:
            Attribute(*args)
        assert str(new.value) == str(old.value)


def test_metadata_record_is_mutable_and_unhashable():
    record = NEW.MetadataRecord("S1")
    assert NEW.MetadataRecord.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)
    record.subjects = ["NS"]
    assert record == NEW.MetadataRecord("S1", subjects=["NS"])
    del record.subjects
    assert not hasattr(record, "subjects")


def test_metadata_record_defaults_are_fresh():
    a, b = NEW.MetadataRecord("S1"), NEW.MetadataRecord("S2")
    for f in ("identification", "subjects", "organisms", "quality", "availability", "ontologies_used"):
        assert getattr(a, f) is not getattr(b, f)
    a.subjects.append("NS")
    a.identification["title"] = "t"
    assert b.subjects == [] and b.identification == {}
    assert NEW.MetadataRecord("S3").subjects == []


# -- what importing the package costs ------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import json, sys; before = set(sys.modules); import fcaregistry.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    loaded = set(json.loads(run_python("-c", script).stdout))
    assert "fcaregistry.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def test_no_module_imports_dataclasses():
    modules = sorted((SRC / "fcaregistry").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in imported), path.name


def test_every_module_imports_only_the_standard_library():
    modules = sorted((SRC / "fcaregistry").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import is the package itself
                imported = [] if node.level else [node.module]
            else:
                continue
            for name in imported:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "fcaregistry", (path.name, name)


#: The package's modules in import order: each imports only those before it.
LAYERS = ("errors", "context", "lattice", "ontology", "registry", "retrieval", "cli")


def package_imports(tree: ast.AST):
    """The package modules an AST imports, at any depth, under ``TYPE_CHECKING`` too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # ``from . import x``
                yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                if name.startswith("fcaregistry."):
                    yield name.split(".")[1]


def test_every_module_imports_only_the_layers_below_it():
    package = SRC / "fcaregistry"
    assert {p.stem for p in package.glob("*.py")} == {"__init__", *LAYERS}
    for i, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for imported in package_imports(tree):
            assert imported in LAYERS[:i], (name, imported)


def test_only_the_context_module_sets_fields():
    """``_set_field`` passes the guard that makes records and slotted objects
    immutable.  No module but ``context.py`` (``_Record``, ``_fill_slots``)
    names it, so every slot is set once, when its object is made."""
    for path in sorted((SRC / "fcaregistry").glob("*.py")):
        if path.name == "context.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert "_set_field" not in names, (path.name, node.lineno)


def test_query_lives_beside_attribute():
    from fcaregistry import context, retrieval

    assert fcaregistry.Query is retrieval.Query is context.Query
    assert context.Query.label == context.RESERVED_OBJECT_ID
    assert context.Query.__module__ == "fcaregistry.context"
