import collections
import json
import random
from pathlib import Path

import pytest

from fcaregistry import (
    Attribute,
    BinarizationConfig,
    ContextError,
    FcaRegistryError,
    FieldRule,
    FormalContext,
    MetadataRecord,
    OntologyRef,
    RegistryError,
    build_context,
    build_lattice,
    lattice_to_json,
    load_records,
    parse_records,
    validate_record,
    write_records,
)
from fcaregistry import registry
from fcaregistry.registry import split_term
from conftest import FIXTURES, TEXT_EDITS, edit_document, mutate_text


@pytest.fixture(scope="module")
def corpus():
    return load_records(FIXTURES / "bioregistry8")


class TestParseRecords:
    def test_fixture_corpus(self, corpus):
        assert [r.id for r in corpus] == [f"S{i}" for i in range(1, 9)]
        titles = {r.id: r.identification["title"] for r in corpus}
        assert titles["S1"] == "Swissprot"
        assert titles["S8"] == "Vega Genome Browser"

    def test_empty_list(self):
        assert parse_records('{"records": []}') == []

    def test_undeclared_prefix(self):
        text = json.dumps({"records": [{"id": "S1", "subjects": ["MESH:Genome"]}]})
        with pytest.raises(RegistryError, match="MESH"):
            parse_records(text)

    def test_free_prefix_allowed(self):
        records = parse_records(json.dumps({"records": [{"id": "S1", "subjects": ["free:notes"]}]}))
        assert records[0].subjects == ["free:notes"]

    def test_duplicate_id(self):
        text = json.dumps({"records": [{"id": "S1"}, {"id": "S1"}]})
        with pytest.raises(RegistryError, match="duplicate"):
            parse_records(text)

    def test_missing_id(self):
        with pytest.raises(RegistryError, match="id"):
            parse_records('{"records": [{"subjects": ["NS"]}]}')

    def test_records_not_a_list(self):
        with pytest.raises(RegistryError, match="'records' must be a list"):
            parse_records('{"records": 5}')

    def test_term_list_as_string(self):
        # a string would iterate into one-letter terms
        with pytest.raises(RegistryError, match="'subjects' must be a list of strings"):
            parse_records(json.dumps({"id": "S1", "subjects": "NS"}))

    def test_ontology_entry_without_prefix(self):
        text = json.dumps({"id": "S1", "ontologies_used": [{"name": "Living organisms"}]})
        with pytest.raises(RegistryError, match="string 'prefix'"):
            parse_records(text)

    @pytest.mark.parametrize("key", ["name", "version", "location"])
    @pytest.mark.parametrize("value", [5, [1], None])
    def test_ontology_entry_field_not_a_string(self, key, value):
        entry = {"prefix": "NCBI", "name": "Living organisms", key: value}
        text = json.dumps({"id": "S1", "ontologies_used": [entry]})
        with pytest.raises(RegistryError, match=f"'ontologies_used' '{key}' must be a string"):
            parse_records(text)

    def test_ontology_entry_fields_may_be_absent(self):
        (record,) = parse_records(json.dumps({"id": "S1", "ontologies_used": [{"prefix": "NCBI"}]}))
        assert record.ontologies_used == [OntologyRef(prefix="NCBI", name="")]

    @pytest.mark.parametrize(
        "category, raw, declared",
        [("Subject", "", []), ("Quality", "free:", []), ("Organism", "NCBI:", ["NCBI"])],
    )
    def test_empty_term_names_the_record_and_the_term(self, category, raw, declared):
        key = {"Subject": "subjects", "Organism": "organisms", "Quality": "quality"}[category]
        doc = {"id": "S7", key: ["NS", raw], "ontologies_used": [{"prefix": p} for p in declared]}
        with pytest.raises(RegistryError) as info:
            parse_records(json.dumps(doc))
        assert str(info.value) == f"record 'S7' has an empty {category} term: {raw!r}"

    def test_empty_term_under_an_undeclared_prefix_names_the_prefix(self):
        with pytest.raises(RegistryError, match="undeclared ontology prefix: 'MESH'"):
            parse_records(json.dumps({"id": "S1", "subjects": ["MESH:"]}))

    def test_non_string_term(self):
        with pytest.raises(RegistryError, match="Organism terms must be strings, got 5"):
            parse_records(json.dumps({"id": "S1", "organisms": ["Hu", 5]}))

    def test_deeply_nested_document(self):
        with pytest.raises(RegistryError, match="malformed record document"):
            parse_records("[" * 100_000 + "]" * 100_000)


class TestLoadRecords:
    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"id": "S\xff1"}')
        with pytest.raises(RegistryError, match="bad.json"):
            load_records(bad)

    def test_non_utf8_directory_entry(self, tmp_path):
        (tmp_path / "good.json").write_text('{"id": "S1", "subjects": ["NS"]}', encoding="utf-8")
        (tmp_path / "bad.json").write_bytes(b'{"id": "S\xff2"}')
        with pytest.raises(RegistryError, match="bad.json"):
            load_records(tmp_path)

    def test_a_directory_that_cannot_be_listed_is_an_error(self, tmp_path, monkeypatch):
        (tmp_path / "a.json").write_text('{"id": "S1", "subjects": ["NS"]}', encoding="utf-8")

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        # the tests run as root, whom a mode bit does not stop
        monkeypatch.setattr(registry.os, "listdir", refuse)
        message = f"cannot read record directory {str(tmp_path)!r}: [Errno 13] Permission denied: {str(tmp_path)!r}"
        with pytest.raises(RegistryError) as info:
            load_records(tmp_path)
        assert str(info.value) == message


def pathlib_load_records(path):
    """What ``load_records`` returns or raises, as it read a corpus through
    pathlib: a directory's ``sorted(Path.glob("*.json"))``, each file by
    ``read_text``."""

    def read(file):
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise RegistryError(f"cannot read record file {str(file)!r}: {exc}") from exc
        return parse_records(text)

    path = Path(path)
    try:
        if path.is_dir():
            return registry._unique([r for entry in sorted(path.glob("*.json")) for r in read(entry)])
        return read(path)
    except RegistryError as exc:
        return str(exc)


def outcome(path):
    try:
        return load_records(path)
    except RegistryError as exc:
        return str(exc)


def record_doc(rid, newline="\n"):
    doc = json.dumps({"id": rid, "subjects": ["NS", "NCBI:Hu"], "ontologies_used": [{"prefix": "NCBI"}]}, indent=1)
    return doc.replace("\n", newline)


class TestLoadRecordsAsPathlibRead:
    """A corpus reads as the pathlib glob and ``read_text`` read it: the same
    records in the same order, or the same error and message."""

    def test_a_directory_loads_its_json_names_in_name_order(self, tmp_path):
        # written out of name order, so a listing left unsorted shows
        for name, rid in (("b.json", "B"), ("\xe9.json", "E"), ("a.json", "A"), (".h.json", "H"),
                          (".json", "J"), ("C.JSON", "C"), ("n.txt", "N")):
            (tmp_path / name).write_text(record_doc(rid), encoding="utf-8")
        records = load_records(tmp_path)
        assert [r.id for r in records] == ["H", "J", "A", "B", "E"]
        assert records == pathlib_load_records(tmp_path)
        (tmp_path / "d.json").mkdir()
        message = outcome(tmp_path)
        assert message.startswith(f"cannot read record file {str(tmp_path / 'd.json')!r}: [Errno 21]")
        assert message == pathlib_load_records(tmp_path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_give_the_records_of_lf_line_ends(self, tmp_path, newline):
        (tmp_path / "lf.json").write_bytes(record_doc("S1").encode())
        (tmp_path / "dir").mkdir()
        for name in ("S1", "S2"):
            (tmp_path / "dir" / f"{name}.json").write_bytes(record_doc(name, newline).encode())
        records = load_records(tmp_path / "dir")
        assert records == pathlib_load_records(tmp_path / "dir")
        assert records[:1] == load_records(tmp_path / "dir" / "S1.json") == load_records(tmp_path / "lf.json")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "tail, message",
        [
            # None: the message ``json`` gives for the LF text, which differs between Python versions
            (b'\n  "quality": [1,]\n}', None),
            (b'\n  "quality": ["\xff"]\n}', "cannot read record file "),
            (b"\n\xe2\x82", "cannot read record file "),
        ],
        ids=["malformed-json", "not-utf8", "cut-utf8"],
    )
    def test_an_error_after_line_ends_names_the_same_place(self, tmp_path, newline, tail, message):
        lines = b'{\n "id": "S1",\n "subjects": ["NS"],' + tail
        if message is None:
            with pytest.raises(json.JSONDecodeError) as info:
                json.loads(lines)
            message = f"malformed record document: {info.value}"
        bad = tmp_path / "bad.json"
        bad.write_bytes(lines.replace(b"\n", newline.encode()))
        assert outcome(bad).startswith(message)
        assert outcome(bad) == pathlib_load_records(bad)
        assert outcome(tmp_path) == pathlib_load_records(tmp_path)

    def test_the_working_directory_names_a_file_without_a_dot(self, tmp_path, monkeypatch):
        (tmp_path / "good.json").write_text(record_doc("S1"), encoding="utf-8")
        (tmp_path / "bad.json").write_bytes(b'{"id": "S\xff2"}')
        monkeypatch.chdir(tmp_path)
        for path in (".", "", Path(".")):
            assert outcome(path).startswith("cannot read record file 'bad.json': ")
            assert outcome(path) == pathlib_load_records(path)


def pathlib_read(path, what):
    """What the reader returns or raises, as ``Path.read_text`` read a file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return RegistryError(f"cannot read {what} file {str(path)!r}: {exc}")


def read(path, what):
    try:
        return registry._read_text(str(path), what)
    except RegistryError as exc:
        return exc


def same(got, expected):
    """The same text, or an error of the same class and message."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return got == expected


class TestReadTextAsPathlibRead:
    """The one reader gives a CSV context, lattice or ontology file the text
    ``Path.read_text`` gives it, or the same message at the same offset."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("edit", ["none", "bom", "0xff", "cut-utf8"])
    @pytest.mark.parametrize("what", ["context", "lattice", "ontology"])
    def test_each_line_end_and_byte_fault(self, tmp_path, table1_lattice, newline, edit, what):
        text = {
            "context": (FIXTURES / "table1.csv").read_text(encoding="utf-8"),
            "lattice": lattice_to_json(table1_lattice),
            "ontology": (FIXTURES / "organisms.ont").read_text(encoding="utf-8"),
        }[what]
        # a non-ASCII letter before the fault, so a character offset differs from the byte offset
        lines = ("\xe9" + text).replace("\n", newline).encode()
        middle = len(lines) // 2
        faulty = {
            "none": lines,
            "bom": b"\xef\xbb\xbf" + lines,
            "0xff": lines[:middle] + b"\xff" + lines[middle:],
            "cut-utf8": lines[:middle] + b"\xe2\x82" + lines[middle:],
        }[edit]
        path = tmp_path / f"{what}-{edit}"
        path.write_bytes(faulty)
        got, expected = read(path, what), pathlib_read(path, what)
        assert same(got, expected), (got, expected)
        if edit in ("0xff", "cut-utf8"):
            assert str(got).startswith(f"cannot read {what} file {str(path)!r}: 'utf-8' codec can't decode byte")
            assert f"in position {middle}" in str(got)
        else:
            assert got == {"none": "", "bom": "\ufeff"}[edit] + "\xe9" + text

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_missing_path_or_a_directory(self, tmp_path, kind):
        path = tmp_path / "missing" if kind == "missing" else tmp_path
        for what in ("record", "context", "lattice", "ontology"):
            got = read(path, what)
            assert same(got, pathlib_read(path, what))
            errno = "[Errno 2] No such file or directory" if kind == "missing" else "[Errno 21] Is a directory"
            assert str(got) == f"cannot read {what} file {str(path)!r}: {errno}: {str(path)!r}"

    def test_a_path_holding_a_nul_is_a_registry_error_where_pathlib_raised_value_error(self):
        for what in ("record", "context", "lattice", "ontology"):
            assert str(read("x\0y", what)) == f"cannot read {what} file 'x\\x00y': embedded null byte"
            with pytest.raises(ValueError, match="embedded null byte"):
                pathlib_read("x\0y", what)
        with pytest.raises(RegistryError, match="^cannot read record file 'x\\\\x00y': embedded null byte$"):
            load_records("x\0y")

    def test_an_empty_path_names_no_file_where_pathlib_read_the_working_directory(self):
        # Path("") is ".", a directory; open("") finds no file
        assert str(read("", "lattice")) == "cannot read lattice file '': [Errno 2] No such file or directory: ''"
        assert str(pathlib_read("", "lattice")) == "cannot read lattice file '': [Errno 21] Is a directory: '.'"


class TestBuildContext:
    def test_reproduces_table1_up_to_ordering(self, corpus, table1):
        ctx = build_context(corpus)
        assert set(ctx.objects) == set(table1.objects)
        assert {a.term for a in ctx.attributes} == {a.term for a in table1.attributes}
        for g in table1.objects:
            assert {a.term for a in ctx.intent_of(g)} == {
                a.term for a in table1.intent_of(g)
            }
        assert {a.category for a in ctx.attributes} == {"Subject", "Organism", "Quality"}
        # same concept structure once latticized
        lat = build_lattice(ctx)
        ref = build_lattice(table1)
        assert len(lat.concepts) == len(ref.concepts)
        assert {
            frozenset(a.term for a in c.intent) for c in lat.concepts
        } == {frozenset(a.term for a in c.intent) for c in ref.concepts}

    def test_quality_only(self, corpus):
        ctx = build_context(corpus, BinarizationConfig(categories_included=frozenset({"Quality"})))
        assert list(ctx.objects) == ["S1", "S2", "S4"]
        assert [a.term for a in ctx.attributes] == ["MR"]
        assert ctx.derive_attributes(list(ctx.attributes)) == {"S1", "S2", "S4"}

    def test_empty_corpus(self):
        ctx = build_context([])
        assert ctx.objects == () and ctx.attributes == ()

    def test_no_categories_rejected(self, corpus):
        with pytest.raises(RegistryError):
            build_context(corpus, BinarizationConfig(categories_included=frozenset()))

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (BinarizationConfig(frozenset({"Subject", "Organsim"})), "unknown category: 'Organsim'"),
            (BinarizationConfig(frozenset({"subject"})), "unknown category: 'subject'"),
            (
                BinarizationConfig(field_rules=(FieldRule("identifcation", "freq", "monthly", "m"),)),
                "unknown field rule section: 'identifcation'",
            ),
            (
                BinarizationConfig(field_rules=(FieldRule("Availability", "access", "public", "p"),)),
                "unknown field rule section: 'Availability'",
            ),
            # a bare term that would print as the record term NCBI:Hu
            (
                BinarizationConfig(field_rules=(FieldRule("identification", "freq", "monthly", "NCBI:Hu"),)),
                "field rule attribute term holds ':': 'NCBI:Hu'",
            ),
        ],
    )
    def test_a_misspelled_config_is_refused(self, cfg, message):
        # refused before any record is read, so an empty corpus is refused too
        for records in ([], [MetadataRecord(id="S", subjects=["s"])]):
            with pytest.raises(RegistryError, match=f"^{message}$"):
                build_context(records, cfg)

    def test_field_rules(self, corpus):
        cfg = BinarizationConfig(
            field_rules=(
                FieldRule("identification", "update_frequency", "monthly", "updated-monthly"),
            )
        )
        ctx = build_context(corpus, cfg)
        rule_attrs = [a for a in ctx.attributes if a.term == "updated-monthly"]
        assert len(rule_attrs) == 1
        assert rule_attrs[0].category == "Identification"
        assert ctx.derive_attributes(rule_attrs) == set(ctx.objects)

    def test_term_under_two_categories_is_one_attribute(self):
        records = [
            MetadataRecord(id="A", subjects=["NCBI:Mouse"]),
            MetadataRecord(id="B", organisms=["NCBI:Mouse"], quality=["q"]),
        ]
        ctx = build_context(records)
        mice = [a for a in ctx.attributes if a.term == "Mouse"]
        assert len(mice) == 1
        assert mice[0].prefix == "NCBI" and mice[0].category == "Subject"
        assert ctx.derive_attributes(mice) == {"A", "B"}

    def test_order_stability(self, corpus):
        reordered = list(reversed(corpus))
        a = build_context(corpus)
        b = build_context(reordered)
        assert set(a.objects) == set(b.objects)
        la, lb = build_lattice(a), build_lattice(b)
        assert {(c.extent, frozenset(x.key for x in c.intent)) for c in la.concepts} == {
            (c.extent, frozenset(x.key for x in c.intent)) for c in lb.concepts
        }


def cell_build_context(records, cfg):
    """The context of ``build_context``, built as 0/1 cell lists from each
    record's set of attribute keys, through the public constructor."""
    attrs, attr_pos, memberships, ids = [], {}, [], []
    for r in records:
        found = [(c, *split_term(raw)) for c, raw in r.terms_by_category() if c in cfg.categories_included]
        for rule in cfg.field_rules:
            section = r.identification if rule.section == "identification" else r.availability
            if section.get(rule.fieldname) == rule.equals:
                found.append((rule.category(), None, rule.attribute_term))
        keys = set()
        for category, prefix, term in found:
            a = Attribute(term=term, prefix=prefix, category=category)
            if a.key not in attr_pos:
                attr_pos[a.key] = len(attrs)
                attrs.append(a)
            keys.add(a.key)
        if keys:
            memberships.append(keys)
            ids.append(r.id)
    return FormalContext(ids, attrs, [[int(a.key in keys) for a in attrs] for keys in memberships])


def random_records(rng):
    """Records over a small vocabulary: repeated, prefixed and empty-prefixed
    terms, a term under several categories, fields for the rules, and
    records often left with no term at all."""
    vocab = ["a", "b", "c", "NCBI:a", "NCBI:b", ":c", "X:d", "e"]

    def terms():
        return [rng.choice(vocab) for _ in range(rng.choice((0, 0, 1, 2, 4)))]

    return [
        MetadataRecord(
            id=f"R{i}",
            subjects=terms(),
            organisms=terms(),
            quality=terms(),
            identification={"freq": rng.choice(("daily", "monthly"))},
            availability={"licence": rng.choice(("open", "closed"))},
        )
        for i in range(rng.randint(0, 10))
    ]


RULES = (
    FieldRule("identification", "freq", "monthly", "monthly"),
    FieldRule("availability", "licence", "open", "a"),
    FieldRule("availability", "licence", "open", "open"),
)


class TestBuildContextMatchesCellLists:
    def test_random_corpora_every_category_subset(self):
        rng = random.Random(139)
        categories = ("Subject", "Organism", "Quality", "Identification")
        subsets = [
            frozenset(c for k, c in enumerate(categories) if n >> k & 1) for n in range(1, 1 << len(categories))
        ]
        for _ in range(150):
            records = random_records(rng)
            for included in subsets:
                cfg = BinarizationConfig(included, RULES[: rng.randint(0, len(RULES))])
                got, want = build_context(records, cfg), cell_build_context(records, cfg)
                assert got.objects == want.objects
                assert [(a.key, a.category) for a in got.attributes] == [
                    (a.key, a.category) for a in want.attributes
                ]
                assert (got._rows, got._cols) == (want._rows, want._cols)

    def test_record_named_query_is_refused(self):
        records = [MetadataRecord(id="S1", subjects=["a"]), MetadataRecord(id="Query", subjects=["a"])]
        with pytest.raises(ContextError, match="'Query' is reserved"):
            build_context(records)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"id": "S\ud800", "subjects": ["a"]}, r"object id 'S\\ud800' holds a lone surrogate"),
            ({"id": "S", "subjects": ["a\udc80"]}, r"attribute term 'a\\udc80' holds a lone surrogate"),
            ({"id": "S", "subjects": ["free:\udfff"]}, r"attribute term '\\udfff' holds a lone surrogate"),
        ],
        ids=["id", "term", "prefixed-term"],
    )
    def test_a_lone_surrogate_from_a_record_file_is_refused(self, doc, message):
        records = parse_records(json.dumps({"records": [doc, {"id": "T", "subjects": ["a"]}]}))
        with pytest.raises(ContextError, match=message):
            build_context(records)


class TestRoundTrip:
    def test_write_then_parse(self, corpus):
        text = write_records(corpus)
        again = parse_records(text)
        assert again == corpus
        assert write_records(again) == text

    def test_context_round_trip(self, corpus):
        again = parse_records(write_records(corpus))
        assert build_context(again) == build_context(corpus)


class TestValidateRecord:
    def test_clean_record(self, organisms):
        r = MetadataRecord(
            id="X",
            subjects=["genes"],
            organisms=["NCBI:Human"],
            quality=["reviewed"],
            ontologies_used=[],
        )
        # prefix checked against the passed ontologies, not the declarations
        findings = validate_record(r, [organisms])
        assert findings == []

    def test_unknown_ontology_term(self, organisms):
        r = MetadataRecord(id="X", subjects=["s"], organisms=["NCBI:Dog"], quality=["q"])
        findings = validate_record(r, [organisms])
        assert len(findings) == 1
        assert findings[0].level == "warning"
        assert "Dog" in findings[0].message

    def test_empty_categories(self, organisms):
        r = MetadataRecord(id="X")
        findings = validate_record(r, [organisms])
        assert [f.level for f in findings] == ["info", "info", "info"]

    def test_malformed_date(self, organisms):
        r = MetadataRecord(
            id="X",
            identification={"date_modified": "next tuesday"},
            subjects=["s"],
            organisms=["NCBI:Human"],
            quality=["q"],
        )
        findings = validate_record(r, [organisms])
        assert any("date" in f.message for f in findings if f.level == "warning")

    def test_alias_resolves(self, organisms):
        r = MetadataRecord(id="X", subjects=["s"], organisms=["NCBI:Hu"], quality=["q"])
        assert validate_record(r, [organisms]) == []


def random_record(rng, i):
    """A record document that mixes bare, declared, free and undeclared
    prefixes, with and without identification and availability maps."""
    terms = ["NS", "PS", "NCBI:Hu", "NCBI:Ch", "free:notes", "MESH:Gene", "a:b:c", "Q"]
    doc = {"id": f"S{i}"}
    for key in ("subjects", "organisms", "quality"):
        if rng.random() < 0.8:
            doc[key] = rng.sample(terms, rng.randint(0, 3))
    if rng.random() < 0.6:
        doc["identification"] = {"title": f"source {i} \u00e9", "date_modified": "2005-01-15"}
    if rng.random() < 0.4:
        doc["availability"] = {"access": "public"}
    prefixes = [p for p in ("NCBI", "MESH", "a") if rng.random() < 0.5]
    doc["ontologies_used"] = [{"prefix": p, "name": f"{p} terms", "version": "1"} for p in prefixes]
    for entry in doc["ontologies_used"]:
        # a field of any type, or none
        for key in ("name", "version", "location"):
            if rng.random() < 0.15:
                entry[key] = rng.choice(REF_VALUES)
            elif rng.random() < 0.15:
                entry.pop(key, None)
    return doc


#: Values ``random_record`` writes into the fields of an ``ontologies_used`` entry.
REF_VALUES = ("", "2.1", "../organisms.ont", 5, [1], None, {"a": 1}, True)


def hand_written_records(records):
    """``write_records`` as it was written before it read the record's fields:
    each key spelled out, for a check that the bytes stay the same."""
    doc = {
        "records": [
            {
                "id": r.id,
                "identification": r.identification,
                "subjects": r.subjects,
                "organisms": r.organisms,
                "quality": r.quality,
                "availability": r.availability,
                "ontologies_used": [
                    {
                        "prefix": ref.prefix,
                        "name": ref.name,
                        "version": ref.version,
                        "location": ref.location,
                    }
                    for ref in r.ontologies_used
                ],
            }
            for r in records
        ]
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestRecordFuzz:
    def test_only_package_errors_escape(self):
        rng = random.Random(97)
        fixture = [json.loads(f.read_text(encoding="utf-8")) for f in sorted((FIXTURES / "bioregistry8").glob("*.json"))]
        outcomes = collections.Counter()
        for n in range(800):
            records = fixture if n % 4 == 0 else [random_record(rng, i) for i in range(rng.randint(1, 5))]
            doc = json.loads(json.dumps({"records": records} if rng.random() < 0.8 else records))
            kinds = [edit_document(rng, doc) for _ in range(rng.choice((0, 1, 1, 2)))]
            text = json.dumps(doc)
            if rng.random() < 0.4:
                kind, text = mutate_text(rng, text)
                kinds.append(kind)
            try:
                parsed = parse_records(text)
                build_context(parsed)
            except FcaRegistryError as exc:
                outcomes["rejected"] += 1
                message = str(exc)
                outcomes["entry field refused"] += "'ontologies_used'" in message and "must be a string" in message
            else:
                # what is accepted writes back to the same records, in the same bytes
                written = write_records(parsed)
                assert written == hand_written_records(parsed), text
                assert parse_records(written) == parsed, text
                refs = [ref for r in parsed for ref in r.ontologies_used]
                assert all(isinstance(v, str) for ref in refs for v in vars(ref).values()), text
                outcomes["accepted"] += 1
                outcomes["accepted with an entry"] += bool(refs)
            outcomes.update(kinds)
        assert set(outcomes) >= {"junk", "delete", *TEXT_EDITS}, outcomes
        assert min(outcomes[k] for k in outcomes if k != "none") >= 20, outcomes
