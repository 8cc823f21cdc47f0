"""Metadata records for data sources and their binarization into a context.

Records follow a simplified structured schema: free-text identification and
availability maps, plus controlled-vocabulary term lists for the Subject,
Organism and Quality categories.  Terms may be prefixed ("NCBI:Human") to
name the ontology they come from.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .context import Attribute, FormalContext, _Record
from .errors import RegistryError
from .ontology import Ontology

#: Prefix allowed without an ontology declaration.
FREE_PREFIX = "free"

_DATE_SHAPE = re.compile(r"^\d{4}(-\d{2}(-\d{2}(T[0-9:.+\-Z]+)?)?)?$")


class OntologyRef(_Record):
    prefix: str
    name: str
    version: str = ""
    location: str = ""


class MetadataRecord(_Record):
    """One source's metadata; unlike the other records it may be changed in place."""

    id: str
    identification: dict[str, str]
    subjects: list[str]
    organisms: list[str]
    quality: list[str]
    availability: dict[str, str]
    ontologies_used: list[OntologyRef]

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        id: str,
        identification: dict[str, str] | None = None,
        subjects: list[str] | None = None,
        organisms: list[str] | None = None,
        quality: list[str] | None = None,
        availability: dict[str, str] | None = None,
        ontologies_used: list[OntologyRef] | None = None,
    ):
        """Each container left out is a new empty one, not shared with other records."""
        self.id = id
        self.identification = {} if identification is None else identification
        self.subjects = [] if subjects is None else subjects
        self.organisms = [] if organisms is None else organisms
        self.quality = [] if quality is None else quality
        self.availability = {} if availability is None else availability
        self.ontologies_used = [] if ontologies_used is None else ontologies_used

    def declared_prefixes(self) -> set[str]:
        return {ref.prefix for ref in self.ontologies_used} | {FREE_PREFIX}

    def terms_by_category(self) -> list[tuple[str, str]]:
        """(category, raw term) pairs in record order."""
        out = []
        out.extend(("Subject", t) for t in self.subjects)
        out.extend(("Organism", t) for t in self.organisms)
        out.extend(("Quality", t) for t in self.quality)
        return out


def split_term(raw: str) -> tuple[str | None, str]:
    """Split 'prefix:term' into its parts; bare terms have no prefix."""
    prefix, sep, term = raw.partition(":")
    if not sep:
        return None, raw
    return prefix, term


class FieldRule(_Record):
    """Binarize one identification/availability field by exact value match."""

    section: str  # "identification" or "availability"
    fieldname: str
    equals: str
    attribute_term: str

    def category(self) -> str:
        return "Identification" if self.section == "identification" else "Availability"


class BinarizationConfig(_Record):
    categories_included: frozenset[str] = frozenset({"Subject", "Organism", "Quality"})
    field_rules: tuple[FieldRule, ...] = ()


class Finding(_Record):
    level: str  # "warning" or "info"
    message: str


def _string_map(doc: dict, key: str, rid: str) -> dict[str, str]:
    value = doc.get(key, {})
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise RegistryError(f"record {rid!r}: {key!r} must be an object of strings")
    return dict(value)


def _term_list(doc: dict, key: str, rid: str) -> list[str]:
    """A term list as given; ``_record_from_doc`` checks that its items are strings."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise RegistryError(f"record {rid!r}: {key!r} must be a list of strings")
    return list(value)


def _record_from_doc(doc: dict) -> MetadataRecord:
    if not isinstance(doc, dict):
        raise RegistryError(f"record must be an object, got {type(doc).__name__}")
    rid = doc.get("id")
    if not rid or not isinstance(rid, str):
        raise RegistryError("record is missing a non-empty 'id'")
    refs_doc = doc.get("ontologies_used", [])
    if not isinstance(refs_doc, list):
        raise RegistryError(f"record {rid!r}: 'ontologies_used' must be a list")
    refs = []
    for ref in refs_doc:
        if not isinstance(ref, dict) or not isinstance(ref.get("prefix"), str):
            raise RegistryError(f"record {rid!r}: an 'ontologies_used' entry lacks a string 'prefix'")
        fields = {key: ref.get(key, "") for key in ("name", "version", "location")}
        for key, value in fields.items():
            if not isinstance(value, str):
                raise RegistryError(
                    f"record {rid!r}: an 'ontologies_used' {key!r} must be a string, got {value!r}"
                )
        refs.append(OntologyRef(prefix=ref["prefix"], **fields))
    record = MetadataRecord(
        id=rid,
        identification=_string_map(doc, "identification", rid),
        subjects=_term_list(doc, "subjects", rid),
        organisms=_term_list(doc, "organisms", rid),
        quality=_term_list(doc, "quality", rid),
        availability=_string_map(doc, "availability", rid),
        ontologies_used=refs,
    )
    declared = record.declared_prefixes()
    for category, raw in record.terms_by_category():
        if not isinstance(raw, str):
            raise RegistryError(f"record {rid!r}: {category} terms must be strings, got {raw!r}")
        prefix, term = split_term(raw)
        if prefix is not None and prefix not in declared:
            raise RegistryError(
                f"record {rid!r} uses undeclared ontology prefix: {prefix!r}"
            )
        if not term:
            raise RegistryError(f"record {rid!r} has an empty {category} term: {raw!r}")
    return record


def parse_records(text: str) -> list[MetadataRecord]:
    """Parse a JSON corpus document: {"records": [...]} or a bare record list."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RegistryError(f"malformed record document: {exc}") from exc
    if isinstance(doc, dict) and "records" in doc:
        items = doc["records"]
    elif isinstance(doc, list):
        items = doc
    elif isinstance(doc, dict) and "id" in doc:
        items = [doc]
    else:
        raise RegistryError("record document must hold a record or a record list")
    if not isinstance(items, list):
        raise RegistryError("'records' must be a list of records")
    return _unique([_record_from_doc(item) for item in items])


def _unique(records: list[MetadataRecord]) -> list[MetadataRecord]:
    seen = set()
    for r in records:
        if r.id in seen:
            raise RegistryError(f"duplicate record id: {r.id!r}")
        seen.add(r.id)
    return records


def _read_records(path: Path) -> list[MetadataRecord]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise RegistryError(f"cannot read record file {str(path)!r}: {exc}") from exc
    return parse_records(text)


def load_records(path: str | Path) -> list[MetadataRecord]:
    """Load a corpus from one document file or a directory of per-source files."""
    path = Path(path)
    if path.is_dir():
        return _unique([r for entry in sorted(path.glob("*.json")) for r in _read_records(entry)])
    return _read_records(path)


def write_records(records: list[MetadataRecord]) -> str:
    """Emit a corpus document; parse_records round-trips it exactly."""
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


def build_context(
    records: list[MetadataRecord], cfg: BinarizationConfig | None = None
) -> FormalContext:
    """One object per record with terms left, one attribute per distinct term.

    Attributes are keyed by (prefix, term), in first-occurrence order: a
    term listed under several categories is one attribute, with the category
    it first appears under.  Records with no retained attribute are dropped,
    mirroring the category-projection view.  Identification and availability
    fields only binarize through explicit rules.
    """
    cfg = cfg or BinarizationConfig()
    if not cfg.categories_included:
        raise RegistryError("at least one category must be included")
    attrs: list[Attribute] = []
    attr_pos: dict[tuple[str, str], int] = {}

    def bit(prefix: str | None, term: str, category: str) -> int:
        """The attribute's bit, interning it at its first occurrence."""
        j = attr_pos.get((prefix or "", term))
        if j is None:
            a = Attribute(term=term, prefix=prefix, category=category)
            j = attr_pos[a.key] = len(attrs)
            attrs.append(a)
        return 1 << j

    ids: list[str] = []
    rows: list[int] = []
    for r in records:
        row = 0
        for category, raw in r.terms_by_category():
            if category in cfg.categories_included:
                row |= bit(*split_term(raw), category)
        for rule in cfg.field_rules:
            section = r.identification if rule.section == "identification" else r.availability
            if section.get(rule.fieldname) == rule.equals:
                row |= bit(None, rule.attribute_term, rule.category())
        if row:
            ids.append(r.id)
            rows.append(row)
    return FormalContext._from_rows(ids, attrs, rows)


def validate_record(record: MetadataRecord, onts: list[Ontology]) -> list[Finding]:
    """Advisory findings: unknown vocabulary terms, empty categories, odd dates."""
    findings: list[Finding] = []
    by_prefix = {o.prefix: o for o in onts}
    for category, raw in record.terms_by_category():
        prefix, term = split_term(raw)
        if prefix is None or prefix == FREE_PREFIX:
            continue
        ont = by_prefix.get(prefix)
        if ont is not None and ont.resolve(term) is None:
            findings.append(
                Finding("warning", f"{category} term {raw!r} not found in ontology {prefix!r}")
            )
    for category, values in (
        ("subjects", record.subjects),
        ("organisms", record.organisms),
        ("quality", record.quality),
    ):
        if not values:
            findings.append(Finding("info", f"record {record.id!r} has no {category} terms"))
    for name, value in sorted(record.identification.items()):
        if "date" in name.lower() and not _DATE_SHAPE.match(value):
            findings.append(
                Finding("warning", f"identification field {name!r} is not a W3CDTF-shaped date: {value!r}")
            )
    return findings
