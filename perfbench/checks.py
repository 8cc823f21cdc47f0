"""Output checks: invariants that hold for any seed, and golden digests.

Every check returns a list of problems; an empty list means the output is
correct.  Checks read the program's output bytes where there are any, so a
wrong rendering fails as surely as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import random
import re


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical_listing(lat) -> str:
    """Concepts and covers through the public API, in a file-format-free order."""

    def key(c):
        return (tuple(sorted(c.extent)), tuple(sorted(str(a) for a in c.intent)))

    lines = [f"C {list(k[0])} {list(k[1])}" for k in sorted(key(c) for c in lat.concepts)]
    covers = sorted((key(child), key(parent)) for child, parent in lat.cover_concepts())
    lines.extend(f"E {list(c[1])} < {list(p[1])}" for c, p in covers)
    return "\n".join(lines) + "\n"


class ContextView:
    """Each object's attributes as strings, for checking result documents."""

    def __init__(self, ctx) -> None:
        self.intents = {g: {str(a) for a in ctx.intent_of(g)} for g in ctx.objects}
        self.attributes = {str(a) for a in ctx.attributes}


def check_result_json(text: str, view: ContextView) -> list[str]:
    """Soundness, completeness and rank order of one result document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"result is not JSON: {exc}"]
    query = set(doc["query"]["terms"])
    known = query & view.attributes
    problems = []
    expected = {g for g, intent in view.intents.items() if intent & known}
    returned = [r["source"] for r in doc["results"]]
    if len(set(returned)) != len(returned):
        problems.append("a source is returned twice")
    if set(returned) != expected:
        missing = sorted(expected - set(returned))[:3]
        extra = sorted(set(returned) - expected)[:3]
        problems.append(f"result set differs: missing {missing}, unexpected {extra}")
    ranks = [r["rank"] for r in doc["results"]]
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        problems.append("ranks decrease")
    for r in doc["results"]:
        if r["source"] not in view.intents:
            continue
        shared = sorted(view.intents[r["source"]] & query)
        if not shared:
            problems.append(f"{r['source']} shares no query term")
        elif r["shared"] != shared:
            problems.append(f"{r['source']} reports shared {r['shared']}, has {shared}")
    return problems


def check_closed(lat, rng: random.Random, sample: int = 8) -> list[str]:
    """A sample of concepts must be closed: extent' = intent and intent' = extent."""
    ctx = lat.context
    problems = []
    concepts = lat.concepts
    for c in rng.sample(concepts, min(sample, len(concepts))):
        if set(ctx.derive_objects(c.extent)) != set(c.intent):
            problems.append(f"intent of {sorted(c.extent)[:3]}... is not closed")
        if set(ctx.derive_attributes(c.intent)) != set(c.extent):
            problems.append(f"extent of {sorted(str(a) for a in c.intent)[:3]}... is not closed")
    if set(lat.top.extent) != set(ctx.objects):
        problems.append("top concept does not hold every object")
    return problems


def check_inserted(before, after, obj: str, rng: random.Random) -> list[str]:
    problems = check_closed(after, rng)
    if not after.context.has_object(obj):
        return problems + [f"{obj} missing from the grown context"]
    concept = after.concept_with_intent(after.context.intent_of(obj))
    if concept is None or obj not in concept.extent:
        problems.append(f"no object concept for {obj}")
    if len(after.concepts) < len(before.concepts):
        problems.append("insertion lost concepts")
    return problems


_COUNTS = re.compile(r"(\d+) concepts?\b")


def concept_count(text: str) -> int | None:
    m = _COUNTS.search(text)
    return int(m.group(1)) if m else None


class Golden:
    """Digests recorded for the default seed.

    With ``stored`` every output is compared against it; without, outputs
    are only digested (other seeds, or while recording).
    """

    def __init__(self, stored: dict | None) -> None:
        self.stored = stored
        self.seen: dict[str, str] = {}
        self.compared = 0

    def check(self, key: str, text: str) -> list[str]:
        d = digest(text)
        self.seen[key] = d
        if self.stored is None:
            return []
        self.compared += 1
        if key not in self.stored:
            return [f"no golden digest for {key}"]
        if self.stored[key] != d:
            return [f"golden digest of {key} differs"]
        return []
