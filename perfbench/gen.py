"""Seeded input generator for the fcaregistry benchmark.

Every input a workload hands to the program is made here from a seed and
written to files: record corpora, the deep organism ontology and the query
streams.  The same (workload, seed, size) always gives the same bytes.

Corpora grow one record at a time until their lattice reaches a target
concept count (counted here with plain bitset intersections, without the
program), so the cost of a workload depends on the seed only through which
terms appear, not through how big the lattice happens to come out.

Run on its own:

    python3 perfbench/gen.py --workload refine --seed 1 --out /tmp/refine-1
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("search", "refine", "ingest", "cli")

PREFIX = "NCBI"

# Shapes per size.  Every count here is fixed; seeds only choose names,
# popularity order, extra ontology parents and which terms records carry.
SIZES = {
    "full": {
        "search": {"concepts": 1050, "subjects": 40, "organisms": 40, "quality": 20, "queries": 24},
        "refine": {"concepts": 550, "subjects": 30, "quality": 12},
        "ingest": {"concepts": 1340, "subjects": 45, "organisms": 45, "quality": 20, "extra": 12},
        "cli": {"concepts": 550, "subjects": 30, "quality": 12, "queries": 10},
        "ontology": {"branching": 5, "depth": 6, "extra_parents": 400},
    },
    "smoke": {
        "search": {"concepts": 60, "subjects": 10, "organisms": 8, "quality": 5, "queries": 6},
        "refine": {"concepts": 50, "subjects": 8, "quality": 4},
        "ingest": {"concepts": 70, "subjects": 10, "organisms": 8, "quality": 5, "extra": 3},
        "cli": {"concepts": 50, "subjects": 8, "quality": 4, "queries": 2},
        "ontology": {"branching": 3, "depth": 6, "extra_parents": 20},
    },
}

ZIPF_EXPONENT = 1.1
# Terms per record in each category: (smallest, largest).
PER_RECORD = {"subjects": (1, 3), "organisms": (1, 3), "quality": (1, 2)}
ALIAS_SHARE = 0.35  # ontology terms that carry an alias
ALIAS_SPELLING = 0.3  # record mentions of such a term spelled by alias
UNKNOWN_SHARE = 0.25  # plain queries carrying a term the registry lacks


def zipf_weights(n: int) -> list[float]:
    return [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(n)]


def pick_distinct(rng: random.Random, terms: list[str], weights: list[float], k: int) -> list[str]:
    k = min(k, len(terms))
    out: list[str] = []
    while len(out) < k:
        t = rng.choices(terms, weights)[0]
        if t not in out:
            out.append(t)
    return out


class ConceptCounter:
    """Concept count of a growing context: every intersection of rows, plus M."""

    def __init__(self) -> None:
        self.bits: dict[str, int] = {}
        self.intents: set[int] = set()
        self.full = 0

    def add(self, terms: list[str]) -> int:
        row = 0
        for t in terms:
            row |= 1 << self.bits.setdefault(t, len(self.bits))
        self.intents |= {y & row for y in self.intents}
        self.intents.add(row)
        self.full |= row
        return len(self.intents | {self.full})


# -- ontology ---------------------------------------------------------------


def make_ontology(rng: random.Random, shape: dict) -> dict:
    """A complete tree of fixed branching and depth, plus extra parent edges.

    Returns the document for ``load_ontology`` together with each term's
    depth and tree children, which the corpus and query generators use.
    """
    b, depth = shape["branching"], shape["depth"]
    levels: list[list[int]] = [[0]]
    children: dict[int, list[int]] = {0: []}
    parent: dict[int, int] = {}
    n = 1
    for _ in range(depth):
        level = []
        for p in levels[-1]:
            for _ in range(b):
                children[p].append(n)
                children[n] = []
                parent[n] = p
                level.append(n)
                n += 1
        levels.append(level)
    labels = list(range(1, n))
    rng.shuffle(labels)
    name = {0: "Organism"} | {i: f"T{labels[i - 1]:05d}" for i in range(1, n)}
    edges = [(name[parent[i]], name[i]) for i in range(1, n)]
    extra = set()
    while len(extra) < shape["extra_parents"]:
        d = rng.randrange(2, depth + 1)
        child = rng.choice(levels[d])
        other = rng.choice(levels[d - 1])
        if other != parent[child]:
            extra.add((name[other], name[child]))
    edges.extend(sorted(extra))
    aliases = {
        name[i]: f"A{labels[i - 1]:05d}" for i in range(1, n) if rng.random() < ALIAS_SHARE
    }
    return {
        "doc": {"prefix": PREFIX, "root": name[0], "edges": [list(e) for e in edges], "aliases": aliases},
        "levels": [[name[i] for i in level] for level in levels],
        "children": {name[i]: [name[c] for c in cs] for i, cs in children.items()},
        "parent": {name[i]: name[p] for i, p in parent.items()},
    }


def organism_chains(rng: random.Random, ont: dict) -> list[list[str]]:
    """Vocabulary chains, one under each depth-1 term so that no two share a subtree.

    A chain is a depth-2 head, one descendant on each level below it and
    three leaves at the end.
    """
    chains = []
    for top in ont["levels"][1]:
        head = rng.choice(ont["children"][top])
        chain = [head]
        node = head
        while ont["children"][ont["children"][node][0]]:
            node = rng.choice(ont["children"][node])
            chain.append(node)
        chain.extend(rng.sample(ont["children"][node], 3))
        chains.append(chain)
    return chains


# -- records ----------------------------------------------------------------


def make_records(
    rng: random.Random, vocab: dict, target: int, spell, ranked: tuple[str, ...] = ()
) -> tuple[list[dict], int]:
    """Draw records until the lattice would have ``target`` concepts.

    Popularity follows a Zipf law over each category's terms in a seeded
    order, or in the given order for the ``ranked`` categories.
    """
    popularity = {}
    for cat, terms in vocab.items():
        terms = list(terms)
        if cat not in ranked:
            rng.shuffle(terms)
        popularity[cat] = (terms, zipf_weights(len(terms)))
    counter = ConceptCounter()
    records: list[dict] = []
    count = 0
    while count < target:
        doc = {"id": f"R{len(records):04d}", "identification": {"title": f"source {len(records)}"}}
        binary = []
        for cat, (terms, weights) in popularity.items():
            lo, hi = PER_RECORD[cat]
            picked = [spell(cat, t) for t in pick_distinct(rng, terms, weights, rng.randint(lo, hi))]
            doc[cat] = picked
            binary.extend(picked)
        doc["ontologies_used"] = [{"prefix": PREFIX, "name": "generated organisms"}]
        records.append(doc)
        count = counter.add(binary)
    return records, count


def plain_vocab(size: dict) -> dict:
    return {
        "subjects": [f"S{i:03d}" for i in range(size["subjects"])],
        "organisms": [f"O{i:03d}" for i in range(size["organisms"])],
        "quality": [f"Q{i:02d}" for i in range(size["quality"])],
    }


def plain_spell(rng: random.Random):
    def spell(cat: str, term: str) -> str:
        if cat != "organisms":
            return term
        if rng.random() < ALIAS_SPELLING and int(term[1:]) % 3 == 0:
            return f"{PREFIX}:o{term[1:]}"
        return f"{PREFIX}:{term}"

    return spell


def ontology_spell(rng: random.Random, aliases: dict):
    def spell(cat: str, term: str) -> str:
        if cat != "organisms":
            return term
        if term in aliases and rng.random() < ALIAS_SPELLING:
            return f"{PREFIX}:{aliases[term]}"
        return f"{PREFIX}:{term}"

    return spell


# -- query streams ------------------------------------------------------------


def plain_queries(rng: random.Random, records: list[dict], n: int) -> list[list[str]]:
    """1-4 terms each, alternating between the most popular fifth of the terms and the rest."""
    counts: dict[str, int] = {}
    for r in records:
        for cat in ("subjects", "organisms", "quality"):
            for t in r[cat]:
                counts[t] = counts.get(t, 0) + 1
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    cut = max(1, len(ranked) // 5)
    head, tail = ranked[:cut], ranked[cut:] or ranked
    queries = []
    for i in range(n):
        k = 1 + i % 4
        terms: list[str] = []
        while len(terms) < k:
            t = rng.choice(head if len(terms) % 2 == 0 else tail)
            if t not in terms:
                terms.append(t)
        if rng.random() < UNKNOWN_SHARE:
            terms[-1] = f"U{rng.randrange(1000):03d}"
        queries.append(terms)
    return queries


# Chain positions from most to least popular: leaves and heads lead, so the
# k-th most popular organism sits at the same depth for every seed.
POPULARITY_ORDER = (4, 0, 5, 2, 1, 6, 3)

# (mode, hops, chain position); position -1 is the depth-1 parent of the
# chain's head, 0 the depth-2 head, 4 and 5 leaves.
REFINED_KINDS = [
    ("specialize", None, -1),
    ("specialize", 2, 0),
    ("both", None, 0),
    ("both", 2, -1),
    ("generalize", None, 4),
    ("generalize", 2, 5),
]


def refined_queries(ont: dict, chains: list[list[str]], n: int | None = None) -> list[dict]:
    """High-level terms under specialize and both, leaves under generalize.

    Without ``n`` the stream holds every kind once for every chain, so every
    pass has the same mix of ontology levels and hop bounds for any seed;
    with ``n`` it takes the kinds in rotation over the chains.
    """
    pairs = [(k, c) for k in REFINED_KINDS for c in chains]
    if n is not None:
        pairs = [(REFINED_KINDS[i % len(REFINED_KINDS)], chains[i % len(chains)]) for i in range(n)]
    queries = []
    for (mode, hops, pos), chain in pairs:
        term = ont["parent"][chain[0]] if pos < 0 else chain[pos]
        queries.append({"terms": [f"{PREFIX}:{term}"], "mode": mode, "hops": hops})
    return queries


# -- workloads ----------------------------------------------------------------


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write one workload's inputs under ``out`` and return its manifest."""
    shapes = SIZES[size]
    shape = shapes[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "size": size}
    if workload in ("search", "ingest"):
        vocab, spell = plain_vocab(shape), plain_spell(rng)
        records, concepts = make_records(rng, vocab, shape["concepts"], spell)
        manifest["records"] = len(records)
        manifest["concepts"] = concepts
        if workload == "search":
            write_json(out / "corpus.json", {"records": records})
            manifest["queries"] = plain_queries(rng, records, shape["queries"])
        else:
            corpus = out / "corpus"
            corpus.mkdir(exist_ok=True)
            for r in records:
                write_json(corpus / f"{r['id']}.json", r)
            extra = []
            for i in range(shape["extra"]):
                doc = {"id": f"N{i:03d}"}
                for cat, terms in vocab.items():
                    lo, hi = PER_RECORD[cat]
                    doc[cat] = [spell(cat, t) for t in rng.sample(terms, rng.randint(lo, hi))]
                doc["ontologies_used"] = [{"prefix": PREFIX, "name": "generated organisms"}]
                extra.append(doc)
            write_json(out / "new_sources.json", {"records": extra})
            manifest["new_sources"] = len(extra)
    else:
        ont = make_ontology(rng, shapes["ontology"])
        write_json(out / "ontology.json", ont["doc"])
        chains = organism_chains(rng, ont)
        vocab = {
            "subjects": [f"S{i:03d}" for i in range(shape["subjects"])],
            "organisms": [chain[pos] for pos in POPULARITY_ORDER for chain in chains],
            "quality": [f"Q{i:02d}" for i in range(shape["quality"])],
        }
        spell = ontology_spell(rng, ont["doc"]["aliases"])
        records, concepts = make_records(rng, vocab, shape["concepts"], spell, ranked=("organisms",))
        write_json(out / "corpus.json", {"records": records})
        manifest["records"] = len(records)
        manifest["concepts"] = concepts
        manifest["ontology_terms"] = sum(len(level) for level in ont["levels"])
        if workload == "refine":
            manifest["refined"] = refined_queries(ont, chains)
        else:
            manifest["queries"] = plain_queries(rng, records, shape["queries"])
            manifest["refined"] = refined_queries(ont, chains, len(REFINED_KINDS))
    write_json(out / "manifest.json", manifest)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, Path(args.out), args.size)
    print(json.dumps({k: v for k, v in manifest.items() if not isinstance(v, list)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
