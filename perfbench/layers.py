"""Where a traced run wraps the program, and the per-layer metrics it derives.

Each site is (owner, attribute, span name, observer).  The owner is the
module or class through which the caller looks the function up, so
``insert_query`` is traced through ``fcaregistry.retrieval.insert_object``
and the CLI through ``fcaregistry.cli.search``.
"""

from __future__ import annotations

import statistics

from fcaregistry import cli, context, lattice, ontology, registry, retrieval


def _context_counts(ctx) -> dict:
    cells = len(ctx.objects) * len(ctx.attributes)
    ones = sum(len(ctx.intent_of(g)) for g in ctx.objects)
    return {
        "context.objects": len(ctx.objects),
        "context.attributes": len(ctx.attributes),
        "context.density": ones / cells if cells else 0.0,
    }


def _lattice_counts(lat) -> dict:
    return {"lattice.concepts": len(lat.concepts), "lattice.covers": len(lat.covers)}


def _loaded(args, lat) -> dict:
    return _lattice_counts(lat) | _context_counts(lat.context) | {
        "lattice.json_bytes": len(args[0].encode("utf-8"))
    }


def _query_concepts(args, result) -> dict:
    augmented, concept = result
    upset = sum(1 for c in augmented.concepts if c.extent >= concept.extent)
    return {"retrieval.augmented_concepts": len(augmented.concepts), "retrieval.upset_concepts": upset}


OBSERVERS = {
    "registry.load_records": lambda args, res: {"registry.records": len(res)},
    "registry.build_context": lambda args, res: _context_counts(res),
    "lattice.build_lattice": lambda args, res: _lattice_counts(res),
    "lattice.lattice_to_json": lambda args, res: {"lattice.json_bytes": len(res.encode("utf-8"))},
    "lattice.lattice_from_json": _loaded,
    "ontology.load_ontology": lambda args, res: {"ontology.terms": len(res.terms)},
    "ontology.refine": lambda args, res: {"ontology.added_terms": len(res[1].added)},
    "retrieval.insert_query": _query_concepts,
    "retrieval.search": lambda args, res: {"retrieval.results": len(res.results)},
}

REFINERS = ("refine_generalize", "refine_specialize", "refine_both")

# (owners that hold the name, attribute, span name)
_SITES = [
    ((registry, cli), "load_records", "registry.load_records"),
    ((registry, cli), "build_context", "registry.build_context"),
    ((context.FormalContext,), "add_object", "context.FormalContext.add_object"),
    ((lattice, cli), "build_lattice", "lattice.build_lattice"),
    ((lattice, retrieval), "insert_object", "lattice.insert_object"),
    ((lattice, cli), "lattice_to_json", "lattice.lattice_to_json"),
    ((lattice, cli), "lattice_from_json", "lattice.lattice_from_json"),
    ((ontology, cli), "load_ontology", "ontology.load_ontology"),
    *(((ontology, retrieval), name, f"ontology.{name}") for name in REFINERS),
    ((ontology.Ontology,), "term_distance", "ontology.Ontology.term_distance"),
    ((retrieval,), "insert_query", "retrieval.insert_query"),
    ((retrieval, cli), "search", "retrieval.search"),
    ((retrieval, cli), "search_refined", "retrieval.search_refined"),
    ((retrieval, cli), "result_set_to_json", "retrieval.result_set_to_json"),
    ((cli,), "main", "cli.main"),
]


def sites() -> list[tuple]:
    out = []
    for owners, attr, name in _SITES:
        observer = OBSERVERS.get("ontology.refine" if attr in REFINERS else name)
        out.extend((owner, attr, name, observer) for owner in owners)
    return out


# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "registry.load_records_ms": ("ms", "lower"),
    "registry.build_context_ms": ("ms", "lower"),
    "registry.records": ("count", "lower"),
    "context.objects": ("count", "lower"),
    "context.attributes": ("count", "lower"),
    "context.density": ("ratio", "lower"),
    "context.add_object_ms": ("ms", "lower"),
    "lattice.build_ms": ("ms", "lower"),
    "lattice.concepts": ("count", "lower"),
    "lattice.covers": ("count", "lower"),
    "lattice.us_per_concept": ("us", "lower"),
    "lattice.insert_object_ms": ("ms", "lower"),
    "lattice.to_json_ms": ("ms", "lower"),
    "lattice.json_bytes": ("B", "lower"),
    "lattice.from_json_ms": ("ms", "lower"),
    "ontology.load_ms": ("ms", "lower"),
    "ontology.terms": ("count", "lower"),
    "ontology.refine_ms": ("ms", "lower"),
    "ontology.added_terms": ("count", "lower"),
    "ontology.term_distance_calls": ("count", "lower"),
    "ontology.term_distance_ms": ("ms", "lower"),
    "retrieval.insert_query_ms": ("ms", "lower"),
    "retrieval.search_self_ms": ("ms", "lower"),
    "retrieval.refined_self_ms": ("ms", "lower"),
    "retrieval.results": ("count", "lower"),
    "retrieval.result_json_ms": ("ms", "lower"),
    "retrieval.augmented_concepts": ("count", "lower"),
    "retrieval.upset_concepts": ("count", "lower"),
    "retrieval.upset_ratio": ("ratio", "higher"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

REFINED_OPS = ("refined", "cli.refine")


def per_layer(tr, cli_probe: dict | None, overhead_pct: float) -> dict:
    """Every per-layer metric; 0 where the workload does not reach the layer.

    ``*_ms`` is the median, over the operations that called the function,
    of the inclusive time spent in it during one operation; ``*_self_ms``
    the same for self time.  Counts are medians over calls, except the
    per-query counts of the retrieval and ontology layers, which are means.
    Refinement time and distance calls and time are means per refined
    query: most refined queries do little of either, and a few do most.
    """
    mean = statistics.mean
    m = {
        "registry.load_records_ms": tr.per_op_ms(("registry.load_records",)),
        "registry.build_context_ms": tr.per_op_ms(("registry.build_context",)),
        "registry.records": tr.counter("registry.records"),
        "context.objects": tr.counter("context.objects"),
        "context.attributes": tr.counter("context.attributes"),
        "context.density": tr.counter("context.density"),
        "context.add_object_ms": tr.per_op_ms(("context.FormalContext.add_object",)),
        "lattice.build_ms": tr.per_op_ms(("lattice.build_lattice",)),
        "lattice.concepts": tr.counter("lattice.concepts"),
        "lattice.covers": tr.counter("lattice.covers"),
        "lattice.insert_object_ms": tr.per_op_ms(("lattice.insert_object",)),
        "lattice.to_json_ms": tr.per_op_ms(("lattice.lattice_to_json",)),
        "lattice.json_bytes": tr.counter("lattice.json_bytes"),
        "lattice.from_json_ms": tr.per_op_ms(("lattice.lattice_from_json",)),
        "ontology.load_ms": tr.per_op_ms(("ontology.load_ontology",)),
        "ontology.terms": tr.counter("ontology.terms"),
        "ontology.refine_ms": sum(tr.mean_per_op_ms(f"ontology.{n}", REFINED_OPS) for n in REFINERS),
        "ontology.added_terms": tr.counter("ontology.added_terms", mean),
        "ontology.term_distance_calls": tr.calls_per_op("ontology.Ontology.term_distance", REFINED_OPS),
        "ontology.term_distance_ms": tr.mean_per_op_ms("ontology.Ontology.term_distance", REFINED_OPS),
        "retrieval.insert_query_ms": tr.per_op_ms(("retrieval.insert_query",)),
        "retrieval.search_self_ms": tr.per_op_ms(("retrieval.search",), own=True),
        "retrieval.refined_self_ms": tr.per_op_ms(("retrieval.search_refined",), own=True),
        "retrieval.results": tr.counter("retrieval.results", mean),
        "retrieval.result_json_ms": tr.per_op_ms(("retrieval.result_set_to_json",)),
        "retrieval.augmented_concepts": tr.counter("retrieval.augmented_concepts", mean),
        "retrieval.upset_concepts": tr.counter("retrieval.upset_concepts", mean),
        "cli.main_self_ms": tr.per_op_ms(("cli.main",), own=True),
        "trace.overhead_pct": overhead_pct,
    }
    concepts = m["lattice.concepts"]
    m["lattice.us_per_concept"] = m["lattice.build_ms"] * 1e3 / concepts if m["lattice.build_ms"] else 0.0
    augmented = tr.counter("retrieval.augmented_concepts", sum)
    m["retrieval.upset_ratio"] = tr.counter("retrieval.upset_concepts", sum) / augmented if augmented else 0.0
    probe = cli_probe or {}
    m["cli.interpreter_ms"] = statistics.median(probe["interpreter_ms"]) if probe else 0.0
    m["cli.import_ms"] = statistics.median(probe["import_ms"]) if probe else 0.0
    return {name: m[name] for name in PER_LAYER}
