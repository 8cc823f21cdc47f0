"""Command-line surface: build, query, classify, export-dot, stats.

Exit codes: 0 on success (an empty result is an answer), 1 on data or
runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .context import CATEGORIES, Attribute, Query, context_from_csv, split_term
from .errors import ContextError, FcaRegistryError, RegistryError
from .lattice import ConceptLattice, build_lattice, export_dot, lattice_from_json, lattice_to_json
from .ontology import _resolvable, load_ontology
from .registry import _read_text, build_context, load_records
from .retrieval import result_set_to_json, result_set_to_table, search, search_refined


class UsageError(Exception):
    pass


def _load_lattice(path: str) -> ConceptLattice:
    return lattice_from_json(_read_text(path, "lattice"))


def _load_context(path: str):
    return context_from_csv(_read_text(path, "context"))


def _resolve_terms(ctx, names: list[str]) -> list[Attribute]:
    """Map CLI names to context attributes.  A name that spells an attribute
    names it; any other name matches the attributes with that term, ignoring
    their prefix, and must match at most one."""
    terms = []
    for name in names:
        prefix, term = split_term(name)
        exact = ctx._attr_index.get((prefix or "", term))
        if exact is not None:
            matches = [ctx.attributes[exact]]
        else:
            matches = [a for a in ctx.attributes if a.term == name]
        if len(matches) > 1:
            raise UsageError(
                f"ambiguous term {name!r}; candidates: " + ", ".join(str(a) for a in matches)
            )
        if matches:
            terms.append(matches[0])
        elif not term:
            raise UsageError(f"no term after the prefix in {name!r}")
        else:
            try:
                terms.append(Attribute(term=term, prefix=prefix))
            except ContextError as exc:  # such as a name that is not valid UTF-8
                raise UsageError(str(exc)) from exc
    return terms


def _count(n: int, noun: str) -> str:
    """``n`` and the noun, plural unless ``n`` is 1."""
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _save_lattice(ctx, out: str) -> int:
    """Build the lattice of ``ctx``, write it to ``out`` and print its counts."""
    lat = build_lattice(ctx)
    try:
        Path(out).write_text(lattice_to_json(lat), encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise RegistryError(f"cannot write lattice file {out!r}: {exc}") from exc
    print(
        f"{_count(len(ctx.objects), 'object')}, {_count(len(ctx.attributes), 'attribute')}, "
        f"{_count(len(lat._intents), 'concept')}"
    )
    return 0


def _cmd_build(args) -> int:
    if bool(args.records) == bool(args.context):
        raise UsageError("give exactly one of --records or --context")
    if args.records:
        ctx = build_context(load_records(args.records))
    else:
        ctx = _load_context(args.context)
    return _save_lattice(ctx, args.out)


def _auto_mode(ont, terms: list[Attribute]) -> str:
    modes = set()
    for t in terms:
        node = _resolvable(ont, t)
        if node is None:
            continue
        if ont.is_leaf(node):
            modes.add("generalize")
        elif ont.is_root(node):
            modes.add("specialize")
        else:
            raise UsageError(
                f"term {t.term!r} is neither a leaf nor the root; "
                "pick --refine generalize|specialize|both explicitly"
            )
    if len(modes) > 1:
        raise UsageError("mixed leaf/root terms; pick a refinement mode explicitly")
    if not modes:
        raise UsageError("no query term is in the ontology; refinement cannot apply")
    return modes.pop()


def _cmd_query(args) -> int:
    names = [n.strip() for n in args.terms.split(",") if n.strip()]
    if not names:
        raise UsageError("--terms must list at least one term")
    if args.refine and not args.ontology:
        raise UsageError("--refine requires --ontology")
    if args.ontology and not args.refine:
        raise UsageError("--ontology requires --refine")
    if args.hops is not None and not args.refine:
        raise UsageError("--hops requires --refine")
    if args.hops is not None and args.hops < 0:
        raise UsageError("--hops must be non-negative")
    lat = _load_lattice(args.lattice)
    terms = _resolve_terms(lat.context, names)
    q = Query(terms=frozenset(terms))
    if args.refine:
        ont = load_ontology(_read_text(args.ontology, "ontology"))
        mode = _auto_mode(ont, terms) if args.refine == "auto" else args.refine
        rs = search_refined(lat, q, ont, mode, args.hops)
    else:
        rs = search(lat, q)
    if args.format == "machine":
        sys.stdout.write(result_set_to_json(rs))
    else:
        sys.stdout.write(result_set_to_table(rs))
    return 0


def _cmd_classify(args) -> int:
    if bool(args.lattice) == bool(args.context):
        raise UsageError("give exactly one of --lattice or --context")
    if bool(args.category) == bool(args.attribute):
        raise UsageError("give exactly one of --category or --attribute")
    ctx = _load_lattice(args.lattice).context if args.lattice else _load_context(args.context)
    if args.category:
        projected = ctx.project_by_category(args.category)
    else:
        attr = _resolve_terms(ctx, [args.attribute])[0]
        if not ctx.has_attribute(attr):
            raise FcaRegistryError(f"unknown attribute: {args.attribute!r}")
        projected = ctx.select_by_attribute(attr)
    return _save_lattice(projected, args.out)


def _cmd_export_dot(args) -> int:
    lat = _load_lattice(args.lattice)
    sys.stdout.write(export_dot(lat, reduced_labels=args.reduced))
    return 0


def _cmd_stats(args) -> int:
    lat = _load_lattice(args.lattice)
    ctx = lat.context
    cells = len(ctx.objects) * len(ctx.attributes)
    ones = sum(row.bit_count() for row in ctx._rows)
    density = ones / cells if cells else 0.0
    print(
        f"{_count(len(lat._intents), 'concept')}, height {lat.height()}, "
        f"{_count(len(ctx.objects), 'object')}, {_count(len(ctx.attributes), 'attribute')}, "
        f"density {density:.3f}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcaregistry",
        description="Organize metadata-described data sources into a concept lattice "
        "and answer ranked source-discovery queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a lattice from records or a context CSV")
    p.add_argument("--records", help="record corpus file or directory")
    p.add_argument("--context", help="cross-table CSV file")
    p.add_argument("--out", required=True, help="lattice output file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="ranked source search against a saved lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--terms", required=True, help="comma-separated term list")
    p.add_argument("--refine", choices=["generalize", "specialize", "both", "auto"])
    p.add_argument("--hops", type=int, default=None, help="refinement hop bound (default unlimited)")
    p.add_argument("--ontology", help="ontology file for refinement")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("classify", help="build the lattice of a projected context view")
    p.add_argument("--lattice")
    p.add_argument("--context")
    p.add_argument("--category", choices=list(CATEGORIES))
    p.add_argument("--attribute")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("export-dot", help="print the Hasse diagram as DOT")
    p.add_argument("--lattice", required=True)
    p.add_argument("--reduced", action="store_true", help="label introducer concepts only")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("stats", help="print lattice size, height and density")
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FcaRegistryError, OSError) as exc:  # OSError: a write to stdout that fails
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
