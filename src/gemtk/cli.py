"""Command-line front end.

Subcommands: ``types`` (census for a given Euler characteristic), ``verify``
(validation plus dimension-appropriate manifold checks and all embeddings,
up to 8 colors),
``embed`` (face tracing for one or all cyclic orders), ``homology``,
``search`` (exhaustive or budgeted rediscovery of gems by face-size
sequence), ``canon`` (canonical code).

Exit codes: 0 success, 1 verification failure or inconclusive search,
2 usage, syntax or file errors (an unwritable ``search --out`` too).
Output is plain text (NO_COLOR is moot) or JSON records with ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

from .census import enumerate_types, type_name
from .complexes import (
    check_3manifold,
    check_residues_sphere,
    graph_homology,
)
from .embeddings import _MAX_LISTED_COLORS, CyclicOrder, all_embeddings, embedding_report
from .gemio import GemParseError, parse_gem, write_gem
from .graphs import (
    GemValidationError,
    canonical_code,
    connected_components,
    is_bipartite,
    residue_stats,
    residue_subgraph,
)
from .search import (
    InfeasibleSpecError,
    SearchSpec,
    check_spec,
    search_gems,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _load_graph(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    try:
        return parse_gem(text)
    except GemParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    except GemValidationError as exc:
        print(f"invalid gem: {path}: {exc}", file=sys.stderr)
        raise SystemExit(CHECK_FAILED)


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    return USAGE_ERROR


def _report_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_types(args) -> int:
    solutions = enumerate_types(
        args.chi,
        colors=args.colors,
        enforce_divisibility=not args.no_face_divisibility,
    )
    for faces, p in solutions:
        if args.json:
            _report_json({"seq": list(faces), "p": p, "colors": len(faces), "chi": args.chi})
        else:
            print(f"[{type_name(faces)};{p}] colors={len(faces)}")
    if not args.json:
        # one stdout line per type; the tally goes to stderr
        print(f"total: {len(solutions)} types for chi={args.chi}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    graph = _load_graph(args.file)
    comps = connected_components(graph)
    connected = len(comps) == 1
    failures = []
    listed = connected and graph.color_count <= _MAX_LISTED_COLORS
    embeddings = all_embeddings(graph) if listed else {}
    # every report holds the graph's orientability
    bipartite = next(iter(embeddings.values())).orientable if listed else is_bipartite(graph)

    checks: dict[str, object] = {}
    if graph.color_count == 3:
        if connected:  # the surface of the only cyclic order
            (rep,) = embeddings.values()
            checks["surface"] = rep.surface()
    elif graph.color_count == 4:
        report = check_3manifold(graph)
        checks["criterion_3manifold"] = report.holds
        if not report.holds:
            failures.append("3-manifold residue criterion fails")
    elif graph.color_count == 5:
        report = check_residues_sphere(graph)
        checks["residues_homology_sphere"] = report.holds
        if not report.holds:
            bad = ", ".join(
                f"(color {v.color}, component {v.component_index})"
                for v in report.failures()
            )
            failures.append(f"residue check fails at {bad}")

    g_counts = {
        ",".join(map(str, key)): count
        for key, count in residue_stats(graph).items()
    }

    if args.json:
        _report_json(
            {
                "file": args.file,
                "colors": graph.color_count,
                "p": graph.vertex_count,
                "connected": connected,
                "orientable": bipartite,
                "checks": {
                    k: asdict(v) if is_dataclass(v) else v for k, v in checks.items()
                },
                "g_counts": g_counts,
                "embeddings": [
                    {
                        "eps": list(eps.order),
                        "chi": rep.chi,
                        "orientable": rep.orientable,
                        "genus": rep.genus,
                        "faces": rep.face_count,
                        "seq": list(rep.se_type) if rep.se_type else None,
                    }
                    for eps, rep in embeddings.items()
                ],
                "ok": not failures,
            }
        )
    else:
        print(f"file: {args.file}")
        print(f"colors: {graph.color_count}  vertices: {graph.vertex_count}")
        print("validation: ok")
        print(f"connected: {'yes' if connected else f'no ({len(comps)} components)'}")
        print(f"bipartite: {'yes (orientable)' if bipartite else 'no (non-orientable)'}")
        for name, value in checks.items():
            print(f"{name}: {value}")
        if embeddings:
            print(f"embeddings ({len(embeddings)} cyclic order classes):")
            for eps, rep in embeddings.items():
                se = f" type={','.join(map(str, rep.se_type))}" if rep.se_type else ""
                print(
                    f"  eps {eps}: chi={rep.chi} {rep.surface()}"
                    f" faces={rep.face_count}{se}"
                )
        if not connected:
            print("warning: disconnected input; embeddings skipped")
        elif not listed:
            print(
                f"note: embeddings skipped above {_MAX_LISTED_COLORS} colors;"
                " report one order with embed --perm"
            )
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            print("ok")
    return CHECK_FAILED if failures else 0


def cmd_embed(args) -> int:
    graph = _load_graph(args.file)
    if args.perm:
        try:
            order = CyclicOrder.from_sequence(
                [int(tok) for tok in args.perm.split(",")], graph.color_count
            )
        except ValueError as exc:
            print(f"error: bad --perm: {exc}", file=sys.stderr)
            return USAGE_ERROR
        reports = {order: embedding_report(graph, order)}
    elif args.all_perms:
        reports = all_embeddings(graph)
    else:
        reports = {None: embedding_report(graph)}
    for eps, rep in reports.items():
        if args.json:
            _report_json(
                {
                    "eps": list(rep.eps.order),
                    "p": rep.vertex_count,
                    "edges": rep.edge_count,
                    "faces": rep.face_count,
                    "chi": rep.chi,
                    "orientable": rep.orientable,
                    "genus": rep.genus,
                    "bigons": rep.has_bigons,
                    "seq": list(rep.se_type) if rep.se_type else None,
                }
            )
        else:
            se = (
                f" semi-equivelar type ({','.join(map(str, rep.se_type))})"
                if rep.se_type
                else ""
            )
            print(
                f"eps {rep.eps}: V={rep.vertex_count} E={rep.edge_count}"
                f" F={rep.face_count} chi={rep.chi} {rep.surface()}{se}"
            )
    return 0


def cmd_homology(args) -> int:
    graph = _load_graph(args.file)
    comps = connected_components(graph)
    if len(comps) == 1:
        parts = [graph]
    else:
        parts = [residue_subgraph(graph, graph.colors, comp) for comp in comps]
    for index, part in enumerate(parts):
        profile = graph_homology(part)
        dims = range(part.color_count)
        if args.json:
            payload = {
                "betti": [profile.betti(k) for k in dims],
                "torsion": [list(profile.torsion(k)) for k in dims],
                "p": part.vertex_count,
                "colors": part.color_count,
            }
            if len(parts) > 1:
                payload["component"] = index
            _report_json(payload)
        else:
            if len(parts) > 1:
                print(f"component {index} ({part.vertex_count} vertices):")
            for k in dims:
                print(f"H_{k} = {profile.group_str(k)}")
    return 0


def cmd_search(args) -> int:
    try:
        seq = tuple(int(tok) for tok in args.type.split(","))
    except ValueError:
        print(f"error: bad --type {args.type!r}", file=sys.stderr)
        return USAGE_ERROR
    spec = SearchSpec(
        seq=seq,
        vertex_count=args.vertices,
        orientable=args.orientable,
        require_3manifold=args.require_3manifold,
        require_residues_sphere=args.require_residues_sphere,
        max_solutions=None if args.all else args.max,
        budget_seconds=args.budget,
    )
    try:
        check_spec(spec)
    except InfeasibleSpecError as exc:
        print(f"error: infeasible search spec: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = Path(args.out) if args.out else None
    if out_dir:  # made before the search, so a bad path costs no search
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(out_dir, exc)

    outcome = search_gems(spec)
    for graph in outcome.solutions:
        code = canonical_code(graph)
        name = hashlib.sha256(code.encode()).hexdigest()[:12]
        text = write_gem(graph)
        if out_dir:
            path = out_dir / f"{name}.gem"
            try:
                path.write_text(text, encoding="utf-8")
            except OSError as exc:
                return _cannot_write(path, exc)
        if args.json:
            _report_json(
                {
                    "seq": list(spec.seq),
                    "p": spec.vertex_count,
                    "code": code,
                    "file": f"{name}.gem" if out_dir else None,
                }
            )
        elif out_dir:
            print(f"wrote {name}.gem")
        else:
            print(text, end="")

    stats = outcome.stats
    summary = (
        f"solutions: {len(outcome.solutions)}"
        f" nodes: {stats.nodes}"
        f" candidates: {stats.candidates}"
        f" exhausted: {'yes' if stats.exhausted else 'no'}"
        f" elapsed: {stats.elapsed_seconds:.2f}s"
    )
    if stats.prunes:
        summary += " prunes: " + " ".join(f"{k}={v}" for k, v in stats.prunes.items())
    # with --json, stdout stays one record per solution
    print(summary, file=sys.stderr if args.json else sys.stdout)
    inconclusive = not stats.exhausted and (args.all or not outcome.solutions)
    return CHECK_FAILED if inconclusive else 0


def cmd_canon(args) -> int:
    graph = _load_graph(args.file)
    print(canonical_code(graph))
    return 0


@functools.cache  # building the tree costs far more than one parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemtk",
        description="Analyze and search edge-colored graphs encoding manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_types = sub.add_parser("types", help="census of semi-equivelar types for one chi")
    p_types.add_argument("--chi", type=int, required=True, help="Euler characteristic (< 0)")
    p_types.add_argument("--colors", type=int, default=None, help="restrict to one color count")
    p_types.add_argument(
        "--no-face-divisibility",
        action="store_true",
        help="diagnostic: emit raw solutions of the counting relation",
    )
    p_types.add_argument("--json", action="store_true")
    p_types.set_defaults(func=cmd_types)

    p_verify = sub.add_parser("verify", help="validate a gem file and run manifold checks")
    p_verify.add_argument("file")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_embed = sub.add_parser("embed", help="trace regular embeddings")
    p_embed.add_argument("file")
    group = p_embed.add_mutually_exclusive_group()
    group.add_argument("--perm", help="one cyclic color order, e.g. 0,2,1,3")
    group.add_argument("--all-perms", action="store_true", help="all cyclic order classes")
    p_embed.add_argument("--json", action="store_true")
    p_embed.set_defaults(func=cmd_embed)

    p_hom = sub.add_parser("homology", help="integer homology of the induced complex")
    p_hom.add_argument("file")
    p_hom.add_argument("--json", action="store_true")
    p_hom.set_defaults(func=cmd_homology)

    p_search = sub.add_parser("search", help="search for gems with a given type")
    p_search.add_argument("--type", required=True, help="face sizes, e.g. 4,8,4,8")
    p_search.add_argument("--vertices", type=int, required=True)
    side = p_search.add_mutually_exclusive_group()
    side.add_argument("--orientable", action="store_const", const=True)
    side.add_argument("--non-orientable", dest="orientable", action="store_const", const=False)
    p_search.add_argument("--require-3manifold", action="store_true")
    p_search.add_argument("--require-residues-sphere", action="store_true")
    p_search.add_argument("--max", type=int, default=1, help="stop after N solutions")
    p_search.add_argument("--all", action="store_true", help="exhaust the search space")
    p_search.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p_search.add_argument("--out", default=None, help="directory for solution gem files")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_canon = sub.add_parser("canon", help="canonical code of a gem file")
    p_canon.add_argument("file")
    p_canon.set_defaults(func=cmd_canon)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except GemValidationError as exc:
        print(f"invalid gem: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(run_cli())
