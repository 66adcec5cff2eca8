"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 runtime error (the underlying module error is
printed to stderr), 2 usage error. Every subcommand that prints results
also supports ``--json`` for JSON-lines output. Scores are printed with
six decimal places (round-half-even).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dsl
from .discovery import DiscoveryConfig, cf_recommend, content_recommend, discover
from .errors import SocialGraphError
from .index import (
    ClusteringStrategy,
    build_index,
    cluster_users,
    estimate_index_size,
    social_sets,
    topk_query,
)
from .io import (
    json_line,
    load_graph,
    load_index_snapshot,
    load_scored_items,
    save_graph,
    save_index_snapshot,
)
from .presentation import (
    SocialGrouping,
    StructuralGrouping,
    TopicalGrouping,
    explain_item,
    group_items,
    select_groups,
)


def _score(x: float) -> str:
    return f"{x:.6f}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socialgraph", description=__doc__)
    parser.set_defaults(json=False)  # for estimate-index, which has no --json
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, graph: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if graph:
            p.add_argument("--nodes", required=True, help="node JSON-lines file")
            p.add_argument("--links", required=True, help="link JSON-lines file")
        return p

    p = command("query", _cmd_query, "run a query script against a graph")
    p.add_argument("--script", required=True, help="script file")
    p.add_argument("--name", default="G", help="input graph name used by the script")
    p.add_argument("--out-dir", help="write every binding as graph files here")

    p = command("recommend", _cmd_recommend, "recommend items for a user")
    p.add_argument("--user", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--method", choices=("cf", "content"), default="cf")

    p = command("discover", _cmd_discover, "combined semantic+social discovery")
    p.add_argument("--user", required=True)
    p.add_argument("--query", default="[]", help="condition, e.g. \"[type='destination'; kw:'ski']\"")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)

    p = command("build-index", _cmd_build_index, "build and save a clustered tag index")
    p.add_argument("--strategy", choices=("network", "behavior", "hybrid"), required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out", required=True, help="snapshot path")

    p = command("topk", _cmd_topk, "network-aware top-k tag search", graph=False)
    p.add_argument("--index", help="index snapshot path")
    p.add_argument("--nodes")
    p.add_argument("--links")
    p.add_argument("--strategy", choices=("network", "behavior", "hybrid"), default="network")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--user", required=True)
    p.add_argument("--keywords", required=True, help="comma-separated tags")
    p.add_argument("--k", type=int, default=10)

    p = command("group", _cmd_group, "group a scored item list")
    p.add_argument("--items", required=True, help="JSON-lines of {id, score}")
    p.add_argument(
        "--criterion", required=True, help="social:<theta> | topical | structural:<attr>"
    )
    p.add_argument("--max-groups", type=int, default=10)

    p = command("explain", _cmd_explain, "explain an item for a user")
    p.add_argument("--user", required=True)
    p.add_argument("--item", required=True)
    p.add_argument("--strategy", choices=("content", "collaborative"), default="collaborative")

    p = command("estimate-index", _cmd_estimate_index, "per-(tag,user) index sizing", graph=False)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--tags-per-item", type=int, required=True)
    p.add_argument("--tagger-fraction", type=float, required=True)
    p.add_argument("--bytes", type=int, required=True)

    for name, p in sub.choices.items():
        if name != "estimate-index":
            p.add_argument("--json", action="store_true")
    return parser


def _parse_criterion(text: str):
    if text == "topical":
        return TopicalGrouping()
    bad = SocialGraphError(f"bad --criterion: {text!r}")
    kind, _, arg = text.partition(":")
    if kind == "social" and arg:
        try:
            theta = float(arg)
        except ValueError:
            raise bad from None
        return SocialGrouping(theta=theta)
    if kind == "structural" and arg:
        return StructuralGrouping(attr=arg)
    raise bad


# Each subcommand maps its parsed arguments to (JSON records, text lines)
# and prints nothing; run_command prints one or the other.


def _ranked(ranking, fmt=_score):
    """(item, score) pairs as records and as item<TAB>score lines."""
    return (
        [{"item": item, "score": score} for item, score in ranking],
        [f"{item}\t{fmt(score)}" for item, score in ranking],
    )


def _index_from_graph(args):
    """Social sets, clustering and an index over every tag of the graph files."""
    sets = social_sets(load_graph(args.nodes, args.links))
    model = cluster_users(sets, ClusteringStrategy(kind=args.strategy, theta=args.theta))
    return build_index(sets, model, {tag for (_, tag) in sets.taggers})


def _cmd_query(args):
    with open(args.script, "r", encoding="utf-8") as fh:
        text = fh.read()
    results = dsl.run_script(text, {args.name: load_graph(args.nodes, args.links)})
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, graph in results.items():
            path = os.path.join(args.out_dir, name)
            save_graph(graph, f"{path}.nodes.jsonl", f"{path}.links.jsonl")
    records = [
        {"binding": name, "nodes": len(g.nodes), "links": len(g.links)} for name, g in results.items()
    ]
    return records, [f"{r['binding']}\tnodes={r['nodes']}\tlinks={r['links']}" for r in records]


def _cmd_recommend(args):
    g = load_graph(args.nodes, args.links)
    cfg = DiscoveryConfig(alpha=args.alpha, sim_threshold=args.threshold, k=args.k)
    if args.method == "content":
        return _ranked(content_recommend(g, args.user, cfg.k))
    return _ranked(cf_recommend(g, args.user, cfg)[1][: args.k])


def _cmd_discover(args):
    g = load_graph(args.nodes, args.links)
    cond = dsl.parse_condition(args.query)
    cfg = DiscoveryConfig(alpha=args.alpha, sim_threshold=args.threshold, k=args.k)
    msg = discover(g, args.user, cond, cfg)
    records = [dict(zip(("item", "combined", "semantic", "social"), e)) for e in msg.ranking]
    lines = [
        f"{item}\t{_score(combined)}\tsemantic={_score(semantic)}\tsocial={_score(social)}"
        for item, combined, semantic, social in msg.ranking
    ]
    lines.append(f"# provenance: {len(msg.graph.nodes)} nodes, {len(msg.graph.links)} links")
    return records, lines


def _cmd_build_index(args):
    index = _index_from_graph(args)
    save_index_snapshot(index, args.out)
    record = {
        "clusters": len(index.model.leaders),
        "lists": len(index.lists),
        "users": len(index.model.assignment),
    }
    return [record], ["\t".join(f"{key}={value}" for key, value in record.items())]


def _cmd_topk(args):
    if args.index:
        index = load_index_snapshot(args.index)
    elif args.nodes and args.links:
        index = _index_from_graph(args)
    else:
        raise SocialGraphError("topk needs --index or both --nodes and --links")
    keywords = [k for k in args.keywords.split(",") if k]
    return _ranked(topk_query(index, args.user, keywords, args.k), str)


def _cmd_group(args):
    g = load_graph(args.nodes, args.links)
    groups = group_items(load_scored_items(args.items), g, _parse_criterion(args.criterion))
    groups = select_groups(groups, args.max_groups)
    records = [
        {"id": grp.id, "label": grp.label, "quality": grp.quality, "size": grp.size,
         "members": list(grp.members)}
        for grp in groups
    ]
    lines = [
        f"{grp.id}\t{grp.label}\tquality={_score(grp.quality)}\tsize={grp.size}\t"
        f"members={','.join(grp.members)}"
        for grp in groups
    ]
    return records, lines


def _cmd_explain(args):
    e = explain_item(load_graph(args.nodes, args.links), args.user, args.item, args.strategy)
    record = {
        "user": e.subject[0],
        "item": e.subject[1],
        "strategy": e.strategy,
        "summary": e.summary,
        "evidence": [[eid, w] for eid, w in e.evidence],
    }
    return [record], [e.summary, *(f"{eid}\t{_score(w)}" for eid, w in e.evidence)]


def _cmd_estimate_index(args):
    size = estimate_index_size(
        args.users, args.items, args.tags_per_item, args.tagger_fraction, args.bytes
    )
    return [], [str(size)]


def run_command(argv, out=None, err=None) -> int:
    """Run one CLI invocation; returns the process exit code.

    The subcommand computes its whole result before anything is
    written, so a failing call prints its error line and nothing on
    ``out``."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        records, lines = args.run(args)
        if args.json:
            lines = [json_line(record) for record in records]
        out.write("".join(f"{line}\n" for line in lines))
    except (SocialGraphError, OSError, ValueError) as e:
        # ValueError: every argument check in the package raises it
        print(f"error: {e}", file=err)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
