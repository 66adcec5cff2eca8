"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 runtime error (the underlying module error is
printed to stderr), 2 usage error. Every subcommand that prints results
also supports ``--json`` for JSON-lines output. Scores are printed with
six decimal places (round-half-even).
"""

from __future__ import annotations

import argparse
import json
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


def _jline(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _add_graph_args(p: argparse.ArgumentParser):
    p.add_argument("--nodes", required=True, help="node JSON-lines file")
    p.add_argument("--links", required=True, help="link JSON-lines file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socialgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="run a query script against a graph")
    _add_graph_args(p)
    p.add_argument("--script", required=True, help="script file")
    p.add_argument("--name", default="G", help="input graph name used by the script")
    p.add_argument("--out-dir", help="write every binding as graph files here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("recommend", help="recommend items for a user")
    _add_graph_args(p)
    p.add_argument("--user", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--method", choices=("cf", "content"), default="cf")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("discover", help="combined semantic+social discovery")
    _add_graph_args(p)
    p.add_argument("--user", required=True)
    p.add_argument("--query", default="[]", help="condition, e.g. \"[type='destination'; kw:'ski']\"")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("build-index", help="build and save a clustered tag index")
    _add_graph_args(p)
    p.add_argument("--strategy", choices=("network", "behavior", "hybrid"), required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out", required=True, help="snapshot path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("topk", help="network-aware top-k tag search")
    p.add_argument("--index", help="index snapshot path")
    p.add_argument("--nodes")
    p.add_argument("--links")
    p.add_argument("--strategy", choices=("network", "behavior", "hybrid"), default="network")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--user", required=True)
    p.add_argument("--keywords", required=True, help="comma-separated tags")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("group", help="group a scored item list")
    _add_graph_args(p)
    p.add_argument("--items", required=True, help="JSON-lines of {id, score}")
    p.add_argument(
        "--criterion", required=True, help="social:<theta> | topical | structural:<attr>"
    )
    p.add_argument("--max-groups", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("explain", help="explain an item for a user")
    _add_graph_args(p)
    p.add_argument("--user", required=True)
    p.add_argument("--item", required=True)
    p.add_argument("--strategy", choices=("content", "collaborative"), default="collaborative")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("estimate-index", help="per-(tag,user) index sizing")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--tags-per-item", type=int, required=True)
    p.add_argument("--tagger-fraction", type=float, required=True)
    p.add_argument("--bytes", type=int, required=True)

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


def _cmd_query(args, out) -> int:
    with open(args.script, "r", encoding="utf-8") as fh:
        text = fh.read()
    g = load_graph(args.nodes, args.links)
    results = dsl.run_script(text, {args.name: g})
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for name, graph in results.items():
        if args.out_dir:
            save_graph(
                graph,
                os.path.join(args.out_dir, f"{name}.nodes.jsonl"),
                os.path.join(args.out_dir, f"{name}.links.jsonl"),
            )
        if args.json:
            print(
                _jline({"binding": name, "nodes": len(graph.nodes), "links": len(graph.links)}),
                file=out,
            )
        else:
            print(f"{name}\tnodes={len(graph.nodes)}\tlinks={len(graph.links)}", file=out)
    return 0


def _cmd_recommend(args, out) -> int:
    g = load_graph(args.nodes, args.links)
    if args.method == "cf":
        cfg = DiscoveryConfig(alpha=args.alpha, sim_threshold=args.threshold, k=max(args.k, 1))
        _, ranking = cf_recommend(g, args.user, cfg)
        ranking = ranking[: args.k]
    else:
        ranking = content_recommend(g, args.user, args.k)
    for item, score in ranking:
        if args.json:
            print(_jline({"item": item, "score": score}), file=out)
        else:
            print(f"{item}\t{_score(score)}", file=out)
    return 0


def _cmd_discover(args, out) -> int:
    g = load_graph(args.nodes, args.links)
    cond = dsl.parse_condition(args.query)
    cfg = DiscoveryConfig(alpha=args.alpha, sim_threshold=args.threshold, k=max(args.k, 1))
    msg = discover(g, args.user, cond, cfg)
    for item, combined, semantic, social in msg.ranking:
        if args.json:
            print(
                _jline(
                    {
                        "item": item,
                        "combined": combined,
                        "semantic": semantic,
                        "social": social,
                    }
                ),
                file=out,
            )
        else:
            print(
                f"{item}\t{_score(combined)}\tsemantic={_score(semantic)}\tsocial={_score(social)}",
                file=out,
            )
    if not args.json:
        print(
            f"# provenance: {len(msg.graph.nodes)} nodes, {len(msg.graph.links)} links",
            file=out,
        )
    return 0


def _cmd_build_index(args, out) -> int:
    g = load_graph(args.nodes, args.links)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy(kind=args.strategy, theta=args.theta))
    tags = {tag for (_, tag) in sets.taggers}
    index = build_index(sets, model, tags)
    save_index_snapshot(index, args.out)
    record = {
        "clusters": len(index.model.leaders),
        "lists": len(index.lists),
        "users": len(index.model.assignment),
    }
    print(_jline(record) if args.json else
          f"clusters={record['clusters']}\tlists={record['lists']}\tusers={record['users']}",
          file=out)
    return 0


def _cmd_topk(args, out) -> int:
    if args.index:
        index = load_index_snapshot(args.index)
    elif args.nodes and args.links:
        g = load_graph(args.nodes, args.links)
        sets = social_sets(g)
        model = cluster_users(sets, ClusteringStrategy(kind=args.strategy, theta=args.theta))
        index = build_index(sets, model, {tag for (_, tag) in sets.taggers})
    else:
        raise SocialGraphError("topk needs --index or both --nodes and --links")
    keywords = [k for k in args.keywords.split(",") if k]
    for item, score in topk_query(index, args.user, keywords, args.k):
        if args.json:
            print(_jline({"item": item, "score": score}), file=out)
        else:
            print(f"{item}\t{score}", file=out)
    return 0


def _cmd_group(args, out) -> int:
    g = load_graph(args.nodes, args.links)
    groups = group_items(load_scored_items(args.items), g, _parse_criterion(args.criterion))
    for grp in select_groups(groups, args.max_groups):
        if args.json:
            print(
                _jline(
                    {
                        "id": grp.id,
                        "label": grp.label,
                        "quality": grp.quality,
                        "size": grp.size,
                        "members": list(grp.members),
                    }
                ),
                file=out,
            )
        else:
            print(
                f"{grp.id}\t{grp.label}\tquality={_score(grp.quality)}\tsize={grp.size}\t"
                f"members={','.join(grp.members)}",
                file=out,
            )
    return 0


def _cmd_explain(args, out) -> int:
    g = load_graph(args.nodes, args.links)
    explanation = explain_item(g, args.user, args.item, args.strategy)
    if args.json:
        print(
            _jline(
                {
                    "user": explanation.subject[0],
                    "item": explanation.subject[1],
                    "strategy": explanation.strategy,
                    "summary": explanation.summary,
                    "evidence": [[eid, w] for eid, w in explanation.evidence],
                }
            ),
            file=out,
        )
    else:
        print(explanation.summary, file=out)
        for eid, weight in explanation.evidence:
            print(f"{eid}\t{_score(weight)}", file=out)
    return 0


def _cmd_estimate_index(args, out) -> int:
    size = estimate_index_size(
        args.users, args.items, args.tags_per_item, args.tagger_fraction, args.bytes
    )
    print(size, file=out)
    return 0


_COMMANDS = {
    "query": _cmd_query,
    "recommend": _cmd_recommend,
    "discover": _cmd_discover,
    "build-index": _cmd_build_index,
    "topk": _cmd_topk,
    "group": _cmd_group,
    "explain": _cmd_explain,
    "estimate-index": _cmd_estimate_index,
}


def run_command(argv, out=None, err=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except (SocialGraphError, OSError, ValueError) as e:
        # ValueError: every argument check in the package raises it
        print(f"error: {e}", file=err)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
