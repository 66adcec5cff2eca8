"""Spans and counters around the engine's public functions, installed
from outside the program.

``Tracer.install`` rebinds every module attribute of the package that
refers to a traced function (for example ``discovery.link_select`` and
``algebra.link_select`` both point at the algebra operator), so calls
made through any module are seen. Coarse functions get a span (name,
start, end, parent); hot fine-grained ones (``satisfies``, ``jaccard``,
``exact_score``, ``SocialSets.all_taggers``) only get a call counter,
because a span per call would cost more than the call. ``uninstall``
puts the original functions back.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

ALGEBRA_OPS = (
    "node_select",
    "link_select",
    "semi_join",
    "compose",
    "set_op",
    "node_aggregate",
    "link_aggregate",
)

# (module, function): traced with a span.
SPANNED = (
    [("algebra", op) for op in ALGEBRA_OPS]
    + [("algebra", "link_minus"), ("algebra", "pattern_aggregate")]
    + [("graph", "build_graph")]
    + [("dsl", f) for f in ("parse", "compile", "execute")]
    + [
        ("discovery", f)
        for f in (
            "network_search",
            "cf_pipeline",
            "cf_recommend",
            "content_recommend",
            "discover",
            "visited_items",
            "acted_items",
            "rating",
        )
    ]
    + [("index", f) for f in ("social_sets", "cluster_users", "build_index", "topk_query")]
    + [
        ("presentation", f)
        for f in ("group_items", "select_groups", "explain_item", "aggregate_explanations")
    ]
    + [
        ("io", f)
        for f in ("load_graph", "save_graph", "load_index_snapshot", "save_index_snapshot")
    ]
)
# (module, function): traced with a counter only.
COUNTED = (("graph", "satisfies"), ("aggfn", "jaccard"), ("index", "exact_score"))


def _graph_links(value) -> int:
    links = getattr(value, "links", None)
    return len(links) if isinstance(links, dict) else 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent id or -1, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list = []  # open (id, name)
        self._ids = itertools.count()
        self._restore: list = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _spanned(self, name: str, fn, via: str | None):
        after = _AFTER_CALL.get(name)

        def wrapper(*args, **kwargs):
            if via:
                self.counts[via] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if after:
                after(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn, via: str | None):
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[f"{name}@{stack[-1][1]}"] += 1
            if via:
                counts[via] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        self._package = package
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        prefix = package.__name__ + "."
        for kind, specs in (("span", SPANNED), ("count", COUNTED)):
            for layer, fname in specs:
                original = getattr(sys.modules[prefix + layer], fname)
                name = f"{layer}.{fname}"
                for holder in modules:
                    holder_layer = holder.__name__[len(prefix) :] or None
                    for attr, value in list(vars(holder).items()):
                        if value is not original:
                            continue
                        via = (
                            f"{holder_layer}.{fname}.calls"
                            if holder_layer not in (None, layer)
                            else None
                        )
                        make = self._spanned if kind == "span" else self._counted
                        setattr(holder, attr, make(name, original, via))
                        self._restore.append((holder, attr, original))
        sets_cls = sys.modules[prefix + "index"].SocialSets
        original = sets_cls.all_taggers
        sets_cls.all_taggers = self._counted("index.all_taggers", original, None)
        self._restore.append((sets_cls, "all_taggers", original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Untraced for the duration, e.g. while outputs are checked."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._package)

    # -- reduction -------------------------------------------------------

    @staticmethod
    def totals(spans) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over ``spans``,
        which must hold the children of every span it holds."""
        child = Counter()
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for sid, _, name, start, end in spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _count_algebra(op: str):
    def count(counts, args, result):
        counts[f"algebra.{op}.links_in"] += sum(_graph_links(a) for a in args)
        counts[f"algebra.{op}.links_out"] += _graph_links(result)
        if op == "compose":
            counts["algebra.compose.pairs"] += _graph_links(args[0]) * _graph_links(args[1])

    return count


def _count_compile(counts, args, result):
    """plan_exprs: operator calls as written plus input leaves;
    plan_nodes: the same after equal subexpressions merged."""

    def calls(expr) -> int:
        sub = getattr(expr, "args", ())
        return 1 + sum(calls(a) for a in sub if hasattr(a, "op")) if hasattr(expr, "op") else 0

    written = sum(calls(expr) for _, expr in args[0].stmts)
    counts["dsl.plan_exprs"] += written + len(result.leaves)
    counts["dsl.plan_nodes"] += result.node_count()


def _count_cluster(counts, args, result):
    counts["index.clusters"] += len(result.leaders)


def _count_build_index(counts, args, result):
    counts["index.lists"] += len(result.lists)
    counts["index.entries"] += sum(len(v) for v in result.lists.values())


def _count_save_graph(counts, args, result):
    counts["io.graph_bytes"] += os.path.getsize(args[1]) + os.path.getsize(args[2])


def _count_save_snapshot(counts, args, result):
    counts["io.snapshot_bytes"] += os.path.getsize(args[1])


# Counts taken from a spanned call's arguments and result.
_AFTER_CALL = {f"algebra.{op}": _count_algebra(op) for op in ALGEBRA_OPS}
_AFTER_CALL.update(
    {
        "dsl.compile": _count_compile,
        "index.cluster_users": _count_cluster,
        "index.build_index": _count_build_index,
        "io.save_graph": _count_save_graph,
        "io.save_index_snapshot": _count_save_snapshot,
    }
)


def layer_metrics(tracer: Tracer, since: int, counts_before: Counter, rounds: int, subcommands, scale) -> dict:
    """The per-layer metrics: calls, times and counts per round of the
    traced loop (spans from index ``since`` on); sizes of built indexes,
    saved files and compiled plans per producing call, set-up included.
    Times are multiplied by ``scale``."""
    loop = tracer.totals(tracer.spans[since:])
    every = tracer.totals(tracer.spans)
    counts = tracer.counts - counts_before
    zero = (0, 0.0, 0.0)

    def calls(name):
        return (loop.get(name, zero)[0] / rounds, "count")

    def ms(name):
        return (loop.get(name, zero)[1] * 1000 * scale / rounds, "ms")

    def count(name):
        return (counts[name] / rounds, "count")

    def size(name, producer, unit="count"):
        return (tracer.counts[name] / max(1, every.get(producer, zero)[0]), unit)

    m = {}
    for op in ALGEBRA_OPS:
        name = f"algebra.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = (loop.get(name, zero)[2] * 1000 * scale / rounds, "ms")
        m[f"{name}.links_in"] = count(f"{name}.links_in")
        m[f"{name}.links_out"] = count(f"{name}.links_out")
    m["algebra.compose.pairs"] = count("algebra.compose.pairs")
    m["graph.build_graph.calls"] = calls("graph.build_graph")
    m["graph.build_graph.ms"] = ms("graph.build_graph")
    m["graph.satisfies.calls"] = count("graph.satisfies")
    m["aggfn.jaccard.calls"] = count("aggfn.jaccard")
    for f in ("parse", "compile", "execute"):
        m[f"dsl.{f}.ms"] = ms(f"dsl.{f}")
    m["dsl.plan_exprs"] = size("dsl.plan_exprs", "dsl.compile")
    m["dsl.plan_nodes"] = size("dsl.plan_nodes", "dsl.compile")
    for f in ("cf_pipeline", "visited_items", "acted_items", "rating"):
        m[f"discovery.{f}.calls"] = calls(f"discovery.{f}")
        m[f"discovery.{f}.ms"] = ms(f"discovery.{f}")
    m["index.social_sets.calls"] = calls("index.social_sets")
    m["index.social_sets.ms"] = ms("index.social_sets")
    m["index.cluster_users.ms"] = ms("index.cluster_users")
    m["index.clusters"] = size("index.clusters", "index.cluster_users")
    m["index.build_index.ms"] = ms("index.build_index")
    m["index.lists"] = size("index.lists", "index.build_index")
    m["index.entries"] = size("index.entries", "index.build_index")
    m["index.topk_query.ms"] = ms("index.topk_query")
    topk_calls = loop.get("index.topk_query", zero)[0]
    m["index.topk_query.exact_scores"] = (
        counts["index.exact_score@index.topk_query"] / max(1, topk_calls),
        "count",
    )
    m["index.all_taggers.calls"] = count("index.all_taggers")
    for f in ("group_items", "explain_item", "aggregate_explanations"):
        m[f"presentation.{f}.ms"] = ms(f"presentation.{f}")
    m["presentation.social_sets.calls"] = count("presentation.social_sets.calls")
    for f in ("load_graph", "save_graph", "load_index_snapshot", "save_index_snapshot"):
        m[f"io.{f}.ms"] = ms(f"io.{f}")
    m["io.graph_bytes"] = size("io.graph_bytes", "io.save_graph", "bytes")
    m["io.snapshot_bytes"] = size("io.snapshot_bytes", "io.save_index_snapshot", "bytes")
    for sub in subcommands:
        m[f"cli.{sub}.ms"] = ms(f"cli.{sub}")
    return m
