"""Naive references for the engine's indexed and compiled code paths.

Each function here is the plain full-scan, nested-loop, re-sorting,
hand-wired, recursive, interpreting or materialising version of something the package
now does through a derived view, a hash join, a compiled predicate or
aggregate or composition function, a
k-bounded ranked list, a stream, a compiled (and rewritten) query plan,
a loop over a plan's schedule, one pattern, an inverted index of leaders,
a merge that returns an element merged with itself as it is,
a snapshot loaded one line at a time, a fold into nested buckets,
loaded files that keep one object per distinct value,
or one shared helper (the greedy-leader loop, item similarity, the
ordered group-by, the one-member group that explains an item).
``test_differential.py`` and ``test_plan_rules.py`` check the two agree
on results, link order, generated ids and the number of exact-score
calls, comparing graphs through ``exact``; ``test_snapshot_fuzz.py``
checks the snapshot loaders. The export list of the once-eager package
namespace is kept here too, for ``test_namespace.py``.
"""

from __future__ import annotations

import json
import math
import re
from bisect import insort
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from socialgraph import algebra
from socialgraph import index as sgindex
from socialgraph.aggfn import (
    MAX_NESTING_DEPTH,
    Arith,
    AttrRef,
    Builtin,
    CompositionFn,
    Const,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    ProdOver,
    SafExpr,
    SumOver,
    _nesting_depth,
    avg_of,
    jaccard,
)
from socialgraph.algebra import (
    SetOpKind,
    compose,
    link_aggregate,
    link_select,
    node_aggregate,
    node_select,
    semi_join,
    set_op,
)
from socialgraph.discovery import VISIT, acted_items, rating
from socialgraph.dsl import OPS, OpCall, Param, Program, Ref, Token
from socialgraph.errors import (
    AggEvalError,
    CompositionFnError,
    DivideByZeroError,
    DslSyntaxError,
    ExecutionError,
    GraphFileError,
    SocialGraphError,
    UnboundReferenceError,
    UnknownItemError,
    UnknownUserError,
)
from socialgraph.graph import (
    CONTAINS_ALL,
    Condition,
    DirectionalCondition,
    Link,
    Node,
    attr_eq,
    attr_gt,
    attr_map,
    attr_ne,
    build_graph,
    default_keyword_score,
    element_tokens,
    opposite,
    sorted_values,
)

FRIEND = Condition(preds=(attr_eq("type", "friend"),))
ACT = Condition(preds=(attr_eq("type", "act"),))
MATCH = Condition(preds=(attr_eq("type", "match"),))
DESTINATION = Condition(preds=(attr_eq("type", "destination"),))
from socialgraph.index import ClusteredIndex, ClusterModel, SocialSets, social_sets
from socialgraph.io import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, _coerce_id
from socialgraph.presentation import RESIDUAL, Explanation, ItemGroup, _label_from, _make_group


# ---------------------------------------------------------------------------
# The aggregate and composition function interpreters: they dispatch on
# the expression tree for every row and every pair. A link row is a
# one-step chain, so a position other than 0 on it is an error.


@dataclass(frozen=True)
class LinkCtx:
    """A link together with its endpoint nodes, as the composition
    interpreter reads one side of a pair."""

    link: Link
    src: Node
    tgt: Node


def attr_values(element, name: str):
    """Look up an attribute value set, or None when absent; the identity
    fields stand in for ``id`` on any element and ``src``/``tgt`` on links."""
    values = element.attrs.get(name)
    if values is not None:
        return values
    if name == "id":
        return frozenset({element.id})
    if isinstance(element, Link):
        if name == "src":
            return frozenset({element.src})
        if name == "tgt":
            return frozenset({element.tgt})
    return None


def _row_link(row, attr: str, step: int | None) -> Link | None:
    """Pick the link of a row an attribute reference reads from."""
    if isinstance(row, Link):
        if step not in (None, 0):
            raise AggEvalError(f"chain has no step {step}", attr=attr)
        return row
    if step is not None:
        if not 0 <= step < len(row):
            raise AggEvalError(f"chain has no step {step}", attr=attr)
        return row[step]
    for l in row:
        if attr_values(l, attr) is not None:
            return l
    return None


def _numeric_value(row, attr: str, step: int | None) -> float:
    l = _row_link(row, attr, step)
    values = attr_values(l, attr) if l is not None else None
    if values is None:
        rid = l.id if l is not None else None
        raise AggEvalError("missing attribute", element_id=rid, attr=attr)
    if len(values) != 1:
        raise AggEvalError("attribute is multi-valued", element_id=l.id, attr=attr)
    (value,) = values
    if not isinstance(value, float):
        raise AggEvalError("attribute is not numeric", element_id=l.id, attr=attr)
    return value


def _arith(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0.0:
        raise DivideByZeroError()
    return a / b


def eval_saf(expr, rows) -> frozenset:
    """Union of the attribute's value sets across rows; duplicate-free."""
    out = set()
    for row in rows:
        l = _row_link(row, expr.attr, expr.step)
        if l is None:
            continue
        values = attr_values(l, expr.attr)
        if values is not None:
            out.update(values)
    return frozenset(out)


def eval_naf(expr, rows) -> float:
    """Evaluate a numerical aggregate over a collection of rows."""
    depth = _nesting_depth(expr)
    if depth > MAX_NESTING_DEPTH:
        raise ValueError(f"Sum/Prod nesting depth {depth} exceeds limit {MAX_NESTING_DEPTH}")
    return _eval(expr, list(rows), None)


def _eval(expr, rows: list, row) -> float:
    """``expr`` over the collection ``rows``, with ``row`` the row in
    scope inside a Sum/Prod body (None outside one). Nested aggregates
    re-iterate the same collection."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, AttrRef):
        if row is None:
            raise AggEvalError("attribute reference outside Sum/Prod scope", attr=expr.attr)
        return _numeric_value(row, expr.attr, expr.step)
    if isinstance(expr, Arith):
        return _arith(expr.op, _eval(expr.left, rows, row), _eval(expr.right, rows, row))
    if isinstance(expr, SumOver):
        return sum(_eval(expr.body, rows, r) for r in rows)
    if isinstance(expr, ProdOver):
        out = 1.0
        for r in rows:
            out *= _eval(expr.body, rows, r)
        return out
    if isinstance(expr, Builtin):
        return _eval_builtin(expr, rows)
    raise TypeError(f"not a numerical aggregate expression: {expr!r}")


def _eval_builtin(expr, rows: list) -> float:
    if expr.fn == "COUNT":
        return float(len(rows))
    if expr.fn == "SUM":
        return sum(_numeric_value(row, expr.attr, expr.step) for row in rows)
    if expr.fn == "AVG":
        if not rows:
            raise DivideByZeroError()
        return sum(_numeric_value(row, expr.attr, expr.step) for row in rows) / len(rows)
    values = [_numeric_value(row, expr.attr, expr.step) for row in rows]
    if not values:
        raise AggEvalError(f"{expr.fn} over an empty collection", attr=expr.attr)
    return min(values) if expr.fn == "MIN" else max(values)


def apply_agg(spec, rows) -> frozenset | None:
    """Evaluate an aggregate spec into an attribute value set, or None
    when there is nothing to attach."""
    rows = list(rows)
    if isinstance(spec, SafExpr):
        values = eval_saf(spec, rows)
        return values or None
    if isinstance(spec, ConstString):
        return frozenset({spec.value})
    if isinstance(spec, CopyAny):
        seen = None
        for row in rows:
            l = _row_link(row, spec.attr, spec.step)
            values = attr_values(l, spec.attr) if l is not None else None
            if values is None:
                continue
            if seen is None:
                seen = values
            elif seen != values:
                raise AggEvalError("copied values disagree across the collection", attr=spec.attr)
        return seen
    if isinstance(spec, (Const, AttrRef, Arith, SumOver, ProdOver, Builtin)):
        return frozenset({eval_naf(spec, rows)})
    raise TypeError(f"not an aggregate spec: {spec!r}")


def _side_element(side: str, left: LinkCtx, right: LinkCtx):
    ctx = left if side.startswith("left") else right
    kind = side.split("-", 1)[1]
    if kind == "link":
        return ctx.link
    return ctx.src if kind == "src" else ctx.tgt


def _side_values(side: str, attr: str, left: LinkCtx, right: LinkCtx, out_attr: str) -> frozenset:
    element = _side_element(side, left, right)
    values = attr_values(element, attr)
    if values is None:
        raise CompositionFnError(
            f"{side} element {element.id!r} lacks attribute {attr!r}", attr=out_attr
        )
    return values


def apply_composition(f: CompositionFn, left: LinkCtx, right: LinkCtx) -> dict:
    """Evaluate a composition function into the new link's attribute map.
    Aggregate outputs are evaluated over the pair (left link, right link)
    exactly as ``apply_agg`` evaluates them over any collection."""
    out: dict = {}
    for name, expr in f.outputs:
        if isinstance(expr, CopyFrom):
            values = _side_values(expr.side, expr.attr, left, right, name)
        elif isinstance(expr, JaccardOf):
            a = _side_values(expr.left_side, expr.left_attr, left, right, name)
            b = _side_values(expr.right_side, expr.right_attr, left, right, name)
            values = frozenset({jaccard(a, b)})
        else:
            try:
                values = apply_agg(expr, (left.link, right.link))
            except AggEvalError as e:
                raise CompositionFnError(str(e), attr=name) from e
        if values is not None:
            out[name] = values
    if not out:
        raise CompositionFnError("composition function produced no attributes")
    return out


def interpreted_agg(spec, chains: bool = False):
    """``compile_agg`` by the interpreter, which reads each row's kind."""
    return lambda rows: apply_agg(spec, rows)


def interpreted_composition(f: CompositionFn):
    """``compile_composition`` by the interpreter: every output of every
    pair evaluated afresh."""

    def attributes(l1, l2, nodes1, nodes2):
        left = LinkCtx(l1, nodes1[l1.src], nodes1[l1.tgt])
        return apply_composition(f, left, LinkCtx(l2, nodes2[l2.src], nodes2[l2.tgt]))

    return attributes


# ---------------------------------------------------------------------------


def _compare(value, op: str, operand) -> bool:
    if isinstance(value, str) != isinstance(operand, str):
        return False
    if op == "=":
        return value == operand
    if op == "!=":
        return value != operand
    if op == "<":
        return value < operand
    if op == "<=":
        return value <= operand
    if op == ">":
        return value > operand
    return value >= operand


def pred_holds(element, pred) -> bool:
    """Evaluate one predicate; an absent attribute is false, never an error."""
    values = attr_values(element, pred.attr)
    if values is None:
        return False
    if pred.op == CONTAINS_ALL:
        return values.issuperset(pred.operands)
    operand = pred.operands[0]
    return any(_compare(v, pred.op, operand) for v in values)


def satisfies(element, condition) -> bool:
    """The condition interpreter: True iff every structural predicate
    holds and, when keywords are present, at least one keyword matches a
    token of the element. Dispatches on each predicate per element."""
    if not all(pred_holds(element, p) for p in condition.preds):
        return False
    if condition.keywords:
        toks = element_tokens(element)
        return any(k in toks for k in condition.keywords)
    return True


def satisfies_predicate(condition):
    """The generic selection predicate: the interpreter per element."""
    return lambda e: satisfies(e, condition)


def compose_nested(g1, g2, delta, f):
    """Composition as a nested loop over every (g1 link, g2 link) pair."""
    nodes: dict = {}
    links = []
    far1, far2 = opposite(delta.d1), opposite(delta.d2)
    for l1 in g1.links.values():
        for l2 in g2.links.values():
            if getattr(l1, delta.d1) != getattr(l2, delta.d2):
                continue
            u, v = getattr(l1, far1), getattr(l2, far2)
            attrs = apply_composition(
                f,
                LinkCtx(l1, g1.nodes[l1.src], g1.nodes[l1.tgt]),
                LinkCtx(l2, g2.nodes[l2.src], g2.nodes[l2.tgt]),
            )
            if "type" not in attrs:
                attrs["type"] = frozenset({"composed"})
            links.append(Link(f"gen:compose:{l1.id}:{l2.id}", u, v, attrs))
            for nid, source in ((u, g1), (v, g2)):
                n = source.nodes[nid]
                nodes[nid] = merge_full(nodes[nid], n) if nid in nodes else n
    return build_graph(nodes.values(), links)


def merge_full(a, b):
    """Element ``a`` with the attributes of ``b`` merged in, always built
    anew: value sets are unioned per attribute, and an all-float 'score'
    of two or more values keeps its maximum."""
    attrs = dict(a.attrs)
    for name, values in b.attrs.items():
        attrs[name] = attrs[name] | values if name in attrs else values
    score = attrs.get("score")
    if score is not None and len(score) > 1 and all(isinstance(v, float) for v in score):
        attrs["score"] = frozenset({max(score)})
    return Link(a.id, a.src, a.tgt, attrs) if isinstance(a, Link) else Node(a.id, attrs)


def set_op_merging(kind, g1, g2):
    """Union or intersection, merging every element both operands hold
    with ``merge_full``."""
    kind = SetOpKind(kind)
    if kind is SetOpKind.NODE_MINUS:
        raise ValueError("node minus merges nothing")
    if kind is SetOpKind.UNION:
        nodes, links = dict(g1.nodes), dict(g1.links)
        for nid, n in g2.nodes.items():
            nodes[nid] = merge_full(nodes[nid], n) if nid in nodes else n
        for lid, l in g2.links.items():
            links[lid] = merge_full(links[lid], l) if lid in links else l
        return build_graph(nodes.values(), links.values())
    return build_graph(
        [merge_full(n, g2.nodes[nid]) for nid, n in g1.nodes.items() if nid in g2.nodes],
        [merge_full(l, g2.links[lid]) for lid, l in g1.links.items() if lid in g2.links],
    )


def semi_join_scan(g1, g2, delta):
    """Semi-join by its definition: the g1 links whose d1 endpoint is
    the d2 endpoint of some g2 link (of a link-less g2: some g2 node),
    with their endpoints; a link-less g1 keeps, links aside, the nodes
    that are d2 endpoints of g2 links."""
    ends = {getattr(l2, delta.d2) for l2 in g2.links.values()}
    if not g1.links:
        return build_graph([n for n in g1.nodes.values() if n.id in ends], [])
    if not g2.links:
        ends = set(g2.nodes)
    return _induced(g1, [l for l in g1.links.values() if getattr(l, delta.d1) in ends])


def link_select_scan(g, condition):
    """Link selection by the interpreter per link; a keyword condition sets
    each kept link's ``score`` to its default keyword score."""
    links = []
    for l in g.links.values():
        if satisfies(l, condition):
            if condition.keywords:
                score = default_keyword_score(l, condition.keywords)
                l = Link(l.id, l.src, l.tgt, {**l.attrs, "score": frozenset({score})})
            links.append(l)
    return _induced(g, links)


def _induced(g, links):
    """The graph of ``links`` and their endpoints, in first-link order."""
    nodes = {}
    for l in links:
        for nid in (l.src, l.tgt):
            nodes.setdefault(nid, g.nodes[nid])
    return build_graph(nodes.values(), links)


def visited_items_scan(g, user_id):
    return frozenset(
        l.tgt for l in g.links.values() if l.src == user_id and satisfies(l, VISIT)
    )


def acted_items_scan(g, user_id):
    return frozenset(
        l.tgt
        for l in g.links.values()
        if l.src == user_id and "item" in g.nodes[l.tgt].attrs["type"]
    )


def rating_scan(g, user_id, item_id):
    seen = False
    best = None
    for l in g.links.values():
        if l.src != user_id or l.tgt != item_id:
            continue
        seen = True
        for v in l.attrs.get("rating", ()):
            if isinstance(v, float) and (best is None or v > best):
                best = v
    if best is not None:
        return best
    return 1.0 if seen else 0.0


def all_taggers_scan(sets, item):
    out = set()
    for (iid, _), users in sets.taggers.items():
        if iid == item:
            out.update(users)
    return frozenset(out)


def provenance_scan(g, user_id, ranking, match_graph):
    """The provenance graph of ``discover``, filtering every visit link of
    the graph for each match link."""
    ranked_ids = [item for item, *_ in ranking]
    nodes = {user_id: g.nodes[user_id]}
    for item in ranked_ids:
        nodes[item] = g.nodes[item]
    links = {}
    ranked_set = set(ranked_ids)
    visit_links = [l for l in g.links.values() if satisfies(l, VISIT) and l.tgt in ranked_set]
    for ml in match_graph.links.values():
        peer = ml.tgt
        peer_visits = [l for l in visit_links if l.src == peer]
        if peer_visits:
            nodes[peer] = g.nodes[peer]
            links[ml.id] = ml
            for l in peer_visits:
                links[l.id] = l
    return build_graph(nodes.values(), links.values())


def topk_strict(index, user, keywords, k):
    """``topk_query`` with the Threshold Algorithm's strict stop test: the
    scan stops, checked once per round, once k items are in hand and the
    k-th best exact score strictly beats the sum of the list frontiers,
    and every newly seen item is exact-scored. It keeps only the best k
    positive scores, as (-score, item) pairs in answer order. Exact
    scores go through the module global ``index.exact_score``, so a
    counter patched in there sees it."""
    keywords = list(keywords)
    if k < 1:
        raise ValueError("k must be at least 1")
    cluster = index.model.assignment.get(user)
    if cluster is None:
        raise UnknownUserError(user)
    lists = [index.lists.get((kw, cluster), ()) for kw in keywords]
    pos = [0] * len(lists)
    unindexed = set(keywords) - index.vocabulary
    seen = {item for item, tag in index.sets.taggers if tag in unindexed} if unindexed else set()
    scored = ((-sgindex.exact_score(index.sets, item, user, keywords), item) for item in seen)
    top = sorted(pair for pair in scored if pair[0] < 0)[:k]  # (-score, item), ascending
    while True:
        progressed = False
        for j, entries in enumerate(lists):
            if pos[j] < len(entries):
                item, _ = entries[pos[j]]
                pos[j] += 1
                progressed = True
                if item not in seen:
                    seen.add(item)
                    s = sgindex.exact_score(index.sets, item, user, keywords)
                    if s > 0 and (len(top) < k or (-s, item) < top[-1]):
                        insort(top, (-s, item))
                        del top[k:]
        frontier = sum(
            entries[pos[j]][1] for j, entries in enumerate(lists) if pos[j] < len(entries)
        )
        if not progressed or (len(top) == k and -top[-1][0] > frontier):
            return [(item, -neg) for neg, item in top]


def topk_resort(index, user, keywords, k):
    """``topk_strict`` keeping every seen item and re-sorting all of them
    after each round-robin round; the items of unindexed keywords are
    scored up front, as there. Exact scores go through the module
    global ``index.exact_score``, as in ``topk_strict``, so a counter
    patched in there sees both."""
    keywords = list(keywords)
    if k < 1:
        raise ValueError("k must be at least 1")
    cluster = index.model.assignment.get(user)
    if cluster is None:
        raise UnknownUserError(user)
    lists = [index.lists.get((kw, cluster), ()) for kw in keywords]
    pos = [0] * len(lists)
    unindexed = set(keywords) - index.vocabulary
    upfront = {item for item, tag in index.sets.taggers if tag in unindexed}
    seen = {item: sgindex.exact_score(index.sets, item, user, keywords) for item in upfront}
    while True:
        progressed = False
        for j, entries in enumerate(lists):
            if pos[j] < len(entries):
                item, _ = entries[pos[j]]
                pos[j] += 1
                progressed = True
                if item not in seen:
                    seen[item] = sgindex.exact_score(index.sets, item, user, keywords)
        frontier = sum(
            entries[pos[j]][1] for j, entries in enumerate(lists) if pos[j] < len(entries)
        )
        ranked = sorted(
            ((item, s) for item, s in seen.items() if s > 0), key=lambda e: (-e[1], e[0])
        )
        if len(ranked) >= k and ranked[k - 1][1] > frontier:
            return ranked[:k]
        if not progressed:
            return ranked[:k]


def exact_tag_scores_dict(sets):
    """Every (item, tag) -> {user -> exact score} at once, nonzero entries
    only, in sorted key order: the materialised form of
    ``index._exact_tag_scores``."""
    befriended: dict = {}
    for u, net in sets.network.items():
        for v in net:
            befriended.setdefault(v, []).append(u)
    out: dict = {}
    for key, tagger_set in sorted(sets.taggers.items()):
        counts: dict = {}
        for t in tagger_set:
            for u in befriended.get(t, ()):
                counts[u] = counts.get(u, 0) + 1
        if counts:
            out[key] = counts
    return out


def build_index_fold(sets, model, tags):
    """``index.build_index`` with one flat ``(tag, cluster)`` bucket map,
    folded one (key, user) pair at a time through ``setdefault``, and
    each list ranked through a per-entry sort key."""
    tags = set(tags)
    best: dict = {}  # (tag, cluster) -> {item -> max score}
    for (item, tag), counts in sgindex._exact_tag_scores(sets):
        if tag not in tags:
            continue
        for u, score in counts.items():
            cluster = model.assignment.get(u)
            if cluster is None:
                continue
            bucket = best.setdefault((tag, cluster), {})
            if score > bucket.get(item, 0):
                bucket[item] = score
    lists = {
        key: tuple(sorted(bucket.items(), key=lambda e: (-e[1], e[0])))
        for key, bucket in sorted(best.items())
    }
    return sgindex.ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=frozenset(tags))


def _predicate(strategy, sets, u, leader):
    """Whether user ``u`` joins ``leader`` under the strategy, with every
    Jaccard computed by ``jaccard``."""
    if strategy.kind == "network":
        return jaccard(sets.network.get(u, ()), sets.network.get(leader, ())) >= strategy.theta
    if strategy.kind == "behavior":
        return jaccard(sets.items.get(u, ()), sets.items.get(leader, ())) >= strategy.theta
    net_u = sets.network.get(u, frozenset())
    net_l = sets.network.get(leader, frozenset())
    if not net_u or not net_l:
        return False
    return all(
        jaccard(sets.items.get(v1, ()), sets.items.get(v2, ())) >= strategy.theta
        for v1 in net_u
        for v2 in net_l
    )


def cluster_users_scan(sets, strategy):
    """``cluster_users`` as its own greedy-leader loop over leader ids,
    testing ``_predicate`` against every earlier leader; hybrid users
    with an empty network found a cluster unasked."""
    assignment: dict = {}
    leaders: dict = {}
    order: list = []  # leader ids, in founding order
    for u in sets.users:
        placed = None
        if not (strategy.kind == "hybrid" and not sets.network.get(u)):
            for leader in order:
                if _predicate(strategy, sets, u, leader):
                    placed = leader
                    break
        if placed is None:
            leaders[u] = u
            order.append(u)
            placed = u
        assignment[u] = placed
    return ClusterModel(assignment=assignment, leaders=leaders)


def social_groups_scan(items, g, theta):
    """Social grouping as its own greedy-leader loop, with the Jaccard of
    ``all_taggers`` written out."""
    sets = social_sets(g)
    groups: list = []  # (leader id, [(item, score)])
    for item, score in items:
        taggers = sets.all_taggers(item)
        placed = False
        for leader, members in groups:
            if jaccard(taggers, sets.all_taggers(leader)) >= theta:
                members.append((item, score))
                placed = True
                break
        if not placed:
            groups.append((item, [(item, score)]))
    return [
        _make_group(f"social:{leader}", _label_from(g, leader), members)
        for leader, members in groups
    ]


def topical_groups_scan(items, g):
    buckets: dict = {}
    order: list = []
    for item, score in items:
        topics = sorted(l.tgt for l in g.links.values() if l.src == item and "belong" in l.attrs["type"])
        key = topics[0] if topics else RESIDUAL
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append((item, score))
    out = []
    for key in order:
        label = RESIDUAL if key == RESIDUAL else _label_from(g, key)
        out.append(_make_group(f"topic:{key}", label, buckets[key]))
    return out


def structural_groups_scan(items, g, attr):
    buckets: dict = {}
    order: list = []
    for item, score in items:
        values = g.nodes[item].attrs.get(attr)
        keys = [str(v) for v in sorted_values(values)] if values else [RESIDUAL]
        for key in keys:
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append((item, score))
    return [_make_group(f"attr:{attr}={key}", key, buckets[key]) for key in order]


def tagger_sets_scan(g):
    """item id -> users with any 'tag' link to it, string tag or not."""
    out: dict = {}
    for l in g.links.values():
        if "tag" in l.attrs["type"]:
            out.setdefault(l.tgt, set()).add(l.src)
    return out


def content_recommend_scan(g, user_id, k, taggers):
    """Content recommendation with its own nested loop, item similarity
    being the Jaccard of the given item -> taggers map."""
    mine = acted_items(g, user_id)
    ratings = {other: rating(g, user_id, other) for other in mine}
    scored = []
    for n in g.nodes.values():
        if "item" not in n.attrs["type"] or n.id in mine:
            continue
        best = 0.0
        for other in mine:
            sim = jaccard(taggers.get(n.id, ()), taggers.get(other, ()))
            if sim > 0:
                best = max(best, sim * ratings[other])
        if best > 0:
            scored.append((n.id, best))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def item_similarity(sets, a, b):
    """The similarity of two items, one pair at a time: Jaccard of their
    taggers."""
    return jaccard(sets.all_taggers(a), sets.all_taggers(b))


def content_evidence(sets, ratings, item):
    """Content evidence for an item: (acted item, similarity x rating)
    for each entry of ``ratings`` (a user's acted items and their
    ratings), one ``item_similarity`` per entry, positive weights only."""
    out = []
    for other, r in ratings.items():
        weight = item_similarity(sets, item, other) * r
        if weight > 0:
            out.append((other, weight))
    return out


def _require_explained(g, user_id, item_id):
    if user_id not in g.nodes:
        raise UnknownUserError(user_id)
    if item_id not in g.nodes:
        raise UnknownItemError(item_id)


def explain_item_two_paths(g, user_id, item_id, strategy):
    """``explain_item`` with the ids and the strategy checked again for
    its summary, and an item's summary written apart from a group's."""
    _require_explained(g, user_id, item_id)
    if strategy not in ("content", "collaborative"):
        raise ValueError(f"unknown explanation strategy: {strategy!r}")
    sets = social_sets(g)
    mine = acted_items(g, user_id)
    if strategy == "content":
        ratings = {other: rating(g, user_id, other) for other in mine}
        evidence = content_evidence(sets, ratings, item_id)
    else:
        evidence = []
        for n in g.nodes.values():
            if "user" not in n.attrs["type"] or n.id == user_id:
                continue
            theirs = acted_items(g, n.id)
            if item_id not in theirs:
                continue
            sim = jaccard(mine, theirs)
            if sim > 0:
                weight = sim * rating(g, n.id, item_id)
                if weight > 0:
                    evidence.append((n.id, weight))
    evidence.sort(key=lambda e: (-e[1], e[0]))
    summary, _ = _aggregate_two_paths(sets, g, user_id, item_id, strategy)
    return Explanation(subject=(user_id, item_id), strategy=strategy, evidence=tuple(evidence), summary=summary)


def aggregate_explanations_two_paths(g, user_id, target, strategy):
    """``aggregate_explanations`` with one code path for an item and
    another for an ItemGroup."""
    return _aggregate_two_paths(social_sets(g), g, user_id, target, strategy)


def _aggregate_two_paths(sets, g, user_id, target, strategy):
    if isinstance(target, ItemGroup):
        ratios = [_aggregate_ratio_checked(sets, g, user_id, member, strategy) for member in target.members]
        ratio = sum(ratios) / len(ratios)
        pct = round(ratio * 100)
        if strategy == "collaborative":
            return f"{pct}% of your friends endorsed items in group '{target.label}'", ratio
        return f"items in group '{target.label}' are similar to {pct}% of items you visited before", ratio
    ratio = _aggregate_ratio_checked(sets, g, user_id, target, strategy)
    pct = round(ratio * 100)
    if strategy == "collaborative":
        return f"{pct}% of your friends endorsed this item", ratio
    return f"similar to {pct}% of items you visited before", ratio


def _aggregate_ratio_checked(sets, g, user_id, item_id, strategy):
    _require_explained(g, user_id, item_id)
    if strategy not in ("content", "collaborative"):
        raise ValueError(f"unknown explanation strategy: {strategy!r}")
    if strategy == "collaborative":
        network = sets.network.get(user_id, frozenset())
        if not network:
            return 0.0
        return len(network & sets.all_taggers(item_id)) / len(network)
    mine = acted_items(g, user_id)
    if not mine:
        return 0.0
    similar = sum(1 for other in mine if item_similarity(sets, item_id, other) > 0)
    return similar / len(mine)


def network_search_wired(g, user_id, place_condition):
    """Example 4 as hand-wired operator calls."""
    if user_id not in g.nodes:
        raise UnknownUserError(user_id)
    user = node_select(g, Condition(preds=(attr_eq("id", user_id),)))
    g1 = link_select(semi_join(g, user, DirectionalCondition("src", "src")), FRIEND)
    places = node_select(g, place_condition)
    g2 = link_select(semi_join(g, places, DirectionalCondition("tgt", "src")), VISIT)
    g3 = semi_join(g1, g2, DirectionalCondition("tgt", "src"))
    g4 = semi_join(g2, g1, DirectionalCondition("src", "tgt"))
    g5 = set_op(SetOpKind.UNION, g3, g4)
    g6 = link_select(semi_join(g, g3, DirectionalCondition("src", "tgt")), ACT)
    return set_op(SetOpKind.UNION, g5, g6)


def cf_pipeline_wired(g, user_id, sim_threshold):
    """Example 5 as hand-wired operator calls, returning its named stages."""
    me = node_select(g, Condition(preds=(attr_eq("id", user_id),)))
    others = node_select(g, Condition(preds=(attr_ne("id", user_id),)))
    g1 = link_select(semi_join(g, me, DirectionalCondition("src", "src")), VISIT)
    g1v = node_aggregate(g1, VISIT, "src", "vst", SafExpr("tgt"))
    g2 = link_select(semi_join(g, others, DirectionalCondition("src", "src")), VISIT)
    g2v = node_aggregate(g2, VISIT, "src", "vst", SafExpr("tgt"))
    sim_fn = CompositionFn((("sim", JaccardOf("left-src", "vst", "right-src", "vst")),))
    g3 = compose(g1v, g2v, DirectionalCondition("tgt", "tgt"), sim_fn)
    over = Condition(preds=(attr_gt("sim", sim_threshold),))
    g4 = link_aggregate(g3, over, (("type", ConstString("match")), ("sim", CopyAny("sim"))))
    g4m = link_select(g4, MATCH)
    g5 = link_select(semi_join(g, node_select(g, DESTINATION), DirectionalCondition("tgt", "src")), VISIT)
    copy_fn = CompositionFn((("sim_sc", CopyFrom("left-link", "sim")),))
    g6 = compose(
        semi_join(g4m, g5, DirectionalCondition("tgt", "src")),
        semi_join(g5, g4m, DirectionalCondition("src", "tgt")),
        DirectionalCondition("tgt", "src"),
        copy_fn,
    )
    g7 = link_aggregate(g6, Condition(), (("score", avg_of("sim_sc")),))
    return {"match": g4m, "visits": g5, "scored": g7}



def match_chains_recursive(g, gp):
    """The pattern matcher as a recursion: each partial chain is extended
    by a scan of every link of the next step, then a second pass reads
    off each chain's (start, end)."""
    tests = [satisfies_predicate(cond) for cond, _ in gp.steps]
    step_links = [[l for l in g.links.values() if holds(l)] for holds in tests]
    chains = []

    def extend(step, cursor, used):
        if step == len(gp.steps):
            chains.append(used)
            return
        cond_dir = gp.steps[step][1]
        for l in step_links[step]:
            if getattr(l, cond_dir) == cursor and all(u.id != l.id for u in used):
                extend(step + 1, getattr(l, opposite(cond_dir)), used + (l,))

    d0 = gp.steps[0][1]
    for first in step_links[0]:
        extend(1, getattr(first, opposite(d0)), (first,))
    out = []
    for chain in chains:
        start = getattr(chain[0], gp.steps[0][1])
        end = getattr(chain[-1], opposite(gp.steps[-1][1]))
        out.append((start, end, chain))
    return out


def pattern_aggregate_recursive(g, gp, specs):
    """``pattern_aggregate`` over the chains of ``match_chains_recursive``."""
    groups = {}
    for start, end, chain in match_chains_recursive(g, gp):
        groups.setdefault((start, end), []).append(chain)
    phash = algebra.pattern_hash(gp)
    links = list(g.links.values())
    for (start, end), chains in groups.items():
        attrs = {}
        for att, spec in specs:
            value = apply_agg(spec, chains)
            if value is not None:
                attrs[att] = value
        attrs.setdefault("type", frozenset({"path"}))
        links.append(Link(f"gen:paggr:{start}:{end}:{phash}", start, end, attrs))
    return build_graph(g.nodes.values(), links)


def _run_node_recursive(node, inputs, params, memo, keep):
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if node.kind == "input":
        name = node.params[0]
        if name not in inputs:
            raise UnboundReferenceError(name)
        result = inputs[name]
    else:
        # the input graph this node's result may be kept with, if any
        graph = inputs.get(node.source) if node.source else None
        entry = vars(graph).get("plan_results", {}).get(node.key) if graph is not None else None
        result = entry and entry[1]
        if result is None:
            fn, lead, _ = OPS[node.kind]
            args = [_run_node_recursive(child, inputs, params, memo, keep) for child in node.inputs]
            try:
                args += [params[p.name] if isinstance(p, Param) else p for p in node.params]
            except KeyError as e:
                raise UnboundReferenceError(f"${e.args[0]}", "parameter") from None
            result = getattr(algebra, fn)(*lead, *args)
            if keep and graph is not None:
                vars(graph).setdefault("plan_results", {})[node.key] = node.key, result
    memo[id(node)] = result
    return result


def execute_recursive(plan, inputs, params=None):
    """``dsl.execute`` as a recursion from each binding root, probing a
    memo keyed by node identity for the root and for every child, and
    skipping the children of a kept result. It keeps and reuses
    parameter-free results per graph (``plan_results``, as ``(key,
    result)`` entries under the compiled ``node.key``) and wraps
    failures with the binding name as ``execute`` does, but it runs every
    node with a ``$NAME`` below it: it neither reads nor writes the
    latest binding's results (``bound_results``)."""
    params = params or {}
    keep = bool(plan.params)
    memo = {}
    results = {}
    for name, node in plan.bindings:
        try:
            results[name] = _run_node_recursive(node, inputs, params, memo, keep)
        except ExecutionError:
            raise
        except (SocialGraphError, ValueError) as e:
            raise ExecutionError(name, e) from e
    return results

def run_as_written(program, inputs, params=None):
    """``program`` evaluated as written, binding by binding: one algebra
    call per operator occurrence, in argument order, with no rewrite, no
    result shared between equal occurrences and nothing kept with (or
    read from) the graphs. A name reads its binding's result or the input
    graph. Failures are wrapped with the binding name as ``dsl.execute``
    does."""
    params = params or {}
    env = {}

    def evaluate(expr):
        if isinstance(expr, Ref):
            if expr.name in env:
                return env[expr.name]
            if expr.name not in inputs:
                raise UnboundReferenceError(expr.name)
            return inputs[expr.name]
        fn, lead, shapes = OPS[expr.op]
        split = shapes.count("e")
        args = [evaluate(arg) for arg in expr.args[:split]]
        try:
            args += [params[p.name] if isinstance(p, Param) else p for p in expr.args[split:]]
        except KeyError as e:
            raise UnboundReferenceError(f"${e.args[0]}", "parameter") from None
        return getattr(algebra, fn)(*lead, *args)

    for name, expr in program.stmts:
        try:
            env[name] = evaluate(expr)
        except (SocialGraphError, ValueError) as e:
            raise ExecutionError(name, e) from e
    return env


def push_selections(program):
    """``program`` rewritten as an AST, with every link selection over a
    semi-join moved below it, level by level: lsel(semijoin(A, X, δ), c)
    becomes semijoin(lsel(A, c), X, δ), and a name that a binding gives
    a semi-join is read through that binding. The form ``dsl.compile``
    plans, written out apart from it."""
    env = {}

    def push(expr):
        if isinstance(expr, Ref):
            return expr
        split = OPS[expr.op][2].count("e")
        args = (*map(push, expr.args[:split]), *expr.args[split:])
        return select(*args) if expr.op == "lsel" else OpCall(expr.op, args)

    def select(g, cond):
        inner = g
        while isinstance(inner, Ref) and inner.name in env:
            inner = env[inner.name]
        if isinstance(inner, OpCall) and inner.op == "semijoin":
            a, x, delta = inner.args
            return OpCall("semijoin", (select(a, cond), x, delta))
        return OpCall("lsel", (g, cond))

    for name, expr in program.stmts:
        env[name] = push(expr)
    return Program(stmts=tuple(env.items()))


def exact(g) -> tuple:
    """Nodes and links in order, each with its attributes in key order,
    for comparing two results exactly."""
    return (
        [(n.id, list(n.attrs.items())) for n in g.nodes.values()],
        [(l.id, l.src, l.tgt, list(l.attrs.items())) for l in g.links.values()],
    )


# ---------------------------------------------------------------------------
# JSON-lines files, every line decoded and held before any is checked;
# each loader then checks the held lines in file order.


def _held_lines(path: str) -> list:
    """(line number, record, fault) for each non-blank line of ``path``:
    the decoded record and None, or None and the message of the line's
    invalid JSON or of an integer too long to decode."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                out.append((line_no, json.loads(text), None))
            except json.JSONDecodeError as e:
                out.append((line_no, None, f"invalid JSON: {e.msg}"))
            except ValueError as e:  # more digits than int() converts
                out.append((line_no, None, str(e)))
            except RecursionError:
                out.append((line_no, None, "invalid JSON: nested too deeply"))
    return out


# Graph files, loaded with fresh strings and value sets for every record.


def _graph_fields(path: str, ends: tuple) -> list:
    """Each record's id, its ``ends`` (``src`` and ``tgt`` for a link) and
    its attribute map, checked in that order."""
    out = []
    for line_no, record, fault in _held_lines(path):
        if fault is None and (not isinstance(record, dict) or "id" not in record):
            fault = "records need an 'id' field"
        if fault is None:
            try:
                ids = [_coerce_id(record["id"]), *(_coerce_id(record.get(end)) for end in ends)]
                attrs = record.get("attrs", {})
                if not isinstance(attrs, dict):
                    raise ValueError("'attrs' must be an object")
                out.append((*ids, attr_map(attrs)))
            except ValueError as e:
                fault = str(e)
        if fault is not None:
            raise GraphFileError(path, line_no, fault)
    return out


def load_graph_unshared(node_path: str, link_path: str):
    """``io.load_graph`` with no shared ids, names or value sets: each
    record holds the objects its own line decoded to."""
    nodes = [Node(*fields) for fields in _graph_fields(node_path, ())]
    links = [Link(*fields) for fields in _graph_fields(link_path, ("src", "tgt"))]
    return build_graph(nodes, links)


# ---------------------------------------------------------------------------
# Index snapshots, each held line checked against its section's shape
# by one generic ``_all_fit``, list lines included.

# The exact JSON types each leaf shape admits; being exact, a boolean is
# never a number.
_LEAF_TYPES = {str: {str}, float: {int, float}}


def _all_fit(values: list, shape) -> bool:
    """Whether every loaded JSON value in ``values`` has ``shape``: ``str``;
    ``float`` for any number; ``[s]`` for an array of ``s``; ``(s1, s2)``
    for a pair; ``{str: s}`` for an object of ``s`` values; any other dict
    for an object with at least those fields. The check goes a column at
    a time, not value by value: a snapshot holds hundreds of thousands."""
    if isinstance(shape, type):
        return set(map(type, values)) <= _LEAF_TYPES[shape]
    if isinstance(shape, (list, tuple)):
        if not set(map(type, values)) <= {list}:
            return False
        if isinstance(shape, list):
            return _all_fit(list(chain.from_iterable(values)), shape[0])
        return set(map(len, values)) <= {len(shape)} and all(
            _all_fit(list(map(itemgetter(i), values)), s) for i, s in enumerate(shape)
        )
    if not set(map(type, values)) <= {dict}:
        return False
    if str in shape:
        return _all_fit(list(chain.from_iterable(map(dict.values, values))), shape[str])
    # a missing field reads as None, which fits no shape
    return all(_all_fit([v.get(k) for v in values], s) for k, s in shape.items())


_MODEL_LINE = {"model": {"assignment": {str: str}, "leaders": {str: str}}}
_SETS_LINE = {
    "sets": {
        "network": {str: [str]},
        "items": {str: [str]},
        "taggers": [{"item": str, "tag": str, "users": [str]}],
    }
}
_LIST_LINE = {"tag": str, "cluster": str, "entries": [(str, float)]}


def _finite(numbers) -> bool:
    """Whether every loaded JSON number is finite and within float range."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an int beyond float range
        return False


def _ranked(entries: list) -> bool:
    """Whether [item, score] entries run by score descending, then item id."""
    return all(
        s1 > s2 or (s1 == s2 and i1 <= i2) for (i1, s1), (i2, s2) in zip(entries, entries[1:])
    )


def load_index_snapshot_held(path: str) -> ClusteredIndex:
    """Read a snapshot written by save_index_snapshot, its lines held and
    then checked in file order: the first faulty line raises. A line whose
    section, field or list entry is missing or mistyped, a list out of
    order, or a cluster without a leader that a user or list names raises
    GraphFileError with its line number, as does a score that is not
    finite or not within float range, or is negative; scores keep their
    JSON type. A file that ends before its sets line is truncated, at
    line 1."""
    header = model = sets = None
    lists = {}
    for line_no, rec, fault in _held_lines(path):
        if fault is not None:
            raise GraphFileError(path, line_no, fault)
        if header is None:
            if (
                not isinstance(rec, dict)
                or rec.get("format") != SNAPSHOT_FORMAT
                or rec.get("version") != SNAPSHOT_VERSION
            ):
                raise GraphFileError(path, line_no, "not a recognized index snapshot")
            if "vocabulary" in rec and not _all_fit([rec["vocabulary"]], [str]):
                raise GraphFileError(path, line_no, "malformed vocabulary")
            header = rec
        elif model is None:
            if not _all_fit([rec], _MODEL_LINE):
                raise GraphFileError(path, line_no, "malformed model line")
            model = ClusterModel(
                assignment=dict(rec["model"]["assignment"]), leaders=dict(rec["model"]["leaders"])
            )
            for cluster in model.assignment.values():
                if cluster not in model.leaders:
                    raise GraphFileError(path, line_no, f"cluster {cluster!r} has no leader")
        elif sets is None:
            if not _all_fit([rec], _SETS_LINE):
                raise GraphFileError(path, line_no, "malformed sets line")
            sets_rec = rec["sets"]
            sets = SocialSets(
                network={u: frozenset(v) for u, v in sets_rec["network"].items()},
                items={u: frozenset(v) for u, v in sets_rec["items"].items()},
                taggers={
                    (entry["item"], entry["tag"]): frozenset(entry["users"])
                    for entry in sets_rec["taggers"]
                },
            )
        else:
            if not _all_fit([rec], _LIST_LINE):
                raise GraphFileError(path, line_no, "malformed inverted list line")
            if rec["cluster"] not in model.leaders:
                raise GraphFileError(path, line_no, f"cluster {rec['cluster']!r} has no leader")
            entries = rec["entries"]
            if not _finite(map(itemgetter(1), entries)):
                raise GraphFileError(path, line_no, "list scores must be finite numbers")
            if not _ranked(entries):
                raise GraphFileError(path, line_no, "entries not sorted by score descending, then item id")
            if any(score < 0 for _, score in entries):
                raise GraphFileError(path, line_no, "list scores must not be negative")
            lists[(rec["tag"], rec["cluster"])] = tuple((item, score) for item, score in entries)
    if sets is None:
        raise GraphFileError(path, 1, "truncated index snapshot")
    vocabulary = frozenset(header["vocabulary"]) if "vocabulary" in header else frozenset(tag for _, tag in sets.taggers)
    return ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=vocabulary)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_TWO_CHAR = ("!=", "<=", ">=")
_ONE_CHAR = "()[]{},;:@.<>=-$"


def tokenize_line_loop(text, line_no):
    """The script tokenizer as a loop over characters."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise DslSyntaxError(line_no, col, "closing quote")
            tokens.append(Token("STRING", text[i + 1 : end], line_no, col))
            i = end + 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(Token("NAME", m.group(), line_no, col))
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("NUMBER", m.group(), line_no, col))
            i = m.end()
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("PUNCT", two, line_no, col))
            i += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("PUNCT", ch, line_no, col))
            i += 1
            continue
        raise DslSyntaxError(line_no, col, f"a token (found {ch!r})")
    tokens.append(Token("EOL", "", line_no, len(text) + 1))
    return tokens


# The package namespace as the eager ``__init__`` built it: every
# submodule it imported, and each re-exported name with the module that
# defines it, less the one-call aggregate and composition evaluators
# (``apply_composition``, ``eval_naf``, ``eval_saf``) since deleted.
# ``test_namespace.py`` checks the lazy namespace against it.
EAGER_SUBMODULES = (
    "aggfn", "algebra", "discovery", "dsl", "errors", "fixtures", "graph", "index", "io", "presentation",
)
EAGER_EXPORTS = {
    "aggfn": (
        "COUNT", "AttrRef", "Arith", "Builtin", "CompositionFn", "Const", "ConstString", "CopyAny",
        "CopyFrom", "JaccardOf", "ProdOver", "SafExpr", "SumOver", "avg_of", "jaccard", "max_of",
        "min_of", "sum_of",
    ),
    "algebra": (
        "GraphPattern", "SetOpKind", "compose", "link_aggregate", "link_minus", "link_select",
        "node_aggregate", "node_select", "pattern_aggregate", "semi_join", "set_op",
    ),
    "discovery": (
        "DiscoveryConfig", "MeaningfulSocialGraph", "cf_recommend", "content_recommend", "discover",
        "network_search",
    ),
    "errors": ("SocialGraphError",),
    "graph": (
        "Condition", "DirectionalCondition", "Link", "Node", "SocialContentGraph", "StructPredicate",
        "attr_eq", "attr_ge", "attr_gt", "attr_le", "attr_lt", "attr_ne", "build_graph",
        "default_keyword_score", "has_all", "link", "node", "satisfies",
    ),
    "index": (
        "ClusteredIndex", "ClusteringStrategy", "ClusterModel", "SocialSets", "build_index",
        "cluster_users", "estimate_index_size", "exact_score", "social_sets", "topk_query",
    ),
    "io": ("load_graph", "save_graph"),
    "presentation": (
        "Explanation", "ItemGroup", "SocialGrouping", "StructuralGrouping", "TopicalGrouping",
        "aggregate_explanations", "explain_item", "group_items", "select_groups",
    ),
}
