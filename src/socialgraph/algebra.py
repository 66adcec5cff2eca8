"""The graph operator algebra: selections, set operators, composition,
semi-join, and the three aggregation operators.

Every operator is a pure function from well-formed graphs to a
well-formed graph. Those that output only elements of one operand
(selections, semi-join, link minus, node minus, node aggregation) are
closed by construction; union and intersection check only the two ways
merging well-formed operands can fail; those that mint elements
(composition, link and pattern aggregation) finish through
``build_graph``, which checks what they made. Operators are
deterministic, including the ids they mint for derived links, so
identical inputs replay to identical outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter

from .aggfn import (
    AggSpec,
    CompositionFn,
    ConstString,
    CopyAny,
    compile_agg,
    compile_composition,
)
from .errors import DanglingEndpointError, DuplicateIdError, PatternTooLongError
from .graph import (
    IDENTITY_FIELDS,
    Condition,
    DirectionalCondition,
    Link,
    Node,
    ScoringFn,
    SocialContentGraph,
    as_scalar,
    build_graph,
    check_direction,
    compile_condition,
    default_keyword_score,
    links_by,
    opposite,
)

MAX_PATTERN_STEPS = 4


class SetOpKind(str, Enum):
    UNION = "union"
    INTERSECT = "intersect"
    NODE_MINUS = "node_minus"


@dataclass(frozen=True)
class GraphPattern:
    """A linear chain of (link condition, attach direction) steps.

    Each step's direction names the endpoint of that step's link which
    attaches to the previous step's far endpoint (the chain's start node
    for the first step).
    """

    steps: tuple  # of (Condition, "src"|"tgt")

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("graph patterns need at least one step")
        for _, d in steps:
            check_direction(d)
        object.__setattr__(self, "steps", steps)


# ---------------------------------------------------------------------------
# Deterministic digests for generated ids


def _digest(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:10]


def condition_hash(c: Condition) -> str:
    return _digest(c.token)


def pattern_hash(gp: GraphPattern) -> str:
    return _digest("->".join(f"{c.token}@{d}" for c, d in gp.steps))


# ---------------------------------------------------------------------------
# Selections


def _scored(element, score: float):
    return replace(element, attrs={**element.attrs, "score": frozenset({as_scalar(score)})})


def node_select(
    g: SocialContentGraph, c: Condition, scoring: ScoringFn | None = None
) -> SocialContentGraph:
    """Null graph of the nodes satisfying ``c``; keyword conditions
    attach a ``score`` attribute (default scoring unless overridden)."""
    holds = compile_condition(c)
    selected = [v for v in g.nodes.values() if holds(v)]
    if c.keywords:
        s = scoring or (lambda v: default_keyword_score(v, c.keywords))
        selected = [_scored(v, s(v)) for v in selected]
    return SocialContentGraph({v.id: v for v in selected}, {})


def link_select(
    g: SocialContentGraph, c: Condition, scoring: ScoringFn | None = None
) -> SocialContentGraph:
    """Subgraph induced by the links satisfying ``c`` (their endpoints
    become the node set); keyword scores land on the links."""
    holds = compile_condition(c)
    selected = [l for l in g.links.values() if holds(l)]
    if c.keywords:
        s = scoring or (lambda l: default_keyword_score(l, c.keywords))
        selected = [_scored(l, s(l)) for l in selected]
    return _induced(g, selected)


def _induced(g: SocialContentGraph, links: list) -> SocialContentGraph:
    """The graph of ``links``, all of ``g``, and their endpoints in ``g``:
    well-formed because ``g`` is."""
    nodes, g_nodes = {}, g.nodes
    for l in links:
        if l.src not in nodes:
            nodes[l.src] = g_nodes[l.src]
        if l.tgt not in nodes:
            nodes[l.tgt] = g_nodes[l.tgt]
    return SocialContentGraph(nodes, {l.id: l for l in links})


# ---------------------------------------------------------------------------
# Set operators


def _merge_attrs(a: dict, b: dict) -> dict:
    """Consolidate two attribute maps for the same element id: value
    sets are unioned per attribute; 'score' keeps the maximum."""
    out = dict(a)
    for name, values in b.items():
        if name in out:
            out[name] = out[name] | values
        else:
            out[name] = values
    score = out.get("score")
    if score is not None and len(score) > 1 and all(isinstance(v, float) for v in score):
        out["score"] = frozenset({max(score)})
    return out


def _merge(a, b):
    """Node or link ``a`` with the attributes of ``b`` (same id) merged in;
    ``a`` itself when ``b`` is ``a``, which merging would not change, unless
    its 'score' holds two or more values (floats collapse to their maximum)."""
    if b is a and len(a.attrs.get("score", ())) < 2:
        return a
    attrs = _merge_attrs(a.attrs, b.attrs)
    return Link(a.id, a.src, a.tgt, attrs) if isinstance(a, Link) else Node(a.id, attrs)


def set_op(kind: SetOpKind, g1: SocialContentGraph, g2: SocialContentGraph) -> SocialContentGraph:
    """Union, intersection, or node-driven minus; elements with the same
    id are consolidated by attribute merge. The operands being well-formed,
    only two things can fail, and only they are checked: a union where a
    node id of one operand is a link id of the other, and an intersection
    keeping a link without one of its endpoints."""
    kind = SetOpKind(kind)
    if kind is SetOpKind.UNION:
        nodes = dict(g1.nodes)
        for nid, n in g2.nodes.items():
            nodes[nid] = _merge(nodes[nid], n) if nid in nodes else n
        links = dict(g1.links)
        for lid, l in g2.links.items():
            links[lid] = _merge(links[lid], l) if lid in links else l
        if not nodes.keys().isdisjoint(links.keys()):
            raise DuplicateIdError(next(lid for lid in links if lid in nodes))
        return SocialContentGraph(nodes, links)
    if kind is SetOpKind.INTERSECT:
        nodes = {nid: _merge(n, g2.nodes[nid]) for nid, n in g1.nodes.items() if nid in g2.nodes}
        links = {lid: _merge(l, g2.links[lid]) for lid, l in g1.links.items() if lid in g2.links}
        for l in links.values():
            for endpoint in (l.src, l.tgt):
                if endpoint not in nodes:
                    raise DanglingEndpointError(l.id, endpoint)
        return SocialContentGraph(nodes, links)
    # Node-driven minus: survivors are g1 nodes absent from g2; links of
    # g1 (not in g2) survive only when both endpoints do.
    nodes = {nid: n for nid, n in g1.nodes.items() if nid not in g2.nodes}
    links = {
        lid: l
        for lid, l in g1.links.items()
        if lid not in g2.links and l.src in nodes and l.tgt in nodes
    }
    return SocialContentGraph(nodes, links)


def link_minus(g1: SocialContentGraph, g2: SocialContentGraph) -> SocialContentGraph:
    """Link-driven minus: keep g1 links absent from g2, inducing the
    node set from the surviving links."""
    return _induced(g1, [l for lid, l in g1.links.items() if lid not in g2.links])


# ---------------------------------------------------------------------------
# Composition and semi-join


def compose(
    g1: SocialContentGraph,
    g2: SocialContentGraph,
    delta: DirectionalCondition,
    f: CompositionFn,
) -> SocialContentGraph:
    """Pair every g1 link with every g2 link matching on the delta
    endpoints and mint one new link per pair, attributed by ``f``.

    The new link runs from the g1 link's far endpoint to the g2 link's
    far endpoint. Pairs are not deduplicated; a pair of identical link
    ids (self composition) is allowed. Links whose composition function
    does not set "type" default to type='composed'.
    """
    nodes: dict = {}
    merged: dict = {}  # node id -> the operand node last merged into it
    links = []
    end1, far1, far2 = attrgetter(delta.d1), attrgetter(opposite(delta.d1)), attrgetter(opposite(delta.d2))
    # Hash join: g2 links bucketed by their d2 endpoint in g2 order, so
    # the g1-outer loop yields pairs in nested-loop order.
    buckets = links_by(g2.links.values(), delta.d2)
    attributes, composed = compile_composition(f), frozenset({"composed"})
    for l1 in g1.links.values():
        u = far1(l1)
        for l2 in buckets.get(end1(l1), ()):
            v = far2(l2)
            attrs = attributes(l1, l2, g1.nodes, g2.nodes)
            if "type" not in attrs:
                attrs["type"] = composed
            links.append(Link(f"gen:compose:{l1.id}:{l2.id}", u, v, attrs))
            for nid, n in ((u, g1.nodes[u]), (v, g2.nodes[v])):
                if nid not in nodes:
                    nodes[nid] = n
                elif merged.get(nid) is not n:  # re-merging the node last merged adds nothing
                    nodes[nid] = _merge(nodes[nid], n)
                    merged[nid] = n
    return build_graph(nodes.values(), links)


def semi_join(
    g1: SocialContentGraph, g2: SocialContentGraph, delta: DirectionalCondition
) -> SocialContentGraph:
    """Subgraph of g1 induced by its links whose d1 endpoint matches the
    d2 endpoint of some g2 link.

    Null-graph operands degrade to node matching: a link-less g2 is
    matched by node id directly, and a link-less g1 yields the null
    graph of its nodes matched by g2's link endpoints.
    """
    if g2.links or not g1.links:
        targets = set(map(attrgetter(delta.d2), g2.links.values()))
    else:
        targets = g2.nodes
    if not g1.links:
        return SocialContentGraph({nid: n for nid, n in g1.nodes.items() if nid in targets}, {})
    end = attrgetter(delta.d1)
    return _induced(g1, [l for l in g1.links.values() if end(l) in targets])


# ---------------------------------------------------------------------------
# Aggregation operators


def _writable(att: str, reserved: tuple = IDENTITY_FIELDS) -> str:
    """``att``, unless it names a field an aggregation may not write."""
    if att in reserved:
        raise ValueError(f"aggregation may not overwrite {att!r}")
    return att


def node_aggregate(
    g: SocialContentGraph, c: Condition, d: str, att: str, spec: AggSpec
) -> SocialContentGraph:
    """Attach ``att`` to every node that anchors (via its ``d`` side) at
    least one link satisfying ``c``; the direction acts as the group-by."""
    _writable(att, (*IDENTITY_FIELDS, "type"))
    if isinstance(spec, (ConstString, CopyAny)):
        raise ValueError("node aggregation takes a set or numerical aggregate")
    check_direction(d)
    groups = links_by(g.links.values(), d, compile_condition(c))
    aggregate, nodes = compile_agg(spec), {}
    for nid, n in g.nodes.items():
        rows = groups.get(nid)
        value = aggregate(rows) if rows else None
        nodes[nid] = n if value is None else Node(nid, {**n.attrs, att: value})
    return SocialContentGraph(nodes, g.links)


def link_aggregate(g: SocialContentGraph, c: Condition, specs) -> SocialContentGraph:
    """Collapse the links satisfying ``c`` into one link per (src, tgt)
    pair, attributed by ``specs`` (a list of (attribute, AggSpec)).

    Non-qualifying links and every node are kept. A new link whose specs
    do not set "type" inherits the union of its group's type sets.
    """
    specs = [(_writable(att), compile_agg(spec)) for att, spec in specs]
    if not specs:
        raise ValueError("link aggregation needs at least one (attribute, spec) pair")
    chash = condition_hash(c)
    holds = compile_condition(c)
    kept = []
    groups: dict = {}
    for l in g.links.values():
        if holds(l):
            groups.setdefault((l.src, l.tgt), []).append(l)
        else:
            kept.append(l)
    for (src, tgt), rows in groups.items():
        attrs = {att: v for att, fn in specs if (v := fn(rows)) is not None}
        if "type" not in attrs:
            attrs["type"] = frozenset().union(*(l.attrs["type"] for l in rows))
        kept.append(Link(f"gen:laggr:{src}:{tgt}:{chash}", src, tgt, attrs))
    return build_graph(g.nodes.values(), kept)


def _match_chains(g: SocialContentGraph, gp: GraphPattern) -> list:
    """The chains matching the pattern as (start, end, link tuple), in
    lexicographic order of link position in ``g.links``.

    Each step is a hash join, as in ``compose``: every partial chain is
    extended, at its end node, by that step's links bucketed by their
    attaching endpoint in ``g`` order. Node repetition is allowed; link
    repetition within one chain is not.
    """
    (c0, d0), *rest = gp.steps
    holds, first, last = compile_condition(c0), attrgetter(d0), attrgetter(opposite(d0))
    chains = [(first(l), last(l), (l,)) for l in g.links.values() if holds(l)]
    for cond, d in rest:
        buckets = links_by(g.links.values(), d, compile_condition(cond))
        far = attrgetter(opposite(d))
        chains = [
            (start, far(l), chain + (l,))
            for start, end, chain in chains
            for l in buckets.get(end, ())
            if all(u.id != l.id for u in chain)
        ]
    return chains


def pattern_aggregate(g: SocialContentGraph, gp: GraphPattern, specs) -> SocialContentGraph:
    """Group the chains matching ``gp`` by (start, end) and add one new
    link per group; the original graph is retained.

    Aggregate specs may address a specific chain position via their
    ``step`` field; without one they read the first link in the chain
    carrying the attribute. New links default to type='path'.
    """
    specs = [(_writable(att), compile_agg(spec, chains=True)) for att, spec in specs]
    if not specs:
        raise ValueError("pattern aggregation needs at least one (attribute, spec) pair")
    if len(gp.steps) > MAX_PATTERN_STEPS:
        raise PatternTooLongError(len(gp.steps), MAX_PATTERN_STEPS)
    phash = pattern_hash(gp)
    groups: dict = {}
    for start, end, chain in _match_chains(g, gp):
        groups.setdefault((start, end), []).append(chain)
    links = list(g.links.values())
    for (start, end), chains in groups.items():
        attrs = {att: v for att, fn in specs if (v := fn(chains)) is not None}
        if "type" not in attrs:
            attrs["type"] = frozenset({"path"})
        links.append(Link(f"gen:paggr:{start}:{end}:{phash}", start, end, attrs))
    return build_graph(g.nodes.values(), links)

