"""Canned discovery pipelines: network-aware search, collaborative and
content-based recommendation, and the combined semantic+social entry
point that returns a Meaningful Social Graph.

The search and collaborative-filtering pipelines are straight
compositions of the algebra operators (the same plans the query
language can express); the ranking layers on top only read the scored
links out of the final graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggfn import CompositionFn, ConstString, CopyAny, CopyFrom, JaccardOf, SafExpr, avg_of
from .algebra import SetOpKind, link_select, node_select, semi_join, set_op, compose, link_aggregate, node_aggregate
from .errors import UnknownUserError
from .graph import (
    Condition,
    DirectionalCondition,
    SocialContentGraph,
    attr_eq,
    attr_gt,
    attr_ne,
    build_graph,
    compile_condition,
    default_keyword_score,
)
from .index import SocialSets, social_sets

VISIT = Condition(preds=(attr_eq("type", "visit"),))
FRIEND = Condition(preds=(attr_eq("type", "friend"),))
ACT = Condition(preds=(attr_eq("type", "act"),))
MATCH = Condition(preds=(attr_eq("type", "match"),))
DESTINATION = Condition(preds=(attr_eq("type", "destination"),))
_is_visit = compile_condition(VISIT)


@dataclass(frozen=True)
class DiscoveryConfig:
    """Knobs of the combined pipeline: similarity threshold for the CF
    match step, blend weight between semantic and social relevance, and
    result count."""

    alpha: float = 0.5
    sim_threshold: float = 0.5
    k: int = 10

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if not 0.0 <= self.sim_threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.sim_threshold!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class MeaningfulSocialGraph:
    """Ranked items plus their social provenance subgraph."""

    graph: SocialContentGraph
    ranking: tuple  # of (item id, combined, semantic, social)


def _require_user(g: SocialContentGraph, user_id: str):
    if user_id not in g.nodes:
        raise UnknownUserError(user_id)


def network_search(
    g: SocialContentGraph, user_id: str, place_condition: Condition
) -> SocialContentGraph:
    """Find the user's friends who visited places satisfying the
    condition, the places, and all those friends' activities."""
    _require_user(g, user_id)
    user = node_select(g, Condition(preds=(attr_eq("id", user_id),)))
    g1 = link_select(semi_join(g, user, DirectionalCondition("src", "src")), FRIEND)
    places = node_select(g, place_condition)
    g2 = link_select(semi_join(g, places, DirectionalCondition("tgt", "src")), VISIT)
    g3 = semi_join(g1, g2, DirectionalCondition("tgt", "src"))
    g4 = semi_join(g2, g1, DirectionalCondition("src", "tgt"))
    g5 = set_op(SetOpKind.UNION, g3, g4)
    g6 = link_select(semi_join(g, g3, DirectionalCondition("src", "tgt")), ACT)
    return set_op(SetOpKind.UNION, g5, g6)


def cf_pipeline(g: SocialContentGraph, user_id: str, sim_threshold: float) -> dict:
    """The collaborative-filtering plan, returning its named stages.

    'scored' holds one link user->destination per recommendable
    destination with a ``score`` attribute (average of the contributing
    similarity scores); 'match' holds the over-threshold similarity
    links user->peer.
    """
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
    # Def-10 aggregation keeps sub-threshold links around; the match-only
    # subgraph is what the final join steps must see.
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


def visited_items(g: SocialContentGraph, user_id: str) -> frozenset:
    """Destinations the user already has a 'visit' link to."""
    return frozenset(l.tgt for l in g.out_links.get(user_id, ()) if _is_visit(l))


def _link_score(l) -> float:
    (value,) = l.attrs["score"]
    return value


def cf_recommend(g: SocialContentGraph, user_id: str, cfg: DiscoveryConfig | None = None):
    """Collaborative filtering: returns (scored graph, ranking).

    The ranking lists (item id, score) for unvisited destinations only,
    score descending with item-id tiebreak; the graph keeps every
    scored link for provenance.
    """
    cfg = cfg or DiscoveryConfig()
    _require_user(g, user_id)
    stages = cf_pipeline(g, user_id, cfg.sim_threshold)
    scored = stages["scored"]
    skip = visited_items(g, user_id)
    ranking = [
        (l.tgt, _link_score(l)) for l in scored.links.values() if l.tgt not in skip
    ]
    ranking.sort(key=lambda e: (-e[1], e[0]))
    return scored, ranking


def acted_items(g: SocialContentGraph, user_id: str) -> frozenset:
    """Items the user has any link to (tagging, visiting, rating...)."""
    return frozenset(
        l.tgt for l in g.out_links.get(user_id, ()) if "item" in g.nodes[l.tgt].attrs["type"]
    )


def rating(g: SocialContentGraph, user_id: str, item_id: str) -> float:
    """The user's rating of an item: the maximum 'rating' value over
    their links to it, 1.0 when linked without a rating, else 0.0."""
    seen = False
    best = None
    for l in g.out_links.get(user_id, ()):
        if l.tgt != item_id:
            continue
        seen = True
        for v in l.attrs.get("rating", ()):
            if isinstance(v, float) and (best is None or v > best):
                best = v
    if best is not None:
        return best
    return 1.0 if seen else 0.0


def content_evidence(sets: SocialSets, ratings: dict, item: str) -> list:
    """Content evidence for an item: (acted item, similarity x rating)
    for each entry of ``ratings`` (a user's acted items and their
    ratings), positive weights only."""
    out = []
    for other, r in ratings.items():
        weight = sets.item_similarity(item, other) * r
        if weight > 0:
            out.append((other, weight))
    return out


def content_recommend(g: SocialContentGraph, user_id: str, k: int) -> list:
    """Content strategy: score unseen items by their best content
    evidence (``content_evidence``). Returns at most k positive
    (item, score) pairs."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_user(g, user_id)
    sets = social_sets(g)
    mine = acted_items(g, user_id)
    ratings = {other: rating(g, user_id, other) for other in mine}
    scored = []
    for n in g.nodes.values():
        if "item" not in n.attrs["type"] or n.id in mine:
            continue
        evidence = content_evidence(sets, ratings, n.id)
        if evidence:
            scored.append((n.id, max(w for _, w in evidence)))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def discover(
    g: SocialContentGraph, user_id: str, query: Condition, cfg: DiscoveryConfig | None = None
) -> MeaningfulSocialGraph:
    """Combined semantic+social discovery.

    Candidates are the unvisited 'item' nodes satisfying the query's
    structural predicates (the scope). Semantic relevance is the
    default keyword score (1.0 across the board without keywords);
    social relevance is the collaborative-filtering score min-max
    normalized over the candidates (all equal => 1.0). The two blend as
    alpha*semantic + (1-alpha)*social. An item is ranked only on
    positive evidence: matched keywords or a positive social score.
    """
    cfg = cfg or DiscoveryConfig()
    _require_user(g, user_id)
    in_scope = compile_condition(Condition(preds=query.preds))
    skip = visited_items(g, user_id)
    candidates = [
        n
        for n in g.nodes.values()
        if "item" in n.attrs["type"] and n.id not in skip and in_scope(n)
    ]
    stages = cf_pipeline(g, user_id, cfg.sim_threshold)
    cf_scores = {
        l.tgt: _link_score(l) for l in stages["scored"].links.values() if l.tgt not in skip
    }
    semantic = {
        n.id: (default_keyword_score(n, query.keywords) if query.keywords else 1.0)
        for n in candidates
    }
    raw_social = {n.id: cf_scores.get(n.id, 0.0) for n in candidates}
    social = _min_max(raw_social)
    entries = []
    for n in candidates:
        has_evidence = (query.keywords and semantic[n.id] > 0) or raw_social[n.id] > 0
        combined = cfg.alpha * semantic[n.id] + (1 - cfg.alpha) * social[n.id]
        if has_evidence and combined > 0:
            entries.append((n.id, combined, semantic[n.id], social[n.id]))
    entries.sort(key=lambda e: (-e[1], e[0]))
    ranking = tuple(entries[: cfg.k])
    return MeaningfulSocialGraph(
        graph=_provenance_graph(g, user_id, ranking, stages["match"]),
        ranking=ranking,
    )


def _min_max(scores: dict) -> dict:
    if not scores:
        return {}
    low, high = min(scores.values()), max(scores.values())
    if high == low:
        return {k: 1.0 for k in scores}
    return {k: (v - low) / (high - low) for k, v in scores.items()}


def _provenance_graph(g, user_id, ranking, match_graph) -> SocialContentGraph:
    """User + ranked items + the match links and visit links that
    justify them (contributing peers included)."""
    ranked_ids = [item for item, *_ in ranking]
    nodes = {user_id: g.nodes[user_id]}
    for item in ranked_ids:
        nodes[item] = g.nodes[item]
    links = {}
    ranked_set = set(ranked_ids)
    contributing = set()
    for ml in match_graph.links.values():
        peer = ml.tgt
        peer_visits = [
            l for l in g.out_links.get(peer, ()) if l.tgt in ranked_set and _is_visit(l)
        ]
        if peer_visits:
            contributing.add(peer)
            links[ml.id] = ml
            for l in peer_visits:
                links[l.id] = l
    for peer in contributing:
        nodes[peer] = g.nodes[peer]
    return build_graph(nodes.values(), links.values())
