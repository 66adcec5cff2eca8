"""Canned discovery pipelines: network-aware search, collaborative and
content-based recommendation, and the combined semantic+social entry
point that returns a Meaningful Social Graph.

The search and collaborative-filtering pipelines are query scripts,
compiled on first use and run by ``dsl.execute`` with the caller's
conditions bound as ``$NAME`` params; the ranking layers on top only
read the scored links out of the final graph. ``dsl`` is imported only
where a plan is compiled or run, so content recommendation does not
load the query language or the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .errors import DuplicateIdError, UnknownUserError
from .graph import (
    Condition,
    SocialContentGraph,
    attr_eq,
    attr_gt,
    attr_ne,
    compile_condition,
    default_keyword_score,
)
from .index import social_sets

if TYPE_CHECKING:
    from .dsl import Plan

VISIT = Condition(preds=(attr_eq("type", "visit"),))
_is_visit = compile_condition(VISIT)

# Examples 4 and 5, statement for statement as in the script corpus.
SEARCH_SCRIPT = """
U  = nsel(G, $user)
G1 = lsel(semijoin(G, U, (src,src)), [type='friend'])
P  = nsel(G, $places)
G2 = lsel(semijoin(G, P, (tgt,src)), [type='visit'])
G3 = semijoin(G1, G2, (tgt,src))
G4 = semijoin(G2, G1, (src,tgt))
G5 = union(G3, G4)
G6 = lsel(semijoin(G, G3, (src,tgt)), [type='act'])
G7 = union(G5, G6)
"""

# Def-10 aggregation (G4) keeps the sub-threshold links around; the
# match-only G4m is what the final join steps must see.
CF_SCRIPT = """
ME  = nsel(G, $user)
G1  = lsel(semijoin(G, ME, (src,src)), [type='visit'])
G1v = naggr(G1, [type='visit'], src, vst, set(tgt))
OTH = nsel(G, $others)
G2  = lsel(semijoin(G, OTH, (src,src)), [type='visit'])
G2v = naggr(G2, [type='visit'], src, vst, set(tgt))
G3  = compose(G1v, G2v, (tgt,tgt), {sim: jaccard(lsrc.vst, rsrc.vst)})
G4  = laggr(G3, $over, {type: const('match'), sim: any(sim)})
G4m = lsel(G4, [type='match'])
G5  = lsel(semijoin(G, nsel(G, [type='destination']), (tgt,src)), [type='visit'])
G6  = compose(semijoin(G4m, G5, (tgt,src)), semijoin(G5, G4m, (src,tgt)), (tgt,src), {sim_sc: copy(l.sim)})
G7  = laggr(G6, [], {score: avg(sim_sc)})
"""


@cache
def _plan(script: str) -> Plan:
    from . import dsl

    return dsl.compile(dsl.parse(script))


def _run(script: str, g: SocialContentGraph, params: dict) -> dict:
    """Every binding of a built-in script run on ``g`` as its input G."""
    from . import dsl

    return dsl.execute(_plan(script), {"G": g}, params)


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
    user = Condition(preds=(attr_eq("id", user_id),))
    return _run(SEARCH_SCRIPT, g, {"user": user, "places": place_condition})["G7"]


def cf_pipeline(g: SocialContentGraph, user_id: str, sim_threshold: float) -> dict:
    """The collaborative-filtering plan, returning its named stages.

    'scored' holds one link user->destination per recommendable
    destination with a ``score`` attribute (average of the contributing
    similarity scores); 'match' holds the over-threshold similarity
    links user->peer.
    """
    params = {
        "user": Condition(preds=(attr_eq("id", user_id),)),
        "others": Condition(preds=(attr_ne("id", user_id),)),
        "over": Condition(preds=(attr_gt("sim", sim_threshold),)),
    }
    stages = _run(CF_SCRIPT, g, params)
    return {"match": stages["G4m"], "visits": stages["G5"], "scored": stages["G7"]}


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


def content_recommend(g: SocialContentGraph, user_id: str, k: int) -> list:
    """Content strategy: score unseen items by their best content
    evidence, the largest similarity x rating over the user's acted
    items. Returns at most k positive (item, score) pairs.

    Only an item that shares a tagger with an acted item has positive
    evidence, so each acted item reaches its unseen candidates, with
    their similarities, through the taggers' postings (``item_similarities``
    without the acted items) instead of computing one similarity per
    (item, acted item) pair."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_user(g, user_id)
    sets = social_sets(g)
    mine = acted_items(g, user_id)
    best: dict = {}
    for other in mine:
        r = rating(g, user_id, other)
        for item, sim in sets._similarities(other, mine).items():
            weight = sim * r
            if weight > best.get(item, 0.0):
                best[item] = weight
    scored = [(item, score) for item, score in best.items() if "item" in g.nodes[item].attrs["type"]]
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
    cf_scores = {l.tgt: _link_score(l) for l in stages["scored"].links.values()}
    raw_social = {n.id: cf_scores.get(n.id, 0.0) for n in candidates}
    social = _min_max(raw_social)
    entries = []
    for n in candidates:
        semantic = default_keyword_score(n, query.keywords) if query.keywords else 1.0
        has_evidence = (query.keywords and semantic > 0) or raw_social[n.id] > 0
        combined = cfg.alpha * semantic + (1 - cfg.alpha) * social[n.id]
        if has_evidence and combined > 0:
            entries.append((n.id, combined, semantic, social[n.id]))
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
    justify them (contributing peers included). Each element is copied
    with its link's endpoints, so of ``build_graph``'s checks only one
    can fail: a match link id equal to a node id."""
    ranked_ids = [item for item, *_ in ranking]
    nodes = {user_id: g.nodes[user_id]}
    for item in ranked_ids:
        nodes[item] = g.nodes[item]
    links = {}
    ranked_set = set(ranked_ids)
    for ml in match_graph.links.values():
        peer = ml.tgt
        peer_visits = [
            l for l in g.out_links.get(peer, ()) if l.tgt in ranked_set and _is_visit(l)
        ]
        if peer_visits:
            nodes[peer] = g.nodes[peer]
            links[ml.id] = ml
            for l in peer_visits:
                links[l.id] = l
    for l in links.values():
        if l.id in nodes:
            raise DuplicateIdError(l.id)
    return SocialContentGraph(nodes=nodes, links=links)
