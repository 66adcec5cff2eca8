"""Naive references for the engine's indexed and compiled code paths.

Each function here is the plain full-scan, nested-loop, re-sorting or
materialising version of something the package now does through a
derived view, a hash join, a compiled predicate, a k-bounded ranked list,
a stream or one shared helper (the greedy-leader loop, item similarity,
the ordered group-by). ``test_differential.py`` checks the two agree on
results, link order, generated ids and the number of exact-score calls.
"""

from __future__ import annotations

from socialgraph import index as sgindex
from socialgraph.aggfn import LinkCtx, apply_composition, jaccard
from socialgraph.algebra import _merge_nodes
from socialgraph.discovery import VISIT, acted_items, rating
from socialgraph.errors import UnknownUserError
from socialgraph.graph import Link, build_graph, opposite, satisfies, sorted_values
from socialgraph.index import ClusterModel, social_sets
from socialgraph.presentation import RESIDUAL, _label_from, _make_group


def satisfies_predicate(condition):
    """The generic selection predicate: ``satisfies`` per element."""
    return lambda e: satisfies(e, condition)


def compose_nested(g1, g2, delta, f):
    """Composition as a nested loop over every (g1 link, g2 link) pair."""
    nodes: dict = {}
    links = []
    far1, far2 = opposite(delta.d1), opposite(delta.d2)
    for l1 in g1.links.values():
        for l2 in g2.links.values():
            if l1.endpoint(delta.d1) != l2.endpoint(delta.d2):
                continue
            u, v = l1.endpoint(far1), l2.endpoint(far2)
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
                nodes[nid] = _merge_nodes(nodes[nid], n) if nid in nodes else n
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
    contributing = set()
    visit_links = [l for l in g.links.values() if satisfies(l, VISIT) and l.tgt in ranked_set]
    for ml in match_graph.links.values():
        peer = ml.tgt
        peer_visits = [l for l in visit_links if l.src == peer]
        if peer_visits:
            contributing.add(peer)
            links[ml.id] = ml
            for l in peer_visits:
                links[l.id] = l
    for peer in contributing:
        nodes[peer] = g.nodes[peer]
    return build_graph(nodes.values(), links.values())


def topk_resort(index, user, keywords, k):
    """``topk_query`` keeping every seen item and re-sorting all of them
    after each round-robin round. Exact scores go through the module
    global ``index.exact_score``, as in ``topk_query``, so a counter
    patched in there sees both."""
    keywords = list(keywords)
    if k < 1:
        raise ValueError("k must be at least 1")
    cluster = index.model.assignment.get(user)
    if cluster is None:
        raise UnknownUserError(user)
    lists = [index.lists.get((kw, cluster), ()) for kw in keywords]
    pos = [0] * len(lists)
    seen: dict = {}
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
    only: the materialised form of ``index._exact_tag_scores``."""
    befriended: dict = {}
    for u, net in sets.network.items():
        for v in net:
            befriended.setdefault(v, []).append(u)
    out: dict = {}
    for key, tagger_set in sets.taggers.items():
        counts: dict = {}
        for t in tagger_set:
            for u in befriended.get(t, ()):
                counts[u] = counts.get(u, 0) + 1
        if counts:
            out[key] = counts
    return out


def cluster_users_scan(sets, strategy):
    """``cluster_users`` as its own greedy-leader loop over leader ids;
    hybrid users with an empty network found a cluster unasked."""
    assignment: dict = {}
    leaders: dict = {}
    order: list = []  # leader ids, in founding order
    for u in sets.users:
        placed = None
        if not (strategy.kind == "hybrid" and not sets.network.get(u)):
            for leader in order:
                if sgindex._predicate(strategy, sets, u, leader):
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
